//! Figure 7: area efficiency — performance per area, `1/(cycles x mm²)`,
//! for TFlex compositions and TRIPS, normalized to one TFlex core.
//!
//! Paper shape: area efficiency peaks at one or two cores for most
//! benchmarks; beyond two cores performance grows more slowly than area.

use clp_bench::cli::FigObs;
use clp_bench::{
    geomean, order_by_ilp, save_json, sweep_suite_resilient_observed, CellFailure, SWEEP_SIZES,
};
use clp_power::perf_per_area;
use clp_workloads::suite;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    name: &'static str,
    /// `(cores, perf-per-area normalized to 1 core)`.
    efficiency: Vec<(usize, f64)>,
    trips: f64,
    peak_size: usize,
}

#[derive(Serialize)]
struct Out {
    rows: Vec<Row>,
    failures: Vec<CellFailure>,
}

fn main() {
    let fig = FigObs::parse_env("fig7");
    let (mut rows, failures) =
        sweep_suite_resilient_observed(&suite::all(), &SWEEP_SIZES, &fig.obs_options())
            .complete_rows();
    for f in &failures {
        eprintln!("warning: dropping failed cell {f}");
    }
    order_by_ilp(&mut rows);

    println!("Figure 7: performance/area normalized to one TFlex core");
    println!(
        "{:<10} {:>6} {:>6} {:>6} {:>6} {:>6} {:>6} {:>6}  {:>5}",
        "benchmark", "x1", "x2", "x4", "x8", "x16", "x32", "TRIPS", "peak"
    );
    let mut out = Vec::new();
    for r in &rows {
        let base = perf_per_area(r.cycles_at(1), r.tflex[0].1.area_mm2);
        let eff: Vec<(usize, f64)> = r
            .tflex
            .iter()
            .map(|(n, o)| (*n, perf_per_area(o.cycles(), o.area_mm2) / base))
            .collect();
        let trips_eff = perf_per_area(r.trips.cycles(), r.trips.area_mm2) / base;
        let peak = eff
            .iter()
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .map(|(n, _)| *n)
            .expect("swept");
        print!("{:<10}", r.workload.name);
        for (_, e) in &eff {
            print!(" {e:>6.2}");
        }
        println!(" {trips_eff:>6.2}  {peak:>5}");
        out.push(Row {
            name: r.workload.name,
            efficiency: eff,
            trips: trips_eff,
            peak_size: peak,
        });
    }

    println!();
    for &n in &SWEEP_SIZES {
        let avg = geomean(
            &out.iter()
                .map(|r| r.efficiency.iter().find(|(c, _)| *c == n).expect("swept").1)
                .collect::<Vec<_>>(),
        );
        println!("AVG x{n:<2}: {avg:.2}");
    }
    let peaks_small = out.iter().filter(|r| r.peak_size <= 2).count();
    println!(
        "peak at 1-2 cores for {}/{} benchmarks (paper: most)",
        peaks_small,
        out.len()
    );
    let avg_trips = geomean(&out.iter().map(|r| r.trips).collect::<Vec<_>>());
    let best_eff_avg = geomean(
        &out.iter()
            .map(|r| {
                r.efficiency
                    .iter()
                    .map(|&(_, e)| e)
                    .fold(f64::MIN, f64::max)
            })
            .collect::<Vec<_>>(),
    );
    println!(
        "best-per-app/TRIPS area efficiency: {:.2}x (paper: ~3.4x)",
        best_eff_avg / avg_trips
    );

    save_json(
        "fig7.json",
        &Out {
            rows: out,
            failures,
        },
    );
    fig.save_sweep_snapshots(&rows);
}
