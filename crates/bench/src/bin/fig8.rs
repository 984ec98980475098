//! Figure 8: power efficiency — performance²/Watt for TFlex compositions
//! and TRIPS, normalized to one TFlex core.
//!
//! Paper shape: the most power-efficient fixed composition is 8 cores;
//! picking per-application BEST adds ~22%; fixed 8-core TFlex is ~1.64x
//! more power-efficient than TRIPS.

use clp_bench::cli::FigObs;
use clp_bench::{
    geomean, order_by_ilp, save_json, sweep_suite_resilient_observed, CellFailure, SWEEP_SIZES,
};
use clp_power::perf2_per_watt;
use clp_workloads::suite;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    name: &'static str,
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
    let fig = FigObs::parse_env("fig8");
    let (mut rows, failures) =
        sweep_suite_resilient_observed(&suite::all(), &SWEEP_SIZES, &fig.obs_options())
            .complete_rows();
    for f in &failures {
        eprintln!("warning: dropping failed cell {f}");
    }
    order_by_ilp(&mut rows);

    println!("Figure 8: performance^2/Watt normalized to one TFlex core");
    println!(
        "{:<10} {:>6} {:>6} {:>6} {:>6} {:>6} {:>6} {:>6}  {:>5}",
        "benchmark", "x1", "x2", "x4", "x8", "x16", "x32", "TRIPS", "peak"
    );
    let mut out = Vec::new();
    for r in &rows {
        let base = perf2_per_watt(r.cycles_at(1), r.tflex[0].1.power.total());
        let eff: Vec<(usize, f64)> = r
            .tflex
            .iter()
            .map(|(n, o)| (*n, perf2_per_watt(o.cycles(), o.power.total()) / base))
            .collect();
        let trips_eff = perf2_per_watt(r.trips.cycles(), r.trips.power.total()) / base;
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
    let mut best_fixed = (0usize, f64::MIN);
    for &n in &SWEEP_SIZES {
        let avg = geomean(
            &out.iter()
                .map(|r| r.efficiency.iter().find(|(c, _)| *c == n).expect("swept").1)
                .collect::<Vec<_>>(),
        );
        if avg > best_fixed.1 {
            best_fixed = (n, avg);
        }
        println!("AVG x{n:<2}: {avg:.2}");
    }
    let avg_best = geomean(
        &out.iter()
            .map(|r| {
                r.efficiency
                    .iter()
                    .map(|&(_, e)| e)
                    .fold(f64::MIN, f64::max)
            })
            .collect::<Vec<_>>(),
    );
    let avg_trips = geomean(&out.iter().map(|r| r.trips).collect::<Vec<_>>());
    let avg8 = geomean(
        &out.iter()
            .map(|r| r.efficiency.iter().find(|(c, _)| *c == 8).expect("swept").1)
            .collect::<Vec<_>>(),
    );
    println!(
        "best fixed composition: {} cores (paper: 8); BEST/best-fixed: {:+.0}% (paper: +22%)",
        best_fixed.0,
        100.0 * (avg_best / best_fixed.1 - 1.0)
    );
    println!(
        "8-core TFlex vs TRIPS: {:.2}x (paper: ~1.64x)",
        avg8 / avg_trips
    );

    save_json(
        "fig8.json",
        &Out {
            rows: out,
            failures,
        },
    );
    fig.save_sweep_snapshots(&rows);
}
