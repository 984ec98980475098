//! Figure 6: speedup of TFlex compositions (2–32 cores) and TRIPS over a
//! single TFlex core, per benchmark, plus AVG and BEST.
//!
//! Paper shape: 16-core TFlex averages ~3.5x over one core; BEST adds
//! ~13% more (~4x); 8-core TFlex beats TRIPS by ~19%; BEST beats TRIPS
//! by ~42%.

use clp_bench::cli::FigObs;
use clp_bench::{
    geomean, order_by_ilp, save_json, sweep_suite_resilient_observed, CellFailure, SWEEP_SIZES,
};
use clp_workloads::suite;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    name: &'static str,
    ilp: String,
    speedups: Vec<(usize, f64)>,
    trips: f64,
    best_size: usize,
    best: f64,
}

#[derive(Serialize)]
struct Out {
    rows: Vec<Row>,
    failures: Vec<CellFailure>,
}

fn main() {
    let fig = FigObs::parse_env("fig6");
    let workloads = suite::all();
    let (mut rows, failures) =
        sweep_suite_resilient_observed(&workloads, &SWEEP_SIZES, &fig.obs_options())
            .complete_rows();
    for f in &failures {
        eprintln!("warning: dropping failed cell {f}");
    }
    order_by_ilp(&mut rows);

    println!("Figure 6: speedup over one TFlex core");
    println!(
        "{:<10} {:>4} {:>6} {:>6} {:>6} {:>6} {:>6} {:>6} {:>6} {:>6}",
        "benchmark", "ilp", "x2", "x4", "x8", "x16", "x32", "TRIPS", "BESTn", "BEST"
    );
    let mut out = Vec::new();
    for r in &rows {
        let s: Vec<(usize, f64)> = SWEEP_SIZES.iter().map(|&n| (n, r.speedup_at(n))).collect();
        let trips_speedup = r.cycles_at(1) as f64 / r.trips.cycles() as f64;
        println!(
            "{:<10} {:>4} {:>6.2} {:>6.2} {:>6.2} {:>6.2} {:>6.2} {:>6.2} {:>6} {:>6.2}",
            r.workload.name,
            format!("{:?}", r.workload.ilp).to_lowercase(),
            r.speedup_at(2),
            r.speedup_at(4),
            r.speedup_at(8),
            r.speedup_at(16),
            r.speedup_at(32),
            trips_speedup,
            r.best_size(),
            r.best_speedup(),
        );
        out.push(Row {
            name: r.workload.name,
            ilp: format!("{:?}", r.workload.ilp),
            speedups: s,
            trips: trips_speedup,
            best_size: r.best_size(),
            best: r.best_speedup(),
        });
    }

    println!();
    for &n in &SWEEP_SIZES[1..] {
        let avg = geomean(&rows.iter().map(|r| r.speedup_at(n)).collect::<Vec<_>>());
        println!("AVG  x{n:<2}: {avg:.2}");
    }
    let avg_best = geomean(&rows.iter().map(|r| r.best_speedup()).collect::<Vec<_>>());
    let avg_trips = geomean(
        &rows
            .iter()
            .map(|r| r.cycles_at(1) as f64 / r.trips.cycles() as f64)
            .collect::<Vec<_>>(),
    );
    let avg8_vs_trips = geomean(&rows.iter().map(|r| r.vs_trips_at(8)).collect::<Vec<_>>());
    let best_vs_trips = geomean(
        &rows
            .iter()
            .map(|r| r.trips.cycles() as f64 / r.cycles_at(r.best_size()) as f64)
            .collect::<Vec<_>>(),
    );
    println!("AVG  BEST: {avg_best:.2}  (paper: ~4x, +13% over the best fixed size)");
    println!("AVG  TRIPS: {avg_trips:.2}");
    println!("8-core TFlex vs TRIPS: {avg8_vs_trips:.2}x  (paper: ~1.19x)");
    println!("BEST TFlex  vs TRIPS: {best_vs_trips:.2}x  (paper: ~1.42x)");

    save_json(
        "fig6.json",
        &Out {
            rows: out,
            failures,
        },
    );
    fig.save_sweep_snapshots(&rows);
}
