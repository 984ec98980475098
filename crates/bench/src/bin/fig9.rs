//! Figure 9: overheads of the distributed protocols — (a) per-block
//! fetch-latency components and (b) per-block commit-latency components,
//! as a function of composition size.
//!
//! Paper shape: prediction+tag are constant; hand-off and fetch-command
//! distribution grow with core count; dispatch time shrinks as fetch
//! bandwidth scales. For commit, handshaking grows with distance while
//! the architectural-state update shrinks with added bandwidth.

use clp_bench::cli::FigObs;
use clp_bench::{save_json, sweep_suite_resilient_observed, CellFailure, SWEEP_SIZES};
use clp_sim::{CommitLatencyBreakdown, FetchLatencyBreakdown};
use clp_workloads::suite;
use serde::Serialize;

#[derive(Serialize)]
struct Point {
    cores: usize,
    fetch: FetchLatencyBreakdown,
    commit: CommitLatencyBreakdown,
}

#[derive(Serialize)]
struct Out {
    series: Vec<Point>,
    failures: Vec<CellFailure>,
}

fn main() {
    let fig = FigObs::parse_env("fig9");
    let (rows, failures) =
        sweep_suite_resilient_observed(&suite::all(), &SWEEP_SIZES, &fig.obs_options())
            .complete_rows();
    for f in &failures {
        eprintln!("warning: dropping failed cell {f}");
    }
    let mut series = Vec::new();
    for (i, &n) in SWEEP_SIZES.iter().enumerate() {
        let mut fetch = FetchLatencyBreakdown::default();
        let mut commit = CommitLatencyBreakdown::default();
        let count = rows.len() as f64;
        for r in &rows {
            // Figure inputs come through the stats registry, addressed by
            // stable path rather than struct-field plucking.
            let snap = &r.tflex[i].1.snapshot;
            fetch.prediction += snap.expect("proc0/fetch_latency/prediction") / count;
            fetch.tag_access += snap.expect("proc0/fetch_latency/tag_access") / count;
            fetch.hand_off += snap.expect("proc0/fetch_latency/hand_off") / count;
            fetch.fetch_distribution +=
                snap.expect("proc0/fetch_latency/fetch_distribution") / count;
            fetch.dispatch += snap.expect("proc0/fetch_latency/dispatch") / count;
            commit.handshake += snap.expect("proc0/commit_latency/handshake") / count;
            commit.arch_update += snap.expect("proc0/commit_latency/arch_update") / count;
        }
        series.push(Point {
            cores: n,
            fetch,
            commit,
        });
    }

    println!("Figure 9a: distributed fetch latency per block (cycles, suite average)");
    println!(
        "{:>5} {:>10} {:>5} {:>9} {:>10} {:>9} {:>7}",
        "cores", "predict", "tag", "hand-off", "fetch-dist", "dispatch", "total"
    );
    for p in &series {
        println!(
            "{:>5} {:>10.1} {:>5.1} {:>9.1} {:>10.1} {:>9.1} {:>7.1}",
            p.cores,
            p.fetch.prediction,
            p.fetch.tag_access,
            p.fetch.hand_off,
            p.fetch.fetch_distribution,
            p.fetch.dispatch,
            p.fetch.total()
        );
    }
    println!();
    println!("Figure 9b: distributed commit latency per block (cycles, suite average)");
    println!(
        "{:>5} {:>10} {:>12} {:>7}",
        "cores", "handshake", "arch-update", "total"
    );
    for p in &series {
        println!(
            "{:>5} {:>10.1} {:>12.1} {:>7.1}",
            p.cores,
            p.commit.handshake,
            p.commit.arch_update,
            p.commit.total()
        );
    }

    save_json("fig9.json", &Out { series, failures });
    fig.save_sweep_snapshots(&rows);
}
