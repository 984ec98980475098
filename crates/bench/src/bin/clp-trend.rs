//! clp-trend: deterministic time-series telemetry and phase detection
//! for composed processors.
//!
//! ```sh
//! cargo run --release -p clp-bench --bin clp-trend -- conv 16
//! cargo run --release -p clp-bench --bin clp-trend -- --suite --json
//! cargo run --release -p clp-bench --bin clp-trend -- conv --paths mem/l1d_misses,operand_net/msgs_delivered
//! ```
//!
//! Runs one workload (or the whole built-in suite with `--suite`) with
//! trend recording enabled and prints, per workload, the ASCII IPC
//! timeline with phase boundaries and the phase table with per-phase
//! bucket breakdowns.
//!
//! `--json` replaces the tables with pinned `clp-trend-v1` documents on
//! stdout (one top-level object; per-run reports under `"runs"`).
//! `--cores N` picks the composition size (default 16); `--period N`
//! the interval width in cycles (default 1000); `--paths a,b,c` records
//! extra stats-registry columns; `--phase-window N` and `--threshold N`
//! tune the change-point detector; `--perfetto <path>` additionally
//! writes the series as Chrome counter tracks.

use clp_bench::cli::print_runs;
use clp_core::cli::{die, Flags};
use clp_core::{compile_workload, run_compiled_observed, ObsOptions, ProcessorConfig};
use clp_obs::TrendOptions;
use clp_workloads::Workload;
use serde::Value;

const PROG: &str = "clp-trend";

#[derive(Default)]
struct Args {
    workloads: Vec<Workload>,
    cores: usize,
    json: bool,
    period: u64,
    paths: Vec<String>,
    phase_window: usize,
    threshold: u64,
    perfetto: Option<String>,
}

fn parse_args() -> Args {
    let mut suite = false;
    let mut args = Args {
        cores: 16,
        period: 1000,
        phase_window: 4,
        threshold: 150,
        ..Args::default()
    };
    let mut flags = Flags::from_env(PROG);
    while let Some(flag) = flags.next_flag() {
        match flag.as_str() {
            "--suite" => suite = true,
            "--json" => args.json = true,
            "--cores" => args.cores = flags.at_least(&flag, 1),
            "--period" => args.period = flags.at_least(&flag, 1),
            "--paths" => {
                let v = flags.value(&flag);
                args.paths
                    .extend(v.split(',').filter(|s| !s.is_empty()).map(String::from));
            }
            "--phase-window" => args.phase_window = flags.at_least(&flag, 1),
            "--threshold" => args.threshold = flags.parse(&flag),
            "--perfetto" => args.perfetto = Some(flags.value(&flag)),
            _ => flags.unknown(&flag),
        }
    }
    let (workloads, cores) = flags.suite_or_one(suite);
    args.workloads = workloads;
    args.cores = cores.unwrap_or(args.cores);
    args
}

fn main() {
    let args = parse_args();
    let trend_opts = TrendOptions {
        period: args.period,
        paths: args.paths.clone(),
        phase_window: args.phase_window,
        phase_threshold: args.threshold,
        ..TrendOptions::default()
    };
    let obs = ObsOptions {
        trend: Some(trend_opts),
        ..ObsOptions::default()
    };
    let mut runs: Vec<Value> = Vec::new();
    for w in &args.workloads {
        let name = w.name;
        let cw = compile_workload(w).unwrap_or_else(|e| die(PROG, format!("{name}: {e}")));
        let r = run_compiled_observed(&cw, &ProcessorConfig::tflex(args.cores), &obs)
            .unwrap_or_else(|e| die(PROG, format!("{name} on {} cores: {e}", args.cores)));
        let trend = r.trend.expect("trend recording was enabled");
        if let Some(path) = &args.perfetto {
            std::fs::write(path, trend.to_chrome_trace())
                .unwrap_or_else(|e| die(PROG, format!("cannot write `{path}`: {e}")));
            println!("[perfetto counters -> {path}]");
        }
        if args.json {
            runs.push(Value::Object(vec![
                ("workload".to_string(), Value::String(name.to_string())),
                ("cores".to_string(), Value::UInt(args.cores as u64)),
                ("trend".to_string(), trend.to_json_value()),
            ]));
        } else {
            println!(
                "== {name} on {} cores: {} cycles ==",
                args.cores, trend.cycles
            );
            print!("{}", trend.render_timeline());
            print!("{}", trend.render_phase_table());
            println!();
        }
    }
    if args.json {
        print_runs("clp-trend-suite-v1", runs);
    }
}
