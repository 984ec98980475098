//! clp-prof: critical-path extraction and top-down cycle accounting for
//! composed processors.
//!
//! ```sh
//! cargo run --release -p clp-bench --bin clp-prof -- conv 16
//! cargo run --release -p clp-bench --bin clp-prof -- --suite --json
//! ```
//!
//! Runs one workload (or the whole built-in suite with `--suite`) with
//! the profiler enabled and prints, per workload:
//!
//! * the top-down breakdown table — one row per cycle-accounting bucket,
//!   summing exactly to the run's critical-path cycles;
//! * a per-core contribution heatmap shaped like the operand mesh;
//! * the hottest operand-mesh links on the critical path.
//!
//! `--json` replaces the tables with the pinned `clp-prof-v1` schema on
//! stdout (one top-level object; per-run reports under `"runs"`).
//! `--cores N` picks the composition size (default 16); `--top-links N`
//! bounds the link list (default 8).

use clp_bench::cli::print_runs;
use clp_core::cli::{die, Flags};
use clp_core::{compile_workload, run_compiled_observed, ObsOptions, ProcessorConfig};
use clp_workloads::Workload;
use serde::Value;

const PROG: &str = "clp-prof";

struct Args {
    workloads: Vec<Workload>,
    cores: usize,
    json: bool,
    top_links: usize,
}

fn parse_args() -> Args {
    let (mut suite, mut json, mut cores, mut top_links) = (false, false, 16, 8);
    let mut flags = Flags::from_env(PROG);
    while let Some(flag) = flags.next_flag() {
        match flag.as_str() {
            "--suite" => suite = true,
            "--json" => json = true,
            "--cores" => cores = flags.at_least(&flag, 1),
            "--top-links" => top_links = flags.parse(&flag),
            _ => flags.unknown(&flag),
        }
    }
    let (workloads, one) = flags.suite_or_one(suite);
    Args {
        workloads,
        cores: one.unwrap_or(cores),
        json,
        top_links,
    }
}

fn main() {
    let args = parse_args();
    let mut runs: Vec<Value> = Vec::new();
    for w in &args.workloads {
        let name = w.name;
        let cw = compile_workload(w).unwrap_or_else(|e| die(PROG, format!("{name}: {e}")));
        let obs = ObsOptions {
            profile: true,
            ..ObsOptions::default()
        };
        let r = run_compiled_observed(&cw, &ProcessorConfig::tflex(args.cores), &obs)
            .unwrap_or_else(|e| die(PROG, format!("{name} on {} cores: {e}", args.cores)));
        let report = r.profile.expect("profiling was enabled");
        if args.json {
            runs.push(Value::Object(vec![
                ("workload".to_string(), Value::String(name.to_string())),
                ("cores".to_string(), Value::UInt(args.cores as u64)),
                ("cycles".to_string(), Value::UInt(r.stats.cycles)),
                ("ipc".to_string(), Value::Float(r.stats.procs[0].ipc())),
                ("profile".to_string(), report.to_json_value()),
            ]));
        } else {
            println!(
                "== {name} on {} cores: {} cycles, critical path {} ==",
                args.cores,
                r.stats.cycles,
                report.crit_path_cycles()
            );
            print!("{}", report.render_breakdown());
            println!("per-core critical cycles:");
            print!("{}", report.render_core_heatmap());
            println!("hottest operand links:");
            print!("{}", report.render_links(args.top_links));
            println!();
        }
    }
    if args.json {
        print_runs("clp-prof-v1", runs);
    }
}
