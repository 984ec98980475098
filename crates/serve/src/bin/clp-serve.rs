//! The clp-serve driver: generate a seeded job schedule, run the
//! service to full drain, and report.
//!
//! ```sh
//! # A quick chaotic run: 24 jobs, a planted panic, a doomed kill job.
//! cargo run --release -p clp-serve -- \
//!     --jobs 24 --seed 7 --plant-panic 5 --kill-core 11@800
//!
//! # Regenerate the committed benchmark document.
//! cargo run --release -p clp-serve -- --bench --json BENCH_serve.json
//!
//! # CI gate: rerun the pinned configuration and compare.
//! cargo run --release -p clp-serve -- --bench --check BENCH_serve.json
//!
//! # Regenerate the committed scope golden.
//! cargo run --release -p clp-serve -- --bench --scope-json SCOPE_serve.json
//! ```
//!
//! `--bench` pins the full configuration ([`ArrivalConfig::bench`] and
//! [`ServiceConfig::bench`]: seed 42, 48 jobs, 4 workers, tight-budget
//! jobs, planted panics, and a no-survivor core kill) so the resulting
//! `clp-serve-v1` document is byte-reproducible; it refuses the
//! scheduling flags it would overwrite. `--check <path>` reruns it and
//! compares against the committed baseline with a latency/throughput
//! threshold (default 10%), exiting 1 on regression.
//!
//! `--scope` turns on the clp-scope recorder and prints the fleet
//! breakdown, the service time series and its phase table after the
//! run; `--scope-period N` sets the series interval in ticks (default
//! 5000); `--scope-json <path>` writes the full `clp-scope-v1` document
//! and `--perfetto <path>` a Chrome trace-event file of the span trees
//! and worker tracks. Scope is observational: with it off the run takes
//! the identical code path, and with it on the `clp-serve-v1` report
//! bytes do not change.
//!
//! Exit codes: 0 = drained with no check regression, 1 = `--check`
//! found a regression, 2 = usage error.

use clp_core::cli::{die, Flags};
use clp_obs::ScopeOptions;
use clp_serve::{arrivals, report, service, ArrivalConfig, ServiceConfig, ServiceReport};
use serde::Value;

const PROG: &str = "clp-serve";

#[derive(Default)]
struct Args {
    acfg: ArrivalConfig,
    scfg: ServiceConfig,
    json: Option<String>,
    /// `--check`: the baseline's path and document, loaded before the run.
    check: Option<(String, Value)>,
    threshold: f64,
    scope: bool,
    scope_period: u64,
    scope_json: Option<String>,
    perfetto: Option<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        acfg: ArrivalConfig {
            jobs: 24,
            seed: 7,
            ..ArrivalConfig::default()
        },
        scfg: ServiceConfig {
            seed: 7,
            ..ServiceConfig::default()
        },
        threshold: 10.0,
        scope_period: 5_000,
        ..Args::default()
    };
    let (acfg, scfg) = (&mut args.acfg, &mut args.scfg);
    let (mut bench, mut check) = (false, None);
    // The last scheduling flag given.
    let mut scheduling = None;
    let mut flags = Flags::from_env(PROG);
    while let Some(flag) = flags.next_flag() {
        match flag.as_str() {
            "--threshold" => args.threshold = flags.at_least(&flag, 0.0),
            "--json" => args.json = Some(flags.value(&flag)),
            "--bench" => bench = true,
            "--check" => check = Some(flags.value(&flag)),
            "--scope" => args.scope = true,
            "--scope-period" => args.scope_period = flags.at_least(&flag, 1),
            "--scope-json" => args.scope_json = Some(flags.value(&flag)),
            "--perfetto" => args.perfetto = Some(flags.value(&flag)),
            // The scheduling flags, each one refused with `--bench`.
            _ => {
                match flag.as_str() {
                    "--jobs" => acfg.jobs = flags.parse(&flag),
                    "--seed" => {
                        acfg.seed = flags.parse(&flag);
                        scfg.seed = acfg.seed;
                    }
                    "--workers" => scfg.workers = flags.at_least(&flag, 1),
                    "--queue-cap" => scfg.queue_cap = flags.at_least(&flag, 1),
                    "--degrade-at" => scfg.degrade_at = flags.at_least(&flag, 1),
                    "--mean-gap" => acfg.mean_gap = flags.at_least(&flag, 1),
                    "--budget" => acfg.budget = flags.parse(&flag),
                    "--tight-every" => acfg.tight_every = flags.parse(&flag),
                    "--tight-budget" => acfg.tight_budget = flags.parse(&flag),
                    "--retries" => scfg.max_retries = flags.parse(&flag),
                    "--plant-panic" => acfg.plant_panic.push(flags.parse(&flag)),
                    "--kill-core" => {
                        // JOB@CYCLE: job JOB's first attempt kills its
                        // (only) core at CYCLE — a guaranteed recovery
                        // failure.
                        let v = flags.value(&flag);
                        let kill = v.split_once('@').and_then(|(j, c)| {
                            Some((j.trim().parse().ok()?, c.trim().parse().ok()?))
                        });
                        acfg.kill_at.push(kill.unwrap_or_else(|| {
                            flags.die(format!("bad --kill-core `{v}` (expected JOB@CYCLE)"))
                        }));
                    }
                    _ => flags.unknown(&flag),
                }
                scheduling = Some(flag);
            }
        }
    }
    flags.positionals(0);
    if bench {
        if let Some(flag) = scheduling {
            flags.die(format!(
                "{flag} cannot be combined with --bench, which pins it"
            ));
        }
        args.acfg = ArrivalConfig::bench();
        args.scfg = ServiceConfig::bench();
    }
    if let Some(path) = check {
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| flags.die(format!("cannot read baseline `{path}`: {e}")));
        let doc = serde_json::from_str(&text)
            .unwrap_or_else(|e| flags.die(format!("baseline `{path}` is not JSON: {e}")));
        args.check = Some((path, doc));
    }
    args
}

fn main() {
    let args = parse_args();
    let schedule = arrivals::generate(&args.acfg);
    let want_scope = args.scope || args.scope_json.is_some() || args.perfetto.is_some();
    let sopts = want_scope.then_some(ScopeOptions {
        period: args.scope_period,
    });
    let (result, scope) = service::serve_scoped(schedule, &args.scfg, sopts.as_ref());
    let rep = ServiceReport::new(&args.acfg, &args.scfg, &result);

    let t = &rep.totals;
    println!(
        "clp-serve: {} submitted, {} completed, {} shed, {} invalid, \
         {} permanent, {} exhausted ({} retries)",
        t.submitted,
        t.completed,
        t.rejected_overloaded,
        t.rejected_invalid,
        t.failed_permanent,
        t.exhausted,
        t.retries,
    );
    println!(
        "[faults: {} deadline kills, {} panics, {} respawns, {} transient, {} degraded]",
        t.deadline_kills, t.panics, t.respawns, t.transient_failures, t.degraded,
    );
    println!(
        "[cache: {} hits, {} misses, {} programs, {} lint warnings]",
        t.cache_hits, t.cache_misses, t.cache_entries, t.lint_warnings,
    );
    // No completed jobs means no percentiles; print `-` rather than a
    // fake zero.
    let tick = |v: Option<u64>| v.map_or("-".to_string(), |t| t.to_string());
    println!(
        "[latency: p50 {} p90 {} p99 {} max {} ticks; throughput {:.3}/ktick; drained at {}]",
        tick(rep.latency_ticks.p50),
        tick(rep.latency_ticks.p90),
        tick(rep.latency_ticks.p99),
        tick(rep.latency_ticks.max),
        rep.throughput_per_ktick,
        t.drained_at,
    );

    if let Some(path) = &args.json {
        std::fs::write(path, rep.to_json())
            .unwrap_or_else(|e| die(PROG, format!("cannot write `{path}`: {e}")));
        println!("[report -> {path}]");
    }
    if let Some(sr) = &scope {
        if args.scope {
            println!("{}", sr.render_summary());
            print!("{}", sr.render_fleet());
            print!("{}", sr.series.render_timeline());
            print!("{}", sr.series.render_phase_table());
        }
        if let Some(path) = &args.scope_json {
            std::fs::write(path, sr.to_json())
                .unwrap_or_else(|e| die(PROG, format!("cannot write `{path}`: {e}")));
            println!("[scope -> {path}]");
        }
        if let Some(path) = &args.perfetto {
            std::fs::write(path, sr.to_perfetto())
                .unwrap_or_else(|e| die(PROG, format!("cannot write `{path}`: {e}")));
            println!("[perfetto -> {path}]");
        }
    }
    if let Some((path, baseline)) = &args.check {
        let regressions = report::check(baseline, &rep, args.threshold);
        if regressions.is_empty() {
            println!(
                "[check: OK against {path} (threshold {:.0}%)]",
                args.threshold
            );
        } else {
            for r in &regressions {
                eprintln!("clp-serve: REGRESSION: {r}");
            }
            std::process::exit(1);
        }
    }
}
