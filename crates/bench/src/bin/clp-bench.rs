//! clp-bench: the performance-regression harness.
//!
//! ```sh
//! cargo run --release -p clp-bench --bin clp-bench            # write BENCH_suite.json
//! cargo run --release -p clp-bench --bin clp-bench -- \
//!     --check BENCH_baseline.json --threshold 2               # CI regression gate
//! ```
//!
//! Runs the built-in suite at 1/2/4/8/16 cores with the clp-prof layer
//! enabled and emits `BENCH_suite.json` (pinned `clp-bench-v1` schema:
//! cycles, IPC, and the top-down cycle-accounting buckets per cell) in
//! the current directory. With `--check <baseline>` it instead compares
//! every `(workload, cores)` cell's cycle count against the committed
//! baseline and exits 1 if any cell regressed by more than
//! `--threshold` percent (default 2) or disappeared — the CI perf gate.
//! The simulator is deterministic, so the threshold only leaves room
//! for intentional modeling changes, which must re-baseline.
//!
//! `--explain` augments every regressed cell with clp-diff bucket
//! attribution: the cycle-accounting buckets that moved between the
//! baseline's recorded breakdown and the fresh measurement, largest
//! movers first — so a gate failure names *what got slower*, not just
//! that something did. It also reports the cell's clp-bound static
//! cycle floor and how the measured/bound tightness ratio moved, which
//! tells whether the regression ate into genuine headroom or the cell
//! was already near its dataflow/resource floor.
//!
//! `--time` switches to the wall-clock harness: every `(workload,
//! cores)` cell is simulated serially (no harness-level parallelism,
//! no profiling layer) `--reps` times (default 3) and the fastest
//! run's wall time is recorded to `BENCH_wallclock.json`. With
//! `--speedup <baseline>` the
//! fresh times are divided into a committed serial-baseline artifact
//! (same schema, recorded from the pre-event-engine stepper — see
//! DESIGN.md "Execution engine") and the per-cell and per-size
//! speedups land in `BENCH_speedup.json`.

use clp_bench::cli::load_json;
use clp_core::cli::{die, Flags};
use clp_core::{compile_workload, run_compiled_observed, ObsOptions, ProcessorConfig};
use clp_obs::attribute_buckets;
use clp_workloads::suite;
use serde::Value;
use std::sync::mpsc;
use std::thread;

const PROG: &str = "clp-bench";

/// The composition sizes of the regression matrix.
const BENCH_SIZES: [usize; 5] = [1, 2, 4, 8, 16];

/// A baseline cell: `(workload, cores) -> (cycles, buckets)`.
type BaselineCell = ((String, u64), (u64, Value));

/// A serial-baseline cell: `(workload, cores) -> wall ms`.
type BaselineWall = ((String, u64), f64);

struct Args {
    out: String,
    /// `--check`: the baseline's path and cells, loaded before the run.
    check: Option<(String, Vec<BaselineCell>)>,
    threshold: f64,
    explain: bool,
    time: bool,
    reps: usize,
    /// `--speedup`: the serial baseline's path and wall times.
    speedup: Option<(String, Vec<BaselineWall>)>,
}

fn parse_args() -> Args {
    let (mut out, mut check, mut threshold, mut explain) = (None, None, 2.0, false);
    let (mut time, mut reps, mut speedup) = (false, None, None);
    let mut flags = Flags::from_env(PROG);
    while let Some(flag) = flags.next_flag() {
        match flag.as_str() {
            "--out" => out = Some(flags.value(&flag)),
            "--check" => check = Some(flags.value(&flag)),
            "--explain" => explain = true,
            "--time" => time = true,
            "--speedup" => speedup = Some(flags.value(&flag)),
            "--reps" => reps = Some(flags.at_least(&flag, 1)),
            "--threshold" => threshold = flags.at_least(&flag, 0.0),
            _ => flags.unknown(&flag),
        }
    }
    flags.positionals(0);
    // Refuse flags the chosen mode would silently ignore.
    if time && (check.is_some() || explain || out.is_some()) {
        flags.die("--check, --explain and --out do not apply with --time");
    }
    if !time && (reps.is_some() || speedup.is_some()) {
        flags.die("--reps and --speedup need --time");
    }
    if explain && check.is_none() {
        flags.die("--explain needs --check");
    }
    // Load the baselines now, so a bad file fails before the long run.
    Args {
        out: out.unwrap_or_else(|| "BENCH_suite.json".to_string()),
        check: check.map(|path| (path.clone(), baseline_cells(&load_json(PROG, &path)))),
        threshold,
        explain,
        time,
        reps: reps.unwrap_or(3),
        speedup: speedup.map(|path| (path.clone(), baseline_walls(&load_json(PROG, &path)))),
    }
}

/// One measured cell: `(cores, cycles, ipc, run-level buckets json)`.
type Cell = (usize, u64, f64, Value);

fn measure_suite() -> Vec<(String, Vec<Cell>)> {
    let workloads = suite::all();
    let (tx, rx) = mpsc::channel();
    thread::scope(|scope| {
        for (idx, w) in workloads.iter().enumerate() {
            let tx = tx.clone();
            scope.spawn(move || {
                let cw = compile_workload(w).unwrap_or_else(|e| panic!("{}: {e}", w.name));
                let obs = ObsOptions {
                    profile: true,
                    ..ObsOptions::default()
                };
                let cells: Vec<Cell> = BENCH_SIZES
                    .iter()
                    .map(|&n| {
                        let r = run_compiled_observed(&cw, &ProcessorConfig::tflex(n), &obs)
                            .unwrap_or_else(|e| panic!("{} on {n} cores: {e}", w.name));
                        let report = r.profile.expect("profiled");
                        let buckets = Value::Object(
                            report
                                .run_buckets()
                                .iter()
                                .map(|(b, c)| (b.label().to_string(), Value::UInt(c)))
                                .collect(),
                        );
                        (n, r.stats.cycles, r.stats.procs[0].ipc(), buckets)
                    })
                    .collect();
                tx.send((idx, (w.name.to_string(), cells)))
                    .expect("receiver alive");
            });
        }
        drop(tx);
        let mut rows: Vec<Option<(String, Vec<Cell>)>> =
            (0..workloads.len()).map(|_| None).collect();
        for (idx, row) in rx {
            rows[idx] = Some(row);
        }
        rows.into_iter().map(|r| r.expect("all sent")).collect()
    })
}

fn to_doc(rows: &[(String, Vec<Cell>)]) -> Value {
    Value::Object(vec![
        (
            "schema".to_string(),
            Value::String("clp-bench-v1".to_string()),
        ),
        (
            "sizes".to_string(),
            Value::Array(BENCH_SIZES.iter().map(|&n| Value::UInt(n as u64)).collect()),
        ),
        (
            "workloads".to_string(),
            Value::Array(
                rows.iter()
                    .map(|(name, cells)| {
                        Value::Object(vec![
                            ("name".to_string(), Value::String(name.clone())),
                            (
                                "runs".to_string(),
                                Value::Array(
                                    cells
                                        .iter()
                                        .map(|(n, cycles, ipc, buckets)| {
                                            Value::Object(vec![
                                                ("cores".to_string(), Value::UInt(*n as u64)),
                                                ("cycles".to_string(), Value::UInt(*cycles)),
                                                ("ipc".to_string(), Value::Float(*ipc)),
                                                ("buckets".to_string(), buckets.clone()),
                                            ])
                                        })
                                        .collect(),
                                ),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// The cells of a `clp-bench-v1` baseline.
fn baseline_cells(doc: &Value) -> Vec<BaselineCell> {
    let mut out = Vec::new();
    let Some(workloads) = doc.get("workloads").as_array() else {
        die(
            PROG,
            "baseline has no `workloads` array (expected clp-bench-v1)",
        );
    };
    for w in workloads {
        let Some(name) = w.get("name").as_str() else {
            continue;
        };
        let Some(runs) = w.get("runs").as_array() else {
            continue;
        };
        for r in runs {
            if let (Some(cores), Some(cycles)) = (r.get("cores").as_u64(), r.get("cycles").as_u64())
            {
                out.push((
                    (name.to_string(), cores),
                    (cycles, r.get("buckets").clone()),
                ));
            }
        }
    }
    out
}

/// One timed cell: fastest-of-reps wall clock.
struct TimedCell {
    workload: String,
    cores: usize,
    cycles: u64,
    wall_ms: f64,
}

/// Runs one cell `reps` times and returns `(cycles, fastest wall ms)`.
/// The profiling layer stays off so the measurement reflects the
/// engine, not the observer.
fn time_cell(cw: &clp_core::CompiledWorkload, cores: usize, reps: usize) -> (u64, f64) {
    let cfg = ProcessorConfig::tflex(cores);
    let obs = ObsOptions::default();
    let mut cycles = 0;
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = std::time::Instant::now();
        let r = run_compiled_observed(cw, &cfg, &obs)
            .unwrap_or_else(|e| panic!("{} on {cores} cores: {e}", cw.workload.name));
        let wall = t0.elapsed().as_secs_f64() * 1e3;
        assert!(
            cycles == 0 || cycles == r.stats.cycles,
            "nondeterministic run"
        );
        cycles = r.stats.cycles;
        if wall < best {
            best = wall;
        }
    }
    (cycles, best)
}

/// The `--time` harness: serial cell-by-cell measurement (compilation
/// is parallel, simulation is not, so cells never contend for cores).
fn measure_wallclock(reps: usize) -> Vec<TimedCell> {
    let workloads = suite::all();
    let compiled: Vec<_> = thread::scope(|scope| {
        let handles: Vec<_> = workloads
            .iter()
            .map(|w| {
                scope.spawn(move || {
                    compile_workload(w).unwrap_or_else(|e| panic!("{}: {e}", w.name))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("compiles"))
            .collect()
    });
    let mut cells = Vec::new();
    for cw in &compiled {
        for &n in &BENCH_SIZES {
            let (cycles, wall_ms) = time_cell(cw, n, reps);
            cells.push(TimedCell {
                workload: cw.workload.name.to_string(),
                cores: n,
                cycles,
                wall_ms,
            });
        }
    }
    cells
}

fn time_doc(cells: &[TimedCell], reps: usize) -> Value {
    Value::Object(vec![
        (
            "schema".to_string(),
            Value::String("clp-bench-time-v1".to_string()),
        ),
        ("reps".to_string(), Value::UInt(reps as u64)),
        (
            "cells".to_string(),
            Value::Array(
                cells
                    .iter()
                    .map(|c| {
                        Value::Object(vec![
                            ("workload".to_string(), Value::String(c.workload.clone())),
                            ("cores".to_string(), Value::UInt(c.cores as u64)),
                            ("cycles".to_string(), Value::UInt(c.cycles)),
                            ("wall_ms".to_string(), Value::Float(c.wall_ms)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Baseline wall-clock cells as `(workload, cores) -> wall_ms`.
fn baseline_walls(doc: &Value) -> Vec<BaselineWall> {
    let Some(cells) = doc.get("cells").as_array() else {
        die(
            PROG,
            "speedup baseline has no `cells` array (expected clp-bench-time-v1)",
        );
    };
    cells
        .iter()
        .filter_map(|c| {
            let name = c.get("workload").as_str()?;
            let cores = c.get("cores").as_u64()?;
            let wall = c.get("wall_ms").as_f64()?;
            Some(((name.to_string(), cores), wall))
        })
        .collect()
}

fn speedup_doc(cells: &[TimedCell], baseline: &[BaselineWall], from: &str) -> Value {
    let mut rows = Vec::new();
    // Per-size aggregates over cells present in both measurements:
    // total serial-baseline wall over total fresh wall (the honest
    // "suite sweep at this size is N x faster" number), plus the
    // geometric mean of per-cell speedups.
    let mut by_size: Vec<(u64, f64, f64, f64, usize)> = BENCH_SIZES
        .iter()
        .map(|&n| (n as u64, 0.0, 0.0, 0.0, 0))
        .collect();
    for c in cells {
        let Some((_, base)) = baseline
            .iter()
            .find(|((n, cs), _)| *n == c.workload && *cs == c.cores as u64)
        else {
            continue;
        };
        let speedup = base / c.wall_ms;
        rows.push(Value::Object(vec![
            ("workload".to_string(), Value::String(c.workload.clone())),
            ("cores".to_string(), Value::UInt(c.cores as u64)),
            ("baseline_wall_ms".to_string(), Value::Float(*base)),
            ("wall_ms".to_string(), Value::Float(c.wall_ms)),
            ("speedup".to_string(), Value::Float(speedup)),
        ]));
        let row = by_size
            .iter_mut()
            .find(|(n, ..)| *n == c.cores as u64)
            .expect("bench size");
        row.1 += base;
        row.2 += c.wall_ms;
        row.3 += speedup.ln();
        row.4 += 1;
    }
    Value::Object(vec![
        (
            "schema".to_string(),
            Value::String("clp-bench-speedup-v1".to_string()),
        ),
        ("baseline".to_string(), Value::String(from.to_string())),
        (
            "by_size".to_string(),
            Value::Array(
                by_size
                    .iter()
                    .filter(|(.., count)| *count > 0)
                    .map(|&(n, base, fresh, ln_sum, count)| {
                        Value::Object(vec![
                            ("cores".to_string(), Value::UInt(n)),
                            ("cells".to_string(), Value::UInt(count as u64)),
                            ("baseline_wall_ms".to_string(), Value::Float(base)),
                            ("wall_ms".to_string(), Value::Float(fresh)),
                            ("speedup".to_string(), Value::Float(base / fresh)),
                            (
                                "geomean_speedup".to_string(),
                                Value::Float((ln_sum / count as f64).exp()),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("cells".to_string(), Value::Array(rows)),
    ])
}

fn run_time_mode(args: &Args) {
    let cells = measure_wallclock(args.reps);
    let doc = time_doc(&cells, args.reps);
    let out = "BENCH_wallclock.json";
    std::fs::write(out, serde_json::to_string_pretty(&doc).expect("serializes"))
        .unwrap_or_else(|e| die(PROG, format!("cannot write `{out}`: {e}")));
    println!("clp-bench: wrote {} timed cells to {out}", cells.len());
    if let Some((path, walls)) = &args.speedup {
        let doc = speedup_doc(&cells, walls, path);
        let out = "BENCH_speedup.json";
        std::fs::write(out, serde_json::to_string_pretty(&doc).expect("serializes"))
            .unwrap_or_else(|e| die(PROG, format!("cannot write `{out}`: {e}")));
        for row in doc.get("by_size").as_array().unwrap_or(&Vec::new()) {
            println!(
                "clp-bench: x{} suite speedup {:.2} (geomean {:.2}) over {} cells",
                row.get("cores").as_u64().unwrap_or(0),
                row.get("speedup").as_f64().unwrap_or(0.0),
                row.get("geomean_speedup").as_f64().unwrap_or(0.0),
                row.get("cells").as_u64().unwrap_or(0),
            );
        }
        println!("clp-bench: wrote speedup vs {path} to {out}");
    }
}

/// The clp-bound static cycle floor of one suite cell, or `None` if
/// the workload vanished or no longer compiles (the regression line
/// itself already reports that kind of drift).
fn static_floor(name: &str, cores: usize) -> Option<u64> {
    let w = suite::by_name(name)?;
    let cw = compile_workload(&w).ok()?;
    let cfg = clp_lint::LintConfig::default();
    Some(clp_lint::bound_program(&cw.edge, &cfg, cores).cycles)
}

fn main() {
    let args = parse_args();
    if args.time {
        run_time_mode(&args);
        return;
    }
    let rows = measure_suite();
    let doc = to_doc(&rows);
    // Always emit the measured suite (also under --check, so CI uploads
    // the fresh numbers a re-baseline can copy from).
    std::fs::write(
        &args.out,
        serde_json::to_string_pretty(&doc).expect("serializes"),
    )
    .unwrap_or_else(|e| die(PROG, format!("cannot write `{}`: {e}", args.out)));
    println!(
        "clp-bench: wrote {} workloads x {:?} cores to {}",
        rows.len(),
        BENCH_SIZES,
        args.out
    );

    if let Some((baseline_path, baseline)) = &args.check {
        let mut regressions = Vec::new();
        for ((name, cores), (want, want_buckets)) in baseline {
            let (cores, want) = (*cores, *want);
            let got = rows
                .iter()
                .find(|(n, _)| n == name)
                .and_then(|(_, cells)| cells.iter().find(|(n, ..)| *n as u64 == cores));
            match got {
                None => regressions.push(format!("{name} x{cores}: cell disappeared")),
                Some((_, got, _, got_buckets)) => {
                    let delta = 100.0 * (*got as f64 / want as f64 - 1.0);
                    if delta > args.threshold {
                        let mut msg = format!(
                            "{name} x{cores}: {want} -> {got} cycles ({delta:+.2}% > {:.2}%)",
                            args.threshold
                        );
                        if args.explain {
                            // Attribute the regression to the buckets
                            // that moved, largest movers first.
                            for e in attribute_buckets(want_buckets, got_buckets).iter().take(3) {
                                msg.push_str(&format!(
                                    "\n      {}: {} -> {} ({:+})",
                                    e.label,
                                    e.before,
                                    e.after,
                                    e.delta()
                                ));
                            }
                            // How much of the regression is headroom:
                            // tightness against the static cycle floor.
                            if let Some(bound) = static_floor(name, cores as usize) {
                                msg.push_str(&format!(
                                    "\n      static floor {bound} cycles: tightness \
                                     {:.2}x -> {:.2}x",
                                    want as f64 / bound as f64,
                                    *got as f64 / bound as f64,
                                ));
                            }
                        }
                        regressions.push(msg);
                    }
                }
            }
        }
        if regressions.is_empty() {
            println!(
                "clp-bench: {} cells within {:.2}% of {baseline_path}",
                baseline.len(),
                args.threshold
            );
        } else {
            eprintln!("clp-bench: {} regressed cells:", regressions.len());
            for r in &regressions {
                eprintln!("  {r}");
            }
            std::process::exit(1);
        }
    }
}
