//! clp-bound: static per-block cycle/resource lower bounds, checked
//! against the simulator.
//!
//! ```sh
//! cargo run --release -p clp-bench --bin clp-bound -- conv 16
//! cargo run --release -p clp-bench --bin clp-bound -- --suite --json
//! cargo run --release -p clp-bench --bin clp-bound -- --suite --check BOUND_baseline.json
//! ```
//!
//! For each workload and composition size, computes the clp-lint static
//! cycle bound ([`clp_lint::bound_program`]), runs the simulator with
//! profiling, and reports the bound beside the measured cycles with the
//! tightness ratio `measured / bound`. Every invocation *enforces
//! soundness*: the program bound must not exceed the measured cycles,
//! and no per-block bound may exceed the shortest fetch-to-commit span
//! the profiler observed for that block — any violation is printed and
//! the process exits 1.
//!
//! `--json` emits the pinned `clp-bound-v1` schema; `--check FILE`
//! compares the per-cell `bound`/`measured` figures against a committed
//! baseline (the CI regression gate); `--cores A,B,..` overrides the
//! default 1,2,4,8,16 sweep. The `curves` section is the analytic
//! speedup sketch `bound(1)/bound(n)` exported through
//! [`clp_alloc::SpeedupCurve::analytic`].

use clp_alloc::SpeedupCurve;
use clp_bench::cli::load_json;
use clp_core::cli::{die, Flags};
use clp_core::{compile_workload, run_compiled_observed, ObsOptions, ProcessorConfig};
use clp_lint::{bound_program, LintConfig, ProgramBound};
use clp_workloads::Workload;
use serde::Value;

const PROG: &str = "clp-bound";

const DEFAULT_CORES: [usize; 5] = [1, 2, 4, 8, 16];

struct Args {
    workloads: Vec<Workload>,
    cores: Vec<usize>,
    json: bool,
    /// `--check`: the baseline's path and cells, loaded before the run.
    check: Option<(String, Vec<BaselineCell>)>,
}

/// A `clp-bound-v1` baseline cell: `(workload, cores, bound, measured)`.
type BaselineCell = (String, u64, u64, u64);

fn parse_args() -> Args {
    let (mut suite, mut json, mut check) = (false, false, None);
    let mut cores = DEFAULT_CORES.to_vec();
    let mut flags = Flags::from_env(PROG);
    while let Some(flag) = flags.next_flag() {
        match flag.as_str() {
            "--suite" => suite = true,
            "--json" => json = true,
            "--check" => check = Some(flags.value(&flag)),
            "--cores" => {
                let v = flags.value(&flag);
                cores = v
                    .split(',')
                    .map(|c| flags.parse_at_least(&flag, c, 1))
                    .collect();
            }
            _ => flags.unknown(&flag),
        }
    }
    let (workloads, one) = flags.suite_or_one(suite);
    Args {
        workloads,
        cores: one.map_or(cores, |c| vec![c]),
        json,
        check: check.map(|path| (path.clone(), baseline_cells(&load_json(PROG, &path), &path))),
    }
}

/// The cells of a `clp-bound-v1` baseline; dies on a malformed one.
fn baseline_cells(doc: &Value, path: &str) -> Vec<BaselineCell> {
    let Value::Array(cells) = &doc["cells"] else {
        die(PROG, format!("{path} has no `cells` array"));
    };
    cells
        .iter()
        .map(|c| {
            match (
                c["workload"].as_str(),
                c["cores"].as_u64(),
                c["bound"].as_u64(),
                c["measured"].as_u64(),
            ) {
                (Some(wl), Some(cores), Some(bound), Some(measured)) => {
                    (wl.to_string(), cores, bound, measured)
                }
                _ => die(PROG, format!("{path} has a malformed cell")),
            }
        })
        .collect()
}

struct Cell {
    workload: String,
    cores: usize,
    bound: ProgramBound,
    measured: u64,
}

impl Cell {
    fn tightness(&self) -> f64 {
        self.measured as f64 / self.bound.cycles as f64
    }

    /// Which program-level floor set the bound.
    fn floor(&self) -> &'static str {
        let b = &self.bound;
        if b.must_commit >= b.terminal && b.must_commit >= b.work_floor {
            "must-commit"
        } else if b.terminal >= b.work_floor {
            "terminal"
        } else {
            "work"
        }
    }

    fn to_json(&self) -> Value {
        Value::Object(vec![
            ("workload".to_string(), Value::String(self.workload.clone())),
            ("cores".to_string(), Value::UInt(self.cores as u64)),
            ("bound".to_string(), Value::UInt(self.bound.cycles)),
            ("measured".to_string(), Value::UInt(self.measured)),
            ("tightness".to_string(), Value::Float(self.tightness())),
            (
                "must_commit".to_string(),
                Value::UInt(self.bound.must_commit),
            ),
            ("terminal".to_string(), Value::UInt(self.bound.terminal)),
            ("work_floor".to_string(), Value::UInt(self.bound.work_floor)),
        ])
    }
}

fn main() {
    let args = parse_args();
    let cfg = LintConfig::default();
    let mut cells: Vec<Cell> = Vec::new();
    let mut violations: Vec<String> = Vec::new();

    for w in &args.workloads {
        let name = w.name;
        let cw = compile_workload(w).unwrap_or_else(|e| die(PROG, format!("{name}: {e}")));
        for &cores in &args.cores {
            let pb = bound_program(&cw.edge, &cfg, cores);
            let obs = ObsOptions {
                profile: true,
                ..ObsOptions::default()
            };
            let r = run_compiled_observed(&cw, &ProcessorConfig::tflex(cores), &obs)
                .unwrap_or_else(|e| die(PROG, format!("{name} on {cores} cores: {e}")));
            let measured = r.stats.cycles;
            if pb.cycles > measured {
                violations.push(format!(
                    "{name} on {cores} cores: program bound {} > measured {measured}",
                    pb.cycles
                ));
            }
            let spans = r.profile.expect("profiling was enabled").block_spans();
            for bb in &pb.blocks {
                if let Some(s) = spans.get(&bb.addr) {
                    if bb.cycles > s.min_cycles {
                        violations.push(format!(
                            "{name} on {cores} cores: block @{:#x} bound {} \
                             ({}) > measured min span {}",
                            bb.addr,
                            bb.cycles,
                            bb.binding.label(),
                            s.min_cycles
                        ));
                    }
                }
            }
            cells.push(Cell {
                workload: name.to_string(),
                cores,
                bound: pb,
                measured,
            });
        }
    }

    let curves: Vec<(String, SpeedupCurve)> = args
        .workloads
        .iter()
        .filter_map(|w| {
            let samples: Vec<(usize, u64)> = cells
                .iter()
                .filter(|c| c.workload == w.name)
                .map(|c| (c.cores, c.bound.cycles))
                .collect();
            samples
                .iter()
                .any(|&(c, _)| c == 1)
                .then(|| (w.name.to_string(), SpeedupCurve::analytic(w.name, &samples)))
        })
        .collect();

    if args.json {
        let doc = Value::Object(vec![
            (
                "schema".to_string(),
                Value::String("clp-bound-v1".to_string()),
            ),
            (
                "cores".to_string(),
                Value::Array(args.cores.iter().map(|&c| Value::UInt(c as u64)).collect()),
            ),
            (
                "cells".to_string(),
                Value::Array(cells.iter().map(Cell::to_json).collect()),
            ),
            (
                "curves".to_string(),
                Value::Array(
                    curves
                        .iter()
                        .map(|(name, curve)| {
                            Value::Object(vec![
                                ("workload".to_string(), Value::String(name.clone())),
                                (
                                    "speedup".to_string(),
                                    Value::Object(
                                        curve
                                            .speedup
                                            .iter()
                                            .map(|(&c, &s)| (c.to_string(), Value::Float(s)))
                                            .collect(),
                                    ),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]);
        println!(
            "{}",
            serde_json::to_string_pretty(&doc).expect("serializes")
        );
    } else {
        let mut last = "";
        for cell in &cells {
            if cell.workload != last {
                println!("== {} ==", cell.workload);
                println!(
                    "{:>6} {:>10} {:>10} {:>10}  floor",
                    "cores", "bound", "measured", "tightness"
                );
                last = &cell.workload;
            }
            println!(
                "{:>6} {:>10} {:>10} {:>9.2}x  {}",
                cell.cores,
                cell.bound.cycles,
                cell.measured,
                cell.tightness(),
                cell.floor()
            );
        }
        for (name, curve) in &curves {
            let samples: Vec<String> = curve
                .speedup
                .iter()
                .map(|(c, s)| format!("{c}:{s:.2}"))
                .collect();
            println!("analytic speedup sketch {name}: {}", samples.join(" "));
        }
    }

    for v in &violations {
        eprintln!("clp-bound: SOUNDNESS VIOLATION: {v}");
    }
    let mut failed = !violations.is_empty();

    if let Some((path, baseline)) = &args.check {
        let mut mismatches = 0usize;
        for (wl, cores, bound, measured) in baseline.iter().cloned() {
            let got = cells
                .iter()
                .find(|c| c.workload == wl && c.cores as u64 == cores);
            match got {
                None => {
                    eprintln!("clp-bound: baseline cell {wl}/{cores} was not computed");
                    mismatches += 1;
                }
                Some(c) if c.bound.cycles != bound || c.measured != measured => {
                    eprintln!(
                        "clp-bound: {wl} on {cores} cores drifted: bound {} \
                         (baseline {bound}), measured {} (baseline {measured}), \
                         tightness {:.2}x",
                        c.bound.cycles,
                        c.measured,
                        c.tightness()
                    );
                    mismatches += 1;
                }
                Some(_) => {}
            }
        }
        if baseline.len() != cells.len() {
            eprintln!(
                "clp-bound: baseline has {} cells, this run produced {}",
                baseline.len(),
                cells.len()
            );
            mismatches += 1;
        }
        if mismatches > 0 {
            eprintln!("clp-bound: {mismatches} baseline mismatch(es) against {path}");
            failed = true;
        } else {
            eprintln!("clp-bound: all {} cells match {path}", cells.len());
        }
    }

    if failed {
        std::process::exit(1);
    }
}
