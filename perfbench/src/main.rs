//! Host-time benchmark of the CLP simulator.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload sweep --seed 7 --seconds 55 --trace 0
//! ```
//!
//! Run from the repository root: the benchmark reads the pinned cycle
//! counts in `BENCH_baseline.json` there. The last line of standard
//! output is one JSON object `{correct, attempted, failed, metrics}`;
//! with `--trace 0` the metrics are the end-to-end figures, with
//! `--trace 1` the per-layer split. See `perfbench/README.md`.

mod baseline;
mod host;
mod serve_drain;
mod sweep;
mod trace;

use std::process::ExitCode;

/// One reported figure.
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

/// What one benchmark run measured and checked.
#[derive(Default)]
pub struct Report {
    /// Cells (`sweep`) or jobs (service) attempted.
    pub attempted: u64,
    /// Attempted cells or jobs that did not complete correctly.
    pub failed: u64,
    /// Every correctness violation: a baseline cycle mismatch, a golden
    /// mismatch, a non-deterministic service result, or a traced run
    /// that drifted from the untraced call.
    pub mismatches: Vec<String>,
    pub metrics: Vec<Metric>,
}

impl Report {
    pub fn mismatch(&mut self, what: String) {
        self.mismatches.push(what);
    }

    pub fn metric(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        self.metrics.push(Metric {
            name: name.into(),
            unit,
            value,
        });
    }

    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.mismatches.is_empty(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// JSON has no NaN or infinity; a figure that is not finite is a bug in
/// the benchmark, reported as `null` rather than as invalid JSON.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WorkloadKind {
    Sweep,
    ServeDrain,
}

impl WorkloadKind {
    const ALL: [WorkloadKind; 2] = [WorkloadKind::Sweep, WorkloadKind::ServeDrain];

    /// The name `--workload` takes, which also labels the spans of the
    /// workload's pass in a traced run.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::Sweep => "sweep",
            WorkloadKind::ServeDrain => "serve_drain",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|k| k.name() == s)
    }
}

struct Args {
    workload: WorkloadKind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str =
    "usage: perfbench --workload <sweep|serve_drain> --seed <n> --seconds <n> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WorkloadKind::parse(&value)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed `{value}`"))?),
            "--seconds" => {
                let s: u64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds `{value}`"))?;
                if s == 0 {
                    return Err("--seconds must be at least 1".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                });
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = host::check_hygiene() {
        eprintln!("perfbench: {e}");
        return ExitCode::from(2);
    }
    let base = match baseline::Baseline::load(baseline::PATH) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let report = match (args.workload, args.trace) {
        (WorkloadKind::Sweep, false) => sweep::measure(&base, args.seed, args.seconds),
        (WorkloadKind::ServeDrain, false) => serve_drain::measure(&base, args.seed, args.seconds),
        (kind, true) => trace::measure(kind, &base, args.seed),
    };
    for m in &report.mismatches {
        eprintln!("perfbench: MISMATCH {m}");
    }
    println!("{}", report.to_json());
    if report.mismatches.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
