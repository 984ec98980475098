//! Shared command-line pieces of the bench binaries.
//!
//! Every `fig*` binary accepts the same two flags, parsed here so the
//! wiring cannot drift between binaries:
//!
//! ```text
//! --sample-every <cycles>   interval-sampling period for every run
//! --stats-json <path>       write labeled stats snapshots as JSON
//! ```
//!
//! When `--stats-json` is given without `--sample-every`, sampling
//! defaults to one window per 1000 cycles (matching `run_one`), so the
//! dumped snapshots always carry a time series.

use clp_core::cli::{die, Flags};
use clp_core::ObsOptions;
use clp_obs::StatsSnapshot;
use serde::{Serialize, Value};
use std::path::PathBuf;

use crate::BenchRow;

/// The shared observability flags of the figure binaries.
#[derive(Clone, Debug, Default)]
pub struct FigObs {
    /// Interval-sampling period in cycles (`--sample-every`).
    pub sample_every: Option<u64>,
    /// Where to write labeled stats snapshots (`--stats-json`).
    pub stats_json: Option<PathBuf>,
    /// The binary's name, prefixing the write-error message.
    prog: String,
}

/// Reads and parses the JSON document at `path`; a missing or malformed
/// file is a usage error of `prog` (exit 2).
#[must_use]
pub fn load_json(prog: &str, path: &str) -> Value {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| die(prog, format!("cannot read `{path}`: {e}")));
    serde_json::from_str(&text).unwrap_or_else(|e| die(prog, format!("cannot parse `{path}`: {e}")))
}

/// Prints the `{schema, runs}` document of a per-run report binary
/// (clp-prof, clp-trend) as pretty JSON on stdout.
pub fn print_runs(schema: &str, runs: Vec<Value>) {
    let doc = Value::Object(vec![
        ("schema".to_string(), Value::String(schema.to_string())),
        ("runs".to_string(), Value::Array(runs)),
    ]);
    println!(
        "{}",
        serde_json::to_string_pretty(&doc).expect("serializes")
    );
}

impl FigObs {
    /// Parses the shared flags from the process arguments; `prog` names
    /// the binary in error messages. Exits with status 2 on unknown
    /// arguments or malformed values.
    #[must_use]
    pub fn parse_env(prog: &str) -> FigObs {
        Self::parse(prog, std::env::args().skip(1))
    }

    /// Parses the shared flags from an explicit argument iterator.
    pub fn parse(prog: &str, args: impl Iterator<Item = String>) -> FigObs {
        let mut out = FigObs {
            prog: prog.to_string(),
            ..FigObs::default()
        };
        let mut flags = Flags::new(prog, args);
        while let Some(flag) = flags.next_flag() {
            match flag.as_str() {
                "--sample-every" => out.sample_every = Some(flags.at_least(&flag, 1)),
                "--stats-json" => out.stats_json = Some(PathBuf::from(flags.value(&flag))),
                _ => flags.unknown(&flag),
            }
        }
        flags.positionals(0);
        out
    }

    /// The [`ObsOptions`] these flags select. Sampling defaults to a
    /// 1000-cycle period when snapshots were requested.
    #[must_use]
    pub fn obs_options(&self) -> ObsOptions {
        ObsOptions {
            sample_every: self.sample_every.or(if self.stats_json.is_some() {
                Some(1000)
            } else {
                None
            }),
            ..ObsOptions::default()
        }
    }

    /// Writes `labeled` snapshots to the `--stats-json` path as a JSON
    /// array of `{label, snapshot}` objects, exiting with status 2 when
    /// the file cannot be written. No-op when the flag was not given.
    pub fn save_snapshots(&self, labeled: Vec<(String, StatsSnapshot)>) {
        let Some(path) = &self.stats_json else {
            return;
        };
        #[derive(Serialize)]
        struct Labeled {
            label: String,
            snapshot: StatsSnapshot,
        }
        let entries: Vec<Labeled> = labeled
            .into_iter()
            .map(|(label, snapshot)| Labeled { label, snapshot })
            .collect();
        let json = serde_json::to_string_pretty(&entries).expect("serializable");
        std::fs::write(path, json).unwrap_or_else(|e| {
            die(
                &self.prog,
                format!("cannot write `{}`: {e}", path.display()),
            )
        });
        println!("[saved {}]", path.display());
    }

    /// Labels and writes every cell snapshot of a completed sweep
    /// (`<workload>/tflex-<n>` and `<workload>/trips`). No-op when
    /// `--stats-json` was not given.
    pub fn save_sweep_snapshots(&self, rows: &[BenchRow]) {
        if self.stats_json.is_none() {
            return;
        }
        let mut labeled = Vec::new();
        for r in rows {
            for (n, o) in &r.tflex {
                labeled.push((format!("{}/tflex-{n}", r.workload.name), o.snapshot.clone()));
            }
            labeled.push((
                format!("{}/trips", r.workload.name),
                r.trips.snapshot.clone(),
            ));
        }
        self.save_snapshots(labeled)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_both_flags_in_any_order() {
        let args = ["--stats-json", "out.json", "--sample-every", "250"];
        let f = FigObs::parse("t", args.iter().map(ToString::to_string));
        assert_eq!(f.sample_every, Some(250));
        assert_eq!(
            f.stats_json.as_deref(),
            Some(std::path::Path::new("out.json"))
        );
        assert_eq!(f.obs_options().sample_every, Some(250));
    }

    #[test]
    fn stats_json_alone_defaults_the_period() {
        let args = ["--stats-json", "out.json"];
        let f = FigObs::parse("t", args.iter().map(ToString::to_string));
        assert_eq!(f.sample_every, None);
        assert_eq!(f.obs_options().sample_every, Some(1000));
    }

    #[test]
    fn no_flags_means_no_observability() {
        let f = FigObs::parse("t", std::iter::empty());
        assert_eq!(f.obs_options().sample_every, None);
        assert!(f.stats_json.is_none());
    }
}
