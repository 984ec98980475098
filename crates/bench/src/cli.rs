//! Shared observability flags for the figure binaries.
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

use clp_core::ObsOptions;
use clp_obs::StatsSnapshot;
use serde::Serialize;
use std::io;
use std::path::PathBuf;

use crate::BenchRow;

/// The shared observability flags of the figure binaries.
#[derive(Clone, Debug, Default)]
pub struct FigObs {
    /// Interval-sampling period in cycles (`--sample-every`).
    pub sample_every: Option<u64>,
    /// Where to write labeled stats snapshots (`--stats-json`).
    pub stats_json: Option<PathBuf>,
}

fn die(prog: &str, msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("usage: {prog} [--sample-every <cycles>] [--stats-json <path>]");
    std::process::exit(2);
}

/// Prints `prog: err` and exits with status 2: how the figure binaries
/// report an unwritable `--stats-json` path.
pub fn exit_on_write_error(prog: &str, err: &io::Error) -> ! {
    eprintln!("{prog}: {err}");
    std::process::exit(2);
}

impl FigObs {
    /// Parses the shared flags from the process arguments; `prog` names
    /// the binary in the usage message. Exits with status 2 on unknown
    /// arguments or malformed values.
    #[must_use]
    pub fn parse_env(prog: &str) -> FigObs {
        Self::parse(prog, std::env::args().skip(1))
    }

    /// Parses the shared flags from an explicit argument iterator.
    pub fn parse(prog: &str, mut args: impl Iterator<Item = String>) -> FigObs {
        let mut out = FigObs::default();
        while let Some(a) = args.next() {
            match a.as_str() {
                "--sample-every" => {
                    let v = args
                        .next()
                        .unwrap_or_else(|| die(prog, "--sample-every wants a value"));
                    match v.parse::<u64>() {
                        Ok(p) if p >= 1 => out.sample_every = Some(p),
                        _ => die(
                            prog,
                            &format!("--sample-every wants a period >= 1, got `{v}`"),
                        ),
                    }
                }
                "--stats-json" => {
                    let v = args
                        .next()
                        .unwrap_or_else(|| die(prog, "--stats-json wants a path"));
                    out.stats_json = Some(PathBuf::from(v));
                }
                other => die(prog, &format!("unknown argument `{other}`")),
            }
        }
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
    /// array of `{label, snapshot}` objects. No-op when the flag was not
    /// given.
    ///
    /// # Errors
    ///
    /// Returns the write error, naming the path, when the file cannot be
    /// written.
    pub fn save_snapshots(&self, labeled: Vec<(String, StatsSnapshot)>) -> io::Result<()> {
        let Some(path) = &self.stats_json else {
            return Ok(());
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
        std::fs::write(path, json).map_err(|e| {
            io::Error::new(e.kind(), format!("cannot write `{}`: {e}", path.display()))
        })?;
        println!("[saved {}]", path.display());
        Ok(())
    }

    /// Labels and writes every cell snapshot of a completed sweep
    /// (`<workload>/tflex-<n>` and `<workload>/trips`). No-op when
    /// `--stats-json` was not given.
    ///
    /// # Errors
    ///
    /// As [`FigObs::save_snapshots`].
    pub fn save_sweep_snapshots(&self, rows: &[BenchRow]) -> io::Result<()> {
        if self.stats_json.is_none() {
            return Ok(());
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
