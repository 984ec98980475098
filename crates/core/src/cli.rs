//! Command-line flag parsing shared by every binary in the workspace.
//!
//! A binary walks its arguments with a [`Flags`] cursor and matches each
//! flag in a plain `match`:
//!
//! ```no_run
//! use clp_core::cli::Flags;
//!
//! let mut flags = Flags::from_env("demo");
//! let (mut json, mut cores) = (false, 16usize);
//! while let Some(flag) = flags.next_flag() {
//!     match flag.as_str() {
//!         "--json" => json = true,
//!         "--cores" => cores = flags.at_least(&flag, 1),
//!         _ => flags.unknown(&flag),
//!     }
//! }
//! let names = flags.positionals(usize::MAX);
//! ```
//!
//! Every usage error goes through [`die`]: it prints `{prog}: {msg}` on
//! stderr and exits with status 2, before any simulation starts.

use clp_workloads::{suite, Workload};
use std::fmt::Display;
use std::str::FromStr;

/// Prints `{prog}: {msg}` on stderr and exits with status 2, the usage
/// and input error code of every binary.
pub fn die(prog: &str, msg: impl Display) -> ! {
    eprintln!("{prog}: {msg}");
    std::process::exit(2);
}

/// A cursor over a binary's arguments: yields the flags in order and
/// collects every other argument as a positional.
pub struct Flags {
    prog: String,
    args: std::vec::IntoIter<String>,
    positionals: Vec<String>,
}

impl Flags {
    /// The process arguments after the program name; `prog` prefixes
    /// every error message.
    #[must_use]
    pub fn from_env(prog: &str) -> Flags {
        Flags::new(prog, std::env::args().skip(1))
    }

    /// An explicit argument list (the program name excluded).
    pub fn new(prog: &str, args: impl IntoIterator<Item = String>) -> Flags {
        Flags {
            prog: prog.to_string(),
            args: args.into_iter().collect::<Vec<_>>().into_iter(),
            positionals: Vec::new(),
        }
    }

    /// The next `-`-prefixed argument, collecting the positionals before
    /// it; `None` once the arguments are exhausted.
    pub fn next_flag(&mut self) -> Option<String> {
        for arg in self.args.by_ref() {
            if arg.starts_with('-') {
                return Some(arg);
            }
            self.positionals.push(arg);
        }
        None
    }

    /// The argument after `flag`, taken verbatim.
    pub fn value(&mut self, flag: &str) -> String {
        match self.args.next() {
            Some(v) => v,
            None => self.die(format_args!("{flag} requires a value")),
        }
    }

    /// The value of `flag`, parsed as `T`.
    pub fn parse<T: FromStr>(&mut self, flag: &str) -> T {
        let v = self.value(flag);
        v.parse()
            .unwrap_or_else(|_| self.die(format_args!("bad {flag} `{v}`")))
    }

    /// The value of `flag`, parsed as `T` and required to be at least
    /// `min`.
    pub fn at_least<T: FromStr + PartialOrd + Display>(&mut self, flag: &str, min: T) -> T {
        let v = self.value(flag);
        self.parse_at_least(flag, &v, min)
    }

    /// Parses `v`, the value given for `what` (a flag or a positional's
    /// name), requiring it to be at least `min`.
    pub fn parse_at_least<T: FromStr + PartialOrd + Display>(
        &self,
        what: &str,
        v: &str,
        min: T,
    ) -> T {
        match v.parse() {
            Ok(x) if x >= min => x,
            _ => self.die(format_args!("bad {what} `{v}` (must be >= {min})")),
        }
    }

    /// The positionals collected so far, leaving none behind; dies on
    /// any past the first `max`.
    pub fn positionals(&mut self, max: usize) -> Vec<String> {
        if let Some(extra) = self.positionals.get(max) {
            self.die(format_args!("unexpected argument `{extra}`"));
        }
        std::mem::take(&mut self.positionals)
    }

    /// The built-in workload called `name`; dies listing the available
    /// names otherwise.
    pub fn workload(&self, name: &str) -> Workload {
        suite::by_name(name).unwrap_or_else(|| {
            let names: Vec<&str> = suite::all().iter().map(|w| w.name).collect();
            self.die(format_args!(
                "unknown workload `{name}`; available: {}",
                names.join(", ")
            ))
        })
    }

    /// Resolves the `--suite | WORKLOAD [CORES]` selection from the
    /// positionals: every built-in workload when `all` is set (a
    /// positional name is then ignored), else the one named. Returns
    /// the workloads and the positional core count, if given.
    pub fn suite_or_one(&mut self, all: bool) -> (Vec<Workload>, Option<usize>) {
        let pos = self.positionals(2);
        let cores = pos.get(1).map(|c| self.parse_at_least("core count", c, 1));
        let workloads = if all {
            suite::all()
        } else if let Some(name) = pos.first() {
            vec![self.workload(name)]
        } else {
            self.die("pass a workload name or --suite")
        };
        (workloads, cores)
    }

    /// Dies on `flag` as an unknown flag.
    pub fn unknown(&self, flag: &str) -> ! {
        self.die(format_args!("unknown flag `{flag}`"))
    }

    /// [`die`] under this cursor's program name.
    pub fn die(&self, msg: impl Display) -> ! {
        die(&self.prog, msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags(args: &[&str]) -> Flags {
        Flags::new("t", args.iter().map(ToString::to_string))
    }

    #[test]
    fn flags_come_in_order_and_positionals_are_collected() {
        let mut f = flags(&["conv", "--json", "--cores", "4", "8", "--top"]);
        assert_eq!(f.next_flag().as_deref(), Some("--json"));
        assert_eq!(f.next_flag().as_deref(), Some("--cores"));
        assert_eq!(f.at_least::<usize>("--cores", 1), 4);
        assert_eq!(f.next_flag().as_deref(), Some("--top"));
        assert_eq!(f.next_flag(), None);
        assert_eq!(f.positionals(2), ["conv", "8"]);
        assert!(f.positionals(0).is_empty());
    }

    #[test]
    fn values_are_taken_verbatim_even_when_dash_prefixed() {
        let mut f = flags(&["--threshold", "-5", "--out", "--json"]);
        assert_eq!(f.next_flag().as_deref(), Some("--threshold"));
        assert_eq!(f.parse::<i64>("--threshold"), -5);
        assert_eq!(f.next_flag().as_deref(), Some("--out"));
        assert_eq!(f.value("--out"), "--json");
        assert_eq!(f.next_flag(), None);
    }

    #[test]
    fn parse_helpers_accept_values_in_range() {
        let mut f = flags(&["--seed", "42", "--threshold", "0"]);
        assert_eq!(f.next_flag().as_deref(), Some("--seed"));
        assert_eq!(f.parse::<u64>("--seed"), 42);
        assert_eq!(f.next_flag().as_deref(), Some("--threshold"));
        let t: f64 = f.at_least("--threshold", 0.0);
        assert!(t.abs() < f64::EPSILON);
        assert_eq!(f.parse_at_least::<usize>("core count", "1", 1), 1);
    }

    #[test]
    fn workload_and_suite_selection_resolve_names() {
        let f = flags(&[]);
        assert_eq!(f.workload("conv").name, "conv");

        let mut one = flags(&["gzip", "8"]);
        assert_eq!(one.next_flag(), None);
        let (ws, cores) = one.suite_or_one(false);
        assert_eq!(ws.iter().map(|w| w.name).collect::<Vec<_>>(), ["gzip"]);
        assert_eq!(cores, Some(8));

        let mut all = flags(&["--suite"]);
        assert_eq!(all.next_flag().as_deref(), Some("--suite"));
        let (ws, cores) = all.suite_or_one(true);
        assert_eq!(ws.len(), suite::all().len());
        assert_eq!(cores, None);
    }
}
