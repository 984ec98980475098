//! Usage errors of the bench binaries: every malformed invocation exits
//! 2 with a `<prog>: ` message on stderr, never a panic, and before any
//! simulation starts.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// The binary called `prog`.
fn exe(prog: &str) -> &'static str {
    match prog {
        "run_one" => env!("CARGO_BIN_EXE_run_one"),
        "clp-bench" => env!("CARGO_BIN_EXE_clp-bench"),
        "clp-bound" => env!("CARGO_BIN_EXE_clp-bound"),
        "clp-trend" => env!("CARGO_BIN_EXE_clp-trend"),
        "clp-prof" => env!("CARGO_BIN_EXE_clp-prof"),
        "clp-lint" => env!("CARGO_BIN_EXE_clp-lint"),
        "clp-diff" => env!("CARGO_BIN_EXE_clp-diff"),
        "probe_blocks" => env!("CARGO_BIN_EXE_probe_blocks"),
        "fig5" => env!("CARGO_BIN_EXE_fig5"),
        _ => unreachable!("no binary `{prog}`"),
    }
}

/// A fresh scratch directory holding `bad.json` (not JSON) and
/// `empty.json` (JSON of no known schema).
fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    std::fs::write(dir.join("bad.json"), "{not json").expect("bad.json");
    std::fs::write(dir.join("empty.json"), "{}").expect("empty.json");
    dir
}

fn run(dir: &Path, prog: &str, args: &[&str]) -> Output {
    Command::new(exe(prog))
        .args(args)
        .current_dir(dir)
        .output()
        .unwrap_or_else(|e| panic!("{prog} starts: {e}"))
}

/// Asserts the usage-error contract; `expect` must appear in the message.
fn assert_usage_error(out: &Output, prog: &str, args: &[&str], expect: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    let case = format!("{prog} {args:?}: {stderr}");
    assert_eq!(out.status.code(), Some(2), "{case}");
    assert!(stderr.starts_with(&format!("{prog}: ")), "{case}");
    assert!(!stderr.contains("panicked"), "{case}");
    assert!(stderr.contains(expect), "want `{expect}` in {case}");
}

/// `(prog, args, expected message fragment)`.
const CASES: &[(&str, &[&str], &str)] = &[
    // run_one
    ("run_one", &["conv", "4", "--trace"], "requires a value"),
    ("run_one", &["conv", "4", "--nope"], "unknown flag `--nope`"),
    (
        "run_one",
        &["conv", "4", "--sample-every", "0"],
        "must be >= 1",
    ),
    (
        "run_one",
        &["conv", "4", "--max-cycles", "0"],
        "must be >= 1",
    ),
    (
        "run_one",
        &["conv", "4", "--fault-seed", "x"],
        "bad --fault-seed",
    ),
    (
        "run_one",
        &["conv", "4", "--kill-core", "3"],
        "bad --kill-core",
    ),
    ("run_one", &["conv", "x"], "bad core count"),
    (
        "run_one",
        &["conv", "4", "extra"],
        "unexpected argument `extra`",
    ),
    (
        "run_one",
        &["nope", "4"],
        "unknown workload `nope`; available: ",
    ),
    // clp-bench
    ("clp-bench", &["--out"], "requires a value"),
    ("clp-bench", &["--nope"], "unknown flag"),
    ("clp-bench", &["stray"], "unexpected argument"),
    ("clp-bench", &["--time", "--reps", "0"], "must be >= 1"),
    ("clp-bench", &["--threshold", "-1"], "must be >= 0"),
    (
        "clp-bench",
        &["--speedup", "x.json", "--reps", "1"],
        "need --time",
    ),
    ("clp-bench", &["--reps", "2"], "need --time"),
    ("clp-bench", &["--time", "--check", "x.json"], "with --time"),
    ("clp-bench", &["--time", "--out", "x.json"], "with --time"),
    ("clp-bench", &["--explain"], "--explain needs --check"),
    (
        "clp-bench",
        &["--check", "missing.json"],
        "cannot read `missing.json`",
    ),
    (
        "clp-bench",
        &["--check", "empty.json"],
        "no `workloads` array",
    ),
    (
        "clp-bench",
        &["--time", "--speedup", "bad.json"],
        "cannot parse",
    ),
    (
        "clp-bench",
        &["--time", "--speedup", "empty.json"],
        "no `cells` array",
    ),
    // clp-bound
    ("clp-bound", &["conv", "--cores"], "requires a value"),
    ("clp-bound", &["conv", "--nope"], "unknown flag"),
    ("clp-bound", &["conv", "0"], "bad core count `0`"),
    ("clp-bound", &["conv", "--cores", "4,0"], "bad --cores `0`"),
    ("clp-bound", &["conv", "4", "8"], "unexpected argument `8`"),
    ("clp-bound", &["nope"], "unknown workload"),
    ("clp-bound", &[], "pass a workload name or --suite"),
    (
        "clp-bound",
        &["--suite", "--check", "bad.json"],
        "cannot parse",
    ),
    (
        "clp-bound",
        &["--suite", "--check", "empty.json"],
        "no `cells` array",
    ),
    // clp-trend
    ("clp-trend", &["conv", "--period"], "requires a value"),
    ("clp-trend", &["conv", "--nope"], "unknown flag"),
    ("clp-trend", &["conv", "--period", "0"], "must be >= 1"),
    (
        "clp-trend",
        &["conv", "--phase-window", "0"],
        "must be >= 1",
    ),
    ("clp-trend", &["conv", "--cores", "0"], "must be >= 1"),
    (
        "clp-trend",
        &["conv", "--threshold", "-5"],
        "bad --threshold",
    ),
    ("clp-trend", &["nope"], "unknown workload"),
    // clp-prof
    ("clp-prof", &["conv", "--top-links"], "requires a value"),
    ("clp-prof", &["conv", "--nope"], "unknown flag"),
    ("clp-prof", &["conv", "--cores", "0"], "must be >= 1"),
    ("clp-prof", &["conv", "0"], "bad core count"),
    (
        "clp-prof",
        &["--suite", "--top-links", "-1"],
        "bad --top-links",
    ),
    ("clp-prof", &["nope"], "unknown workload"),
    // clp-lint
    ("clp-lint", &["conv", "--allow"], "requires a value"),
    ("clp-lint", &["conv", "--nope"], "unknown flag"),
    ("clp-lint", &["conv", "--cores", "0"], "must be >= 1"),
    ("clp-lint", &["conv", "--deny", "L999"], "unknown lint code"),
    ("clp-lint", &["conv", "nope"], "unknown workload"),
    ("clp-lint", &[], "nothing to lint"),
    // clp-diff
    (
        "clp-diff",
        &["a.json", "b.json", "--top"],
        "requires a value",
    ),
    (
        "clp-diff",
        &["--topp", "3", "a.json", "b.json"],
        "unknown flag `--topp`",
    ),
    (
        "clp-diff",
        &["--top", "-1", "a.json", "b.json"],
        "bad --top",
    ),
    ("clp-diff", &["a.json"], "usage: clp-diff"),
    (
        "clp-diff",
        &["a.json", "b.json", "c.json"],
        "unexpected argument",
    ),
    ("clp-diff", &["bad.json", "empty.json"], "cannot parse"),
    // probe_blocks
    ("probe_blocks", &["nope"], "unknown workload"),
    ("probe_blocks", &["--nope"], "unknown flag"),
    ("probe_blocks", &["conv", "extra"], "unexpected argument"),
    // the figure binaries' shared flags
    ("fig5", &["--stats-json"], "requires a value"),
    ("fig5", &["--sample-every", "0"], "must be >= 1"),
    ("fig5", &["--nope"], "unknown flag"),
    ("fig5", &["stray"], "unexpected argument"),
];

#[test]
fn every_bad_invocation_is_a_usage_error() {
    let dir = scratch("cli-cases");
    for &(prog, args, expect) in CASES {
        assert_usage_error(&run(&dir, prog, args), prog, args, expect);
    }
}

#[test]
fn a_malformed_baseline_fails_before_the_suite_runs() {
    let dir = scratch("cli-check");
    let args = ["--check", "bad.json"];
    let out = run(&dir, "clp-bench", &args);
    assert_usage_error(&out, "clp-bench", &args, "cannot parse `bad.json`");
    assert!(
        !dir.join("BENCH_suite.json").exists(),
        "the suite ran before the baseline was read"
    );
}

#[test]
fn unwritable_output_paths_exit_2_without_panicking() {
    let dir = scratch("cli-unwritable");
    for flag in ["--stats-json", "--trace"] {
        let args = ["conv", "1", flag, "no-such-dir/out.json"];
        let out = run(&dir, "run_one", &args);
        assert_usage_error(&out, "run_one", &args, "run_one: cannot write");
    }
}
