//! Usage errors of `clp-serve`: every malformed invocation exits 2 with
//! a `clp-serve: ` message on stderr, never a panic, and before the
//! service runs.

use std::path::Path;
use std::process::Command;

/// `(args, expected message fragment)`.
const CASES: &[(&[&str], &str)] = &[
    (&["--jobs"], "requires a value"),
    (&["--nope"], "unknown flag `--nope`"),
    (&["stray"], "unexpected argument `stray`"),
    (&["--seed", "x"], "bad --seed"),
    (&["--workers", "0"], "must be >= 1"),
    (&["--queue-cap", "0"], "must be >= 1"),
    (&["--degrade-at", "0"], "must be >= 1"),
    (&["--mean-gap", "0"], "must be >= 1"),
    (&["--scope-period", "0"], "must be >= 1"),
    (&["--threshold", "-5"], "must be >= 0"),
    (&["--kill-core", "11"], "expected JOB@CYCLE"),
    (&["--plant-panic", "-1"], "bad --plant-panic"),
    (
        &["--bench", "--jobs", "3"],
        "--jobs cannot be combined with --bench",
    ),
    (
        &["--workers", "2", "--bench"],
        "--workers cannot be combined",
    ),
    (
        &["--bench", "--kill-core", "1@2"],
        "--kill-core cannot be combined",
    ),
    (
        &["--bench", "--check", "missing.json"],
        "cannot read baseline",
    ),
    (&["--bench", "--check", "bad.json"], "is not JSON"),
];

#[test]
fn every_bad_invocation_is_a_usage_error() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("serve-cli");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    std::fs::write(dir.join("bad.json"), "{not json").expect("bad.json");
    for &(args, expect) in CASES {
        let out = Command::new(env!("CARGO_BIN_EXE_clp-serve"))
            .args(args)
            .current_dir(&dir)
            .output()
            .expect("clp-serve starts");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let case = format!("{args:?}: {stderr}");
        assert_eq!(out.status.code(), Some(2), "{case}");
        assert!(stderr.starts_with("clp-serve: "), "{case}");
        assert!(!stderr.contains("panicked"), "{case}");
        assert!(stderr.contains(expect), "want `{expect}` in {case}");
    }
}
