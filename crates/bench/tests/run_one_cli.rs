//! `run_one` reports unwritable output paths as a usage error (exit 2)
//! instead of panicking.

use std::process::Command;

#[test]
fn unwritable_output_paths_exit_2_without_panicking() {
    let missing = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("no-such-dir");
    assert!(!missing.exists());
    for flag in ["--stats-json", "--trace"] {
        let path = missing.join("out.json");
        let out = Command::new(env!("CARGO_BIN_EXE_run_one"))
            .args(["conv", "1", flag])
            .arg(&path)
            .output()
            .expect("run_one starts");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag}: {stderr}");
        assert!(!stderr.contains("panicked"), "{flag}: {stderr}");
        assert!(stderr.contains("run_one: cannot write"), "{flag}: {stderr}");
    }
}
