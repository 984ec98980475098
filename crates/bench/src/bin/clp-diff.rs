//! clp-diff: structural comparison of two measurement documents.
//!
//! ```sh
//! cargo run --release -p clp-bench --bin clp-diff -- before.json after.json
//! cargo run --release -p clp-bench --bin clp-diff -- BENCH_baseline.json BENCH_suite.json --top 5
//! ```
//!
//! Both files must carry the same pinned schema — a stats-registry
//! snapshot (`run_one --stats-json`), a `clp-prof-v1` profile
//! (`clp-prof --json`), a `clp-bench-v1` matrix (`clp-bench`), or a
//! `clp-trend-v1` time series (`clp-trend --json`, single run). The
//! first file is the baseline; the report attributes the delta to the
//! cycle-accounting buckets, cores, NoC links, and counters that moved,
//! largest movers first.
//!
//! `--top N` bounds each section (default 10; 0 means unbounded).
//! Exit codes: 0 = compared (even if everything moved), 2 = usage or
//! parse error.

use clp_bench::cli::load_json;
use clp_core::cli::{die, Flags};
use clp_obs::diff_documents;

const PROG: &str = "clp-diff";

fn main() {
    let mut top = 10usize;
    let mut flags = Flags::from_env(PROG);
    while let Some(flag) = flags.next_flag() {
        match flag.as_str() {
            "--top" => top = flags.parse(&flag),
            _ => flags.unknown(&flag),
        }
    }
    let files = flags.positionals(2);
    let [before_path, after_path] = files.as_slice() else {
        flags.die("usage: clp-diff <before.json> <after.json> [--top N]");
    };
    let (before, after) = (load_json(PROG, before_path), load_json(PROG, after_path));
    let report = diff_documents(&before, &after).unwrap_or_else(|e| die(PROG, e));
    println!("{} vs {} ({})", before_path, after_path, report.kind);
    print!("{}", report.render(top));
}
