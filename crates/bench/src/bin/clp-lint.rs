//! Standalone linter CLI: semantic static analysis of EDGE programs.
//!
//! ```sh
//! # Lint one built-in workload (compiled for 32 cores by default):
//! cargo run --release -p clp-bench --bin clp-lint -- mcf
//! # Lint the whole built-in suite:
//! cargo run --release -p clp-bench --bin clp-lint -- --suite
//! # Lint an assembled program from disk:
//! cargo run --release -p clp-bench --bin clp-lint -- --asm prog.edge
//! ```
//!
//! `--json` emits the machine-readable diagnostics report instead of
//! rendered text; `--allow <code>` silences a lint and
//! `--deny <code>` promotes it to an error (codes accept `L001` or
//! slug form, e.g. `dead-dataflow`); `--cores <n>` sets the composition
//! size assumed by the placement and bound lints; `--bound` adds the
//! L5xx static-cycle-bound lints, whose notes name the binding
//! resource (dataflow height vs issue bandwidth vs NoC link) per
//! block. Exits 1 if any error-severity diagnostic remains, 2 on usage
//! or input errors.

use clp_core::cli::{die, Flags};
use clp_core::compile_workload;
use clp_isa::asm;
use clp_lint::{lint_program, render_report, LintCode, LintConfig, LintReport, Severity};
use clp_workloads::{suite, Workload};

const PROG: &str = "clp-lint";

struct Args {
    workloads: Vec<Workload>,
    asm_path: Option<String>,
    json: bool,
    bound: bool,
}

/// Parses the flags, applying `--allow`, `--deny` and `--cores` to
/// `cfg`.
fn parse_args(cfg: &mut LintConfig) -> Args {
    let (mut suite, mut asm_path, mut json, mut bound) = (false, None, false, false);
    let mut flags = Flags::from_env(PROG);
    let code = |flags: &mut Flags, flag: &str| {
        let v = flags.value(flag);
        LintCode::from_code(&v).unwrap_or_else(|| flags.die(format!("unknown lint code `{v}`")))
    };
    while let Some(flag) = flags.next_flag() {
        match flag.as_str() {
            "--suite" => suite = true,
            "--asm" => asm_path = Some(flags.value(&flag)),
            "--json" => json = true,
            "--bound" => bound = true,
            "--allow" => {
                cfg.allow(code(&mut flags, &flag));
            }
            "--deny" => {
                cfg.set_level(code(&mut flags, &flag), Severity::Error);
            }
            "--cores" => cfg.placement_cores = flags.at_least(&flag, 1),
            "--help" | "-h" => {
                println!(
                    "usage: clp-lint [--suite | --asm FILE | WORKLOAD...] \
                     [--json] [--bound] [--allow CODE] [--deny CODE] [--cores N]"
                );
                println!("\nlint codes:");
                for &c in LintCode::ALL {
                    println!(
                        "  {} {:28} {:7} {}",
                        c.code(),
                        c.slug(),
                        c.default_severity().to_string(),
                        c.describes()
                    );
                }
                std::process::exit(0);
            }
            _ => flags.unknown(&flag),
        }
    }
    let names = flags.positionals(usize::MAX);
    let workloads: Vec<Workload> = if suite {
        suite::all()
    } else {
        names.iter().map(|n| flags.workload(n)).collect()
    };
    if workloads.is_empty() && asm_path.is_none() {
        flags.die("nothing to lint: pass workload names, --suite, or --asm FILE");
    }
    Args {
        workloads,
        asm_path,
        json,
        bound,
    }
}

fn main() {
    let mut cfg = LintConfig::default();
    let args = parse_args(&mut cfg);

    // (label, program) pairs to lint.
    let mut programs = Vec::new();
    if let Some(path) = &args.asm_path {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| die(PROG, format!("cannot read `{path}`: {e}")));
        let prog = asm::parse_program(&text).unwrap_or_else(|e| die(PROG, format!("{path}: {e}")));
        programs.push((path.clone(), prog));
    }
    for w in &args.workloads {
        let cw = compile_workload(w)
            .unwrap_or_else(|e| die(PROG, format!("{} does not compile: {e:?}", w.name)));
        programs.push((w.name.to_string(), cw.edge));
    }

    let mut merged = LintReport::default();
    let mut failed = false;
    for (label, prog) in &programs {
        let mut report = lint_program(prog, &cfg);
        if args.bound {
            report.diagnostics.extend(clp_lint::lint_bounds(prog, &cfg));
        }
        if args.json {
            merged.diagnostics.extend(report.diagnostics.clone());
        } else if report.is_empty() {
            println!("{label}: clean");
        } else {
            print!("{label}:\n{}", render_report(&report, Some(prog)));
        }
        failed |= report.has_errors();
    }
    if args.json {
        println!("{}", merged.to_json());
    }
    std::process::exit(i32::from(failed));
}
