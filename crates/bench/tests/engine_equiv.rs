//! The standing engine-equivalence suite.
//!
//! The execution engine has two interchangeable drivers: the
//! reference single-step loop (`Machine::run_stepped`) and the
//! event-driven skip-ahead loop (`Machine::run`). Their contract is
//! *bit-identity*: same cycle counts, same stats registry, same
//! clp-prof cycle accounting, same clp-trend time series — an optimized
//! driver that changes any reported number is a bug, not a speedup.
//!
//! Two test families enforce the contract:
//!
//! * the full benchmark suite across logical-processor sizes 1, 2, 4,
//!   8, and 16, comparing cycles everywhere and full snapshot /
//!   clp-prof / clp-trend JSON on a cross-class subset (the JSON
//!   comparison is byte-level: `serde_json` output is field-ordered,
//!   so equal strings mean equal reports);
//! * a proptest-style loop over seeded generated programs — random op
//!   mixes, loop trip counts, data-dependent branches, and store
//!   patterns from a hand-rolled LCG — so the equivalence claim does
//!   not rest on the curated suite alone. Failures print the seed,
//!   which reproduces the program deterministically.

use clp_compiler::{FunctionBuilder, ProgramBuilder, VReg};
use clp_core::{compile_workload, run_compiled_observed, ObsOptions, ProcessorConfig, RunOutcome};
use clp_isa::Opcode;
use clp_obs::TrendOptions;
use clp_workloads::{CheckSpec, IlpClass, Workload, WorkloadClass};

const SIZES: [usize; 5] = [1, 2, 4, 8, 16];

/// Runs `cw` on `cores` with the given driver and full observability.
fn run_with(cw: &clp_core::CompiledWorkload, cores: usize, stepped: bool) -> RunOutcome {
    let cfg = ProcessorConfig::tflex(cores);
    let obs = ObsOptions {
        profile: true,
        trend: Some(TrendOptions::default()),
        stepped,
        ..ObsOptions::default()
    };
    let r = run_compiled_observed(cw, &cfg, &obs)
        .unwrap_or_else(|e| panic!("{} on {cores} cores: {e}", cw.workload.name));
    assert!(
        r.correct,
        "{} on {cores} cores: wrong output",
        cw.workload.name
    );
    r
}

/// Renders every report of a run as one comparable string.
fn reports(r: &RunOutcome) -> (String, String, String) {
    let snapshot = serde_json::to_string(&r.snapshot).expect("serializes");
    let profile = r
        .profile
        .as_ref()
        .map(|p| serde_json::to_string(&p.to_json_value()).expect("serializes"))
        .unwrap_or_default();
    let trend = r.trend.as_ref().map(|t| t.to_json()).unwrap_or_default();
    (snapshot, profile, trend)
}

/// Asserts full bit-identity (cycles + all three reports) between the
/// reference stepper and the skip-ahead driver.
fn assert_equivalent(cw: &clp_core::CompiledWorkload, cores: usize, label: &str) {
    let reference = run_with(cw, cores, true);
    let skip = run_with(cw, cores, false);
    assert_eq!(
        reference.stats.cycles, skip.stats.cycles,
        "{label} x{cores}: skip-ahead cycle count diverged"
    );
    assert_eq!(
        reference.ret, skip.ret,
        "{label} x{cores}: skip-ahead return value diverged"
    );
    let (want_snap, want_prof, want_trend) = reports(&reference);
    let (snap, prof, trend) = reports(&skip);
    assert_eq!(
        want_snap, snap,
        "{label} x{cores}: skip-ahead snapshot diverged"
    );
    assert_eq!(
        want_prof, prof,
        "{label} x{cores}: skip-ahead clp-prof diverged"
    );
    assert_eq!(
        want_trend, trend,
        "{label} x{cores}: skip-ahead clp-trend diverged"
    );
}

/// Full suite, every size: cycles and return values must match across
/// both drivers. (Reports are compared on the subset below — this
/// test keeps the full sweep affordable while still covering every
/// workload's cycle count five times over.)
#[test]
fn suite_cycles_identical_across_engines() {
    for w in clp_workloads::suite::all() {
        let cw = compile_workload(&w).expect("compiles");
        for &n in &SIZES {
            let reference = run_with(&cw, n, true);
            let skip = run_with(&cw, n, false);
            assert_eq!(
                reference.stats.cycles, skip.stats.cycles,
                "{} x{n}: skip-ahead cycle count diverged",
                w.name
            );
            assert_eq!(
                reference.ret, skip.ret,
                "{} x{n}: skip-ahead return value diverged",
                w.name
            );
        }
    }
}

/// One workload per class, every size: full report bit-identity
/// (snapshot, clp-prof, clp-trend JSON byte-for-byte).
#[test]
fn reports_identical_across_engines() {
    for name in ["conv", "mcf", "equake", "a2time", "802.11b"] {
        let w = clp_workloads::suite::by_name(name).expect("exists");
        let cw = compile_workload(&w).expect("compiles");
        for &n in &SIZES {
            assert_equivalent(&cw, n, name);
        }
    }
}

// ---- generated programs ----------------------------------------------

/// Deterministic split-free LCG; same constants as the workload suite's
/// data generator.
struct Lcg(u64);

impl Lcg {
    fn new(seed: u64) -> Self {
        Lcg(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        self.0 >> 11
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }
}

const GEN_IN: u64 = 0x1_0000_0000;
const GEN_OUT: u64 = 0x1_0001_0000;

/// Builds a random-but-deterministic workload from `seed`: a loop over
/// an input array whose body chains 2–7 random ALU ops, optionally
/// forks on a data-dependent test (exercising predication and the
/// flush path when the predictor guesses wrong), and stores an
/// accumulator per element.
fn generated_workload(seed: u64) -> Workload {
    let mut rng = Lcg::new(seed);
    let n = 24 + rng.below(40) as usize;
    let ops = [
        Opcode::Add,
        Opcode::Sub,
        Opcode::Mul,
        Opcode::Xor,
        Opcode::And,
        Opcode::Or,
    ];
    let chain = 2 + rng.below(6) as usize;
    let with_branch = rng.below(2) == 1;
    let op_picks: Vec<Opcode> = (0..chain)
        .map(|_| ops[rng.below(ops.len() as u64) as usize])
        .collect();

    let mut f = FunctionBuilder::new("gen", 2);
    let input = f.param(0);
    let out = f.param(1);
    let total = f.vreg();
    f.c_into(total, 0);
    let n_reg = f.c(n as i64);
    let i = f.c(0);
    let (head, body, exit) = (f.new_block(), f.new_block(), f.new_block());
    f.jump(head);
    f.switch_to(head);
    let done = f.bin(Opcode::Tge, i, n_reg);
    f.branch(done, exit, body);
    f.switch_to(body);
    let eight = f.c(8);
    let off = f.bin(Opcode::Mul, i, eight);
    let addr = f.bin(Opcode::Add, input, off);
    let x = f.load(addr, 0);
    let mut acc: VReg = x;
    for &op in &op_picks {
        let k = f.c((1 + rng.below(97)) as i64);
        acc = f.bin(op, acc, k);
    }
    if with_branch {
        // Data-dependent fork: odd elements take a different op chain,
        // so the next-block predictor is wrong on a pseudo-random
        // subset of iterations and the engines must agree on every
        // resulting flush.
        let one = f.c(1);
        let odd = f.bin(Opcode::And, x, one);
        let (odd_bb, even_bb, join) = (f.new_block(), f.new_block(), f.new_block());
        let merged = f.vreg();
        f.branch(odd, odd_bb, even_bb);
        f.switch_to(odd_bb);
        let t = f.bin(Opcode::Xor, acc, x);
        f.assign(merged, t);
        f.jump(join);
        f.switch_to(even_bb);
        let t = f.bin(Opcode::Add, acc, i);
        f.assign(merged, t);
        f.jump(join);
        f.switch_to(join);
        acc = merged;
    }
    let dst = f.bin(Opcode::Add, out, off);
    f.store(dst, 0, acc);
    let new_total = f.bin(Opcode::Add, total, acc);
    f.assign(total, new_total);
    let one = f.c(1);
    let next = f.bin(Opcode::Add, i, one);
    f.assign(i, next);
    f.jump(head);
    f.switch_to(exit);
    f.ret(Some(total));

    let mut pb = ProgramBuilder::new();
    let id = pb.add_function(f.finish());
    let words: Vec<u64> = (0..n + 1).map(|_| rng.below(1 << 20)).collect();
    Workload {
        name: Box::leak(format!("gen{seed}").into_boxed_str()),
        class: WorkloadClass::HandOptimized,
        ilp: IlpClass::Low,
        program: pb.finish(id),
        args: vec![GEN_IN, GEN_OUT],
        init_mem: vec![(GEN_IN, words)],
        check: CheckSpec {
            check_ret: true,
            regions: vec![(GEN_OUT, n)],
        },
    }
}

/// Generated programs, every size, full report bit-identity. Ten seeds
/// keep the runtime modest; any seed reproduces its program exactly.
#[test]
fn generated_programs_identical_across_engines() {
    for seed in 0..10u64 {
        let w = generated_workload(seed);
        let cw =
            compile_workload(&w).unwrap_or_else(|e| panic!("seed {seed}: compile failed: {e}"));
        for &n in &SIZES {
            assert_equivalent(&cw, n, w.name);
        }
    }
}
