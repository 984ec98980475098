//! The `sweep` workload: the 26-program suite at every TFlex
//! composition size, one fresh machine per cell, cells run one after
//! another by a single caller.

use crate::baseline::Baseline;
use crate::host::{
    another_round, median, ns_since, quantile, scaled_ns, shuffle, Reference, SetupTimes,
};
use crate::trace::Tracer;
use crate::{Report, WorkloadKind};
use clp_core::{
    compile_workload, run_compiled_observed, CompiledWorkload, ObsOptions, ProcessorConfig,
    RunFailure,
};
use clp_isa::Reg;
use clp_obs::StatsSnapshot;
use clp_power::{AreaModel, EnergyModel, PowerConfig};
use clp_sim::fault::Prng;
use clp_sim::Machine;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Composition sizes of the matrix (the suite baseline's sizes).
pub const SIZES: [usize; 5] = [1, 2, 4, 8, 16];

/// Cells between two repeated set-ups: ten set-ups per pass.
const SETUP_EVERY: usize = 13;

/// Builds the suite and compiles every program with its golden result:
/// the set-up a user of `sweep` pays once per process.
pub fn build_suite() -> Result<Vec<CompiledWorkload>, String> {
    clp_workloads::suite::all()
        .iter()
        .map(|w| compile_workload(w).map_err(|e| format!("{}: {e}", w.name)))
        .collect()
}

/// The 130 cells `(workload index, size index)` in the seeded order of
/// one pass, so no cell always follows the same neighbour.
pub fn pass_order(workloads: usize, seed: u64, pass: u64) -> Vec<(usize, usize)> {
    let mut cells: Vec<(usize, usize)> = (0..workloads)
        .flat_map(|w| (0..SIZES.len()).map(move |s| (w, s)))
        .collect();
    let mut prng = Prng::new(seed ^ pass.wrapping_mul(0xa076_1d64_78bd_642f));
    shuffle(&mut cells, &mut prng);
    cells
}

/// Checks one cell against its golden output (checked inside the run)
/// and its pinned cycle count; returns its committed instructions, or
/// `None` when the cell failed.
pub fn check_cell(
    base: &Baseline,
    name: &str,
    cores: usize,
    result: Result<(u64, &StatsSnapshot), &RunFailure>,
    report: &mut Report,
) -> Option<u64> {
    let (cycles, snapshot) = match result {
        Ok(r) => r,
        Err(e) => {
            report.failed += 1;
            report.mismatch(format!("{name} x{cores}: {e}"));
            return None;
        }
    };
    let insts = snapshot.get("total_insts").unwrap_or(0.0) as u64;
    let Some(pinned) = base.cell(name, cores) else {
        report.failed += 1;
        report.mismatch(format!("{name} x{cores}: no pinned baseline cell"));
        return None;
    };
    if cycles != pinned.cycles {
        report.failed += 1;
        report.mismatch(format!(
            "{name} x{cores}: {cycles} cycles, baseline pins {}",
            pinned.cycles
        ));
        return None;
    }
    if insts != pinned.insts {
        report.failed += 1;
        report.mismatch(format!(
            "{name} x{cores}: {insts} committed instructions, baseline IPC implies {}",
            pinned.insts
        ));
        return None;
    }
    Some(insts)
}

/// Host time and simulated work of the correct cells of one pass, per
/// size index, with the reference samples taken after those cells.
#[derive(Default)]
pub struct PassStats {
    pub ns: [u64; 5],
    pub insts: [u64; 5],
    pub cell_ms: Vec<f64>,
    ref_ns: [u64; 5],
    ref_samples: [u64; 5],
}

impl PassStats {
    fn add(&mut self, size: usize, ns: u64, insts: u64) {
        self.cell_ms.push(ns as f64 / 1e6);
        self.ns[size] += ns;
        self.insts[size] += insts;
    }

    fn add_reference(&mut self, size: usize, ns: u64) {
        self.ref_ns[size] += ns;
        self.ref_samples[size] += 1;
    }

    /// Unscaled host ns per committed instruction.
    pub fn ns_per_inst(&self, size: usize) -> f64 {
        self.ns[size] as f64 / self.insts[size] as f64
    }

    pub fn total_ns(&self) -> u64 {
        self.ns.iter().sum()
    }

    /// Host ns of the cells of one size, scaled by the reference samples
    /// taken after them.
    fn scaled_ns(&self, size: usize) -> f64 {
        scaled_ns(self.ns[size], self.ref_ns[size], self.ref_samples[size])
    }

    fn scaled_total_ns(&self) -> f64 {
        (0..SIZES.len()).map(|s| self.scaled_ns(s)).sum()
    }
}

/// Runs one cell exactly as every caller of the library does.
fn run_cell(
    cw: &CompiledWorkload,
    cores: usize,
    obs: &ObsOptions,
) -> (u64, Result<clp_core::RunOutcome, RunFailure>) {
    let cfg = ProcessorConfig::tflex(cores);
    let t = Instant::now();
    let r = run_compiled_observed(cw, &cfg, obs);
    (ns_since(t), r)
}

/// The untraced run of `sweep`: whole passes over the matrix until
/// `seconds` have gone by, with the set-up repeated every
/// [`SETUP_EVERY`] cells.
pub fn measure(base: &Baseline, seed: u64, seconds: u64) -> Report {
    let mut report = Report::default();
    let mut reference = Reference::new();
    let mut setups = SetupTimes::default();
    let suite = match setups.time(&mut reference, build_suite) {
        Ok(s) => s,
        Err(e) => {
            report.mismatch(e);
            return report;
        }
    };
    let obs = ObsOptions::default();
    let budget = Duration::from_secs(seconds);
    let start = Instant::now();
    let mut passes: Vec<PassStats> = Vec::new();
    while another_round(start, passes.len(), budget) {
        let mut pass = PassStats::default();
        let order = pass_order(suite.len(), seed, passes.len() as u64);
        for (i, (w, s)) in order.into_iter().enumerate() {
            if i % SETUP_EVERY == SETUP_EVERY - 1 {
                if let Err(e) = setups.time(&mut reference, build_suite) {
                    report.mismatch(e);
                }
            }
            let cw = &suite[w];
            let (ns, r) = run_cell(cw, SIZES[s], &obs);
            report.attempted += 1;
            if let Some(insts) = check_cell(
                base,
                cw.workload.name,
                SIZES[s],
                r.as_ref().map(|o| (o.stats.cycles, &o.snapshot)),
                &mut report,
            ) {
                pass.add(s, ns, insts);
                pass.add_reference(s, reference.sample());
            }
        }
        passes.push(pass);
    }
    let med = |f: &dyn Fn(&PassStats) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    let pass_s: Vec<String> = passes
        .iter()
        .map(|p| {
            format!(
                "{:.3}/{:.3}",
                p.total_ns() as f64 / 1e9,
                p.scaled_total_ns() / 1e9
            )
        })
        .collect();
    println!("pass host seconds, unscaled/scaled: {}", pass_s.join(" "));
    println!("{}", setups.summary());
    let p50 = med(&|p| quantile(&p.cell_ms, 0.5));
    let p90 = med(&|p| quantile(&p.cell_ms, 0.9));
    println!(
        "{} passes of {} cells; cell_ms p50 {p50:.3} p90 {p90:.3} (median over passes); \
         fail_share {}/{}",
        passes.len(),
        suite.len() * SIZES.len(),
        report.failed,
        report.attempted
    );
    report.metric("setup_s", "s", setups.median_s());
    report.metric(
        "sim_mips",
        "Minst/s",
        med(&|p| p.insts.iter().sum::<u64>() as f64 * 1e3 / p.scaled_total_ns()),
    );
    report.metric(
        "jobs_per_s",
        "1/s",
        med(&|p| p.cell_ms.len() as f64 * 1e9 / p.scaled_total_ns()),
    );
    for (i, n) in SIZES.iter().enumerate() {
        report.metric(
            format!("ns_per_inst.x{n}"),
            "ns",
            med(&|p| p.scaled_ns(i) / p.insts[i] as f64),
        );
    }
    report.metric("peak_rss_mb", "MB", crate::host::peak_rss_mb());
    report
}

/// Simulated work of one size, summed over the suite from the stats
/// snapshots. A change that only speeds up the host leaves every field
/// exactly as it was.
#[derive(Default, Clone, Copy)]
pub struct ModelCounts {
    pub cycles: u64,
    pub insts: u64,
    pub blocks_committed: u64,
    pub blocks_flushed: u64,
    pub mispredictions: u64,
    pub l1d_misses: u64,
    pub lsq_nacks: u64,
    pub operand_link_traversals: u64,
}

impl ModelCounts {
    fn add(&mut self, s: &StatsSnapshot) {
        let get = |path: &str| s.get(path).unwrap_or(0.0) as u64;
        let procs = |metric: &str| -> u64 {
            (0..)
                .map_while(|i| s.get(&format!("proc{i}/{metric}")))
                .map(|v| v as u64)
                .sum()
        };
        self.cycles += get("cycles");
        self.insts += get("total_insts");
        self.blocks_committed += get("total_blocks_committed");
        self.blocks_flushed += procs("blocks_flushed");
        self.mispredictions += procs("mispredicts");
        self.l1d_misses += get("mem/l1d_misses");
        self.lsq_nacks += get("mem/lsq_nacks");
        self.operand_link_traversals += get("operand_net/link_traversals");
    }
}

/// A pass with every cell run three times back to back: through
/// `run_compiled_observed` with observability off (the untraced call),
/// the same with the profiler on, and split into its public calls under
/// spans. The order rotates from cell to cell.
pub struct TracedPass {
    pub untraced: PassStats,
    pub profiled: PassStats,
    pub traced_ns: u64,
    pub model: [ModelCounts; 5],
}

/// The public calls `run_compiled_observed` makes, each under a span.
/// Returns cycles, return value and stats snapshot for the fidelity
/// check against the untraced call.
fn traced_cell(
    cw: &CompiledWorkload,
    cores: usize,
    tr: &mut Tracer,
    cell: usize,
) -> Result<(u64, u64, StatsSnapshot), RunFailure> {
    let cfg = ProcessorConfig::tflex(cores);
    let (mut m, pid) = tr.span(cell, "core.compose", || {
        let mut m = Machine::new(cfg.sim);
        for (addr, words) in &cw.workload.init_mem {
            m.memory_mut().image.load_words(*addr, words);
        }
        let pid = m.compose(cores, 0, cw.edge.clone(), &cw.workload.args);
        (m, pid)
    });
    let pid = pid.map_err(RunFailure::Compose)?;
    let stats = tr
        .span(cell, "sim.run", || m.run())
        .map_err(RunFailure::Run)?;
    let snapshot = tr.span(cell, "obs.snapshot", || m.snapshot());
    let ret = m.register(pid, Reg::new(1));
    tr.span(cell, "workloads.verify", || {
        cw.workload
            .verify_against(&cw.golden, ret, &m.memory().image)
    })
    .map_err(RunFailure::Verify)?;
    tr.span(cell, "power.model", || {
        black_box(EnergyModel::at_130nm().power(
            &stats,
            &PowerConfig::tflex(cores),
            &AreaModel::at_130nm(),
        ))
    });
    Ok((stats.cycles, ret, snapshot))
}

/// One traced pass of `sweep`.
pub fn traced_pass(
    suite: &[CompiledWorkload],
    base: &Baseline,
    seed: u64,
    tr: &mut Tracer,
    report: &mut Report,
) -> TracedPass {
    let plain = ObsOptions::default();
    let profile = ObsOptions {
        profile: true,
        ..ObsOptions::default()
    };
    let mut out = TracedPass {
        untraced: PassStats::default(),
        profiled: PassStats::default(),
        traced_ns: 0,
        model: [ModelCounts::default(); 5],
    };
    for (i, (w, s)) in pass_order(suite.len(), seed, 0).into_iter().enumerate() {
        let cw = &suite[w];
        let cores = SIZES[s];
        let name = cw.workload.name;
        let mut untraced = None;
        let mut profiled = None;
        let mut traced = None;
        for step in 0..3 {
            match (step + i) % 3 {
                0 => untraced = Some(run_cell(cw, cores, &plain)),
                1 => profiled = Some(run_cell(cw, cores, &profile)),
                _ => {
                    let t = Instant::now();
                    let cell = tr.begin(WorkloadKind::Sweep.name(), "cell", i as u64, None, cores);
                    let r = traced_cell(cw, cores, tr, cell);
                    tr.end(cell);
                    traced = Some((ns_since(t), r));
                }
            }
        }
        let (ns, u) = untraced.expect("ran");
        let (profiled_ns, p) = profiled.expect("ran");
        let (traced_ns, t) = traced.expect("ran");
        for (stats, ns, r) in [
            (&mut out.untraced, ns, &u),
            (&mut out.profiled, profiled_ns, &p),
        ] {
            report.attempted += 1;
            if let Some(insts) = check_cell(
                base,
                name,
                cores,
                r.as_ref().map(|o| (o.stats.cycles, &o.snapshot)),
                report,
            ) {
                stats.add(s, ns, insts);
            }
        }
        out.traced_ns += traced_ns;
        match (&u, &t) {
            (Ok(o), Ok((cycles, ret, snapshot))) => {
                if *cycles != o.stats.cycles || *ret != o.ret || *snapshot != o.snapshot {
                    report.mismatch(format!(
                        "{name} x{cores}: traced calls drifted from run_compiled_observed \
                         ({cycles} vs {} cycles, ret {ret:#x} vs {:#x})",
                        o.stats.cycles, o.ret
                    ));
                }
                out.model[s].add(&o.snapshot);
            }
            (Err(_), Err(_)) => {}
            _ => report.mismatch(format!(
                "{name} x{cores}: traced and untraced calls disagree on success"
            )),
        }
    }
    out
}
