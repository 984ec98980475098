//! The `serve_drain` workload: `clp_serve::serve` drains seeded
//! open-loop arrival schedules with two pool workers, three per TFlex
//! composition size.
//!
//! Every job of a drain asks for the same composition size (the kill job
//! stays pinned to one core, so its kill leaves no survivor), which is
//! what lets the host time of a drain be charged to one size: the drain
//! is a single batch call, and no per-job host time is observable from
//! outside the service.

use crate::baseline::Baseline;
use crate::host::{another_round, median, ns_since, scaled_ns, shuffle, Reference, SetupTimes};
use crate::sweep::SIZES;
use crate::trace::Tracer;
use crate::{Report, WorkloadKind};
use clp_serve::ServiceResult;
use clp_serve::{
    arrivals, serve, ArrivalConfig, JobOutcome, JobSpec, ServiceConfig, ServiceReport,
};
use clp_sim::fault::Prng;
use clp_sim::FaultPlan;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Pool workers: the service's own parallelism, within two busy threads.
const WORKERS: usize = 2;
/// Mean arrival gap in virtual ticks: about four times a one-core job's
/// mean service time, so with two workers the bounded queue (8) does not
/// fill and no job is shed.
const MEAN_GAP: u64 = 100_000;
/// Budget of an ordinary job: above the longest one-core program (gzip,
/// 276,705 cycles), so only tight jobs meet the deadline watchdog.
const BUDGET: u64 = 400_000;
/// Budget of a tight job; each deadline kill doubles it.
const TIGHT_BUDGET: u64 = 2_500;
/// Every fifth program of the suite runs on a tight budget.
const TIGHT_EVERY: usize = 5;
/// Retries allowed: a tight job needs up to seven deadline kills before
/// its budget covers gzip at one core.
const MAX_RETRIES: u32 = 8;
/// The program of the extra job whose only core is killed at cycle 500.
const KILL_WORKLOAD: &str = "basefp";

/// Drains per composition size in a round. A size's 27 jobs are split
/// into this many schedules of nine, and the drains of all sizes run in
/// a seeded interleaved order, so each size's host time is spread over
/// the round as a sweep's cells are over a pass. One 27-job drain per
/// size spread 0.2 to 0.3 over ten runs at x1.
pub const CHUNKS: usize = 3;

/// The seed's schedule at one composition size is the 26 suite programs
/// once each plus the kill job, in a seeded order, with two planted
/// worker panics on jobs the seed picks; this returns the `chunk`th nine
/// of those jobs, at seeded arrival ticks. The set of jobs, and so the
/// simulated work, is the same for every seed. Returns the generator's
/// configuration with the schedule, for the service report.
pub fn schedule(seed: u64, cores: usize, chunk: usize) -> (ArrivalConfig, Vec<(u64, JobSpec)>) {
    let mut names: Vec<&str> = clp_workloads::suite::all().iter().map(|w| w.name).collect();
    let tight: Vec<&str> = names.iter().copied().step_by(TIGHT_EVERY).collect();
    let jobs = names.len() + 1;
    let per = jobs / CHUNKS;
    let mut prng = Prng::new(seed ^ 0x5e7e_d5ee_d000_0001);
    shuffle(&mut names, &mut prng);
    let mut picks: Vec<u64> = Vec::new();
    while picks.len() < 3 {
        let id = prng.next_below(jobs as u64);
        if !picks.contains(&id) {
            picks.push(id);
        }
    }
    // Job ids of this chunk, numbered from 0 within it.
    let local = |ids: &[u64]| -> Vec<u64> {
        ids.iter()
            .filter(|&&id| id as usize / per == chunk)
            .map(|&id| id % per as u64)
            .collect()
    };
    let acfg = ArrivalConfig {
        jobs: per,
        seed: seed.wrapping_add(chunk as u64),
        mean_gap: MEAN_GAP,
        budget: BUDGET,
        tight_every: 0,
        tight_budget: TIGHT_BUDGET,
        plant_panic: local(&picks[..2]),
        kill_at: local(&picks[2..]).into_iter().map(|id| (id, 500)).collect(),
    };
    let mut sched = arrivals::generate(&acfg);
    // Earlier chunks took one program for each of their jobs but the kill.
    let taken = (0..chunk * per).filter(|&id| id as u64 != picks[2]).count();
    let mut programs = names.into_iter().skip(taken);
    for (_, spec) in &mut sched {
        if spec.faults == FaultPlan::none() {
            let name = programs.next().expect("one program per ordinary job");
            spec.workload = name.to_string();
            spec.cores = cores;
            if tight.contains(&name) {
                spec.budget = TIGHT_BUDGET;
            }
        } else {
            spec.workload = KILL_WORKLOAD.to_string();
        }
    }
    (acfg, sched)
}

pub fn service_config(seed: u64) -> ServiceConfig {
    ServiceConfig {
        workers: WORKERS,
        max_retries: MAX_RETRIES,
        seed,
        ..ServiceConfig::default()
    }
}

/// Checks a drained run: every job must complete and reproduce its
/// pinned cycle count. The schedules are built so that every job
/// completes, so a job that is shed, refused, exhausted or fails (a
/// golden mismatch among them) is a mismatch. Returns `(completed,
/// committed instructions)`.
pub fn check_drain(
    base: &Baseline,
    jobs: usize,
    r: &ServiceResult,
    report: &mut Report,
) -> (u64, u64) {
    if r.records.len() != jobs {
        report.mismatch(format!(
            "serve drain of {jobs} jobs returned {} records",
            r.records.len()
        ));
    }
    let mut insts = 0;
    let mut completed = 0;
    for rec in &r.records {
        report.attempted += 1;
        let JobOutcome::Completed { cycles } = rec.outcome else {
            report.failed += 1;
            report.mismatch(format!(
                "serve job {} ({} x{}) did not complete: {:?}",
                rec.id, rec.workload, rec.cores_granted, rec.outcome
            ));
            continue;
        };
        match base.cell(&rec.workload, rec.cores_granted) {
            Some(pinned) if pinned.cycles == cycles => {
                completed += 1;
                insts += pinned.insts;
            }
            pinned => {
                report.failed += 1;
                report.mismatch(format!(
                    "serve job {} ({} x{}): {cycles} cycles, baseline pins {:?}",
                    rec.id,
                    rec.workload,
                    rec.cores_granted,
                    pinned.map(|p| p.cycles)
                ));
            }
        }
    }
    (completed, insts)
}

#[derive(Default)]
struct Round {
    /// Host ns of each size's drains, unscaled and scaled.
    ns: [u64; 5],
    scaled_ns: [f64; 5],
    insts: [u64; 5],
    completed: u64,
}

/// Reference samples taken right before and right after every drain.
const REFERENCE_SAMPLES: u64 = 4;

/// The set-up of `serve_drain`: the suite, then every schedule of a
/// round.
fn setup(seed: u64) -> Result<Vec<Vec<(u64, JobSpec)>>, String> {
    black_box(clp_workloads::suite::all());
    Ok(SIZES
        .iter()
        .flat_map(|&n| (0..CHUNKS).map(move |c| schedule(seed, n, c).1))
        .collect())
}

/// The untraced run: rounds of fifteen drains, the [`CHUNKS`] of every
/// size in a seeded order, until `seconds` have gone by, with the set-up
/// repeated after every drain. Every drain of one schedule must return
/// the identical result.
pub fn measure(base: &Baseline, seed: u64, seconds: u64) -> Report {
    let mut report = Report::default();
    let scfg = service_config(seed);
    let mut reference = Reference::new();
    let mut setups = SetupTimes::default();
    let schedules = match setups.time(&mut reference, || setup(seed)) {
        Ok(s) => s,
        Err(e) => {
            report.mismatch(e);
            return report;
        }
    };
    // Drain `d` is chunk `d % CHUNKS` of size `d / CHUNKS`.
    let mut first: Vec<Option<ServiceResult>> = vec![None; schedules.len()];
    let mut rounds: Vec<Round> = Vec::new();
    let mut order: Vec<usize> = (0..schedules.len()).collect();
    let mut prng = Prng::new(seed);
    let budget = Duration::from_secs(seconds);
    let sample = |reference: &mut Reference| {
        (0..REFERENCE_SAMPLES)
            .map(|_| reference.sample())
            .sum::<u64>()
    };
    let start = Instant::now();
    while another_round(start, rounds.len(), budget) {
        shuffle(&mut order, &mut prng);
        let mut round = Round::default();
        for &d in &order {
            let s = d / CHUNKS;
            let sched = schedules[d].clone();
            let before = sample(&mut reference);
            let t = Instant::now();
            let r = serve(sched, &scfg);
            let ns = ns_since(t);
            let jobs = schedules[d].len();
            round.ns[s] += ns;
            round.scaled_ns[s] +=
                scaled_ns(ns, before + sample(&mut reference), 2 * REFERENCE_SAMPLES);
            let (completed, insts) = check_drain(base, jobs, &r, &mut report);
            round.insts[s] += insts;
            round.completed += completed;
            match &first[d] {
                None => first[d] = Some(r),
                Some(f) if *f == r => {}
                Some(_) => report.mismatch(format!(
                    "serve x{} chunk {}: round {} differs from the first drain of the same seed",
                    SIZES[s],
                    d % CHUNKS,
                    rounds.len()
                )),
            }
            if let Err(e) = setups.time(&mut reference, || setup(seed)) {
                report.mismatch(e);
            }
        }
        rounds.push(round);
    }
    let med = |f: &dyn Fn(&Round) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
    let total_ns = |r: &Round| r.scaled_ns.iter().sum::<f64>();
    let x1 = |f: &dyn Fn(&clp_serve::ServiceTotals) -> u64| -> u64 {
        first[..CHUNKS].iter().flatten().map(|r| f(&r.totals)).sum()
    };
    println!(
        "drain round host seconds, unscaled/scaled: {}",
        rounds
            .iter()
            .map(|r| format!(
                "{:.3}/{:.3}",
                r.ns.iter().sum::<u64>() as f64 / 1e9,
                total_ns(r) / 1e9
            ))
            .collect::<Vec<_>>()
            .join(" ")
    );
    println!("{}", setups.summary());
    println!(
        "{} rounds of {} drains; x1: {} submitted, {} completed, {} shed, {} retries, \
         {} of {} cache lookups hit; fail_share {}/{}",
        rounds.len(),
        schedules.len(),
        x1(&|t| t.submitted),
        x1(&|t| t.completed),
        x1(&|t| t.rejected_overloaded),
        x1(&|t| t.retries),
        x1(&|t| t.cache_hits),
        x1(&|t| t.cache_hits + t.cache_misses),
        report.failed,
        report.attempted
    );
    report.metric("setup_s", "s", setups.median_s());
    report.metric(
        "sim_mips",
        "Minst/s",
        med(&|r| r.insts.iter().sum::<u64>() as f64 * 1e3 / total_ns(r)),
    );
    report.metric(
        "jobs_per_s",
        "1/s",
        med(&|r| r.completed as f64 * 1e9 / total_ns(r)),
    );
    for (i, n) in SIZES.iter().enumerate() {
        report.metric(
            format!("ns_per_inst.x{n}"),
            "ns",
            med(&|r| r.scaled_ns[i] / r.insts[i] as f64),
        );
    }
    report.metric("peak_rss_mb", "MB", crate::host::peak_rss_mb());
    report
}

/// One traced round: per schedule, an untraced and a traced service run
/// (schedule generation, the drain, the report) back to back, in an
/// order that alternates from schedule to schedule. Both must agree
/// exactly.
pub struct TracedRound {
    pub untraced_ns: u64,
    pub traced_ns: u64,
    pub drain_wall_s: f64,
    pub drain_cpu_s: f64,
    pub results: Vec<ServiceResult>,
}

pub fn traced_round(
    base: &Baseline,
    seed: u64,
    tr: &mut Tracer,
    report: &mut Report,
) -> TracedRound {
    let scfg = service_config(seed);
    let mut out = TracedRound {
        untraced_ns: 0,
        traced_ns: 0,
        drain_wall_s: 0.0,
        drain_cpu_s: 0.0,
        results: Vec::new(),
    };
    for i in 0..SIZES.len() * CHUNKS {
        let (n, chunk) = (SIZES[i / CHUNKS], i % CHUNKS);
        let mut untraced = None;
        let mut traced = None;
        let mut jobs = 0;
        for step in 0..2 {
            let t = Instant::now();
            if (step + i) % 2 == 0 {
                let (acfg, sched) = schedule(seed, n, chunk);
                let r = serve(sched, &scfg);
                black_box(ServiceReport::new(&acfg, &scfg, &r).to_json());
                out.untraced_ns += ns_since(t);
                untraced = Some(r);
            } else {
                let run = tr.begin(WorkloadKind::ServeDrain.name(), "serve", i as u64, None, n);
                let (acfg, sched) = tr.span(run, "serve.generate", || schedule(seed, n, chunk));
                jobs = sched.len();
                let cpu = crate::host::cpu_seconds();
                let wall = Instant::now();
                let r = tr.span(run, "serve.drain", || serve(sched, &scfg));
                out.drain_wall_s += wall.elapsed().as_secs_f64();
                out.drain_cpu_s += crate::host::cpu_seconds() - cpu;
                tr.span(run, "serve.report", || {
                    black_box(ServiceReport::new(&acfg, &scfg, &r).to_json())
                });
                tr.end(run);
                out.traced_ns += ns_since(t);
                traced = Some(r);
            }
        }
        let (r, untraced) = (traced.expect("ran"), untraced.expect("ran"));
        check_drain(base, jobs, &r, report);
        if r != untraced {
            report.mismatch(format!(
                "serve x{n} chunk {chunk}: traced drain differs from the untraced drain"
            ));
        }
        out.results.push(r);
    }
    out
}
