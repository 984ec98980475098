//! Integration suite for clp-serve: deterministic replay, panic
//! isolation, deadline kills with budget escalation, recovery-failure
//! retries, overload shedding, graceful degradation, and full drain.
//!
//! Everything here leans on the service's central contract: no
//! wall-clock anywhere, so one `(arrival schedule, config)` pair
//! reproduces the entire run — including every retry, panic, and shed
//! job — byte-for-byte.

use clp::serve::{
    arrivals::{self, ArrivalConfig},
    serve, JobOutcome, JobSpec, Rejected, ServiceConfig, ServiceReport,
};
use clp::sim::FaultPlan;

fn chaos_arrivals() -> ArrivalConfig {
    // A small but fully loaded schedule: a planted panic, a doomed
    // one-core kill job (guaranteed recovery failure on attempt 0), and
    // tight budgets that force deadline kills + escalation.
    ArrivalConfig {
        jobs: 10,
        seed: 1234,
        mean_gap: 4_000,
        budget: 200_000,
        // Stride 4 puts the tight budgets on ids 3 and 7 — deliberately
        // away from the kill job, which must recover on a full budget.
        tight_every: 4,
        tight_budget: 2_500,
        plant_panic: vec![2],
        kill_at: vec![(4, 600)],
    }
}

fn quiet_cfg() -> ServiceConfig {
    ServiceConfig {
        workers: 3,
        seed: 1234,
        ..ServiceConfig::default()
    }
}

#[test]
fn same_seed_replays_byte_for_byte() {
    let acfg = chaos_arrivals();
    let scfg = quiet_cfg();
    let run = || {
        let result = serve(arrivals::generate(&acfg), &scfg);
        ServiceReport::new(&acfg, &scfg, &result).to_json()
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "clp-serve-v1 reports must be byte-identical");
    assert!(a.contains("\"schema\": \"clp-serve-v1\""));
}

#[test]
fn chaos_run_survives_panic_kill_and_deadline_without_corrupting_siblings() {
    // The acceptance run: one seeded service run absorbing a worker
    // panic, a no-survivor core kill (recovery failure), and deadline
    // kills — while every job not deliberately doomed completes.
    let acfg = chaos_arrivals();
    let scfg = quiet_cfg();
    let result = serve(arrivals::generate(&acfg), &scfg);
    let t = &result.totals;
    assert_eq!(t.submitted, 10);
    assert_eq!(t.panics, 1, "the planted panic fired");
    assert_eq!(t.respawns, 1, "the poisoned worker was respawned");
    assert!(t.transient_failures >= 1, "the kill job failed transiently");
    assert!(t.deadline_kills >= 1, "tight budgets were reaped");
    // Every submitted job reached a terminal state; nothing hung or
    // vanished.
    assert_eq!(result.records.len(), 10);
    // The sabotaged and killed jobs recovered via retry.
    let by_id = |id: u64| {
        result
            .records
            .iter()
            .find(|r| r.id == id)
            .expect("record exists")
    };
    assert!(by_id(2).outcome.is_completed(), "panicked job retried OK");
    assert!(by_id(4).outcome.is_completed(), "killed job retried OK");
    assert!(by_id(2).attempts >= 2);
    assert!(by_id(4).attempts >= 2);
    // No permanent failures: all of the suite verifies.
    assert_eq!(t.failed_permanent, 0);
}

#[test]
fn planted_panic_leaves_sibling_cycle_counts_untouched() {
    // Two identical schedules, except one plants a panic in job 1.
    // Simulated cycle counts are pure functions of (workload, cores,
    // budget, faults), so every *other* job must report exactly the
    // same cycles in both runs — panic isolation down to the cycle.
    let schedule = |sabotage: bool| {
        let mut jobs = vec![
            (1_000u64, JobSpec::new(0, "conv", 8, 200_000)),
            (2_000, JobSpec::new(1, "bezier", 4, 200_000)),
            (3_000, JobSpec::new(2, "autocor", 4, 200_000)),
            (4_000, JobSpec::new(3, "tblook", 2, 200_000)),
        ];
        jobs[1].1.sabotage = sabotage;
        jobs
    };
    let cfg = quiet_cfg();
    let clean = serve(schedule(false), &cfg);
    let chaotic = serve(schedule(true), &cfg);
    assert_eq!(chaotic.totals.panics, 1);
    assert_eq!(clean.totals.panics, 0);
    for id in [0u64, 2, 3] {
        let cycles = |r: &clp::serve::ServiceResult| match r
            .records
            .iter()
            .find(|rec| rec.id == id)
            .expect("record")
            .outcome
        {
            JobOutcome::Completed { cycles } => cycles,
            ref other => panic!("job {id} should complete, got {other:?}"),
        };
        assert_eq!(
            cycles(&clean),
            cycles(&chaotic),
            "job {id} cycle count perturbed by sibling panic"
        );
    }
    // The sabotaged job itself still completes, one retry later.
    assert!(chaotic
        .records
        .iter()
        .find(|r| r.id == 1)
        .unwrap()
        .outcome
        .is_completed());
}

#[test]
fn deadline_kills_escalate_budget_until_success() {
    // conv at 8 cores needs ~7k cycles. A 2k budget dies, 4k dies, 8k
    // succeeds: two deadline kills, two retries, then completion.
    let jobs = vec![(1u64, JobSpec::new(0, "conv", 8, 2_000))];
    let r = serve(jobs, &quiet_cfg());
    assert_eq!(r.totals.deadline_kills, 2);
    assert_eq!(r.totals.retries, 2);
    assert_eq!(r.totals.completed, 1);
    assert_eq!(r.records[0].attempts, 3);
}

#[test]
fn recovery_failure_from_kill_schedule_is_retried_fault_free() {
    // Killing the only core of a 1-core composition leaves no survivor:
    // attempt 0 fails transiently; the retry runs fault-free by policy
    // and completes.
    let mut spec = JobSpec::new(0, "conv", 1, 500_000);
    spec.faults.add_kill(0, 500).expect("valid kill");
    let r = serve(vec![(1, spec)], &quiet_cfg());
    assert_eq!(r.totals.transient_failures, 1);
    assert_eq!(r.totals.retries, 1);
    assert_eq!(r.totals.completed, 1);
    assert_eq!(r.records[0].attempts, 2);
}

#[test]
fn overload_sheds_at_a_pinned_deterministic_rate() {
    // One worker, queue capped at 3: ten near-simultaneous long jobs.
    // Job 0 dispatches, jobs 1-3 queue; every later arrival sees a full
    // queue and is shed with a typed Overloaded rejection.
    let cfg = ServiceConfig {
        workers: 1,
        queue_cap: 3,
        degrade_at: 2,
        seed: 7,
        ..ServiceConfig::default()
    };
    let jobs: Vec<(u64, JobSpec)> = (0..10)
        .map(|i| (i + 1, JobSpec::new(i, "conv", 8, 200_000)))
        .collect();
    let r = serve(jobs, &cfg);
    assert_eq!(r.totals.rejected_overloaded, 6, "exactly jobs 4..=9 shed");
    assert_eq!(r.totals.admitted, 4);
    assert_eq!(r.totals.completed, 4);
    assert_eq!(r.totals.max_queue_depth, 3);
    for rec in r.records.iter().filter(|rec| rec.id >= 4) {
        assert!(
            matches!(
                rec.outcome,
                JobOutcome::Rejected(Rejected::Overloaded { depth: 3 })
            ),
            "job {} should be shed at depth 3, got {:?}",
            rec.id,
            rec.outcome
        );
    }
}

#[test]
fn degradation_halves_composition_before_refusing() {
    // Queue deep enough to cross the degrade watermark but not the cap:
    // later arrivals are admitted at half their requested size.
    let cfg = ServiceConfig {
        workers: 1,
        queue_cap: 8,
        degrade_at: 2,
        seed: 7,
        ..ServiceConfig::default()
    };
    let jobs: Vec<(u64, JobSpec)> = (0..5)
        .map(|i| (i + 1, JobSpec::new(i, "conv", 16, 200_000)))
        .collect();
    let r = serve(jobs, &cfg);
    assert_eq!(r.totals.rejected_overloaded, 0);
    assert_eq!(r.totals.degraded, 2, "jobs 3 and 4 arrive above watermark");
    let granted: Vec<usize> = r.records.iter().map(|rec| rec.cores_granted).collect();
    assert_eq!(granted, vec![16, 16, 16, 8, 8]);
    assert_eq!(r.totals.completed, 5, "degraded jobs still run and verify");
}

#[test]
fn malformed_jobs_get_typed_rejections_not_panics() {
    let jobs = vec![
        (1u64, JobSpec::new(0, "not-a-workload", 8, 1_000)),
        (2, JobSpec::new(1, "conv", 5, 1_000)),
        (3, JobSpec::new(2, "conv", 8, 0)),
        (4, JobSpec::new(3, "conv", 8, 200_000)),
    ];
    let r = serve(jobs, &quiet_cfg());
    assert_eq!(r.totals.rejected_invalid, 3);
    assert_eq!(r.totals.completed, 1, "the well-formed job is unaffected");
    assert!(matches!(
        r.records[0].outcome,
        JobOutcome::Rejected(Rejected::UnknownWorkload { .. })
    ));
    assert!(matches!(
        r.records[1].outcome,
        JobOutcome::Rejected(Rejected::InvalidCores { cores: 5 })
    ));
    assert!(matches!(
        r.records[2].outcome,
        JobOutcome::Rejected(Rejected::ZeroBudget)
    ));
}

#[test]
fn service_drains_gracefully_on_shutdown() {
    // Drain contract: serve() returns only after every admitted job —
    // including retries in flight when arrivals stop — reaches a
    // terminal record. Attempts run inline on the calling thread, so
    // nothing outlives the call.
    let acfg = chaos_arrivals();
    let scfg = quiet_cfg();
    let r = serve(arrivals::generate(&acfg), &scfg);
    let t = &r.totals;
    let terminal =
        t.completed + t.rejected_overloaded + t.rejected_invalid + t.failed_permanent + t.exhausted;
    assert_eq!(terminal, t.submitted, "every job reached a terminal state");
    assert_eq!(r.records.len(), acfg.jobs);
    // Drained strictly after the last arrival was processed.
    let last_arrival = arrivals::generate(&acfg).last().unwrap().0;
    assert!(t.drained_at >= last_arrival);
    // Ids are unique and sorted in the report.
    for pair in r.records.windows(2) {
        assert!(pair[0].id < pair[1].id);
    }
}

#[test]
fn fault_free_plan_is_default_and_kill_plans_round_trip() {
    // Sanity on the job-facing fault surface the service exposes.
    let spec = JobSpec::new(0, "conv", 4, 1_000);
    assert_eq!(spec.faults, FaultPlan::none());
    let mut with_kill = spec.clone();
    with_kill.faults.add_kill(2, 99).expect("valid");
    assert_ne!(with_kill.faults, FaultPlan::none());
}
