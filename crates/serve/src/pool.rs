//! Job execution with per-attempt panic isolation.
//!
//! The service runs every attempt inline on its own (scheduler) thread:
//! [`run_attempt`] calls the simulator under
//! [`std::panic::catch_unwind`] and turns an unwind into
//! [`ExecOutcome::Panicked`]. Nothing is shared mutably across an
//! attempt — it reads its request and, on a cache hit, an
//! `Arc<CompiledWorkload>`; cache inserts happen in the scheduler after
//! completion — so a panicking job leaves no poisoned state behind and
//! the next attempt starts clean. Virtual worker slots exist only in the
//! service's schedule, never as threads.
//!
//! Determinism: a job's result is a pure function of its request
//! (workload content, composition size, budget, fault plan). The
//! *service* keeps all ordering decisions on virtual time.

use crate::job::JobSpec;
use clp_core::{
    compile_workload, run_compiled_observed, CompiledWorkload, ObsOptions, ProcessorConfig,
    RunFailure,
};
use clp_sim::FaultPlan;
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Once;

thread_local! {
    /// Set while [`execute`] runs on this thread; the panic hook stays
    /// quiet for these panics so planted ones don't spray backtraces
    /// over test and bench output.
    static IN_ATTEMPT: Cell<bool> = const { Cell::new(false) };
}

static HOOK: Once = Once::new();

fn install_quiet_hook() {
    HOOK.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !IN_ATTEMPT.with(Cell::get) {
                previous(info);
            }
        }));
    });
}

/// Holds [`IN_ATTEMPT`] set for its lifetime. Dropping it — on return or
/// while unwinding — clears the flag, so panics after an attempt are
/// reported again.
struct AttemptGuard;

impl AttemptGuard {
    fn enter() -> Self {
        IN_ATTEMPT.with(|f| f.set(true));
        AttemptGuard
    }
}

impl Drop for AttemptGuard {
    fn drop(&mut self) {
        IN_ATTEMPT.with(|f| f.set(false));
    }
}

/// One attempt of one job. The workload is resolved at admission (an
/// unknown name is a typed rejection long before any attempt runs), so
/// execution never does name lookups.
pub struct ExecRequest {
    /// The job being attempted.
    pub spec: JobSpec,
    /// The resolved workload.
    pub workload: clp_workloads::Workload,
    /// Composition size actually granted (may be degraded below
    /// `spec.cores` under load).
    pub cores: usize,
    /// Cycle budget of *this* attempt (escalates across deadline kills).
    pub budget: u64,
    /// Fault plan of this attempt ([`FaultPlan::none`] on retries).
    pub faults: FaultPlan,
    /// Whether to plant a panic (attempt 0 of a sabotaged job).
    pub sabotage: bool,
    /// Whether to run with clp-prof cycle accounting on, so the
    /// response can carry the run-level bucket book (clp-scope folds it
    /// into the fleet book). Profiling never changes cycle counts — the
    /// PR-5 bit-identity contract — so the virtual schedule is the same
    /// either way.
    pub profile: bool,
    /// Cache-hit program, or `None` when the attempt must compile.
    pub compiled: Option<std::sync::Arc<CompiledWorkload>>,
}

/// How an attempt ended.
pub enum ExecOutcome {
    /// The run completed and verified.
    Success {
        /// Simulated cycles.
        cycles: u64,
        /// The clp-prof report when the request asked for profiling
        /// (boxed: it is much larger than the rest of the response).
        profile: Option<Box<clp_obs::ProfileReport>>,
    },
    /// The run failed with a typed error.
    Failure(RunFailure),
    /// The job panicked; the unwind was caught.
    Panicked,
}

/// An attempt's result: what happened and (on a cache miss) the
/// program it compiled, for the scheduler to insert.
pub struct ExecResponse {
    /// The outcome.
    pub outcome: ExecOutcome,
    /// Compiled on this attempt (cache miss): the program plus its lint
    /// warning count, ready for cache insertion.
    pub compiled_here: Option<(std::sync::Arc<CompiledWorkload>, u64)>,
}

/// Executes one attempt. Pure: the result depends only on the request.
fn execute(req: &ExecRequest) -> ExecResponse {
    if req.sabotage {
        panic!("planted panic in job {}", req.spec.id);
    }
    let (compiled, compiled_here) = match &req.compiled {
        Some(arc) => (arc.clone(), None),
        None => {
            let cw = match compile_workload(&req.workload) {
                Ok(cw) => std::sync::Arc::new(cw),
                Err(e) => {
                    return ExecResponse {
                        outcome: ExecOutcome::Failure(e),
                        compiled_here: None,
                    };
                }
            };
            let lint = clp_lint::lint_program(&cw.edge, &clp_lint::LintConfig::default());
            let warnings = lint.count(clp_lint::Severity::Warn) as u64;
            (cw.clone(), Some((cw, warnings)))
        }
    };
    let cfg = ProcessorConfig::tflex(req.cores)
        .with_faults(req.faults)
        .with_deadline(req.budget);
    let obs = ObsOptions {
        profile: req.profile,
        ..ObsOptions::default()
    };
    let outcome = match run_compiled_observed(&compiled, &cfg, &obs) {
        Ok(r) => ExecOutcome::Success {
            cycles: r.stats.cycles,
            profile: r.profile.map(Box::new),
        },
        Err(e) => ExecOutcome::Failure(e),
    };
    ExecResponse {
        outcome,
        compiled_here,
    }
}

/// Runs one attempt on the calling thread, catching a panic as
/// [`ExecOutcome::Panicked`].
pub fn run_attempt(req: &ExecRequest) -> ExecResponse {
    install_quiet_hook();
    catch_unwind(AssertUnwindSafe(|| {
        let _guard = AttemptGuard::enter();
        execute(req)
    }))
    .unwrap_or(ExecResponse {
        outcome: ExecOutcome::Panicked,
        compiled_here: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plain_request(id: u64, name: &str, cores: usize, budget: u64) -> ExecRequest {
        ExecRequest {
            spec: JobSpec::new(id, name, cores, budget),
            workload: clp_workloads::suite::by_name(name).expect("suite workload"),
            cores,
            budget,
            faults: FaultPlan::none(),
            sabotage: false,
            profile: false,
            compiled: None,
        }
    }

    #[test]
    fn attempt_runs_a_job_and_returns_the_compile() {
        let resp = run_attempt(&plain_request(7, "conv", 8, 200_000));
        assert!(matches!(resp.outcome, ExecOutcome::Success { cycles, .. } if cycles > 100));
        assert!(resp.compiled_here.is_some(), "miss compiles");
    }

    #[test]
    fn planted_panic_is_caught_and_the_next_attempt_succeeds() {
        let mut req = plain_request(1, "conv", 4, 200_000);
        req.sabotage = true;
        let resp = run_attempt(&req);
        assert!(matches!(resp.outcome, ExecOutcome::Panicked));
        assert!(resp.compiled_here.is_none());
        // Nothing was poisoned: the next attempt runs clean.
        let resp = run_attempt(&plain_request(2, "conv", 4, 200_000));
        assert!(matches!(resp.outcome, ExecOutcome::Success { .. }));
    }

    #[test]
    fn deadline_kill_is_reported_as_typed_failure() {
        let resp = run_attempt(&plain_request(3, "conv", 8, 500));
        match resp.outcome {
            ExecOutcome::Failure(f) => {
                assert_eq!(f.class(), clp_core::FailureClass::DeadlineKill);
            }
            _ => panic!("expected a deadline kill"),
        }
    }

    #[test]
    fn results_are_pure_functions_of_the_request() {
        let a = run_attempt(&plain_request(1, "bezier", 4, 200_000));
        let b = run_attempt(&plain_request(2, "bezier", 4, 200_000));
        match (a.outcome, b.outcome) {
            (ExecOutcome::Success { cycles: ca, .. }, ExecOutcome::Success { cycles: cb, .. }) => {
                assert_eq!(ca, cb, "same request, same cycles");
            }
            _ => panic!("both succeed"),
        }
    }
}
