//! Worker-slice supervision: crashed quanta re-dispatch from the parked
//! checkpoint instead of killing the job.
//!
//! The scheduler runs every slice through [`supervise_slice`], which
//! wraps the engine call in `catch_unwind` and classifies what comes
//! back. Two crash paths converge on [`SliceOutcome::Crashed`]:
//!
//! * the common one — the engines already isolate worker panics and
//!   return [`VerifyError::WorkerPanicked`] with the abort report
//!   attached (exactly one report was streamed, so the telemetry
//!   conservation law `reports == slices` keeps holding when the
//!   service counts the crashed slice);
//! * the defense-in-depth one — a panic that escapes the engine
//!   entirely (a bug outside the isolated expansion path) is caught by
//!   the supervisor's own `catch_unwind` so it can never take the
//!   worker thread, or in deterministic mode the whole test process,
//!   down with it.
//!
//! Recovery is the service's business, not this module's: the scheduler
//! clones the parked [`Checkpoint`](ddws_verifier::Checkpoint) *before*
//! dispatching the slice and, on a crash, restores the clone and
//! requeues the job — a crash loses at most one quantum, never the job.
//! A job whose slices crash [`ServerConfig::crash_quarantine`] times in
//! total is quarantined as a poison job: terminal `job_poisoned`, and
//! `fetch_result` answers the typed
//! [`ErrorCode::JobPoisoned`](crate::wire::ErrorCode::JobPoisoned).
//!
//! [`CrashInjector`] is the deterministic chaos half: a seeded 1-in-N
//! per-slice draw of a panic tick, threaded into the slice's fault hook
//! so injected crashes fire *inside* the engine's expansion path — the
//! same path a genuine bug would take. Everything downstream of the
//! seed is pure, so a chaos run replays byte-identically.
//!
//! [`ServerConfig::crash_quarantine`]: crate::service::ServerConfig::crash_quarantine

use ddws_telemetry::{panic_message, RunReport};
use ddws_testkit::rng::XorShift;
use ddws_verifier::{Report, VerifyError};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;

/// Default total-crash quarantine threshold: the third crashed slice
/// poisons the job.
pub const DEFAULT_CRASH_QUARANTINE: u64 = 3;

/// What one supervised slice came back as.
pub enum SliceOutcome {
    /// The slice ran to a report (verdict, park, cancel, budget stop).
    Finished(Box<Report>),
    /// The slice crashed; the job is re-dispatchable from its pre-slice
    /// checkpoint.
    Crashed {
        /// The stringified panic payload.
        payload: String,
        /// The engine's `worker_panicked` abort report, when the panic
        /// was isolated inside the engine (`None` only for panics that
        /// escaped the engine entirely — those streamed no report).
        report: Option<Box<RunReport>>,
    },
    /// A non-crash failure (unparseable property, unsupported config):
    /// deterministic, so re-dispatching would fail identically.
    Failed(VerifyError),
}

/// Runs one slice under the supervisor and classifies the result.
pub fn supervise_slice<F>(slice: F) -> SliceOutcome
where
    F: FnOnce() -> Result<Report, VerifyError>,
{
    match catch_unwind(AssertUnwindSafe(slice)) {
        Ok(Ok(report)) => SliceOutcome::Finished(Box::new(report)),
        Ok(Err(VerifyError::WorkerPanicked {
            worker,
            payload,
            report,
        })) => SliceOutcome::Crashed {
            payload: format!("worker {worker}: {payload}"),
            report: Some(report),
        },
        Ok(Err(e)) => SliceOutcome::Failed(e),
        Err(panic) => SliceOutcome::Crashed {
            payload: panic_message(&*panic),
            report: None,
        },
    }
}

/// Seeded, deterministic worker-crash injection: each scheduler slice
/// draws whether to crash (1-in-`crash_in`) and, if so, at which
/// expansion ordinal *within the slice* the panic fires (uniform in
/// `[1, within]`). The draw sequence is a pure function of the seed and
/// the slice order, so deterministic-mode chaos runs replay exactly.
pub struct CrashInjector {
    rng: Mutex<XorShift>,
    crash_in: u64,
    within: u64,
}

impl CrashInjector {
    /// An injector crashing roughly one slice in `crash_in` (0 disables)
    /// at an expansion ordinal in `[1, within]`. Pick `within` at or
    /// below the slice quantum so drawn crashes actually land before the
    /// slice parks.
    pub fn new(seed: u64, crash_in: u64, within: u64) -> CrashInjector {
        CrashInjector {
            rng: Mutex::new(XorShift::new(seed ^ 0xc4a5_4c4a_5c4a_54c4)),
            crash_in,
            within: within.max(1),
        }
    }

    /// Draws the next slice's crash plan: `Some(ordinal)` to panic at
    /// that expansion, `None` to run clean.
    pub fn draw(&self) -> Option<u64> {
        let mut rng = self.rng.lock().unwrap();
        if self.crash_in > 0 && rng.chance(1, self.crash_in) {
            Some(1 + rng.below(self.within))
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddws_verifier::Outcome;

    #[test]
    fn escaped_panics_are_caught_and_classified() {
        let outcome = supervise_slice(|| panic!("boom outside the engine"));
        match outcome {
            SliceOutcome::Crashed { payload, report } => {
                assert!(payload.contains("boom outside the engine"));
                assert!(report.is_none());
            }
            _ => panic!("expected Crashed"),
        }
    }

    #[test]
    fn plain_errors_pass_through_as_failed() {
        let outcome = supervise_slice(|| Err(VerifyError::Unsupported("nope".to_string())));
        match outcome {
            SliceOutcome::Failed(VerifyError::Unsupported(m)) => assert_eq!(m, "nope"),
            _ => panic!("expected Failed(Unsupported)"),
        }
    }

    #[test]
    fn finished_reports_pass_through() {
        // A trivial real slice: the cheapest way to mint a `Report` is to
        // run one, so borrow the service's doc scenario.
        let case = crate::service::scenario("req_resp").unwrap();
        let mut verifier = ddws_verifier::Verifier::new(case.composition);
        let opts = ddws_verifier::VerifyOptions {
            database: ddws_verifier::DatabaseMode::Fixed(case.database.clone()),
            ..ddws_verifier::VerifyOptions::default()
        };
        let outcome = supervise_slice(|| verifier.check_slice(&case.property, &opts, 1_000_000));
        match outcome {
            SliceOutcome::Finished(report) => {
                assert!(matches!(report.outcome, Outcome::Holds));
            }
            _ => panic!("expected Finished"),
        }
    }

    #[test]
    fn injector_draws_are_deterministic_and_bounded() {
        let a = CrashInjector::new(9, 4, 32);
        let b = CrashInjector::new(9, 4, 32);
        let da: Vec<Option<u64>> = (0..200).map(|_| a.draw()).collect();
        let db: Vec<Option<u64>> = (0..200).map(|_| b.draw()).collect();
        assert_eq!(da, db);
        assert!(da.iter().any(Option::is_some));
        assert!(da.iter().any(Option::is_none));
        for tick in da.into_iter().flatten() {
            assert!((1..=32).contains(&tick));
        }
        let off = CrashInjector::new(9, 0, 32);
        assert!((0..100).all(|_| off.draw().is_none()));
    }
}
