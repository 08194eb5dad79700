//! The reusable robustness/report contract (feature `contract`).
//!
//! One home for the assertions that were previously copy-pasted between
//! `tests/faults.rs`, `tests/telemetry_invariants.rs`, and the root
//! test harness — and that the deterministic simulator re-checks on
//! every time slice:
//!
//! * [`report_contract`] — exactly one schema-valid, round-trippable
//!   [`RunReport`] per entry-point call, with coherent merged counters
//!   (`Result`-returning, so the simulator can *collect* violations
//!   instead of panicking mid-run);
//! * [`assert_labelled`] — the panicking wrapper the invariant suites
//!   use, additionally pinning the entry point and outcome label;
//! * [`assert_fault_contract`] — the full fault-injection contract of
//!   DESIGN.md §3.10 (termination, typed panics, abort labelling,
//!   checkpoint resumability, resume-to-baseline agreement);
//! * [`silence_injected_panics`] — the process-wide hook that keeps
//!   injected-fault noise out of test output.
//!
//! This module lives in the testkit rather than `tests/common` so every
//! test binary *and* the `ddws-sim` crate share one definition. The
//! dependency on `ddws-verifier` is feature-gated and cycle-safe: the
//! verifier only ever depends on the testkit through dev-dependencies.

use crate::rng::XorShift;
use crate::{compgen, faults};
use ddws_telemetry::RunReport;
use ddws_verifier::{
    DatabaseMode, Outcome, Reduction, ReporterHandle, Verifier, VerifyError, VerifyOptions,
};
use std::sync::Arc;
use std::time::Duration;

/// State budget for swarm cases: generous for the tiny generated
/// compositions, so budget exhaustion stays the exception.
pub const SWARM_BUDGET: u64 = 30_000;

/// Installs a process-wide panic hook that swallows the testkit's
/// *injected* panics (fault-swarm noise) and delegates every other panic
/// to the previously installed hook. Installed once per process.
pub fn silence_injected_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let payload = info.payload();
            let msg = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("");
            if !msg.contains(faults::INJECTED_PANIC) {
                prev(info);
            }
        }));
    });
}

/// The report-emission contract every entry-point call must satisfy,
/// whatever happened inside: **exactly one** final [`RunReport`], valid
/// against the published schema, surviving a canonical-JSON round trip,
/// with coherent merged rule counters. Returns the report on success so
/// callers can pile on run-specific assertions; returns a description of
/// the first violation otherwise (the simulator records these instead of
/// panicking).
pub fn report_contract<'a>(reports: &'a [RunReport], label: &str) -> Result<&'a RunReport, String> {
    if reports.len() != 1 {
        return Err(format!(
            "{label}: expected exactly one final report, got {}",
            reports.len()
        ));
    }
    let r = &reports[0];
    match RunReport::from_json(&r.to_json()) {
        Ok(rt) if rt == *r => {}
        Ok(_) => return Err(format!("{label}: JSON round-trip lost information")),
        Err(e) => return Err(format!("{label}: schema violation: {e}")),
    }
    if r.counters.rule_cache_hits + r.counters.rule_cache_misses != r.counters.rule_evals {
        return Err(format!("{label}: merged rule counters are incoherent"));
    }
    Ok(r)
}

/// [`report_contract`] plus entry-point and outcome-label pinning, as a
/// panicking assertion (the form the invariant suites use).
pub fn assert_labelled(reports: Vec<RunReport>, entry: &str, outcome: &str) -> RunReport {
    let r = report_contract(&reports, entry).unwrap_or_else(|e| panic!("{e}"));
    assert_eq!(r.entry_point, entry, "{entry}: entry point mislabelled");
    assert_eq!(r.outcome, outcome, "{entry}: unexpected outcome label");
    reports.into_iter().next().unwrap()
}

/// The swarm options every fault-contract run starts from.
pub fn fault_opts(
    case: &compgen::Case,
    threads: Option<usize>,
    reduction: Reduction,
) -> VerifyOptions {
    VerifyOptions {
        database: DatabaseMode::Fixed(case.database.clone()),
        fresh_values: Some(1),
        max_states: SWARM_BUDGET,
        threads,
        reduction,
        ..VerifyOptions::default()
    }
}

/// Draws one case, one fault plan, and one engine/reduction point, then
/// asserts the robustness contract ([`assert_fault_contract`]). Everything
/// is derived from `rng`, so a printed sub-seed replays the full triple.
pub fn assert_fault_case(rng: &mut XorShift) {
    let case = compgen::case(rng);
    let plan = faults::FaultPlan::draw(rng, 48);
    let threads = [None, Some(1), Some(2), Some(4)][rng.below(4) as usize];
    let reduction = if rng.bool() {
        Reduction::Ample
    } else {
        Reduction::Full
    };
    assert_fault_contract(&case, &plan, threads, reduction);
}

/// The robustness contract for one armed fault (DESIGN.md §3.10):
///
/// * the run terminates (no deadlock) and never kills the process;
/// * the reporter receives **exactly one** schema-valid [`RunReport`]
///   whose merged counters stay coherent;
/// * an injected panic surfaces as `VerifyError::WorkerPanicked` carrying
///   the injected payload and the same report the reporter saw;
/// * a cancellation / deadline / budget stop is an `Ok` report with an
///   `Inconclusive` outcome labelled for its reason — never a fabricated
///   verdict;
/// * resuming a captured checkpoint *without* the fault reaches the same
///   verdict as an unfaulted baseline run (when both are conclusive).
///
/// A fault is a *trigger*, not a guarantee: a search that finishes before
/// the trigger ordinal (or before the next cancellation stride check)
/// legitimately returns its ordinary verdict, which must then agree with
/// the baseline.
pub fn assert_fault_contract(
    case: &compgen::Case,
    plan: &faults::FaultPlan,
    threads: Option<usize>,
    reduction: Reduction,
) {
    let label = format!(
        "threads={threads:?} reduction={reduction:?} plan={plan:?} `{}`",
        case.property
    );

    // Unfaulted baseline verdict (`None` when the state budget trips).
    let baseline = {
        let mut v = Verifier::new(case.composition.clone());
        let report = v
            .check_str(&case.property, &fault_opts(case, threads, reduction))
            .unwrap_or_else(|e| panic!("{label}: baseline run failed: {e}"));
        match report.outcome {
            Outcome::Holds => Some(true),
            Outcome::Violated(_) => Some(false),
            Outcome::Inconclusive(_) => None,
        }
    };

    // The armed run.
    let buf = Arc::new(ddws_verifier::BufferReporter::new());
    let armed = plan.arm();
    let mut v = Verifier::new(case.composition.clone());
    let mut opts = fault_opts(case, threads, reduction);
    opts.reporter = ReporterHandle::new(buf.clone());
    opts.fault_hook = armed.hook;
    opts.cancel_token = armed.token;
    if armed.deadline_now {
        opts.deadline = Some(Duration::ZERO);
    }
    let result = v.check_str(&case.property, &opts);

    // Exactly one schema-valid report, whatever happened.
    let reports = buf.take_reports();
    let r = report_contract(&reports, &label).unwrap_or_else(|e| panic!("{e}"));

    match result {
        Err(VerifyError::WorkerPanicked {
            payload, report, ..
        }) => {
            assert!(
                matches!(plan, faults::FaultPlan::Panic(_)),
                "{label}: unplanned worker panic: {payload}"
            );
            assert!(
                payload.contains(faults::INJECTED_PANIC),
                "{label}: foreign panic payload: {payload}"
            );
            assert_eq!(
                &*report, r,
                "{label}: attached report differs from the emitted one"
            );
            assert_eq!(r.outcome, "worker_panicked", "{label}");
            assert!(r.counters.truncated, "{label}: stats not flagged truncated");
            let abort = r
                .abort
                .as_ref()
                .unwrap_or_else(|| panic!("{label}: abort object missing"));
            assert!(
                !abort.resumable,
                "{label}: panic aborts must not claim resumability"
            );
        }
        Err(e) => panic!("{label}: unexpected error: {e}"),
        Ok(report) => match report.outcome {
            Outcome::Holds => {
                assert!(
                    r.abort.is_none(),
                    "{label}: conclusive run carries an abort object"
                );
                if let Some(b) = baseline {
                    assert!(b, "{label}: faulted run holds, baseline violated");
                }
            }
            Outcome::Violated(_) => {
                assert!(
                    r.abort.is_none(),
                    "{label}: conclusive run carries an abort object"
                );
                if let Some(b) = baseline {
                    assert!(!b, "{label}: faulted run violated, baseline holds");
                }
            }
            Outcome::Inconclusive(inc) => {
                assert_eq!(
                    inc.reason.label(),
                    r.outcome,
                    "{label}: report label diverges from the abort reason"
                );
                assert!(
                    r.outcome == plan.outcome_label() || r.outcome == "budget_exceeded",
                    "{label}: unexpected abort label {}",
                    r.outcome
                );
                assert!(
                    r.counters.truncated,
                    "{label}: abort counters not flagged truncated"
                );
                let abort = r
                    .abort
                    .as_ref()
                    .unwrap_or_else(|| panic!("{label}: abort object missing"));
                assert_eq!(
                    abort.resumable,
                    inc.checkpoint.is_some(),
                    "{label}: resumability flag diverges from the checkpoint"
                );
                // Resume without the fault: must agree with the baseline.
                if let Some(cp) = inc.checkpoint {
                    let resumed = v
                        .resume(cp, &fault_opts(case, threads, reduction))
                        .unwrap_or_else(|e| panic!("{label}: resume failed: {e}"));
                    match (&resumed.outcome, baseline) {
                        (Outcome::Holds, Some(b)) => {
                            assert!(b, "{label}: resume holds, baseline violated")
                        }
                        (Outcome::Violated(_), Some(b)) => {
                            assert!(!b, "{label}: resume violated, baseline holds")
                        }
                        // The budget tripping (in either leg) leaves no
                        // verdict to compare.
                        _ => {}
                    }
                }
            }
        },
    }
}
