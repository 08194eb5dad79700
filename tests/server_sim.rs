//! Deterministic service swarm (DESIGN.md §3.14).
//!
//! Each case is one seeded [`ddws_sim::run_service_seed`] run: N
//! simulated clients submit compgen verification jobs to an in-process
//! [`ddws_server::Server`] under `ManualClock`, all traffic over real
//! wire frames, the scheduler driven quantum-by-quantum from the seed.
//! Inside the run every invariant is recorded as a violation:
//!
//! * every submitted job reaches a terminal state;
//! * every served verdict (and counterexample digest) equals a direct
//!   one-shot unsharded `Verifier` oracle with the same budget;
//! * each executed slice streams exactly one schema-valid run report;
//! * strict round-robin fairness on the canonical slice trace.
//!
//! On top of the recorded invariants this file asserts the replay law —
//! the canonical service log *and* the redacted final reports are
//! byte-identical across repeated runs of one seed — and the starvation
//! bound: with a budget-explosive tenant queued *first*, every other
//! job still completes within one extra round of quanta per slice.

mod common;

use ddws_server::Verdict;
use ddws_sim::{
    fairness_violations, run_service_seed, run_service_seed_with_override,
    shrink_service_violation, ServiceBug, ServiceRun, ServiceSimOptions,
};
use ddws_testkit::faults::FrameChaos;
use ddws_testkit::seed_from;

/// Swarm size. Each run is itself a multi-job service schedule, so this
/// is ~`SWARM_SEEDS × (clients × jobs_per_client + 1)` verified jobs.
const SWARM_SEEDS: u64 = 12;

/// The hostile-wire profile of the chaos swarm: every fault class on —
/// bit flips, losses in both directions, duplicates, reordering — plus
/// mid-slice worker crashes and per-client clock skew.
fn chaos_opts() -> ServiceSimOptions {
    ServiceSimOptions {
        chaos: FrameChaos {
            corrupt_in: 40,
            drop_in: 30,
            dup_in: 30,
            reorder_in: 40,
        },
        crash_in: 10,
        skew_ns: 1_000,
        ..ServiceSimOptions::default()
    }
}

/// Fails the test for a violating run: shrink the first attributed
/// violation against the identical schedule, print the 1-minimal spec
/// and the canonical trace, write a replayable artifact when
/// `$SIM_ARTIFACT_DIR` is set, then panic.
fn fail_run(run: &ServiceRun, opts: &ServiceSimOptions) -> ! {
    eprintln!("service seed {} violated:", run.seed);
    for v in &run.violations {
        eprintln!("  {v}");
    }
    let mut artifact = String::new();
    artifact.push_str(&format!("seed: {}\n", run.seed));
    for v in &run.violations {
        artifact.push_str(&format!("violation: {v}\n"));
    }
    if let Some(shrunk) = shrink_service_violation(run, opts) {
        eprintln!(
            "  shrunk job {} spec: {} atoms -> {} atoms",
            shrunk.job,
            shrunk.spec.size(),
            shrunk.min.size()
        );
        eprintln!("  minimal spec: {:?}", shrunk.min);
        eprintln!("minimized canonical trace:\n{}", shrunk.trace);
        artifact.push_str(&format!(
            "shrunk job {}: {} -> {} atoms\nminimal spec: {:?}\ntrace:\n{}",
            shrunk.job,
            shrunk.spec.size(),
            shrunk.min.size(),
            shrunk.min,
            shrunk.trace
        ));
    } else {
        eprintln!("canonical trace:\n{}", run.trace);
        artifact.push_str(&format!("trace:\n{}", run.trace));
    }
    if let Ok(dir) = std::env::var("SIM_ARTIFACT_DIR") {
        let path = std::path::Path::new(&dir).join(format!("service_seed_{}.txt", run.seed));
        if let Err(e) = std::fs::write(&path, &artifact) {
            eprintln!("  (failed to write artifact {}: {e})", path.display());
        } else {
            eprintln!("  artifact: {}", path.display());
        }
    }
    panic!(
        "service seed {}: {} violation(s)",
        run.seed,
        run.violations.len()
    );
}

/// The swarm: violation-free runs, terminal jobs, oracle agreement —
/// all recorded inside [`run_service_seed`] and asserted empty here.
#[test]
fn service_swarm_is_violation_free() {
    let opts = ServiceSimOptions::default();
    let base = seed_from("server_sim::swarm");
    for i in 0..SWARM_SEEDS {
        let run = run_service_seed(base.wrapping_add(i), &opts);
        if !run.violations.is_empty() {
            fail_run(&run, &opts);
        }
        assert!(!run.jobs.is_empty(), "seed {}: no jobs submitted", run.seed);
        for job in &run.jobs {
            assert!(
                job.verdict.is_some(),
                "seed {}: job {} fetched no verdict",
                run.seed,
                job.row.job
            );
        }
    }
}

/// The replay law: one seed, two runs, byte-identical canonical trace
/// and byte-identical redacted final reports.
#[test]
fn service_replay_is_byte_identical() {
    let opts = ServiceSimOptions::default();
    let seed = seed_from("server_sim::replay");
    let first = run_service_seed(seed, &opts);
    if !first.violations.is_empty() {
        fail_run(&first, &opts);
    }
    let second = run_service_seed(seed, &opts);
    assert_eq!(
        first.trace, second.trace,
        "seed {seed}: canonical service log diverged between replays"
    );
    assert_eq!(
        first.redacted_reports, second.redacted_reports,
        "seed {seed}: redacted reports diverged between replays"
    );
    assert!(!first.trace.is_empty(), "seed {seed}: empty trace");
    assert!(
        !first.redacted_reports.is_empty(),
        "seed {seed}: no redacted reports"
    );
}

/// The fairness law, adversarially: the budget-explosive `starver`
/// scenario is queued *first*, ahead of every compgen job. Round-robin
/// preemption must still complete every other job, each within one
/// extra round of quanta per slice of its own work.
#[test]
fn starver_cannot_delay_the_fleet() {
    let opts = ServiceSimOptions {
        starver: true,
        cancel_one: false,
        ..ServiceSimOptions::default()
    };
    let run = run_service_seed(seed_from("server_sim::starver"), &opts);
    if !run.violations.is_empty() {
        fail_run(&run, &opts);
    }

    let total_jobs = run.jobs.len() as u64;
    let starver = &run.jobs[0];
    assert_eq!(starver.scenario.as_deref(), Some("starver"));
    assert!(
        starver.row.slices > 1,
        "starver finished in {} slice(s) — not pathological enough to starve anyone",
        starver.row.slices
    );
    for job in &run.jobs[1..] {
        let done = job
            .row
            .completed_step
            .unwrap_or_else(|| panic!("seed {}: job {} never completed", run.seed, job.row.job));
        // Strict round-robin: every slice of this job waits at most one
        // full round (≤ total_jobs quanta), plus one round of submission
        // slack — so completion is bounded by (slices + 1) × total_jobs.
        let bound = (job.row.slices + 1) * total_jobs + job.row.submitted_step;
        assert!(
            done <= bound,
            "seed {}: job {} took until step {done} (bound {bound}: {} slices × {total_jobs} jobs)",
            run.seed,
            job.row.job,
            job.row.slices
        );
    }
    // And the trace-level law holds verbatim on this schedule too.
    assert!(fairness_violations(&run.trace).is_empty());
}

/// The planned mid-run cancellation leaves exactly one cancelled job,
/// with its parked checkpoint discarded, and nothing else disturbed.
#[test]
fn seeded_cancellation_is_clean() {
    let opts = ServiceSimOptions {
        // A small quantum against the default budget forces parking, so
        // the cancel lands on a parked checkpoint.
        quantum_states: 64,
        budget: 4_096,
        ..ServiceSimOptions::default()
    };
    let base = seed_from("server_sim::cancel");
    let mut saw_discard = false;
    for i in 0..SWARM_SEEDS {
        let run = run_service_seed(base.wrapping_add(i), &opts);
        if !run.violations.is_empty() {
            fail_run(&run, &opts);
        }
        let cancelled: Vec<_> = run.jobs.iter().filter(|j| j.cancelled()).collect();
        assert!(
            cancelled.len() <= 1,
            "seed {}: {} cancelled jobs from one planned cancel",
            run.seed,
            cancelled.len()
        );
        for job in cancelled {
            assert_eq!(job.verdict, Some(Verdict::Cancelled));
            assert!(job.counterexample.is_none());
            saw_discard |= job.row.discarded_checkpoint;
        }
    }
    assert!(
        saw_discard,
        "no seed in the swarm cancelled a job with a parked checkpoint — \
         widen the swarm or shrink the quantum"
    );
}

/// The chaos swarm (DESIGN.md §3.15): the same end-to-end runs under a
/// hostile wire — frames dropped, duplicated, reordered, bit-flipped —
/// with seeded mid-slice worker crashes and per-client clock skew. The
/// robustness contract holds on every seed: no hang, no panic, and
/// every submitted job drains to an oracle-exact verdict or a typed
/// terminal answer, with telemetry conservation intact (crashed slices
/// included).
#[test]
fn chaos_swarm_upholds_the_robustness_contract() {
    common::silence_injected_panics();
    let opts = chaos_opts();
    let base = seed_from("server_sim::chaos");
    let (mut faults, mut recoveries) = (0u64, 0u64);
    for i in 0..SWARM_SEEDS {
        let run = run_service_seed(base.wrapping_add(i), &opts);
        if !run.violations.is_empty() {
            fail_run(&run, &opts);
        }
        assert!(!run.jobs.is_empty(), "seed {}: no jobs submitted", run.seed);
        for job in &run.jobs {
            assert!(
                job.verdict.is_some(),
                "seed {}: job {} fetched no verdict",
                run.seed,
                job.row.job
            );
        }
        faults += run.wire_faults;
        recoveries += run.crash_recoveries;
    }
    // The chaos must actually bite, or the swarm proves nothing.
    assert!(faults > 0, "no frame faults across the chaos swarm");
    assert!(
        recoveries > 0,
        "no crashed slices were re-dispatched across the chaos swarm"
    );
}

/// The replay law under chaos: every injected fault — which frame is
/// lost, where a worker panics, how far a clock skews — is a pure
/// function of the seed, so one chaotic seed replays byte-identically.
#[test]
fn chaos_replay_is_byte_identical() {
    common::silence_injected_panics();
    let opts = chaos_opts();
    let seed = seed_from("server_sim::chaos_replay");
    let first = run_service_seed(seed, &opts);
    if !first.violations.is_empty() {
        fail_run(&first, &opts);
    }
    let second = run_service_seed(seed, &opts);
    assert_eq!(
        first.trace, second.trace,
        "seed {seed}: canonical service log diverged between chaos replays"
    );
    assert_eq!(
        first.redacted_reports, second.redacted_reports,
        "seed {seed}: redacted reports diverged between chaos replays"
    );
    assert_eq!(first.wire_faults, second.wire_faults);
    assert_eq!(first.quanta, second.quanta);
    assert!(!first.trace.is_empty(), "seed {seed}: empty trace");
}

/// The shrink fold: a deliberately-injected serving bug (verdict flip)
/// is caught by the oracle invariant, attributed to its job, and
/// delta-debugged against the *identical* schedule into a 1-minimal
/// spec that still diverges.
#[test]
fn injected_verdict_flip_shrinks_to_a_minimal_service_spec() {
    let opts = ServiceSimOptions {
        bug: Some(ServiceBug::FlipVerdict),
        ..ServiceSimOptions::default()
    };
    let seed = seed_from("server_sim::flip");
    let run = run_service_seed(seed, &opts);
    assert!(
        run.attributed.iter().any(|(_, d)| d.contains("oracle")),
        "flipped verdicts must diverge from the oracle; got {:?}",
        run.violations
    );

    let shrunk = shrink_service_violation(&run, &opts).expect("a spec job diverged");
    assert!(
        shrunk.min.size() <= shrunk.spec.size(),
        "shrinking must not grow the spec"
    );
    assert!(!shrunk.trace.is_empty(), "minimized run has a trace");
    // The minimal spec still diverges under the identical schedule, and
    // re-minimizing it is a fixpoint (1-minimality).
    let replay = run_service_seed_with_override(seed, &opts, shrunk.job, &shrunk.min);
    assert!(
        replay.attributed.iter().any(|(j, _)| *j == shrunk.job),
        "minimal spec no longer diverges under the pinned schedule"
    );
    let again = ddws_testkit::compgen::minimize_spec(&shrunk.min, |cand| {
        run_service_seed_with_override(seed, &opts, shrunk.job, cand)
            .attributed
            .iter()
            .any(|(j, _)| *j == shrunk.job)
    });
    assert_eq!(
        again.size(),
        shrunk.min.size(),
        "minimized spec was not 1-minimal"
    );
}
