//! Pinned regression seeds for the differential swarm.
//!
//! When `tests/swarm.rs` fails it prints the failing case's *sub-seed*.
//! Add that value to `PINNED` here — it replays the exact same case on
//! every future run, independent of the swarm's own seed or case count.
//!
//! Note the replay mechanics: a printed sub-seed must be fed to
//! `XorShift::new` directly. Wrapping it in `gen::cases(1, sub, ..)` would
//! derive *another* sub-seed from it and draw a different case.

mod common;

use ddws_server::Verdict;
use ddws_testkit::rng::XorShift;

/// Sub-seeds pinned from past swarm runs (plus a few hand-picked values
/// so the harness itself is always exercised).
const PINNED: &[u64] = &[1, 42, 0x9e37_79b9_7f4a_7c15];

#[test]
fn pinned_swarm_seeds_stay_green() {
    for &seed in PINNED {
        let mut rng = XorShift::new(seed);
        common::assert_case_agrees(&mut rng);
    }
}

/// Sub-seeds pinned for the compiled-vs-interpreted rule-evaluation
/// differential (`tests/swarm.rs::compiled_and_interpreted_agree_*`). The
/// two values replay cases that exercise both verdicts, keeping the
/// compiled engine's counterexample-replay path covered forever.
const PINNED_COMPILED: &[u64] = &[7, 11];

#[test]
fn pinned_compiled_seeds_stay_green() {
    for &seed in PINNED_COMPILED {
        let mut rng = XorShift::new(seed);
        common::assert_compiled_agrees(&mut rng);
    }
}

/// Sub-seeds pinned for the compact-vs-legacy state-representation
/// differential (`tests/swarm.rs::compact_and_legacy_representations_*`).
/// Seed 3's case holds (the whole product graph is explored under both
/// representations, pinning `states_expanded` equality on complete
/// searches); seed 4's case is violated (the compact-found counterexample
/// must replay under the legacy interpreted stepper). Together they keep
/// both verdict paths of `common::repr_agrees` covered forever.
const PINNED_REPR: &[u64] = &[3, 4];

#[test]
fn pinned_repr_seeds_stay_green() {
    for &seed in PINNED_REPR {
        let mut rng = XorShift::new(seed);
        common::assert_repr_agrees(&mut rng);
    }
}

/// Sub-seeds pinned from the fault-injection swarm (`tests/faults.rs`).
/// The first replays an injected worker panic inside the two-worker
/// parallel engine under `Reduction::Full` (panic isolation: typed error,
/// one report, survivors drain); the second replays an injected
/// cancellation under `Reduction::Ample` whose checkpoint is resumed to
/// the unfaulted verdict.
const PINNED_FAULTS: &[u64] = &[0x19a9_236d_56a4_7241, 0xdd3a_2ffa_580f_7a17];

#[test]
fn pinned_fault_seeds_stay_green() {
    common::silence_injected_panics();
    for &seed in PINNED_FAULTS {
        let mut rng = XorShift::new(seed);
        common::assert_fault_case(&mut rng);
    }
}

/// Seeds pinned from the whole-system simulation swarm (`tests/sim.rs`),
/// fed to `ddws_sim::run_seed` directly. Each guards a hard-won schedule
/// shape the swarm would only rediscover by luck:
///
/// * `SIM_CRASH_DURING_RESUME` — a job is preempted by the virtual-clock
///   deadline, resumes its checkpoint, and the planned crash then lands
///   *inside the resumed slice*: the checkpoint is discarded, the job
///   restarts from scratch, and its verdict must still agree with the
///   unfaulted oracle (the checkpoint-loss path of §3.11).
/// * `SIM_LOSS_HEAVY` — the perturbed channel walk fires the in-transit
///   loss perturbation at least four times, pinning T3.4's downward
///   closure under sustained message loss.
///
/// Both must stay violation-free and replay byte-identically.
const SIM_CRASH_DURING_RESUME: u64 = 62;
const SIM_LOSS_HEAVY: u64 = 27;

#[test]
fn pinned_sim_seeds_stay_green() {
    use ddws_sim::{run_seed, SimEvent, SimOptions};
    common::silence_injected_panics();
    let opts = SimOptions::default();

    for (seed, what) in [
        (SIM_CRASH_DURING_RESUME, "crash-during-resume"),
        (SIM_LOSS_HEAVY, "loss-heavy"),
    ] {
        let run = run_seed(seed, &opts);
        assert!(
            run.violations.is_empty(),
            "pinned sim seed {seed} ({what}) now violates: {:?}",
            run.violations
        );
        let replay = run_seed(seed, &opts);
        assert_eq!(
            run.canonical_trace(),
            replay.canonical_trace(),
            "pinned sim seed {seed} ({what}) no longer replays deterministically"
        );
    }

    // The pinned schedule shapes must persist, or the pins guard nothing.
    let crashy = run_seed(SIM_CRASH_DURING_RESUME, &opts);
    let crash_in_resumed_slice = crashy.events.iter().any(|e| {
        let SimEvent::CrashInjected { job, slice } = e else {
            return false;
        };
        crashy
            .events
            .iter()
            .any(|r| matches!(r, SimEvent::Resumed { job: j, slice: s } if j == job && s == slice))
    });
    assert!(
        crash_in_resumed_slice,
        "seed {SIM_CRASH_DURING_RESUME} no longer crashes inside a resumed slice"
    );

    let lossy = run_seed(SIM_LOSS_HEAVY, &opts);
    let losses = lossy
        .events
        .iter()
        .filter(|e| matches!(e, SimEvent::WalkStep { perturbation, .. } if *perturbation == "loss"))
        .count();
    assert!(
        losses >= 4,
        "seed {SIM_LOSS_HEAVY} walk lost only {losses} messages (pinned ≥ 4)"
    );
}

/// A pinned sim seed exercising the compact-representation checkpoint
/// path end to end: one of its jobs draws `StateRepr::Compact` from its
/// walk seed's parity bit, is preempted by the virtual-clock deadline,
/// resumes its checkpoint (interned states serialized and restored across
/// the slice boundary), and still reaches a conclusive verdict that the
/// legacy-representation oracle confirms.
const SIM_COMPACT_RESUME: u64 = 3;

#[test]
fn pinned_compact_resume_sim_seed_stays_green() {
    use ddws_sim::{run_seed, SimEvent, SimOptions};
    use ddws_verifier::StateRepr;
    common::silence_injected_panics();
    let opts = SimOptions::default();
    let run = run_seed(SIM_COMPACT_RESUME, &opts);
    assert!(
        run.violations.is_empty(),
        "pinned sim seed {SIM_COMPACT_RESUME} (compact-resume) now violates: {:?}",
        run.violations
    );
    let replay = run_seed(SIM_COMPACT_RESUME, &opts);
    assert_eq!(
        run.canonical_trace(),
        replay.canonical_trace(),
        "pinned sim seed {SIM_COMPACT_RESUME} no longer replays deterministically"
    );
    // The pinned shape: a compact-representation job that resumed a
    // checkpoint and still concluded (the legacy oracle agreeing is part
    // of the violation-free check above).
    let compact_resumed = run.jobs.iter().enumerate().any(|(j, job)| {
        job.state_repr == StateRepr::Compact
            && (job.verdict == "holds" || job.verdict == "violated")
            && run
                .events
                .iter()
                .any(|e| matches!(e, SimEvent::Resumed { job: jj, .. } if *jj == j))
    });
    assert!(
        compact_resumed,
        "seed {SIM_COMPACT_RESUME} no longer resumes a compact-representation job"
    );
}

/// A pinned sim seed exercising the multi-shard checkpoint path end to
/// end: one of its jobs draws `valuation_threads: Some(3)` from its walk
/// seed, is preempted mid-closure (the cooperative scheduler parks
/// several in-flight valuation legs into one checkpoint), resumes across
/// the slice boundary, and still reaches a *violated* verdict that the
/// unsharded, unfaulted oracle confirms.
const SIM_MULTI_SHARD_RESUME: u64 = 44;

#[test]
fn pinned_multi_shard_resume_sim_seed_stays_green() {
    use ddws_sim::{run_seed, SimEvent, SimOptions};
    common::silence_injected_panics();
    let opts = SimOptions::default();
    let run = run_seed(SIM_MULTI_SHARD_RESUME, &opts);
    assert!(
        run.violations.is_empty(),
        "pinned sim seed {SIM_MULTI_SHARD_RESUME} (multi-shard-resume) now violates: {:?}",
        run.violations
    );
    let replay = run_seed(SIM_MULTI_SHARD_RESUME, &opts);
    assert_eq!(
        run.canonical_trace(),
        replay.canonical_trace(),
        "pinned sim seed {SIM_MULTI_SHARD_RESUME} no longer replays deterministically"
    );
    // The pinned shape: a sharded job (outer valuation pool ≥ 2) that
    // resumed a checkpoint and still concluded — here with a violation,
    // so the first-violation cancel, the legged checkpoint, and the
    // counterexample all survive the slice boundary (the oracle agreeing
    // is part of the violation-free check above).
    let sharded_resumed = run.jobs.iter().enumerate().any(|(j, job)| {
        job.valuation_threads.is_some_and(|n| n >= 2)
            && job.verdict == "violated"
            && run
                .events
                .iter()
                .any(|e| matches!(e, SimEvent::Resumed { job: jj, .. } if *jj == j))
    });
    assert!(
        sharded_resumed,
        "seed {SIM_MULTI_SHARD_RESUME} no longer resumes a multi-shard job to a violation"
    );
}

/// A pinned sub-seed whose case is violated under the sequential full
/// search and shrinks substantially: the 14-element spec (two channels, a
/// second relay's worth of rules, two database rows) minimizes to the
/// 5-element violating core — two relays, the property's channel with its
/// send rule, and the one database row that lets the sender fire.
const SHRINKABLE: u64 = 15;
const SHRUNK_SIZE: usize = 5;

#[test]
fn pinned_shrinkable_seed_minimizes_to_its_core() {
    let mut rng = XorShift::new(SHRINKABLE);
    let spec = ddws_testkit::compgen::spec(&mut rng);
    let case = spec.build().expect("pinned spec builds");
    assert!(
        common::violates_seq_full(&case),
        "pinned seed no longer violates `{}`",
        case.property
    );
    let min = ddws_testkit::compgen::minimize(&spec, common::violates_seq_full);
    assert!(min.size() < spec.size(), "minimizer made no progress");
    assert_eq!(min.size(), SHRUNK_SIZE, "minimized spec drifted:\n{min}");
    let min_case = min.build().expect("minimized spec builds");
    assert!(
        common::violates_seq_full(&min_case),
        "minimized spec must still violate"
    );
}

/// Pinned seeds for the service swarm (`tests/server_sim.rs`). Unlike
/// the sub-seed pins above, these are fed to
/// [`ddws_sim::run_service_seed`] whole — the seed fixes the entire
/// schedule (job draws, wire interleaving, cancellation timing), so the
/// replay needs no further derivation.
///
/// `SERVER_CANCEL_MID_RUN`: the planned `cancel_job` lands on job 4
/// after three executed slices, so the cancel hits a *parked*
/// checkpoint — the service must discard it, answer `cancelled` on the
/// wire, and leave every other job's verdict oracle-exact.
const SERVER_CANCEL_MID_RUN: u64 = 6;

/// `SERVER_VIOLATION_ACROSS_SLICES`: job 1 parks repeatedly and resumes
/// across four quanta before reaching `violated`; the counterexample
/// digest served over the wire must equal the digest of the direct
/// one-shot oracle run (enforced inside `run_service_seed`, pinned here
/// by shape so the resume-to-violation path stays covered).
const SERVER_VIOLATION_ACROSS_SLICES: u64 = 21;

#[test]
fn pinned_server_cancel_seed_stays_green() {
    let opts = ddws_sim::ServiceSimOptions {
        quantum_states: 64,
        budget: 4_096,
        ..ddws_sim::ServiceSimOptions::default()
    };
    let run = ddws_sim::run_service_seed(SERVER_CANCEL_MID_RUN, &opts);
    assert_eq!(
        run.violations,
        Vec::<String>::new(),
        "seed {SERVER_CANCEL_MID_RUN} violated"
    );
    let cancelled: Vec<_> = run.jobs.iter().filter(|j| j.cancelled()).collect();
    assert_eq!(cancelled.len(), 1, "exactly one planned cancel");
    let job = cancelled[0];
    assert_eq!(job.verdict, Some(Verdict::Cancelled));
    assert!(
        job.row.slices >= 1,
        "cancel no longer lands mid-run (0 slices executed)"
    );
    assert!(
        job.row.discarded_checkpoint,
        "cancel no longer discards a parked checkpoint"
    );
    assert!(job.counterexample.is_none());
}

#[test]
fn pinned_server_violation_seed_stays_green() {
    let opts = ddws_sim::ServiceSimOptions {
        quantum_states: 48,
        budget: 20_000,
        cancel_one: false,
        ..ddws_sim::ServiceSimOptions::default()
    };
    let run = ddws_sim::run_service_seed(SERVER_VIOLATION_ACROSS_SLICES, &opts);
    assert_eq!(
        run.violations,
        Vec::<String>::new(),
        "seed {SERVER_VIOLATION_ACROSS_SLICES} violated"
    );
    let job = run
        .jobs
        .iter()
        .find(|j| j.verdict == Some(Verdict::Violated) && j.row.slices >= 2)
        .expect("seed no longer resumes a parked job to a violation");
    // Oracle agreement is recorded inside the run; pin the digest shape
    // too so a silent re-draw of the corpus can't hollow the test out.
    let cex = job
        .counterexample
        .as_ref()
        .expect("violated job has a digest");
    assert_eq!(job.oracle_counterexample.as_ref(), Some(cex));
    assert!(cex.cycle_len > 0, "lasso digest lost its cycle");
}

/// Pinned chaos seeds for the fault-tolerant service (`tests/server_sim.rs`
/// chaos swarm), fed to [`ddws_sim::run_service_seed`] whole.
///
/// `SERVER_CRASH_REDISPATCH`: the seeded injector panics job 5's worker
/// mid-slice twice; the supervisor restores the pre-slice checkpoint and
/// requeues both times, and the job still reaches `violated` across four
/// slices with a counterexample digest the one-shot oracle confirms — a
/// crash loses a quantum, never the job, and never the verdict.
const SERVER_CRASH_REDISPATCH: u64 = 12;

/// `SERVER_DUP_SUBMIT_DEDUP`: a duplicate-only wire delivers at least one
/// `submit_job` frame twice. The `submit_token` dedup window collapses
/// the copies onto one job — the second delivery is acked with the
/// *original* id (the `dedup` event in the canonical log), exactly one
/// job per logical submission runs, and every verdict stays oracle-exact.
const SERVER_DUP_SUBMIT_DEDUP: u64 = 9;

#[test]
fn pinned_server_crash_seed_redispatches_to_the_oracle_verdict() {
    common::silence_injected_panics();
    let opts = ddws_sim::ServiceSimOptions {
        quantum_states: 64,
        budget: 8_192,
        cancel_one: false,
        crash_in: 6,
        crash_quarantine: 10,
        ..ddws_sim::ServiceSimOptions::default()
    };
    let run = ddws_sim::run_service_seed(SERVER_CRASH_REDISPATCH, &opts);
    assert_eq!(
        run.violations,
        Vec::<String>::new(),
        "seed {SERVER_CRASH_REDISPATCH} violated"
    );
    assert!(
        run.crash_recoveries >= 2,
        "seed {SERVER_CRASH_REDISPATCH} no longer crashes enough workers \
         ({} recoveries)",
        run.crash_recoveries
    );
    // The pinned shape: a job that crashed mid-slice, re-dispatched from
    // its checkpoint, and still served the oracle-confirmed violation.
    let job = run
        .jobs
        .iter()
        .find(|j| j.verdict == Some(Verdict::Violated) && j.row.crash_recoveries >= 1)
        .expect("seed no longer re-dispatches a crashed job to a violation");
    assert_eq!(job.oracle.as_deref(), Some("violated"));
    assert_eq!(
        job.oracle_counterexample.as_ref(),
        job.counterexample.as_ref().map(Some).unwrap_or(None),
        "re-dispatched counterexample must stay oracle-exact"
    );
    assert!(job.counterexample.is_some(), "violated job has a digest");
    assert!(run.trace.contains("crashed (recovery"));
    // And the chaotic schedule replays byte-identically.
    let replay = ddws_sim::run_service_seed(SERVER_CRASH_REDISPATCH, &opts);
    assert_eq!(run.trace, replay.trace);
    assert_eq!(run.redacted_reports, replay.redacted_reports);
}

#[test]
fn pinned_server_duplicate_submit_seed_collapses_onto_one_job() {
    let opts = ddws_sim::ServiceSimOptions {
        chaos: ddws_testkit::faults::FrameChaos {
            corrupt_in: 0,
            drop_in: 0,
            dup_in: 4,
            reorder_in: 0,
        },
        ..ddws_sim::ServiceSimOptions::default()
    };
    let run = ddws_sim::run_service_seed(SERVER_DUP_SUBMIT_DEDUP, &opts);
    assert_eq!(
        run.violations,
        Vec::<String>::new(),
        "seed {SERVER_DUP_SUBMIT_DEDUP} violated"
    );
    assert!(run.wire_faults > 0, "the dup wire injected nothing");
    // The pinned shape: at least one duplicated submit_job was acked a
    // second time with the original id instead of spawning a twin job.
    let dedup_acks = run
        .trace
        .lines()
        .filter(|l| l.contains("-> dedup job="))
        .count();
    assert!(
        dedup_acks >= 1,
        "seed {SERVER_DUP_SUBMIT_DEDUP} no longer duplicates a submit_job frame"
    );
    // One job per logical submission — the duplicates created nothing.
    assert_eq!(
        run.jobs.len(),
        6,
        "duplicate submissions spawned extra jobs"
    );
    let mut ids: Vec<u64> = run.jobs.iter().map(|j| j.row.job).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), 6, "two logical submissions share a job id");
}
