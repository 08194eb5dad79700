//! # `ddws-sim` — deterministic whole-system simulation
//!
//! A VOPR-style seeded discrete-event harness that drives the whole
//! verification stack — concurrent jobs over the compgen/scenario
//! corpus, randomized cooperative schedules, virtual-clock time slicing
//! through `SearchLimits` deadlines, checkpoint/crash/resume, and
//! channel perturbation within the paper's lossy-queue semantics
//! (Theorem 3.4) — as a **pure function of one `u64` seed**.
//!
//! The three pillars (DESIGN.md §3.11):
//!
//! 1. **Determinism.** Single-threaded simulation, sequential search
//!    engine, and a [`ManualClock`](ddws_automata::ManualClock) advanced
//!    one tick per state expansion from the fault hook. Nothing reads
//!    wall time, thread scheduling, or iteration order of unordered
//!    containers — so the canonical event trace and every `RunReport`
//!    (modulo redacted timing) replay byte-identically from the seed.
//! 2. **Invariants, not assertions.** Violations (verdict divergence
//!    from an unfaulted oracle, report-schema breakage, lost/duplicated
//!    reports, deadlock, loss-closure failures) are *recorded* on the
//!    run, so the harness can hand the failing schedule to the shrinker
//!    instead of dying mid-run.
//! 3. **Shrinking.** A failing seed is delta-debugged with
//!    `compgen::minimize_spec`: the violating job's spec is minimized
//!    against the *identical* schedule (same seed, same RNG stream, spec
//!    swapped in after the draw phase), yielding a 1-minimal spec plus the
//!    canonical trace of the minimized schedule. Both harnesses (the
//!    in-process simulator and the service simulator) take the override
//!    as a `CaseSpec` and return one [`ShrunkFailure`].

#![warn(missing_docs)]

pub mod channel;
pub mod event;
pub mod service;
pub mod sim;

pub use event::{canonical_trace, SimEvent};
pub use service::{
    fairness_violations, lifecycle_violations, run_service_seed, run_service_seed_with_override,
    shrink_service_violation, ChaosTransport, ServiceBug, ServiceJob, ServiceRun,
    ServiceSimOptions,
};
pub use sim::{
    run_seed, run_with_case_override, run_with_jobs, shrink_first_violation, JobRecord, JobSource,
    ShrunkFailure, SimBug, SimOptions, SimRun,
};
