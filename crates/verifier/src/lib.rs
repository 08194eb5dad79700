//! # `ddws-verifier` — the model checker
//!
//! Sound and complete verification of input-bounded compositions with
//! bounded lossy queues against input-bounded LTL-FO properties — the
//! decidable regime of **Theorem 3.4** — via automata-theoretic model
//! checking over the *small verification domain* implied by
//! input-boundedness:
//!
//! 1. the universal closure of the property is instantiated over the
//!    domain ([`ground`]);
//! 2. each ground maximal FO subformula becomes one atomic proposition,
//!    the temporal skeleton of the *negated* property is translated to a
//!    Büchi automaton (`ddws-automata`);
//! 3. the synchronous product of the composition's run graph with that
//!    automaton is searched on-the-fly for an accepting lasso
//!    ([`product`], nested DFS);
//! 4. the ∃-quantification over databases is resolved *lazily*: database
//!    facts start undecided and the search branches on a fact the first
//!    time a rule or property atom touches it ([`oracle`]) — the fragment
//!    of the database a counterexample actually reads is typically tiny
//!    compared to the `2^{|domain|^arity}` instances eager enumeration
//!    would visit.
//!
//! A found lasso is returned as a [`Counterexample`] (database, valuation,
//! run prefix + cycle); absence of a lasso for every valuation and every
//! database over the domain means the property holds at that domain bound
//! (and, by the small-model property of input-bounded specifications, at
//! every domain once the bound is large enough).
//!
//! The crate also implements:
//!
//! * [`modular`] — modular verification (§5, Theorem 5.4): environment
//!   specs, the `Xα`/`Uα` relativization to `moveE` and the
//!   observer-at-recipient translation with `received_q`;
//! * [`reduction`] — the composition → single-peer-with-lookback reduction
//!   behind the proof of Theorem 3.4, testable for verdict equivalence;
//! * [`relevance`] — the static column-domain analysis that decides
//!   vacuous universal-closure valuations before any search.

#![warn(missing_docs)]
pub mod counterexample;
pub mod domain;
pub mod ground;
pub mod modular;
pub mod oracle;
pub mod parallel;
pub mod product;
pub mod protocols;
pub mod reduction;
pub mod relevance;
mod scheduler;
mod telemetry;
pub mod verify;

pub use counterexample::{Counterexample, RunStep};
pub use verify::{
    Checkpoint, DatabaseMode, Inconclusive, Outcome, Reduction, Report, RuleEval, StateRepr,
    Verifier, VerifyError, VerifyOptions,
};

// Clock surface, re-exported so downstream users (and the deterministic
// simulator) can inject virtual time into [`VerifyOptions::clock`]
// without depending on `ddws-automata` directly.
pub use ddws_automata::{wall_clock, Clock, ClockHandle, ManualClock, WallClock};

// Telemetry surface, re-exported so downstream users configure reporting
// and run control without depending on `ddws-telemetry` directly.
pub use ddws_telemetry::{
    validate_run_report, Abort, AbortReason, BufferReporter, CancelToken, Counters, FaultHook,
    HumanReporter, JsonLinesReporter, PhaseTimes, Progress, Reporter, ReporterHandle, RunReport,
    Silent, StreamReporter, TelemetryEvent, MIN_SCHEMA_VERSION, SCHEMA_NAME, SCHEMA_VERSION,
};
