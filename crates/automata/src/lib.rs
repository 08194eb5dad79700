//! # `ddws-automata` — Büchi automata and propositional LTL
//!
//! The automata-theoretic backbone of the verifier. Properties and
//! conversation protocols are ultimately ω-regular conditions over the
//! snapshots of a run; once the verifier grounds all first-order content
//! into a finite set of *atomic propositions*, what remains is classical:
//!
//! * [`ltl`] — propositional LTL over proposition indices, negation normal
//!   form, and direct evaluation on ultimately periodic words (the testing
//!   oracle for the translation),
//! * [`guard`] — letters as bitsets of propositions and conjunctive-literal
//!   guards on transitions,
//! * [`nba`] — nondeterministic Büchi automata,
//! * [`translate`] — the Gerth–Peled–Vardi–Wolper tableau translation
//!   LTL → generalized Büchi → Büchi,
//! * [`emptiness`] — nested depth-first search for accepting lassos over an
//!   abstract transition system (used on-the-fly by the verifier's product
//!   construction),
//! * [`parallel`] — the multi-threaded counterpart: work-stealing
//!   reachability plus SCC-based lasso extraction, verdict-identical to
//!   the sequential search,
//! * [`complement`] — complementation: the two-copy construction for
//!   deterministic automata and the rank-based (Kupferman–Vardi)
//!   construction for small nondeterministic ones (needed to check that
//!   *all* runs of a composition are accepted by a conversation protocol,
//!   Section 4 of the paper).
//!
//! The alphabet is `2^AP` for at most 64 propositions — far beyond anything
//! the verifier grounds in practice.

#![warn(missing_docs)]
pub mod complement;
pub mod emptiness;
pub mod guard;
pub mod limits;
pub mod ltl;
pub mod nba;
pub mod parallel;
pub mod translate;

pub use emptiness::{
    find_accepting_lasso, find_accepting_lasso_limits_with, Expansion, Lasso, SeqCheckpoint,
    TransitionSystem,
};
pub use guard::{Guard, Letter};
pub use limits::{
    resume_accepting_lasso_with, wall_clock, Clock, ClockHandle, Deadline, EngineCheckpoint,
    Interrupted, LimitedResult, ManualClock, SearchLimits, WallClock,
};
pub use ltl::Ltl;
pub use nba::{Nba, StateId};
pub use parallel::{find_accepting_lasso_limits_parallel_with, ParCheckpoint};
pub use translate::{ltl_to_nba, ltl_to_nba_limits};
