//! # `ddws-model` — peers, compositions and runs
//!
//! The executable form of Section 2 of the paper: a **peer** (Definition
//! 2.1) is a tuple `⟨D, S, I, A, Q_in, Q_out, R⟩` of relational schemas plus
//! reaction rules; a **composition** (Definition 2.5) connects peers through
//! one-way FIFO channels; a **run** (Definition 2.6) is an infinite
//! serialized sequence of snapshots.
//!
//! This crate provides:
//!
//! * [`CompositionBuilder`] — declarative construction of peers, channels
//!   and rules (rule bodies in the text syntax of `ddws-logic`, resolved
//!   against each peer's local namespace: `customer`, `?apply`,
//!   `!getRating`, `prev_reccom`, `empty_apply`, …), with full validation of
//!   Definition 2.1's vocabulary restrictions;
//! * [`Composition`] — the compiled form, including the global qualified
//!   vocabulary (`O.customer`, `O.?apply`, `A.!apply`, `move_O`,
//!   `received_apply`, …) over which properties are written;
//! * [`Config`] — a configuration: dynamic relations plus queue contents;
//! * [`ValueClasses`] and the canonical forms of both configuration
//!   representations under them (symmetry reduction, [`canon`]);
//! * successor generation ([`Composition::successors`]) implementing
//!   Definition 2.4's snapshot semantics with every channel flavour the
//!   paper studies: flat/nested, lossy/perfect, k-bounded, deterministic
//!   send (Theorem 3.8), and environment moves for open compositions (§5);
//! * snapshot [`Structure`](ddws_logic::Structure) views for rule and
//!   property evaluation (in-queue atoms read `f(q)`, out-queue atoms read
//!   `l(q)`, exactly as in the paper's LTL-FO semantics).

#![warn(missing_docs)]
pub mod builder;
pub mod canon;
pub mod compact;
pub mod composition;
pub mod config;
pub mod independence;
pub mod plan;
pub mod step;
pub mod view;

pub use builder::{BuildError, CompositionBuilder, PeerBuilder};
pub use canon::{ValueClasses, ValuePerm};
pub use compact::{CompactConfig, CompactView, StatePool};
pub use composition::{
    Channel, ChannelId, ChannelRole, Composition, Endpoint, Mover, Peer, PeerId, QueueKind,
    Semantics,
};
pub use config::{Config, Message};
pub use independence::IndependenceOracle;
pub use plan::{CompiledRules, EvalCtx, RuleCache, RuleRef};
pub use view::{Database, ReadSlot, RuleView, SnapshotView};
