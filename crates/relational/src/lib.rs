//! # `ddws-relational` — the relational substrate
//!
//! Every artifact in a data-driven web-service composition — the fixed
//! database of a peer, its mutable state, the user inputs, the performed
//! actions and the messages travelling through queues — is a finite
//! relational instance (Deutsch–Sui–Vianu–Zhou, PODS 2006, Definition 2.1).
//! This crate provides that substrate:
//!
//! * [`Symbols`] — an interner mapping external names (constants, domain
//!   elements) to compact [`Value`] handles,
//! * [`Tuple`] — an immutable, ordered sequence of values,
//! * [`Relation`] — a canonical (sorted, duplicate-free) finite set of
//!   same-arity tuples,
//! * [`Vocabulary`] / [`RelId`] — a registry of relation names and arities,
//! * [`Instance`] — a relational structure over a vocabulary,
//! * active-domain computation, the basis of active-domain quantification
//!   in the logic layer,
//! * [`hash`] — the keyless [`FxHasher`](hash::FxHasher) the search's
//!   id-keyed tables hash with.
//!
//! Canonical representations are load-bearing: verification hashes millions
//! of configurations, so equal instances must be structurally identical.
//! [`Relation`] is a `BTreeSet` and [`Instance`] stores relations densely by
//! [`RelId`], which makes `Hash`/`Eq` on configurations sound and cheap.

#![warn(missing_docs)]
pub mod hash;
pub mod instance;
pub mod intern;
pub mod relation;
pub mod tuple;
pub mod value;
pub mod vocabulary;

pub use instance::Instance;
pub use intern::{Interner, PackSpec};
pub use relation::Relation;
pub use tuple::Tuple;
pub use value::{Symbols, Value};
pub use vocabulary::{RelDecl, RelId, Vocabulary};
