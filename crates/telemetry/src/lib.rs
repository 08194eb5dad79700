//! Search telemetry for the DDWS verifier.
//!
//! The verifier's engines (sequential nested DFS, parallel work-stealing
//! reachability, reduced successor generation, compiled and interpreted rule
//! evaluation) all funnel their observability through this crate:
//!
//! * [`SearchStats`] — the per-run counter block. Workers keep plain local
//!   counters and merge them at join via [`SearchStats::absorb`]; there are
//!   no hot-path atomics in the engines themselves.
//! * [`RunReport`] — the final machine-readable artifact of a verification
//!   run (stable, versioned JSON schema; see [`report::SCHEMA_NAME`]).
//! * [`Reporter`] — the sink trait, with [`Silent`] and JSON-lines
//!   ([`JsonLinesReporter`]) implementations, an in-memory
//!   [`BufferReporter`] for tests, and the drainable [`StreamReporter`]
//!   the verification service serves telemetry from.
//! * [`Progress`] / [`ProgressGate`] — periodic progress snapshots
//!   (states/sec, frontier size, depth, ample/full counts, rule-cache
//!   hits and misses) throttled by a lock-free time gate.
//! * [`EngineTelemetry`] — the bundle of references an engine threads
//!   through its search loop.
//! * [`CancelToken`] / [`AbortReason`] — the run-control layer: cooperative
//!   cancellation, the taxonomy of graceful stops, and the test-only
//!   [`FaultHook`] the deterministic fault injector uses.
//!
//! The crate is dependency-free on purpose: every other crate in the
//! workspace can use it without cycles.

#![warn(missing_docs)]

pub mod control;
pub mod json;
pub mod report;
pub mod reporter;
pub mod stats;

pub use control::{panic_message, AbortReason, CancelToken, FaultHook};
pub use json::Json;
pub use report::{Abort, Counters, PhaseTimes, RunReport, SCHEMA_NAME, SCHEMA_VERSION};
pub use reporter::{
    BufferReporter, EngineTelemetry, JsonLinesReporter, Progress, ProgressGate, Reporter,
    ReporterHandle, RuleMeterSource, Silent, StreamReporter, TelemetryEvent, SILENT,
};
pub use stats::SearchStats;
