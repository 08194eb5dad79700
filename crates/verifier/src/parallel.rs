//! Engine dispatch: the sequential nested DFS vs. the multi-threaded
//! product search, selected by [`VerifyOptions::threads`].
//!
//! The parallel engine is `ddws-automata`'s
//! [`find_accepting_lasso_limits_parallel_with`] run over the verifier's
//! [`ProductSystem`], whose caches are sharded precisely so that many
//! workers can expand it at once (see [`product`](crate::product)).
//!
//! Contract (documented in DESIGN.md, exercised by `tests/differential.rs`
//! and `tests/faults.rs`):
//!
//! * **verdicts are engine-independent** — for any budget at least the
//!   reachable product size, `threads: None` and `threads: Some(n)` return
//!   the same `Holds`/`Violated`/`Inconclusive` answer for every `n`;
//! * **counterexamples may differ** — both engines return *valid* violating
//!   lassos, but not necessarily the same one; the sequential engine's
//!   witness is additionally stable run-to-run;
//! * **limits stop gracefully** — exhausting the state budget, the
//!   deadline, or the cancel token yields a typed [`Interrupted`] with
//!   partial statistics and (except after a worker panic) a resumable
//!   checkpoint; the parallel engine overshoots `max_states` by at most
//!   one state per worker before stopping.
//!
//! [`Interrupted`]: ddws_automata::Interrupted

use crate::product::{PState, ProductSystem};
use crate::verify::VerifyOptions;
use ddws_automata::emptiness::find_accepting_lasso_limits_with;
use ddws_automata::parallel::find_accepting_lasso_limits_parallel_with;
use ddws_automata::{LimitedResult, SearchLimits};
use ddws_telemetry::EngineTelemetry;

/// Runs the product search with the engine `opts.threads` selects:
/// `None` → sequential nested DFS (CVWY), `Some(n)` → parallel
/// reachability + SCC lasso extraction with `n` workers (`Some(0)` →
/// all available cores). `limits` carries the run's state budget,
/// deadline, cancel token and (test-only) fault hook; `tel` carries the
/// run's progress reporter into the engine's hot loop — pass
/// [`EngineTelemetry::silent`] when no one is listening.
pub fn search_product(
    system: &ProductSystem<'_>,
    opts: &VerifyOptions,
    limits: &SearchLimits,
    tel: &EngineTelemetry<'_>,
) -> LimitedResult<PState> {
    let result = match opts.threads {
        None => find_accepting_lasso_limits_with(system, limits, tel),
        Some(n) => find_accepting_lasso_limits_parallel_with(system, limits, n, tel),
    };
    with_symmetry_merges(system, result)
}

/// Books the system's `symmetry_merges` into a finished search's stats.
pub(crate) fn with_symmetry_merges(
    system: &ProductSystem<'_>,
    mut result: LimitedResult<PState>,
) -> LimitedResult<PState> {
    let stats = match &mut result {
        Ok((_, stats)) => stats,
        Err(stop) => &mut stop.stats,
    };
    stats.symmetry_merges += system.symmetry_merges();
    result
}
