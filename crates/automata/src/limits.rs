//! Run-control for the emptiness engines: limits (state budget, deadline,
//! cancellation, fault hook), the typed [`Interrupted`] stop, and the
//! engine checkpoints a caller can resume from.
//!
//! Both engines share one contract: a search either returns a verdict
//! (`Ok`) or stops *gracefully* with an [`Interrupted`] carrying the
//! [`AbortReason`], the partial [`SearchStats`], and — for every reason
//! except a worker panic — an [`EngineCheckpoint`] from which
//! [`resume_accepting_lasso_with`] continues the search. Resuming a
//! budget- or deadline-truncated run with laxer limits reaches the same
//! verdict a fresh unbounded run would.

use crate::emptiness::{resume_seq, Lasso, SeqCheckpoint, TransitionSystem, PROGRESS_STRIDE_MASK};
use crate::parallel::{resume_par, ParCheckpoint};
use ddws_telemetry::{AbortReason, CancelToken, EngineTelemetry, FaultHook, SearchStats};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// A monotonic nanosecond clock. The engines only ever *read* time, and
/// only through this trait, so callers can substitute a virtual clock —
/// the deterministic simulator advances one from its fault hook, which
/// makes deadline expiry a pure function of the schedule instead of the
/// machine's load.
pub trait Clock: Send + Sync + std::fmt::Debug {
    /// Nanoseconds elapsed on this clock since its epoch.
    fn now_ns(&self) -> u64;
}

/// A shared, thread-safe clock handle.
pub type ClockHandle = Arc<dyn Clock>;

/// The real wall clock: nanoseconds since the first observation in this
/// process (anchoring to a process epoch keeps the value comfortably
/// inside `u64`).
#[derive(Debug, Default)]
pub struct WallClock;

impl Clock for WallClock {
    fn now_ns(&self) -> u64 {
        static EPOCH: OnceLock<Instant> = OnceLock::new();
        EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
    }
}

/// The process-wide [`WallClock`] handle (one shared allocation).
pub fn wall_clock() -> ClockHandle {
    static WALL: OnceLock<ClockHandle> = OnceLock::new();
    WALL.get_or_init(|| Arc::new(WallClock)).clone()
}

/// A manually advanced virtual clock for tests and the deterministic
/// simulator. Time only moves when someone calls [`ManualClock::advance`]
/// (or [`ManualClock::set`]), so deadline expiry under this clock is
/// deterministic and instantaneous — no test ever sleeps real
/// milliseconds to make a deadline pass.
#[derive(Debug, Default)]
pub struct ManualClock {
    ns: AtomicU64,
}

impl ManualClock {
    /// A virtual clock starting at `start_ns`.
    pub fn new(start_ns: u64) -> ManualClock {
        ManualClock {
            ns: AtomicU64::new(start_ns),
        }
    }

    /// Advances the clock by `ns` nanoseconds (saturating).
    pub fn advance(&self, ns: u64) {
        // fetch_update over fetch_add so repeated advances saturate
        // instead of wrapping back before armed deadlines.
        let _ = self
            .ns
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |cur| {
                Some(cur.saturating_add(ns))
            });
    }

    /// Sets the clock to an absolute value.
    pub fn set(&self, ns: u64) {
        self.ns.store(ns, Ordering::Relaxed);
    }
}

impl Clock for ManualClock {
    fn now_ns(&self) -> u64 {
        self.ns.load(Ordering::Relaxed)
    }
}

/// A deadline on some [`Clock`], remembering the budget it was derived
/// from so abort reports can state the configured limit (an expiry
/// instant alone cannot be turned back into a duration).
#[derive(Clone, Debug)]
pub struct Deadline {
    /// The clock instant (in that clock's nanoseconds) after which the
    /// engines stop.
    pub at_ns: u64,
    /// The originally configured budget, in nanoseconds.
    pub budget_ns: u64,
    /// The clock the deadline is measured on.
    clock: ClockHandle,
}

impl Deadline {
    /// A deadline `d` from now on the process wall clock.
    pub fn after(d: Duration) -> Deadline {
        Deadline::after_on(wall_clock(), d)
    }

    /// A deadline `d` from now on the given clock.
    pub fn after_on(clock: ClockHandle, d: Duration) -> Deadline {
        Deadline {
            at_ns: clock.now_ns().saturating_add(d.as_nanos() as u64),
            budget_ns: d.as_nanos() as u64,
            clock,
        }
    }

    /// Whether the deadline has passed on its clock.
    pub fn is_expired(&self) -> bool {
        self.clock.now_ns() >= self.at_ns
    }
}

/// Everything that can stop a search before it reaches a verdict.
///
/// The zero-cost default is fully unbounded. The budget is checked per
/// visited state, cancellation per engine loop iteration (one relaxed
/// atomic load), the deadline on the engines' ~1024-iteration progress
/// stride (first checked on the very first iteration, so an
/// already-expired deadline aborts before any expansion), and the fault
/// hook — test-only — fires once per expansion with a global 1-based
/// ordinal.
#[derive(Clone, Default)]
pub struct SearchLimits {
    /// Visited-state cap; `None` means unbounded.
    pub max_states: Option<u64>,
    /// Wall-clock deadline.
    pub deadline: Option<Deadline>,
    /// Cooperative cancellation token.
    pub cancel: Option<CancelToken>,
    /// Deterministic fault-injection hook (see [`FaultHook`]).
    pub fault: Option<FaultHook>,
}

impl SearchLimits {
    /// No limits at all.
    pub fn unbounded() -> SearchLimits {
        SearchLimits::default()
    }

    /// Only a visited-state budget (the pre-existing engine contract).
    pub fn states(max_states: u64) -> SearchLimits {
        SearchLimits {
            max_states: Some(max_states),
            ..SearchLimits::default()
        }
    }

    /// The effective state cap (`u64::MAX` when unbounded).
    pub(crate) fn state_cap(&self) -> u64 {
        self.max_states.unwrap_or(u64::MAX)
    }

    /// The stop the cancel token or the deadline calls for at loop
    /// iteration `tick` (0-based): cancellation is checked on every
    /// iteration, the deadline on the progress stride.
    pub(crate) fn interruption(&self, tick: u64) -> Option<AbortReason> {
        if let Some(token) = self.cancel.as_ref().filter(|t| t.is_cancelled()) {
            let reason = token.reason().unwrap_or_default();
            return Some(AbortReason::Cancelled { reason });
        }
        let deadline = self.deadline.as_ref()?;
        let expired = tick & PROGRESS_STRIDE_MASK == 0 && deadline.is_expired();
        let limit_ns = deadline.budget_ns;
        expired.then_some(AbortReason::DeadlineExceeded { limit_ns })
    }
}

/// A search that stopped before reaching a verdict — budget, deadline,
/// cancellation, or a worker panic. Never a hang, never a process abort.
#[derive(Clone, Debug)]
pub struct Interrupted<S> {
    /// Why the search stopped.
    pub reason: AbortReason,
    /// The partial statistics at stop time, `truncated` set.
    pub stats: SearchStats,
    /// A checkpoint to continue from; `None` exactly when a worker
    /// panicked (a panicking expansion may have lost arbitrary in-flight
    /// work, so the engines refuse to pretend the frontier is coherent).
    pub checkpoint: Option<EngineCheckpoint<S>>,
}

impl<S> std::fmt::Display for Interrupted<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "search interrupted after {} states: {}",
            self.stats.states_visited, self.reason
        )
    }
}

/// The outcome of a limited lasso search: the witness (if any) plus the
/// exploration statistics, or a graceful interruption. The stop is boxed
/// — it carries partial stats and a checkpoint, far bigger than the happy
/// path, and aborts are rare enough that the extra allocation is free.
pub type LimitedResult<S> = Result<(Option<Lasso<S>>, SearchStats), Box<Interrupted<S>>>;

/// A frozen search frontier, resumable with
/// [`resume_accepting_lasso_with`]. Opaque: the variants mirror the two
/// engines, and a checkpoint resumes on the engine that produced it.
#[derive(Clone, Debug)]
pub enum EngineCheckpoint<S> {
    /// Sequential nested-DFS checkpoint (exact continuation).
    Seq(SeqCheckpoint<S>),
    /// Parallel reachability checkpoint (frontier reconstruction).
    Par(ParCheckpoint<S>),
}

impl<S> EngineCheckpoint<S> {
    /// The worker count the checkpointed search ran with: `None` for the
    /// sequential engine, `Some(workers)` for the parallel one.
    pub fn threads(&self) -> Option<usize> {
        match self {
            EngineCheckpoint::Seq(_) => None,
            EngineCheckpoint::Par(cp) => Some(cp.workers()),
        }
    }

    /// States visited by the checkpointed search so far.
    pub fn states_visited(&self) -> u64 {
        match self {
            EngineCheckpoint::Seq(cp) => cp.stats().states_visited,
            EngineCheckpoint::Par(cp) => cp.stats().states_visited,
        }
    }
}

/// Continues a checkpointed search under `limits`, on the engine the
/// checkpoint came from. The state budget in `limits` counts *total*
/// visited states including the checkpointed ones, so resuming with the
/// budget that tripped immediately trips again; raise or drop it.
pub fn resume_accepting_lasso_with<TS: TransitionSystem>(
    ts: &TS,
    checkpoint: EngineCheckpoint<TS::State>,
    limits: &SearchLimits,
    tel: &EngineTelemetry<'_>,
) -> LimitedResult<TS::State> {
    match checkpoint {
        EngineCheckpoint::Seq(cp) => resume_seq(ts, cp, limits, tel),
        EngineCheckpoint::Par(cp) => resume_par(ts, cp, limits, tel),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::emptiness::{
        find_accepting_lasso_limits_with,
        test_graphs::{c3_trap, ReducedGraph},
    };
    use crate::parallel::find_accepting_lasso_limits_parallel_with;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    /// A chain 0 → 1 → … → n-1 with a tail cycle through an accepting
    /// state when `accepting_tail` is set.
    fn chain(n: usize, accepting_tail: bool) -> ReducedGraph {
        let mut edges: Vec<Vec<usize>> = (0..n)
            .map(|i| if i + 1 < n { vec![i + 1] } else { vec![] })
            .collect();
        let mut accepting = vec![false; n];
        if accepting_tail {
            edges[n - 1].push(n - 2);
            edges[n - 2].push(n - 1);
            accepting[n - 1] = true;
        }
        ReducedGraph {
            edges,
            accepting,
            initial: vec![0],
            ample: vec![None; n],
        }
    }

    fn tel() -> EngineTelemetry<'static> {
        EngineTelemetry::silent()
    }

    /// The unlimited sequential verdict and statistics, the reference
    /// every stopped-and-resumed search must reproduce.
    fn unlimited(g: &ReducedGraph) -> (Option<Lasso<usize>>, SearchStats) {
        find_accepting_lasso_limits_with(g, &SearchLimits::unbounded(), &tel())
            .expect("an unlimited search finishes")
    }

    #[test]
    fn pre_cancelled_token_stops_both_engines_before_work() {
        let g = chain(100, true);
        let token = CancelToken::new();
        token.cancel("caller gave up");
        let limits = SearchLimits {
            cancel: Some(token),
            ..SearchLimits::default()
        };
        for threads in [None, Some(1), Some(2)] {
            let stop = match threads {
                None => find_accepting_lasso_limits_with(&g, &limits, &tel()),
                Some(t) => find_accepting_lasso_limits_parallel_with(&g, &limits, t, &tel()),
            }
            .expect_err("cancelled before the search started");
            assert!(
                matches!(&stop.reason, AbortReason::Cancelled { reason } if reason == "caller gave up"),
                "threads={threads:?}: {:?}",
                stop.reason
            );
            assert!(stop.stats.truncated);
            assert!(stop.checkpoint.is_some(), "cancellation is resumable");
        }
    }

    #[test]
    fn expired_deadline_stops_both_engines_before_any_expansion() {
        // Expire the deadline on a virtual clock: arm a 1 ns budget, tick
        // the clock past it. No real time is involved.
        let g = chain(5000, false);
        let clock = Arc::new(ManualClock::new(0));
        let deadline = Deadline::after_on(clock.clone(), Duration::from_nanos(1));
        clock.advance(2);
        assert!(deadline.is_expired());
        let limits = SearchLimits {
            deadline: Some(deadline),
            ..SearchLimits::default()
        };
        for threads in [None, Some(2)] {
            let stop = match threads {
                None => find_accepting_lasso_limits_with(&g, &limits, &tel()),
                Some(t) => find_accepting_lasso_limits_parallel_with(&g, &limits, t, &tel()),
            }
            .expect_err("deadline already passed");
            assert!(
                matches!(stop.reason, AbortReason::DeadlineExceeded { limit_ns: 1 }),
                "threads={threads:?}: {:?}",
                stop.reason
            );
            assert_eq!(stop.stats.states_expanded, 0, "threads={threads:?}");
        }
    }

    #[test]
    fn budget_checkpoint_resumes_to_the_unbounded_verdict_seq() {
        for &accepting in &[false, true] {
            let g = chain(64, accepting);
            let (expected, full_stats) = unlimited(&g);
            let stop = find_accepting_lasso_limits_with(&g, &SearchLimits::states(10), &tel())
                .expect_err("budget must trip");
            assert!(matches!(
                stop.reason,
                AbortReason::StateBudget { max_states: 10 }
            ));
            let cp = stop.checkpoint.expect("budget stop is resumable");
            assert!(cp.threads().is_none(), "sequential checkpoint");
            let (resumed, stats) =
                resume_accepting_lasso_with(&g, cp, &SearchLimits::unbounded(), &tel())
                    .expect("no limits on the resumed leg");
            assert_eq!(
                resumed.is_some(),
                expected.is_some(),
                "accepting={accepting}"
            );
            // The sequential resume is an exact continuation: combined
            // traversal equals the uninterrupted run's.
            assert_eq!(stats.states_visited, full_stats.states_visited);
            assert_eq!(stats.transitions_explored, full_stats.transitions_explored);
            assert!(!stats.truncated);
        }
    }

    #[test]
    fn budget_checkpoint_resumes_to_the_unbounded_verdict_par() {
        for &accepting in &[false, true] {
            let g = chain(64, accepting);
            let (expected, full_stats) = unlimited(&g);
            for threads in [1usize, 2, 4] {
                let stop = find_accepting_lasso_limits_parallel_with(
                    &g,
                    &SearchLimits::states(10),
                    threads,
                    &tel(),
                )
                .expect_err("budget must trip");
                let cp = stop.checkpoint.expect("budget stop is resumable");
                assert_eq!(cp.threads(), Some(threads));
                assert!(cp.states_visited() > 0);
                let (resumed, stats) =
                    resume_accepting_lasso_with(&g, cp, &SearchLimits::unbounded(), &tel())
                        .expect("no limits on the resumed leg");
                assert_eq!(
                    resumed.is_some(),
                    expected.is_some(),
                    "threads={threads} accepting={accepting}"
                );
                assert_eq!(
                    stats.states_visited, full_stats.states_visited,
                    "threads={threads}: resumed run covers the same reachable set"
                );
                assert!(!stats.truncated);
            }
        }
    }

    #[test]
    fn repeated_budget_stops_chain_until_the_verdict() {
        // Resume in small budget increments; each leg trips until the
        // budget finally covers the graph.
        let g = chain(50, true);
        let (expected, _) = unlimited(&g);
        let mut stop = find_accepting_lasso_limits_with(&g, &SearchLimits::states(8), &tel())
            .expect_err("first leg trips");
        let mut budget = 8u64;
        let verdict = loop {
            budget += 8;
            let cp = stop.checkpoint.take().expect("budgeted stop is resumable");
            match resume_accepting_lasso_with(&g, cp, &SearchLimits::states(budget), &tel()) {
                Ok((lasso, _)) => break lasso,
                Err(next) => {
                    assert!(matches!(next.reason, AbortReason::StateBudget { .. }));
                    stop = next;
                }
            }
        };
        assert_eq!(verdict.is_some(), expected.is_some());
    }

    #[test]
    fn fault_panic_is_isolated_with_partial_stats() {
        let g = chain(200, false);
        let hits = Arc::new(AtomicU64::new(0));
        let hits2 = hits.clone();
        let limits = SearchLimits {
            fault: Some(Arc::new(move |tick| {
                hits2.fetch_add(1, Ordering::Relaxed);
                if tick == 20 {
                    panic!("injected fault at expansion 20");
                }
            })),
            ..SearchLimits::default()
        };
        for threads in [None, Some(1), Some(3)] {
            hits.store(0, Ordering::Relaxed);
            let stop = match threads {
                None => find_accepting_lasso_limits_with(&g, &limits, &tel()),
                Some(t) => find_accepting_lasso_limits_parallel_with(&g, &limits, t, &tel()),
            }
            .expect_err("fault must abort the search");
            let AbortReason::WorkerPanicked { payload, .. } = &stop.reason else {
                panic!(
                    "threads={threads:?}: expected a panic, got {:?}",
                    stop.reason
                );
            };
            assert!(payload.contains("injected fault at expansion 20"));
            assert!(stop.checkpoint.is_none(), "panics are not resumable");
            assert!(stop.stats.truncated);
            assert!(
                stop.stats.states_expanded >= 19,
                "threads={threads:?}: partial stats survive the panic"
            );
            assert_eq!(hits.load(Ordering::Relaxed), 20, "threads={threads:?}");
        }
    }

    #[test]
    fn fault_cancel_checkpoint_resumes_on_reduced_graphs() {
        // Cancellation injected mid-search on the C3 trap: the resumed
        // run must still recover the reduction-hidden lasso.
        let g = c3_trap();
        let (expected, _) = unlimited(&g);
        assert!(expected.is_some());
        let token = CancelToken::new();
        let hook_token = token.clone();
        let limits = SearchLimits {
            cancel: Some(token),
            fault: Some(Arc::new(move |tick| {
                if tick == 2 {
                    hook_token.cancel("fault: cancel at expansion 2");
                }
            })),
            ..SearchLimits::default()
        };
        let stop = find_accepting_lasso_limits_with(&g, &limits, &tel())
            .expect_err("cancel fault must trip");
        assert!(matches!(stop.reason, AbortReason::Cancelled { .. }));
        let cp = stop.checkpoint.expect("cancellation is resumable");
        let (resumed, _) = resume_accepting_lasso_with(&g, cp, &SearchLimits::unbounded(), &tel())
            .expect("unbounded resume");
        assert!(resumed.is_some(), "resume recovers the C3-hidden lasso");
    }
}
