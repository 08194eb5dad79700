//! Accepting-lasso search (Büchi emptiness) by nested depth-first search.
//!
//! The CVWY nested-DFS algorithm (Courcoubetis–Vardi–Wolper–Yannakakis):
//! an outer ("blue") DFS explores the reachable state space; whenever an
//! accepting state is *postordered*, an inner ("red") DFS looks for a cycle
//! back to it. The red visited-set persists across inner searches, which
//! keeps the whole procedure linear in the size of the product.
//!
//! The search is generic over [`TransitionSystem`], so the verifier can run
//! it directly on the on-the-fly product of a composition with a property
//! automaton without materializing either.

use crate::limits::{EngineCheckpoint, Interrupted, LimitedResult, SearchLimits};
use ddws_relational::hash::{FxHashMap, FxHashSet};
use ddws_telemetry::{panic_message, AbortReason, EngineTelemetry, SearchStats};
use std::collections::VecDeque;
use std::hash::Hash;
use std::panic::AssertUnwindSafe;
use std::sync::Arc;
use std::time::Instant;

/// How many states the engines visit between progress-gate checks. A
/// power of two so the check compiles to a mask; coarse enough that the
/// `None`-gate fast path costs one branch per ~thousand states.
pub(crate) const PROGRESS_STRIDE_MASK: u64 = 0x3FF;

/// A (possibly reduced) expansion of one state, as produced by
/// [`TransitionSystem::successors_reduced`].
#[derive(Clone, Debug)]
pub struct Expansion<S> {
    /// The successor states the search should follow.
    pub states: Arc<[S]>,
    /// `true` when `states` is an *ample* strict subset of the full
    /// successor set (so the engine must apply the C3 cycle proviso before
    /// trusting it); `false` when it already is the full expansion.
    pub ample: bool,
}

/// An implicitly represented Büchi-annotated transition system.
///
/// Implementations must be `Sync` with `Send + Sync` states so the
/// [`parallel`](crate::parallel) engine can expand one system from many
/// worker threads; on-the-fly systems with memoization should use sharded
/// locks rather than `RefCell` (see the verifier's product system).
pub trait TransitionSystem: Sync {
    /// The state type; hashed into visited sets, so keep it compact.
    type State: Clone + Eq + Hash + Send + Sync;

    /// Initial states.
    fn initial_states(&self) -> Vec<Self::State>;

    /// Successor states (the on-the-fly expansion), the same sequence on
    /// every call: the sequential red search re-expands states, and a
    /// reproducible counterexample needs it to see the blue search's order.
    ///
    /// The shared-slice return type lets the engines keep one allocation
    /// per expansion in a DFS frame, the partial-order memo or the
    /// parallel edge log.
    fn successors(&self, s: &Self::State) -> Arc<[Self::State]>;

    /// Büchi acceptance flag.
    fn is_accepting(&self, s: &Self::State) -> bool;

    /// Ample-set expansion: a subset of [`successors`](Self::successors)
    /// satisfying the C0–C2 ample conditions (non-emptiness, dependence
    /// closure, invisibility). The *engine* enforces the cycle proviso C3
    /// and falls back to [`successors`](Self::successors) when it fires.
    /// The default returns the full expansion (no reduction).
    fn successors_reduced(&self, s: &Self::State) -> Expansion<Self::State> {
        Expansion {
            states: self.successors(s),
            ample: false,
        }
    }

    /// Whether the engines should route expansions through
    /// [`successors_reduced`](Self::successors_reduced) and track the
    /// `ample_hits`/`full_expansions` counters. Defaults to `false`, which
    /// keeps the search bit-identical to the unreduced one.
    fn reduction_active(&self) -> bool {
        false
    }
}

/// A counterexample witness: the run `prefix · cycle^ω`.
///
/// `prefix` leads from an initial state to `cycle[0]` exclusive (it may be
/// empty when an initial state lies on the cycle); the last state of `cycle`
/// has a transition back to `cycle[0]`, and some state on `cycle` is
/// accepting.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Lasso<S> {
    /// States from an initial state up to (not including) the cycle entry.
    pub prefix: Vec<S>,
    /// The cycle, entered at `cycle[0]`; non-empty.
    pub cycle: Vec<S>,
}

/// Searches for an accepting lasso; `None` means the language is empty.
pub fn find_accepting_lasso<TS: TransitionSystem>(ts: &TS) -> Option<Lasso<TS::State>> {
    match find_accepting_lasso_limits_with(
        ts,
        &SearchLimits::unbounded(),
        &EngineTelemetry::silent(),
    ) {
        Ok((lasso, _)) => lasso,
        Err(stop) => match stop.reason {
            AbortReason::WorkerPanicked { payload, .. } => {
                std::panic::resume_unwind(Box::new(payload))
            }
            reason => unreachable!("an unlimited search stopped: {reason}"),
        },
    }
}

/// Sequential nested-DFS search under the full [`SearchLimits`] contract:
/// periodic progress snapshots through the gate (frontier/depth = DFS
/// stack depth), the `lasso_ns` span covering the inner red searches, and
/// graceful, checkpointed stops for budget/deadline/cancellation. A panic
/// inside the transition system is caught and reported as
/// [`AbortReason::WorkerPanicked`] with the partial stats (no checkpoint).
pub fn find_accepting_lasso_limits_with<TS: TransitionSystem>(
    ts: &TS,
    limits: &SearchLimits,
    tel: &EngineTelemetry<'_>,
) -> LimitedResult<TS::State> {
    let mut engine = SeqEngine::fresh(ts);
    drive_seq_engine(&mut engine, limits, tel)
}

/// Continues a sequential checkpoint. The frozen frontier (blue/red sets,
/// DFS stack, expansion memo, remaining initial states) is restored
/// verbatim, so the continuation explores exactly the states the
/// uninterrupted run would have — the verdict is identical by
/// construction.
pub(crate) fn resume_seq<TS: TransitionSystem>(
    ts: &TS,
    cp: SeqCheckpoint<TS::State>,
    limits: &SearchLimits,
    tel: &EngineTelemetry<'_>,
) -> LimitedResult<TS::State> {
    let mut engine = SeqEngine::thaw(ts, cp);
    drive_seq_engine(&mut engine, limits, tel)
}

/// Runs an engine to completion or graceful stop, catching panics from
/// the transition system (and the fault hook) into a typed interruption
/// with the partial statistics preserved.
fn drive_seq_engine<TS: TransitionSystem>(
    engine: &mut SeqEngine<'_, TS>,
    limits: &SearchLimits,
    tel: &EngineTelemetry<'_>,
) -> LimitedResult<TS::State> {
    let run = std::panic::catch_unwind(AssertUnwindSafe(|| engine.run(limits, tel)));
    match run {
        Ok(Ok(lasso)) => Ok((lasso, engine.stats)),
        Ok(Err(reason)) => {
            let mut stats = engine.stats;
            stats.truncated = true;
            Err(Box::new(Interrupted {
                reason,
                stats,
                checkpoint: Some(EngineCheckpoint::Seq(engine.freeze())),
            }))
        }
        Err(payload) => {
            let mut stats = engine.stats;
            stats.truncated = true;
            Err(Box::new(Interrupted {
                reason: AbortReason::WorkerPanicked {
                    worker: 0,
                    payload: panic_message(&*payload),
                },
                stats,
                checkpoint: None,
            }))
        }
    }
}

/// A frozen sequential search: the exact engine state at a graceful stop.
/// Opaque; resume with
/// [`resume_accepting_lasso_with`](crate::limits::resume_accepting_lasso_with).
#[derive(Clone, Debug)]
pub struct SeqCheckpoint<S> {
    blue: FxHashSet<S>,
    red: FxHashSet<S>,
    /// `(state, memoized expansion, next successor index)` per DFS frame.
    stack: Vec<(S, Arc<[S]>, usize)>,
    pending_inits: VecDeque<S>,
    expansions: FxHashMap<S, Arc<[S]>>,
    stats: SearchStats,
}

impl<S> SeqCheckpoint<S> {
    pub(crate) fn stats(&self) -> &SearchStats {
        &self.stats
    }
}

struct Frame<S> {
    state: S,
    succs: Arc<[S]>,
    next: usize,
}

/// The sequential CVWY engine with its whole mutable state in one place,
/// so a graceful stop can freeze it into a [`SeqCheckpoint`] and a panic
/// still leaves the partial statistics readable.
struct SeqEngine<'ts, TS: TransitionSystem> {
    ts: &'ts TS,
    blue: FxHashSet<TS::State>,
    red: FxHashSet<TS::State>,
    stack: Vec<Frame<TS::State>>,
    pending_inits: VecDeque<TS::State>,
    reducer: Reducer<TS>,
    stats: SearchStats,
    /// Loop iterations, for the strided deadline check (starts at 0 so an
    /// expired deadline aborts before any expansion).
    ticks: u64,
    /// 1-based expansion ordinal handed to the fault hook.
    fault_tick: u64,
}

impl<'ts, TS: TransitionSystem> SeqEngine<'ts, TS> {
    fn fresh(ts: &'ts TS) -> Self {
        SeqEngine {
            ts,
            blue: FxHashSet::default(),
            red: FxHashSet::default(),
            stack: Vec::new(),
            pending_inits: ts.initial_states().into(),
            reducer: Reducer::new(ts.reduction_active()),
            stats: SearchStats::default(),
            ticks: 0,
            fault_tick: 0,
        }
    }

    fn thaw(ts: &'ts TS, cp: SeqCheckpoint<TS::State>) -> Self {
        let mut reducer = Reducer::new(ts.reduction_active());
        reducer.expansions = cp.expansions;
        if reducer.active {
            // The C3 on-stack set is exactly the set of stacked states.
            for (state, _, _) in &cp.stack {
                reducer.on_stack.insert(state.clone());
            }
        }
        let mut stats = cp.stats;
        stats.truncated = false;
        SeqEngine {
            ts,
            blue: cp.blue,
            red: cp.red,
            stack: cp
                .stack
                .into_iter()
                .map(|(state, succs, next)| Frame { state, succs, next })
                .collect(),
            pending_inits: cp.pending_inits,
            reducer,
            stats,
            ticks: 0,
            fault_tick: 0,
        }
    }

    fn freeze(&mut self) -> SeqCheckpoint<TS::State> {
        SeqCheckpoint {
            blue: std::mem::take(&mut self.blue),
            red: std::mem::take(&mut self.red),
            stack: std::mem::take(&mut self.stack)
                .into_iter()
                .map(|f| (f.state, f.succs, f.next))
                .collect(),
            pending_inits: std::mem::take(&mut self.pending_inits),
            expansions: std::mem::take(&mut self.reducer.expansions),
            stats: self.stats,
        }
    }

    /// Counts the freshly blue-admitted `state` (the caller's `insert`
    /// into `blue` returned true) and pushes its (possibly reduced,
    /// memoized) expansion; fires the fault hook with the expansion
    /// ordinal first.
    fn visit(&mut self, state: TS::State, limits: &SearchLimits) {
        self.stats.states_visited += 1;
        self.fault_tick += 1;
        if let Some(hook) = &limits.fault {
            hook(self.fault_tick);
        }
        self.reducer.enter(&state);
        self.stack.push(Frame {
            succs: self.reducer.expand(self.ts, &state, &mut self.stats),
            state,
            next: 0,
        });
    }

    /// The blue DFS. Abort checks run once per loop iteration — always
    /// with the DFS stack in a consistent, freezable position:
    /// cancellation every iteration (one relaxed load), the deadline on
    /// the progress stride, the state budget against the running count.
    fn run(
        &mut self,
        limits: &SearchLimits,
        tel: &EngineTelemetry<'_>,
    ) -> Result<Option<Lasso<TS::State>>, AbortReason> {
        let max_states = limits.state_cap();
        loop {
            if let Some(stop) = limits.interruption(self.ticks) {
                return Err(stop);
            }
            self.ticks += 1;
            if self.stats.states_visited > max_states {
                return Err(AbortReason::StateBudget { max_states });
            }
            if self.stack.is_empty() {
                let Some(init) = self.pending_inits.pop_front() else {
                    return Ok(None);
                };
                if self.blue.insert(init.clone()) {
                    self.visit(init, limits);
                }
                continue;
            }
            let next_succ = {
                let frame = self.stack.last_mut().expect("stack is non-empty");
                if frame.next < frame.succs.len() {
                    let succ = frame.succs[frame.next].clone();
                    frame.next += 1;
                    Some(succ)
                } else {
                    None
                }
            };
            if let Some(succ) = next_succ {
                self.stats.transitions_explored += 1;
                if self.blue.insert(succ.clone()) {
                    self.visit(succ, limits);
                    if self.stats.states_visited & PROGRESS_STRIDE_MASK == 0 {
                        tel.maybe_emit(
                            self.stats.states_visited,
                            self.stack.len() as u64,
                            self.stack.len() as u64,
                            self.stats.ample_hits,
                            self.stats.full_expansions,
                        );
                    }
                }
            } else {
                // Postorder.
                let state = self.stack.last().expect("stack is non-empty").state.clone();
                if self.ts.is_accepting(&state) {
                    let red_start = Instant::now();
                    let cycle = red_search(
                        self.ts,
                        &state,
                        &mut self.red,
                        &mut self.reducer,
                        &mut self.stats,
                    );
                    self.stats.lasso_ns += red_start.elapsed().as_nanos() as u64;
                    if let Some(cycle) = cycle {
                        // The blue stack spells the path from the initial
                        // state to `state` (inclusive at the top).
                        let prefix: Vec<TS::State> = self
                            .stack
                            .iter()
                            .take(self.stack.len() - 1)
                            .map(|f| f.state.clone())
                            .collect();
                        return Ok(Some(Lasso { prefix, cycle }));
                    }
                }
                self.reducer.leave(&state);
                self.stack.pop();
            }
        }
    }
}

/// Per-search partial-order-reduction bookkeeping for the sequential
/// engine. Inert (and allocation-free on the hot path) when the transition
/// system does not activate reduction.
///
/// The reduced graph the search runs on must be a *fixed* function of the
/// state for nested DFS to stay sound (blue and red must traverse the same
/// edges — Holzmann–Peled), so the first expansion computed for a state is
/// memoized and reused by both searches. C3 is the classic stack proviso:
/// an ample set containing a state on the blue DFS stack would let a cycle
/// consist entirely of reduced expansions and hide an accepting lasso, so
/// such states fall back to their full successor set. States first expanded
/// by the red search are expanded fully — the blue stack discipline does
/// not apply there, and full expansions are always sound.
struct Reducer<TS: TransitionSystem> {
    active: bool,
    on_stack: FxHashSet<TS::State>,
    expansions: FxHashMap<TS::State, Arc<[TS::State]>>,
}

impl<TS: TransitionSystem> Reducer<TS> {
    fn new(active: bool) -> Self {
        Reducer {
            active,
            on_stack: FxHashSet::default(),
            expansions: FxHashMap::default(),
        }
    }

    fn enter(&mut self, s: &TS::State) {
        if self.active {
            self.on_stack.insert(s.clone());
        }
    }

    fn leave(&mut self, s: &TS::State) {
        if self.active {
            self.on_stack.remove(s);
        }
    }

    /// The blue-DFS expansion of `s`: ample if C0–C3 allow, full otherwise.
    ///
    /// `states_expanded` counts exactly the freshly computed expansions
    /// (memoized re-reads don't count), at the same points `ample_hits`
    /// and `full_expansions` increment — so under active reduction
    /// `ample_hits + full_expansions == states_expanded` holds by
    /// construction.
    fn expand(&mut self, ts: &TS, s: &TS::State, stats: &mut SearchStats) -> Arc<[TS::State]> {
        if !self.active {
            stats.states_expanded += 1;
            return ts.successors(s);
        }
        if let Some(cached) = self.expansions.get(s) {
            return cached.clone();
        }
        stats.states_expanded += 1;
        let exp = ts.successors_reduced(s);
        let succs = if exp.ample {
            if exp.states.iter().any(|t| self.on_stack.contains(t)) {
                // C3 (cycle proviso): an ample successor closes back into
                // the DFS stack — expand fully instead.
                stats.full_expansions += 1;
                ts.successors(s)
            } else {
                stats.ample_hits += 1;
                exp.states
            }
        } else {
            stats.full_expansions += 1;
            exp.states
        };
        self.expansions.insert(s.clone(), succs.clone());
        succs
    }

    /// The red-DFS expansion of `s`: the memoized blue expansion when one
    /// exists, the full expansion (memoized for blue to reuse) otherwise.
    fn expand_red(&mut self, ts: &TS, s: &TS::State, stats: &mut SearchStats) -> Arc<[TS::State]> {
        if !self.active {
            stats.states_expanded += 1;
            return ts.successors(s);
        }
        if let Some(cached) = self.expansions.get(s) {
            return cached.clone();
        }
        stats.states_expanded += 1;
        stats.full_expansions += 1;
        let succs = ts.successors(s);
        self.expansions.insert(s.clone(), succs.clone());
        succs
    }
}

/// Inner DFS from `seed`, looking for a transition back to `seed`.
/// Returns the cycle `[seed, …, last]` (with `last → seed`) if found.
fn red_search<TS: TransitionSystem>(
    ts: &TS,
    seed: &TS::State,
    red: &mut FxHashSet<TS::State>,
    reducer: &mut Reducer<TS>,
    stats: &mut SearchStats,
) -> Option<Vec<TS::State>> {
    struct Frame<S> {
        state: S,
        succs: Arc<[S]>,
        next: usize,
    }
    if !red.insert(seed.clone()) {
        // A previous inner search already explored `seed` without closing a
        // cycle through an accepting seed; by the CVWY invariant no cycle
        // through `seed` exists either.
        return None;
    }
    let mut stack: Vec<Frame<TS::State>> = vec![Frame {
        succs: reducer.expand_red(ts, seed, stats),
        state: seed.clone(),
        next: 0,
    }];
    while let Some(frame) = stack.last_mut() {
        if frame.next < frame.succs.len() {
            let succ = frame.succs[frame.next].clone();
            frame.next += 1;
            stats.transitions_explored += 1;
            if &succ == seed {
                // Cycle closed: the red stack spells seed → … → top.
                return Some(stack.iter().map(|f| f.state.clone()).collect());
            }
            if red.insert(succ.clone()) {
                stack.push(Frame {
                    succs: reducer.expand_red(ts, &succ, stats),
                    state: succ,
                    next: 0,
                });
            }
        } else {
            stack.pop();
        }
    }
    None
}

/// Test-only transition systems shared by the sequential and parallel
/// engine test suites.
#[cfg(test)]
pub(crate) mod test_graphs {
    use super::{Expansion, TransitionSystem};
    use std::sync::Arc;

    /// Explicit graph with per-state ample subsets declared by the test, so
    /// the engines' C3 handling can be probed directly.
    pub(crate) struct ReducedGraph {
        pub(crate) edges: Vec<Vec<usize>>,
        pub(crate) accepting: Vec<bool>,
        pub(crate) initial: Vec<usize>,
        /// `Some(subset)` ⇒ `successors_reduced` reports that subset with
        /// `ample = true`; `None` ⇒ full expansion.
        pub(crate) ample: Vec<Option<Vec<usize>>>,
    }

    impl TransitionSystem for ReducedGraph {
        type State = usize;
        fn initial_states(&self) -> Vec<usize> {
            self.initial.clone()
        }
        fn successors(&self, s: &usize) -> Arc<[usize]> {
            self.edges[*s].as_slice().into()
        }
        fn is_accepting(&self, s: &usize) -> bool {
            self.accepting[*s]
        }
        fn successors_reduced(&self, s: &usize) -> Expansion<usize> {
            match &self.ample[*s] {
                Some(subset) => Expansion {
                    states: subset.as_slice().into(),
                    ample: true,
                },
                None => Expansion {
                    states: self.edges[*s].as_slice().into(),
                    ample: false,
                },
            }
        }
        fn reduction_active(&self) -> bool {
            true
        }
    }

    /// A crafted cycle whose ample sets, taken at face value, would consist
    /// entirely of reduced expansions and hide the accepting lasso: full
    /// edges 0 → {1}, 1 → {0, 2}, 2 → {0}, accepting = {2}, with the ample
    /// set at 1 claiming {0}. Following only the ample edge at 1 closes the
    /// cycle 0-1 without ever reaching 2, so the C3 cycle proviso must fire
    /// at 1 and restore the full expansion — recovering the lasso
    /// 0 → 1 → 2 → 0.
    pub(crate) fn c3_trap() -> ReducedGraph {
        ReducedGraph {
            edges: vec![vec![1], vec![0, 2], vec![0]],
            accepting: vec![false, false, true],
            initial: vec![0],
            ample: vec![None, Some(vec![0]), None],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::test_graphs::{c3_trap, ReducedGraph};
    use super::*;

    /// An unlimited sequential search: the witness and the statistics.
    fn search<TS: TransitionSystem>(ts: &TS) -> (Option<Lasso<TS::State>>, SearchStats) {
        find_accepting_lasso_limits_with(ts, &SearchLimits::unbounded(), &EngineTelemetry::silent())
            .unwrap_or_else(|stop| panic!("an unlimited search stopped: {}", stop.reason))
    }

    /// A small explicit graph for testing.
    struct Graph {
        edges: Vec<Vec<usize>>,
        accepting: Vec<bool>,
        initial: Vec<usize>,
    }

    impl TransitionSystem for Graph {
        type State = usize;
        fn initial_states(&self) -> Vec<usize> {
            self.initial.clone()
        }
        fn successors(&self, s: &usize) -> Arc<[usize]> {
            self.edges[*s].as_slice().into()
        }
        fn is_accepting(&self, s: &usize) -> bool {
            self.accepting[*s]
        }
    }

    #[test]
    fn finds_self_loop_on_accepting_state() {
        let g = Graph {
            edges: vec![vec![1], vec![1]],
            accepting: vec![false, true],
            initial: vec![0],
        };
        let lasso = find_accepting_lasso(&g).unwrap();
        assert_eq!(lasso.prefix, vec![0]);
        assert_eq!(lasso.cycle, vec![1]);
    }

    #[test]
    fn rejects_acyclic_accepting_state() {
        let g = Graph {
            edges: vec![vec![1], vec![2], vec![]],
            accepting: vec![false, true, false],
            initial: vec![0],
        };
        assert!(find_accepting_lasso(&g).is_none());
    }

    #[test]
    fn rejects_cycle_without_accepting_state() {
        let g = Graph {
            edges: vec![vec![1], vec![0]],
            accepting: vec![false, false],
            initial: vec![0],
        };
        assert!(find_accepting_lasso(&g).is_none());
    }

    #[test]
    fn finds_longer_cycle_through_accepting_state() {
        // 0 → 1 → 2 → 3 → 1, accepting = {2}
        let g = Graph {
            edges: vec![vec![1], vec![2], vec![3], vec![1]],
            accepting: vec![false, false, true, false],
            initial: vec![0],
        };
        let lasso = find_accepting_lasso(&g).unwrap();
        // Witness validity: cycle closes and passes through an accepting state.
        assert!(!lasso.cycle.is_empty());
        let last = *lasso.cycle.last().unwrap();
        assert!(g.edges[last].contains(&lasso.cycle[0]));
        assert!(lasso.cycle.iter().any(|&s| g.accepting[s]));
        // Prefix is a real path from the initial state to the cycle entry.
        let mut cur = 0usize;
        for &next in lasso.prefix.iter().skip(1).chain(lasso.cycle.first()) {
            assert!(g.edges[cur].contains(&next));
            cur = next;
        }
    }

    #[test]
    fn accepting_state_only_reachable_not_on_cycle() {
        // 0 → 1(acc) → 2 → 0 : cycle 0,1,2 passes through 1 → lasso exists.
        let g = Graph {
            edges: vec![vec![1], vec![2], vec![0]],
            accepting: vec![false, true, false],
            initial: vec![0],
        };
        assert!(find_accepting_lasso(&g).is_some());
    }

    #[test]
    fn multiple_initial_states() {
        // Component of 0 is lasso-free; component of 5 has one.
        let g = Graph {
            edges: vec![vec![1], vec![], vec![], vec![], vec![], vec![6], vec![5]],
            accepting: vec![false, false, false, false, false, true, false],
            initial: vec![0, 5],
        };
        let lasso = find_accepting_lasso(&g).unwrap();
        assert!(lasso.cycle.contains(&5));
    }

    #[test]
    fn stats_count_states() {
        let g = Graph {
            edges: vec![vec![1], vec![2], vec![]],
            accepting: vec![false, false, false],
            initial: vec![0],
        };
        let (lasso, stats) = search(&g);
        assert!(lasso.is_none());
        assert_eq!(stats.states_visited, 3);
        assert_eq!(stats.transitions_explored, 2);
    }

    /// Regression guard for the classic nested-DFS pitfall: an accepting
    /// state whose cycle is only discoverable after the red set has been
    /// seeded by an earlier (failed) inner search must still be found when
    /// postorder is respected.
    #[test]
    fn cvwy_postorder_interaction() {
        // 0 → 1 → 2, 2 → 1 (cycle 1-2), accepting = {1}; plus 0 → 3(acc) → 2.
        let g = Graph {
            edges: vec![vec![3, 1], vec![2], vec![1], vec![2]],
            accepting: vec![false, true, false, true],
            initial: vec![0],
        };
        let lasso = find_accepting_lasso(&g).unwrap();
        assert!(lasso.cycle.iter().any(|&s| g.accepting[s]));
    }

    #[test]
    fn c3_proviso_recovers_hidden_lasso() {
        let g = c3_trap();
        let (lasso, stats) = search(&g);
        let lasso = lasso.expect("C3 must restore the full expansion at 1");
        assert!(
            lasso.cycle.contains(&2),
            "lasso runs through the accepting state"
        );
        assert_eq!(
            stats.ample_hits, 0,
            "every ample set here closes into the stack"
        );
        assert!(stats.full_expansions >= 1);
    }

    #[test]
    fn ample_subset_taken_when_no_cycle_closes() {
        // 0 → {1, 2} with ample {1}; both arms reach sink 3. No cycles, so
        // C3 never fires and the reduced search must skip state 2 entirely.
        let g = ReducedGraph {
            edges: vec![vec![1, 2], vec![3], vec![3], vec![]],
            accepting: vec![false, false, false, false],
            initial: vec![0],
            ample: vec![Some(vec![1]), None, None, None],
        };
        let (lasso, stats) = search(&g);
        assert!(lasso.is_none());
        assert_eq!(stats.ample_hits, 1);
        assert_eq!(
            stats.states_visited, 3,
            "state 2 is pruned by the ample set"
        );
    }

    #[test]
    fn budget_error_carries_truncated_stats() {
        // A long chain, budget well short of its length.
        let n = 50;
        let g = Graph {
            edges: (0..n)
                .map(|i| if i + 1 < n { vec![i + 1] } else { vec![] })
                .collect(),
            accepting: vec![false; n],
            initial: vec![0],
        };
        let err = find_accepting_lasso_limits_with(
            &g,
            &SearchLimits::states(10),
            &EngineTelemetry::silent(),
        )
        .expect_err("budget must trip");
        assert!(err.stats.truncated);
        assert_eq!(err.reason, AbortReason::StateBudget { max_states: 10 });
        assert!(err.stats.states_visited > 10 && err.stats.states_visited <= 12);
    }

    /// The reduction-accounting invariant the telemetry suite relies on:
    /// with reduction active, every fresh expansion is either an ample hit
    /// or a full expansion; without it, both stay zero while
    /// `states_expanded` still counts.
    #[test]
    fn expansion_accounting_invariants() {
        let g = c3_trap();
        let (_, stats) = search(&g);
        assert_eq!(
            stats.ample_hits + stats.full_expansions,
            stats.states_expanded
        );
        let g = Graph {
            edges: vec![vec![1], vec![2], vec![]],
            accepting: vec![false, false, false],
            initial: vec![0],
        };
        let (_, stats) = search(&g);
        assert_eq!(stats.ample_hits, 0);
        assert_eq!(stats.full_expansions, 0);
        assert_eq!(stats.states_expanded, 3, "one blue expansion per state");
    }

    #[test]
    fn progress_snapshots_flow_through_the_gate() {
        use ddws_telemetry::{BufferReporter, ProgressGate};
        use std::time::Duration;
        // A chain longer than the progress stride, zero-interval gate: at
        // least one snapshot must be emitted.
        let n = 3000;
        let g = Graph {
            edges: (0..n)
                .map(|i| if i + 1 < n { vec![i + 1] } else { vec![] })
                .collect(),
            accepting: vec![false; n],
            initial: vec![0],
        };
        let gate = ProgressGate::new(Duration::from_secs(0));
        let buf = BufferReporter::new();
        let tel = EngineTelemetry {
            reporter: &buf,
            gate: Some(&gate),
            rule_meter: None,
        };
        let (lasso, _) =
            find_accepting_lasso_limits_with(&g, &SearchLimits::unbounded(), &tel).unwrap();
        assert!(lasso.is_none());
        let snaps = buf.snapshots();
        assert!(!snaps.is_empty(), "stride crossings must emit snapshots");
        assert!(snaps.iter().all(|s| s.states_visited > 0 && s.depth > 0));
    }
}
