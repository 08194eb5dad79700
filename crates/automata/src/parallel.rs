//! Parallel accepting-lasso search (Büchi emptiness) over a shared
//! [`TransitionSystem`].
//!
//! The sequential engine ([`find_accepting_lasso_limits_with`]) runs CVWY
//! nested DFS, which is inherently sequential: its correctness leans on
//! postorder. Instead of a concurrent nested DFS, this engine splits the
//! problem into a phase that parallelizes perfectly and a phase that is
//! cheap enough to stay sequential:
//!
//! 1. **Parallel reachability** — `threads` workers explore the state
//!    space with per-worker deques and work stealing, recording every
//!    expanded edge. The visited set is a [`ShardedTable`]; a shared
//!    atomic counter enforces the state budget.
//! 2. **Sequential analysis** — the recorded edges form an explicit graph
//!    (node count = states visited, which the budget already bounds).
//!    Tarjan's SCC algorithm finds a strongly connected component that
//!    both contains an accepting state and carries a cycle; breadth-first
//!    searches then extract a concrete lasso.
//!
//! **Determinism contract**: the *verdict* (lasso exists / empty / budget
//! exceeded at a given budget) depends only on the reachable graph, never
//! on thread scheduling. The particular lasso returned may differ between
//! runs — callers needing a canonical witness should re-run the sequential
//! engine.
//!
//! **Budget semantics**: like the sequential engine, the search fails once
//! visited states exceed `max_states`; concurrent insertion can overshoot
//! by at most one state per worker, so `states_visited ≤ max_states +
//! threads` on failure. Unlike the sequential engine — which can return a
//! lasso found before the budget trips — this engine explores the whole
//! reachable graph before looking for lassos, so a `Violated` verdict
//! requires a budget no smaller than the reachable state count.

use crate::emptiness::{Lasso, TransitionSystem, PROGRESS_STRIDE_MASK};
use crate::limits::{EngineCheckpoint, Interrupted, LimitedResult, SearchLimits};
use ddws_relational::hash::{FxHashMap, FxHashSet, ShardedTable};
use ddws_telemetry::{panic_message, AbortReason, EngineTelemetry, SearchStats};
use std::collections::hash_map::Entry;
use std::collections::VecDeque;
use std::hash::Hash;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

#[cfg(doc)]
use crate::emptiness::find_accepting_lasso_limits_with;

/// Recovers a poisoned lock: a panicking worker may die while holding a
/// queue lock, and the surviving workers must still be able to drain and
/// merge — the guarded structures stay structurally valid.
fn relock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poison| poison.into_inner())
}

struct Frontier<S> {
    visited: ShardedTable<FxHashSet<S>>,
    queues: Vec<Mutex<VecDeque<S>>>,
    /// States enqueued or being expanded; 0 ⇒ exploration is complete.
    pending: AtomicUsize,
    visited_count: AtomicU64,
    /// Raised on any abort (budget, deadline, cancel, worker panic); every
    /// worker breaks out of its loop when it observes the flag.
    aborted: AtomicBool,
    /// The first abort reason recorded; later trips keep the flag raised
    /// but do not overwrite the reason.
    abort_reason: Mutex<Option<AbortReason>>,
    /// Global 1-based expansion ordinal for the fault hook.
    expansion_ticks: AtomicU64,
    max_states: u64,
}

impl<S: Clone + Eq + Hash> Frontier<S> {
    fn new(workers: usize, max_states: u64) -> Self {
        Frontier {
            visited: ShardedTable::default(),
            queues: (0..workers).map(|_| Mutex::default()).collect(),
            pending: AtomicUsize::new(0),
            visited_count: AtomicU64::new(0),
            aborted: AtomicBool::new(false),
            abort_reason: Mutex::new(None),
            expansion_ticks: AtomicU64::new(0),
            max_states,
        }
    }

    /// Records an abort: first reason wins, flag stays raised.
    fn trip(&self, reason: AbortReason) {
        let mut slot = relock(&self.abort_reason);
        if slot.is_none() {
            *slot = Some(reason);
        }
        self.aborted.store(true, Ordering::Relaxed);
    }

    /// Marks `s` visited; returns false if it already was. Trips the abort
    /// flag when the visited count passes `max_states` (mirroring the
    /// sequential engine's `states_visited > max_states` check).
    fn try_visit(&self, s: &S) -> bool {
        if !self.visited.insert(s.clone()) {
            return false;
        }
        let count = self.visited_count.fetch_add(1, Ordering::Relaxed) + 1;
        if count > self.max_states {
            self.trip(AbortReason::StateBudget {
                max_states: self.max_states,
            });
        }
        true
    }

    /// Enqueues `s` on worker `w`'s deque.
    fn push(&self, w: usize, s: S) {
        self.pending.fetch_add(1, Ordering::SeqCst);
        relock(&self.queues[w]).push_back(s);
    }

    /// Whether `s` has already been marked visited (no insertion).
    ///
    /// This is the parallel engine's C3 probe: a state is always marked
    /// visited *before* it is expanded, so on any cycle of the reduced
    /// graph the last node to be expanded sees its cycle-successor already
    /// visited and falls back to a full expansion — every cycle therefore
    /// contains a fully expanded node, which is exactly the cycle proviso.
    fn already_visited(&self, s: &S) -> bool {
        self.visited.contains(s)
    }

    /// Pops local work, or steals from another worker (oldest first, so
    /// stolen work is the coarsest-grained available).
    fn pop(&self, w: usize) -> Option<S> {
        if let Some(s) = relock(&self.queues[w]).pop_back() {
            return Some(s);
        }
        let n = self.queues.len();
        for i in 1..n {
            let victim = (w + i) % n;
            if let Some(s) = relock(&self.queues[victim]).pop_front() {
                return Some(s);
            }
        }
        None
    }

    /// Drains the visited shards into one vector (checkpoint capture).
    fn drain_visited(&self) -> Vec<S> {
        let mut all = Vec::with_capacity(self.visited_count.load(Ordering::Relaxed) as usize);
        self.visited.drain_into(&mut all);
        all
    }
}

/// One worker's share of the exploration: the edges it expanded and the
/// transitions it counted.
struct WorkerLog<S> {
    edges: Vec<(S, Arc<[S]>)>,
    transitions: u64,
    expanded: u64,
    ample_hits: u64,
    full_expansions: u64,
}

impl<S> WorkerLog<S> {
    fn new() -> Self {
        WorkerLog {
            edges: Vec::new(),
            transitions: 0,
            expanded: 0,
            ample_hits: 0,
            full_expansions: 0,
        }
    }
}

/// The worker body. Writes into a caller-owned log so a panic (caught by
/// the `catch_unwind` wrapper in [`run_exploration`]) still leaves the
/// partial counters and edge records mergeable.
///
/// Abort checks at the loop top: the shared abort flag and the cancel
/// token every iteration (one relaxed load each), the deadline on the
/// progress stride — first checked on iteration 0, so an expired deadline
/// stops the worker before it expands anything.
fn explore_worker_into<TS: TransitionSystem>(
    ts: &TS,
    frontier: &Frontier<TS::State>,
    w: usize,
    limits: &SearchLimits,
    tel: &EngineTelemetry<'_>,
    log: &mut WorkerLog<TS::State>,
) {
    let reduction = ts.reduction_active();
    let mut ticks: u64 = 0;
    loop {
        if frontier.aborted.load(Ordering::Relaxed) {
            break;
        }
        if let Some(reason) = limits.interruption(ticks) {
            frontier.trip(reason);
            break;
        }
        ticks += 1;
        let Some(state) = frontier.pop(w) else {
            if frontier.pending.load(Ordering::SeqCst) == 0 {
                break;
            }
            std::thread::yield_now();
            continue;
        };
        // One expansion per dequeued state; worker-local counters only (the
        // shared atomics are touched once per ~1024 expansions below).
        log.expanded += 1;
        if let Some(hook) = &limits.fault {
            hook(frontier.expansion_ticks.fetch_add(1, Ordering::Relaxed) + 1);
        }
        if log.expanded & PROGRESS_STRIDE_MASK == 0 {
            tel.maybe_emit(
                frontier.visited_count.load(Ordering::Relaxed),
                frontier.pending.load(Ordering::SeqCst) as u64,
                0,
                log.ample_hits,
                log.full_expansions,
            );
        }
        let succs = if reduction {
            let exp = ts.successors_reduced(&state);
            if exp.ample && !exp.states.iter().any(|t| frontier.already_visited(t)) {
                log.ample_hits += 1;
                exp.states
            } else {
                // C3 fallback (an ample successor is already in the visited
                // set — see `already_visited`) or no ample subset existed.
                log.full_expansions += 1;
                if exp.ample {
                    ts.successors(&state)
                } else {
                    exp.states
                }
            }
        } else {
            ts.successors(&state)
        };
        log.transitions += succs.len() as u64;
        for succ in succs.iter() {
            if frontier.aborted.load(Ordering::Relaxed) {
                break;
            }
            if frontier.try_visit(succ) {
                frontier.push(w, succ.clone());
            }
        }
        // The edge record lands even when the successor loop aborted early:
        // resume treats recorded-but-unvisited targets as pending work.
        log.edges.push((state, succs));
        frontier.pending.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Parallel lasso search under the full [`SearchLimits`] contract: each
/// worker checks the progress gate on a coarse local-expansion stride
/// (frontier = pending queue size, depth reported as 0 — the exploration
/// is breadth-ordered), the sequential analysis phase is timed into
/// `lasso_ns`, and any stop — budget, deadline, cancellation, or a
/// panicking worker — drains the surviving workers, merges their partial
/// statistics, and returns a typed [`Interrupted`] (with a resumable
/// checkpoint for every reason except a panic).
pub fn find_accepting_lasso_limits_parallel_with<TS: TransitionSystem>(
    ts: &TS,
    limits: &SearchLimits,
    threads: usize,
    tel: &EngineTelemetry<'_>,
) -> LimitedResult<TS::State> {
    let workers = if threads == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        threads
    };
    let frontier = Frontier::new(workers, limits.state_cap());
    for (i, init) in ts.initial_states().iter().enumerate() {
        if frontier.try_visit(init) {
            frontier.push(i % workers, init.clone());
        }
    }
    run_exploration(
        ts,
        frontier,
        workers,
        limits,
        tel,
        SearchStats::default(),
        Vec::new(),
    )
}

/// A frozen parallel search: the merged visited set and edge relation at
/// a graceful stop. Opaque; resume with
/// [`resume_accepting_lasso_with`](crate::limits::resume_accepting_lasso_with).
#[derive(Clone, Debug)]
pub struct ParCheckpoint<S> {
    visited: Vec<S>,
    edges: EdgeList<S>,
    workers: usize,
    stats: SearchStats,
}

/// The materialized edge relation: each expanded state with its memoized
/// successor slice.
type EdgeList<S> = Vec<(S, Arc<[S]>)>;

impl<S> ParCheckpoint<S> {
    pub(crate) fn workers(&self) -> usize {
        self.workers
    }

    pub(crate) fn stats(&self) -> &SearchStats {
        &self.stats
    }
}

/// Continues a parallel checkpoint. The frontier is reconstructed from
/// the frozen visited set and edge relation: every visited state without
/// a recorded expansion is re-enqueued (covering states whose expansion
/// an abort cut short), and every recorded-but-unvisited edge target is
/// visited and enqueued. Re-expansion is idempotent — the visited set
/// already contains everything the first run saw, so the reachable set
/// (and hence the verdict) matches an uninterrupted run.
pub(crate) fn resume_par<TS: TransitionSystem>(
    ts: &TS,
    cp: ParCheckpoint<TS::State>,
    limits: &SearchLimits,
    tel: &EngineTelemetry<'_>,
) -> LimitedResult<TS::State> {
    let workers = cp.workers.max(1);
    let frontier = Frontier::new(workers, limits.state_cap());
    frontier
        .visited_count
        .store(cp.visited.len() as u64, Ordering::Relaxed);
    for s in &cp.visited {
        frontier.visited.insert(s.clone());
    }
    let expanded: FxHashSet<&TS::State> = cp.edges.iter().map(|(src, _)| src).collect();
    let mut next_queue = 0usize;
    for s in &cp.visited {
        if !expanded.contains(s) {
            frontier.push(next_queue % workers, s.clone());
            next_queue += 1;
        }
    }
    for (_, succs) in &cp.edges {
        for t in succs.iter() {
            if frontier.try_visit(t) {
                frontier.push(next_queue % workers, t.clone());
                next_queue += 1;
            }
        }
    }
    let mut prior_stats = cp.stats;
    prior_stats.truncated = false;
    run_exploration(ts, frontier, workers, limits, tel, prior_stats, cp.edges)
}

/// Spawns the workers (each body wrapped in `catch_unwind`; a panicking
/// worker trips the abort flag and the survivors drain), joins them,
/// merges stats, and either reports the abort or runs the sequential
/// analysis phase over `prior_edges` plus the freshly recorded edges.
#[allow(clippy::too_many_arguments)]
fn run_exploration<TS: TransitionSystem>(
    ts: &TS,
    frontier: Frontier<TS::State>,
    workers: usize,
    limits: &SearchLimits,
    tel: &EngineTelemetry<'_>,
    prior_stats: SearchStats,
    prior_edges: EdgeList<TS::State>,
) -> LimitedResult<TS::State> {
    let mut logs: Vec<WorkerLog<TS::State>> = Vec::with_capacity(workers);
    let run_one = |w: usize, log: &mut WorkerLog<TS::State>| {
        let body = AssertUnwindSafe(|| explore_worker_into(ts, &frontier, w, limits, tel, log));
        if let Err(payload) = std::panic::catch_unwind(body) {
            frontier.trip(AbortReason::WorkerPanicked {
                worker: w,
                payload: panic_message(&*payload),
            });
        }
    };
    if workers == 1 {
        let mut log = WorkerLog::new();
        run_one(0, &mut log);
        logs.push(log);
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let run_one = &run_one;
                    scope.spawn(move || {
                        let mut log = WorkerLog::new();
                        run_one(w, &mut log);
                        log
                    })
                })
                .collect();
            for (w, h) in handles.into_iter().enumerate() {
                match h.join() {
                    Ok(log) => logs.push(log),
                    // Unreachable in practice (the worker body catches its
                    // own panics), but never let a join kill the process.
                    Err(payload) => frontier.trip(AbortReason::WorkerPanicked {
                        worker: w,
                        payload: panic_message(&*payload),
                    }),
                }
            }
        });
    }

    // Shard merge: each worker's plain counters fold into one block here,
    // at join — the exploration hot path never touches shared stats. On a
    // resumed run `prior_stats` carries the checkpointed counters and the
    // visited count (seeded into the frontier) already spans both legs.
    let mut stats = prior_stats;
    stats.states_visited = frontier.visited_count.load(Ordering::Relaxed);
    stats.transitions_explored += logs.iter().map(|l| l.transitions).sum::<u64>();
    stats.states_expanded += logs.iter().map(|l| l.expanded).sum::<u64>();
    stats.ample_hits += logs.iter().map(|l| l.ample_hits).sum::<u64>();
    stats.full_expansions += logs.iter().map(|l| l.full_expansions).sum::<u64>();

    if frontier.aborted.load(Ordering::Relaxed) {
        let reason = relock(&frontier.abort_reason)
            .take()
            .unwrap_or(AbortReason::StateBudget {
                max_states: frontier.max_states,
            });
        stats.truncated = true;
        let checkpoint = if matches!(reason, AbortReason::WorkerPanicked { .. }) {
            None
        } else {
            let mut edges = prior_edges;
            for log in logs {
                edges.extend(log.edges);
            }
            Some(EngineCheckpoint::Par(ParCheckpoint {
                visited: frontier.drain_visited(),
                edges,
                workers,
                stats,
            }))
        };
        return Err(Box::new(Interrupted {
            reason,
            stats,
            checkpoint,
        }));
    }

    // ---- Sequential analysis over the materialized graph. ----
    let analysis_start = Instant::now();
    let mut index: FxHashMap<TS::State, usize> = FxHashMap::default();
    let mut nodes: Vec<TS::State> = Vec::new();
    let intern =
        |s: &TS::State, nodes: &mut Vec<TS::State>, index: &mut FxHashMap<TS::State, usize>| {
            *index.entry(s.clone()).or_insert_with(|| {
                nodes.push(s.clone());
                nodes.len() - 1
            })
        };
    let mut adj: Vec<Vec<usize>> = Vec::new();
    let all_edges = prior_edges
        .iter()
        .chain(logs.iter().flat_map(|l| l.edges.iter()));
    for (src, succs) in all_edges {
        let si = intern(src, &mut nodes, &mut index);
        if adj.len() <= si {
            adj.resize(nodes.len(), Vec::new());
        }
        let targets: Vec<usize> = succs
            .iter()
            .map(|t| intern(t, &mut nodes, &mut index))
            .collect();
        adj.resize(nodes.len(), Vec::new());
        adj[si] = targets;
    }
    adj.resize(nodes.len(), Vec::new());

    let accepting: Vec<bool> = nodes.iter().map(|s| ts.is_accepting(s)).collect();
    let init_ids: Vec<usize> = ts
        .initial_states()
        .iter()
        .filter_map(|s| index.get(s).copied())
        .collect();

    let Some((entry, cycle_ids)) = find_accepting_cycle(&adj, &accepting) else {
        stats.lasso_ns += analysis_start.elapsed().as_nanos() as u64;
        return Ok((None, stats));
    };
    let prefix_ids = shortest_path_from_any(&adj, &init_ids, entry)
        .expect("cycle entry is reachable from an initial state");
    // BFS re-walks edges; count them so stats reflect the extraction work.
    stats.transitions_explored += cycle_ids.len() as u64 + prefix_ids.len() as u64;

    // `prefix` runs up to (not including) the cycle entry.
    let prefix: Vec<TS::State> = prefix_ids[..prefix_ids.len() - 1]
        .iter()
        .map(|&i| nodes[i].clone())
        .collect();
    let cycle: Vec<TS::State> = cycle_ids.iter().map(|&i| nodes[i].clone()).collect();
    stats.lasso_ns += analysis_start.elapsed().as_nanos() as u64;
    Ok((Some(Lasso { prefix, cycle }), stats))
}

/// Finds a cycle through an accepting state: picks a strongly connected
/// component that contains an accepting node and at least one edge inside
/// itself, and returns `(accepting node, cycle starting at that node)`.
fn find_accepting_cycle(adj: &[Vec<usize>], accepting: &[bool]) -> Option<(usize, Vec<usize>)> {
    let sccs = tarjan_sccs(adj);
    let mut comp_of = vec![0usize; adj.len()];
    for (ci, comp) in sccs.iter().enumerate() {
        for &n in comp {
            comp_of[n] = ci;
        }
    }
    for comp in &sccs {
        let has_cycle = comp.len() > 1 || adj[comp[0]].contains(&comp[0]);
        if !has_cycle {
            continue;
        }
        let Some(&seed) = comp.iter().find(|&&n| accepting[n]) else {
            continue;
        };
        // Shortest cycle through `seed`, staying inside its component.
        let ci = comp_of[seed];
        let mut back: FxHashMap<usize, usize> = FxHashMap::default();
        let mut queue = VecDeque::new();
        for &t in &adj[seed] {
            if comp_of[t] == ci && !back.contains_key(&t) {
                back.insert(t, seed);
                queue.push_back(t);
            }
        }
        if adj[seed].contains(&seed) {
            return Some((seed, vec![seed]));
        }
        while let Some(n) = queue.pop_front() {
            if n == seed {
                break;
            }
            for &t in &adj[n] {
                if comp_of[t] == ci && !back.contains_key(&t) {
                    back.insert(t, n);
                    queue.push_back(t);
                }
            }
        }
        let mut cycle = vec![seed];
        let mut cur = *back.get(&seed).expect("cycle closes within the SCC");
        while cur != seed {
            cycle.push(cur);
            cur = back[&cur];
        }
        cycle[1..].reverse();
        return Some((seed, cycle));
    }
    None
}

/// Shortest path (inclusive of both ends) from any source to `target`.
fn shortest_path_from_any(
    adj: &[Vec<usize>],
    sources: &[usize],
    target: usize,
) -> Option<Vec<usize>> {
    let mut back: FxHashMap<usize, Option<usize>> = FxHashMap::default();
    let mut queue = VecDeque::new();
    for &s in sources {
        if let Entry::Vacant(e) = back.entry(s) {
            e.insert(None);
            queue.push_back(s);
        }
    }
    while let Some(n) = queue.pop_front() {
        if n == target {
            let mut path = vec![n];
            let mut cur = n;
            while let Some(&Some(p)) = back.get(&cur) {
                path.push(p);
                cur = p;
            }
            path.reverse();
            return Some(path);
        }
        for &t in &adj[n] {
            if let Entry::Vacant(e) = back.entry(t) {
                e.insert(Some(n));
                queue.push_back(t);
            }
        }
    }
    None
}

/// Iterative Tarjan strongly-connected components.
fn tarjan_sccs(adj: &[Vec<usize>]) -> Vec<Vec<usize>> {
    let n = adj.len();
    const UNSET: usize = usize::MAX;
    let mut index = vec![UNSET; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut sccs: Vec<Vec<usize>> = Vec::new();
    // (node, next child position) — explicit call stack.
    let mut call: Vec<(usize, usize)> = Vec::new();

    for root in 0..n {
        if index[root] != UNSET {
            continue;
        }
        call.push((root, 0));
        index[root] = next_index;
        low[root] = next_index;
        next_index += 1;
        stack.push(root);
        on_stack[root] = true;

        while let Some(&mut (v, ref mut child)) = call.last_mut() {
            if *child < adj[v].len() {
                let w = adj[v][*child];
                *child += 1;
                if index[w] == UNSET {
                    index[w] = next_index;
                    low[w] = next_index;
                    next_index += 1;
                    stack.push(w);
                    on_stack[w] = true;
                    call.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                call.pop();
                if let Some(&(parent, _)) = call.last() {
                    low[parent] = low[parent].min(low[v]);
                }
                if low[v] == index[v] {
                    let mut comp = Vec::new();
                    loop {
                        let w = stack.pop().expect("tarjan stack underflow");
                        on_stack[w] = false;
                        comp.push(w);
                        if w == v {
                            break;
                        }
                    }
                    sccs.push(comp);
                }
            }
        }
    }
    sccs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::emptiness::find_accepting_lasso_limits_with;

    /// The parallel engine under a state budget alone.
    fn par<TS: TransitionSystem>(
        ts: &TS,
        max_states: u64,
        threads: usize,
    ) -> LimitedResult<TS::State> {
        find_accepting_lasso_limits_parallel_with(
            ts,
            &SearchLimits::states(max_states),
            threads,
            &EngineTelemetry::silent(),
        )
    }

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

    fn assert_valid_lasso(g: &Graph, lasso: &Lasso<usize>) {
        assert!(!lasso.cycle.is_empty());
        let last = *lasso.cycle.last().unwrap();
        assert!(g.edges[last].contains(&lasso.cycle[0]), "cycle closes");
        assert!(lasso.cycle.iter().any(|&s| g.accepting[s]), "cycle accepts");
        let full: Vec<usize> = lasso.prefix.iter().chain(&lasso.cycle).copied().collect();
        assert!(g.initial.contains(&full[0]), "starts initial");
        for pair in full.windows(2) {
            assert!(g.edges[pair[0]].contains(&pair[1]), "path edge {pair:?}");
        }
    }

    /// A layered graph with an accepting cycle buried at the bottom, plus
    /// enough off-path states that several workers get real work.
    fn layered(width: usize, depth: usize, accepting_cycle: bool) -> Graph {
        // Node layout: layer l occupies [1 + l*width, 1 + (l+1)*width).
        let n = 2 + width * depth;
        let mut edges = vec![Vec::new(); n];
        let mut accepting = vec![false; n];
        for w in 0..width {
            edges[0].push(1 + w);
        }
        for l in 0..depth - 1 {
            for w in 0..width {
                let from = 1 + l * width + w;
                for w2 in 0..width {
                    edges[from].push(1 + (l + 1) * width + w2);
                }
            }
        }
        let sink = n - 1;
        for w in 0..width {
            edges[1 + (depth - 1) * width + w].push(sink);
        }
        if accepting_cycle {
            edges[sink].push(sink);
            accepting[sink] = true;
        }
        Graph {
            edges,
            accepting,
            initial: vec![0],
        }
    }

    #[test]
    fn verdict_matches_sequential_on_layered_graphs() {
        for &accepting in &[true, false] {
            let g = layered(8, 6, accepting);
            let seq = find_accepting_lasso_limits_with(
                &g,
                &SearchLimits::unbounded(),
                &EngineTelemetry::silent(),
            )
            .unwrap();
            for threads in [1, 2, 4] {
                let par = par(&g, u64::MAX, threads).unwrap();
                assert_eq!(seq.0.is_some(), par.0.is_some(), "threads={threads}");
                if seq.0.is_none() {
                    // On empty languages both engines visit the whole
                    // reachable set; with a lasso the sequential DFS may
                    // stop early, so counts are comparable only here.
                    assert_eq!(seq.1.states_visited, par.1.states_visited);
                }
                if let Some(lasso) = &par.0 {
                    assert_valid_lasso(&g, lasso);
                }
            }
        }
    }

    #[test]
    fn finds_long_cycle_through_accepting_state() {
        // 0 → 1 → 2 → 3 → 1, accepting = {2}: entry ≠ accepting seed.
        let g = Graph {
            edges: vec![vec![1], vec![2], vec![3], vec![1]],
            accepting: vec![false, false, true, false],
            initial: vec![0],
        };
        for threads in [1, 3] {
            let (lasso, _) = par(&g, u64::MAX, threads).unwrap();
            assert_valid_lasso(&g, &lasso.unwrap());
        }
    }

    #[test]
    fn empty_language_and_multiple_initials() {
        let g = Graph {
            edges: vec![vec![1], vec![], vec![1]],
            accepting: vec![false, true, false],
            initial: vec![0, 2],
        };
        let (lasso, stats) = par(&g, u64::MAX, 2).unwrap();
        assert!(lasso.is_none());
        assert_eq!(stats.states_visited, 3);
    }

    #[test]
    fn budget_trips_with_bounded_overshoot() {
        let g = layered(10, 50, false); // 502 states
        for threads in [1usize, 2, 4] {
            let err = par(&g, 100, threads).expect_err("over budget");
            let visited = err.stats.states_visited;
            assert!(visited > 100);
            assert!(
                visited <= 100 + threads as u64 + 1,
                "overshoot {visited} with {threads} threads"
            );
            assert!(
                err.stats.truncated,
                "threads={threads}: abort stats flagged"
            );
            assert_eq!(err.reason, AbortReason::StateBudget { max_states: 100 });
        }
    }

    #[test]
    fn c3_proviso_recovers_hidden_lasso() {
        // The ample set at state 1 points back into the cycle; because every
        // state is marked visited before expansion, the worker expanding 1
        // sees its ample successor 0 already visited and falls back to the
        // full expansion, recovering the lasso through the accepting state.
        let g = crate::emptiness::test_graphs::c3_trap();
        for threads in [1usize, 2, 4] {
            let (lasso, stats) = par(&g, u64::MAX, threads).unwrap();
            let lasso = lasso.expect("C3 fallback must restore the full expansion");
            assert!(lasso.cycle.contains(&2), "threads={threads}");
            assert_eq!(stats.ample_hits, 0);
            assert!(stats.full_expansions >= 1);
        }
    }

    #[test]
    fn ample_subset_taken_when_no_cycle_closes() {
        // Single worker keeps the exploration order deterministic: 0's ample
        // set {1} prunes state 2 from the search entirely.
        let g = crate::emptiness::test_graphs::ReducedGraph {
            edges: vec![vec![1, 2], vec![3], vec![3], vec![]],
            accepting: vec![false, false, false, false],
            initial: vec![0],
            ample: vec![Some(vec![1]), None, None, None],
        };
        let (lasso, stats) = par(&g, u64::MAX, 1).unwrap();
        assert!(lasso.is_none());
        assert_eq!(stats.ample_hits, 1);
        assert_eq!(
            stats.states_visited, 3,
            "state 2 is pruned by the ample set"
        );
    }

    #[test]
    fn zero_threads_means_available_parallelism() {
        let g = layered(4, 4, true);
        let (lasso, _) = par(&g, u64::MAX, 0).unwrap();
        assert_valid_lasso(&g, &lasso.unwrap());
    }

    #[test]
    fn self_loop_on_initial_accepting_state() {
        let g = Graph {
            edges: vec![vec![0]],
            accepting: vec![true],
            initial: vec![0],
        };
        let (lasso, _) = par(&g, u64::MAX, 2).unwrap();
        let lasso = lasso.unwrap();
        assert!(lasso.prefix.is_empty());
        assert_eq!(lasso.cycle, vec![0]);
    }
}
