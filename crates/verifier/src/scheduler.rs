//! The valuation-level shard scheduler (DESIGN.md §3.13).
//!
//! The universal closure of an LTL-FO property spawns one *independent*
//! product search per canonical valuation, which makes the outer loop the
//! embarrassingly-parallel axis of the decision procedure. This module
//! dispatches those searches across a bounded pool of outer shards
//! ([`VerifyOptions::valuation_threads`]) while preserving the sequential
//! loop's observable behaviour:
//!
//! * **Deterministic winner rule.** The run's verdict comes from the
//!   lowest-index valuation whose search did not complete with `Holds`.
//!   A shard that finishes with a violation (or a graceful stop) cancels
//!   only shards working on *higher* indices; lower indices always run to
//!   completion first. Since each per-valuation search is independent and
//!   deterministic (with the sequential inner engine), the winning index —
//!   and hence the verdict, the counterexample, and the redacted run
//!   report — is byte-identical across shard counts and schedules.
//! * **Grounded-NBA cache.** Canonical valuations ground the negated body
//!   to propositional formulas that are equal whenever two valuations
//!   induce the same variable-equality pattern, so [`NbaCache`] keys the
//!   translation on the grounded [`Ltl`] itself and `ltl_to_nba` runs once
//!   per formula *shape* instead of once per valuation.
//! * **Multi-shard checkpoints.** A graceful stop leaves several shards
//!   mid-search; the scheduler surfaces every in-flight
//!   [`EngineCheckpoint`] as a *leg* so `Verifier::resume` can drain all
//!   of them plus the untouched valuation tail to the unfaulted verdict.
//!
//! Two execution modes share one classification pass:
//!
//! * **threaded** (`shards > 1` and more than one task, production) — a
//!   `std::thread::scope` worker pool claiming valuation indices in
//!   order, with per-task child [`CancelToken`]s for the first-violation
//!   cancel;
//! * **cooperative** (everything else) — the tasks run in index order on
//!   the calling thread. With one slot (`shards <= 1` or a single task)
//!   this is the plain ordered loop with early exit at the first
//!   non-`Holds` result. Under a fault hook or virtual clock with several
//!   slots it becomes a round-robin that parks each task every
//!   [`QUANTUM_STATES`] visited states via a synthetic state-budget stop.
//!   The deterministic simulator's virtual-clock deadlines and
//!   exact-ordinal fault plans stay a pure function of the schedule, yet
//!   a global stop still leaves multiple parked legs — so the
//!   crash/resume swarm exercises genuine multi-shard checkpoints.
//!
//! [`VerifyOptions::valuation_threads`]: crate::verify::VerifyOptions::valuation_threads

use crate::counterexample::Counterexample;
use crate::product::PState;
use crate::verify::VerifyOptions;
use ddws_automata::{ltl_to_nba_limits, EngineCheckpoint, Ltl, Nba, SearchLimits};
use ddws_logic::VarId;
use ddws_relational::hash::FxHashMap;
use ddws_relational::Value;
use ddws_telemetry::{panic_message, AbortReason, CancelToken, SearchStats};
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Visited-state quantum between cooperative parks. Matches the engines'
/// ~1024-iteration progress stride, so deadline checks happen at the same
/// granularity whether a task runs one quantum or one slice.
pub(crate) const QUANTUM_STATES: u64 = 1024;

/// The cancellation reason recorded when a shard is stopped because a
/// lower-index valuation already decided the run.
pub(crate) const SUPERSEDED: &str = "superseded by a lower-index shard verdict";

/// Resolves [`VerifyOptions::valuation_threads`] to a concrete outer shard
/// count: `None` → 1 (the classic sequential loop), `Some(0)` → all
/// available cores, `Some(n)` → `n`.
pub(crate) fn effective_shards(opts: &VerifyOptions) -> usize {
    match opts.valuation_threads {
        None => 1,
        Some(0) => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        Some(n) => n.max(1),
    }
}

/// Splits the two-level thread budget: with `shards` outer workers, each
/// inner product search gets `opts.threads / shards` workers (at least
/// one), keeping the total at the user's budget. Sequential inner engines
/// (`opts.threads: None`) stay sequential — that is the deterministic
/// configuration the differential suite pins.
pub(crate) fn inner_threads(opts: &VerifyOptions, shards: usize) -> Option<usize> {
    if shards <= 1 {
        return opts.threads;
    }
    match opts.threads {
        None => None,
        Some(t) => {
            let total = if t == 0 {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            } else {
                t
            };
            Some((total / shards).max(1))
        }
    }
}

/// Whether this run must use the cooperative (single-threaded,
/// deterministic) scheduler: exactly the test-only configurations — a
/// fault hook injecting panics/cancellations at exact expansion ordinals,
/// or a virtual clock driving deadlines — where real-thread interleaving
/// would make stop points schedule-dependent.
pub(crate) fn deterministic_mode(opts: &VerifyOptions) -> bool {
    opts.fault_hook.is_some() || opts.clock.is_some()
}

/// A shared grounded-LTL → NBA translation cache for one run.
///
/// Lookups key on the grounded propositional [`Ltl`] itself: grounding
/// assigns atom ids in traversal order and dedupes by grounded-FO
/// equality, so two valuations with the same variable-equality pattern
/// produce *equal* formulas referring to identically-numbered atoms.
/// Translation happens under the map lock, so concurrent shards racing on
/// one shape block until the first finishes — the miss count therefore
/// equals the number of distinct shapes, independent of schedule (hence one
/// lock, not a `ddws_relational::hash::ShardedTable`).
pub(crate) struct NbaCache {
    map: Mutex<FxHashMap<Ltl, std::sync::Arc<Nba>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    ns: AtomicU64,
}

impl NbaCache {
    pub(crate) fn new() -> NbaCache {
        NbaCache {
            map: Mutex::new(FxHashMap::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            ns: AtomicU64::new(0),
        }
    }

    /// The NBA for a grounded formula, translating on first sight under
    /// the cancellation token and deadline of `limits`. A stopped
    /// translation caches nothing.
    pub(crate) fn translate(
        &self,
        ltl: &Ltl,
        limits: &SearchLimits,
    ) -> Result<std::sync::Arc<Nba>, AbortReason> {
        let mut map = self.map.lock().unwrap_or_else(|p| p.into_inner());
        if let Some(nba) = map.get(ltl) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(std::sync::Arc::clone(nba));
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let nba = std::sync::Arc::new(ltl_to_nba_limits(ltl, limits)?);
        map.insert(ltl.clone(), std::sync::Arc::clone(&nba));
        Ok(nba)
    }

    /// Accumulates ground+translate wall time from one shard. Shards add
    /// their spans atomically and the run adds the total to its NBA phase
    /// timer at join — the shard-safe replacement for the old
    /// `meta.nba_ns +=` on the sequential loop.
    pub(crate) fn add_ns(&self, ns: u64) {
        self.ns.fetch_add(ns, Ordering::Relaxed);
    }

    pub(crate) fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    pub(crate) fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    pub(crate) fn ns(&self) -> u64 {
        self.ns.load(Ordering::Relaxed)
    }
}

/// One dispatched task: a canonical valuation plus an optional engine
/// checkpoint to resume from (populated when `Verifier::resume` feeds a
/// frozen leg back to its originating engine).
pub(crate) type ValuationTask = (HashMap<VarId, Value>, Option<EngineCheckpoint<PState>>);

/// How one valuation's product search ended.
// The checkpoint-carrying variant dwarfs `Holds`, but task outputs live
// in per-batch vectors bounded by the valuation count and are consumed
// immediately by `classify` — indirection would cost more than it saves.
#[allow(clippy::large_enum_variant)]
pub(crate) enum TaskVerdict {
    /// The search exhausted the product with no accepting lasso.
    Holds,
    /// An accepting lasso was found and materialized.
    Violated {
        cex: Box<Counterexample>,
        /// Counterexample construction time, merged into the run's
        /// `counterexample_ns` phase only if this task wins.
        cex_ns: u64,
    },
    /// The search stopped gracefully (or panicked: `checkpoint: None`).
    Stopped {
        reason: AbortReason,
        checkpoint: Option<EngineCheckpoint<PState>>,
    },
}

/// One completed (or stopped) task: its verdict plus the engine's
/// cumulative statistics for this valuation (both legs after a resume —
/// the engines re-report cumulatively).
pub(crate) struct TaskOutput {
    pub(crate) stats: SearchStats,
    pub(crate) verdict: TaskVerdict,
}

impl TaskOutput {
    /// A task that stopped before its engine froze a frontier.
    pub(crate) fn stopped(reason: AbortReason) -> TaskOutput {
        TaskOutput {
            stats: SearchStats {
                truncated: true,
                ..SearchStats::default()
            },
            verdict: TaskVerdict::Stopped {
                reason,
                checkpoint: None,
            },
        }
    }
}

/// The classified result of one scheduler run over a batch of valuations.
// `Stopped` carries two stats blocks plus the legs; exactly one
// `ShardOutcome` exists per run, so the size gap is irrelevant.
#[allow(clippy::large_enum_variant)]
pub(crate) enum ShardOutcome {
    /// Every valuation's search completed with `Holds`.
    AllHold {
        /// Sum of all per-valuation statistics.
        stats: SearchStats,
        /// Valuations started per shard slot.
        per_shard: Vec<u64>,
    },
    /// The winning (lowest-index non-`Holds`) valuation is violated.
    Violated {
        cex: Box<Counterexample>,
        cex_ns: u64,
        /// Statistics of the completed prefix plus the winner — exactly
        /// what the sequential loop would have accumulated, independent
        /// of how much superseded work other shards did.
        stats: SearchStats,
        per_shard: Vec<u64>,
    },
    /// The winning valuation stopped without a verdict.
    Stopped {
        reason: AbortReason,
        /// Prefix + the winner's partial statistics (the abort report's
        /// counters; deterministic for budget stops).
        stats: SearchStats,
        /// Prefix + completed-`Holds` work *above* the winner — the
        /// checkpoint's base, so a resume neither redoes nor double-counts
        /// finished valuations.
        stats_prior: SearchStats,
        /// Batch indices not fully verified, ascending, the winner first.
        remaining: Vec<usize>,
        /// In-flight engine checkpoints, as (position within `remaining`,
        /// frozen frontier) pairs; the winner's leg (when it captured one)
        /// is first.
        legs: Vec<(usize, EngineCheckpoint<PState>)>,
        per_shard: Vec<u64>,
    },
}

/// Runs `runner` over the batched valuations with `shards` outer workers
/// and classifies the results under the deterministic winner rule.
///
/// `runner` maps one valuation (plus an optional engine checkpoint to
/// resume from, and the limits to honour) to a [`TaskOutput`]; it is
/// called concurrently from scope threads in threaded mode and must not
/// assume any ordering beyond "claimed in index order". Panics that
/// escape it are caught and classified as `WorkerPanicked` stops.
pub(crate) fn run_valuation_shards<F>(
    tasks: Vec<ValuationTask>,
    shards: usize,
    limits: &SearchLimits,
    deterministic: bool,
    runner: F,
) -> ShardOutcome
where
    F: Fn(&HashMap<VarId, Value>, Option<EngineCheckpoint<PState>>, &SearchLimits) -> TaskOutput
        + Sync,
{
    if deterministic || shards <= 1 || tasks.len() <= 1 {
        run_cooperative(tasks, shards, limits, &runner)
    } else {
        run_threaded(tasks, shards, limits, &runner)
    }
}

/// Wraps one runner call in panic isolation. The engines already isolate
/// panics inside their workers; this net catches panics in grounding,
/// product construction, or counterexample materialization.
fn run_guarded<F>(
    runner: &F,
    shard: usize,
    valuation: &HashMap<VarId, Value>,
    resume: Option<EngineCheckpoint<PState>>,
    limits: &SearchLimits,
) -> TaskOutput
where
    F: Fn(&HashMap<VarId, Value>, Option<EngineCheckpoint<PState>>, &SearchLimits) -> TaskOutput
        + Sync,
{
    match catch_unwind(AssertUnwindSafe(|| runner(valuation, resume, limits))) {
        Ok(out) => out,
        Err(payload) => TaskOutput::stopped(AbortReason::WorkerPanicked {
            worker: shard,
            payload: panic_message(&*payload),
        }),
    }
}

/// The production worker pool: `shards` scope threads claim valuation
/// indices in order; a non-`Holds` result cancels every *higher*-index
/// task through its child token and lower indices run to completion, so
/// the final winner is schedule-independent.
fn run_threaded<F>(
    tasks: Vec<ValuationTask>,
    shards: usize,
    limits: &SearchLimits,
    runner: &F,
) -> ShardOutcome
where
    F: Fn(&HashMap<VarId, Value>, Option<EngineCheckpoint<PState>>, &SearchLimits) -> TaskOutput
        + Sync,
{
    // The resume slot goes behind a mutex so any claiming thread can
    // take it.
    type Claimed = (
        HashMap<VarId, Value>,
        Mutex<Option<EngineCheckpoint<PState>>>,
    );
    let n = tasks.len();
    let tasks: Vec<Claimed> = tasks.into_iter().map(|(v, r)| (v, Mutex::new(r))).collect();
    let results: Vec<Mutex<Option<TaskOutput>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let per_shard: Vec<AtomicU64> = (0..shards).map(|_| AtomicU64::new(0)).collect();
    let next = AtomicUsize::new(0);
    // Lowest index with a completed non-`Holds` result so far.
    let winner = AtomicUsize::new(usize::MAX);
    // (index, child token) of every task currently running.
    let active: Mutex<Vec<(usize, CancelToken)>> = Mutex::new(Vec::new());

    std::thread::scope(|scope| {
        for shard in 0..shards {
            let tasks = &tasks;
            let results = &results;
            let per_shard = &per_shard;
            let next = &next;
            let winner = &winner;
            let active = &active;
            scope.spawn(move || loop {
                let idx = next.fetch_add(1, Ordering::SeqCst);
                // Everything at or past a decided winner is superseded
                // (the winner index only ever decreases).
                if idx >= n || idx > winner.load(Ordering::SeqCst) {
                    break;
                }
                let token = match &limits.cancel {
                    Some(parent) => parent.child(),
                    None => CancelToken::new(),
                };
                active.lock().unwrap().push((idx, token.clone()));
                // A lower-index winner may have landed while registering;
                // self-cancel so the engine stops on its first iteration.
                if idx > winner.load(Ordering::SeqCst) {
                    token.cancel(SUPERSEDED);
                }
                let task_limits = SearchLimits {
                    cancel: Some(token),
                    ..limits.clone()
                };
                let resume = tasks[idx].1.lock().unwrap().take();
                per_shard[shard].fetch_add(1, Ordering::Relaxed);
                let out = run_guarded(runner, shard, &tasks[idx].0, resume, &task_limits);
                let non_holds = !matches!(out.verdict, TaskVerdict::Holds);
                *results[idx].lock().unwrap() = Some(out);
                if non_holds {
                    let mut cur = winner.load(Ordering::SeqCst);
                    while idx < cur {
                        match winner.compare_exchange(cur, idx, Ordering::SeqCst, Ordering::SeqCst)
                        {
                            Ok(_) => break,
                            Err(seen) => cur = seen,
                        }
                    }
                    let bound = winner.load(Ordering::SeqCst);
                    for (i, t) in active.lock().unwrap().iter() {
                        if *i > bound {
                            t.cancel(SUPERSEDED);
                        }
                    }
                }
                active.lock().unwrap().retain(|(i, _)| *i != idx);
            });
        }
    });

    classify(
        results
            .into_iter()
            .map(|m| m.into_inner().unwrap())
            .collect(),
        per_shard.into_iter().map(|a| a.into_inner()).collect(),
    )
}

/// One cooperative shard slot: a claimed task parked between quanta.
struct CoopSlot {
    idx: usize,
    shard: usize,
    /// The frozen frontier and cumulative stats at the last park. Always
    /// `Some` while the slot sits in the round-robin queue (a task is
    /// claimed and immediately run, so a queued slot has run at least one
    /// quantum).
    parked: Option<(EngineCheckpoint<PState>, SearchStats)>,
}

/// The deterministic scheduler: claims tasks in index order into shard
/// slots, all on the caller's thread. One slot (`shards <= 1` or a single
/// task) runs each task to its end: the ordered loop with early exit.
/// Several slots round-robin one [`QUANTUM_STATES`]-state quantum at a
/// time via synthetic state-budget parks. Under a virtual clock or an
/// exact-ordinal fault plan every stop point is a pure function of the
/// schedule, and a global stop (cancel, deadline) leaves each in-flight
/// slot as a checkpoint leg.
fn run_cooperative<F>(
    tasks: Vec<ValuationTask>,
    shards: usize,
    limits: &SearchLimits,
    runner: &F,
) -> ShardOutcome
where
    F: Fn(&HashMap<VarId, Value>, Option<EngineCheckpoint<PState>>, &SearchLimits) -> TaskOutput
        + Sync,
{
    let n = tasks.len();
    let mut tasks = tasks;
    let slots = if n <= 1 { 1 } else { shards.max(1) };
    // Parking only pays when another slot can run in between.
    let parking = slots > 1;
    let real_cap = limits.max_states;
    let mut results: Vec<Option<TaskOutput>> = (0..n).map(|_| None).collect();
    let mut per_shard = vec![0u64; slots];
    // Free slot ids, lowest first (claim order is deterministic).
    let mut free: Vec<usize> = (0..slots).rev().collect();
    let mut queue: VecDeque<CoopSlot> = VecDeque::new();
    let mut next = 0usize;
    let mut winner_bound = usize::MAX;

    loop {
        // No between-quanta stop check is needed: the engines observe
        // cancellation every iteration and the deadline from iteration 0,
        // so once either is raised, every subsequent quantum — parked or
        // fresh — immediately completes with that stop and a frontier
        // checkpoint, and the winner rule picks the lowest index.

        // Claim-and-run-immediately beats round-robin, so a slot in the
        // queue always holds a parked checkpoint.
        let (mut slot, resume) = if next < n && next < winner_bound && !free.is_empty() {
            let shard = free.pop().expect("checked non-empty");
            let idx = next;
            next += 1;
            per_shard[shard] += 1;
            let resume = tasks[idx].1.take();
            (
                CoopSlot {
                    idx,
                    shard,
                    parked: None,
                },
                resume,
            )
        } else if let Some(mut slot) = queue.pop_front() {
            let (cp, _) = slot.parked.take().expect("queued slots are parked");
            (slot, Some(cp))
        } else {
            break;
        };

        let quantum_limits;
        let task_limits = if parking {
            let visited = resume.as_ref().map_or(0, |cp| cp.states_visited());
            let quantum_cap = visited + QUANTUM_STATES;
            quantum_limits = SearchLimits {
                max_states: Some(real_cap.map_or(quantum_cap, |r| quantum_cap.min(r))),
                ..limits.clone()
            };
            &quantum_limits
        } else {
            limits
        };
        let out = run_guarded(runner, slot.shard, &tasks[slot.idx].0, resume, task_limits);
        match out.verdict {
            // A budget stop at the *synthetic* cap is a park, not a
            // verdict; a stop at the real cap falls through as genuine.
            TaskVerdict::Stopped {
                reason: AbortReason::StateBudget { max_states },
                checkpoint: Some(cp),
            } if parking && Some(max_states) != real_cap => {
                slot.parked = Some((cp, out.stats));
                queue.push_back(slot);
            }
            verdict => {
                let non_holds = !matches!(verdict, TaskVerdict::Holds);
                results[slot.idx] = Some(TaskOutput {
                    stats: out.stats,
                    verdict,
                });
                free.push(slot.shard);
                if non_holds && slot.idx < winner_bound {
                    winner_bound = slot.idx;
                    // Supersede every queued slot above the bound; their
                    // parked frontiers become resumable legs.
                    let mut kept = VecDeque::new();
                    while let Some(s) = queue.pop_front() {
                        if s.idx > winner_bound {
                            let (cp, stats) = s.parked.expect("queued slots are parked");
                            results[s.idx] = Some(TaskOutput {
                                stats,
                                verdict: TaskVerdict::Stopped {
                                    reason: AbortReason::Cancelled {
                                        reason: SUPERSEDED.to_string(),
                                    },
                                    checkpoint: Some(cp),
                                },
                            });
                            free.push(s.shard);
                        } else {
                            kept.push_back(s);
                        }
                    }
                    queue = kept;
                }
            }
        }
    }

    classify(results, per_shard)
}

/// One deterministic pass from per-task results to the run outcome under
/// the winner rule. See the invariants in the module docs: every task
/// below the winner completed with `Holds`; results above the winner are
/// either completed `Holds` (folded into the checkpoint base), stopped
/// with a checkpoint (a resumable leg), or discarded back into the
/// remaining tail (never-started, superseded violations, stops without a
/// frontier).
fn classify(mut results: Vec<Option<TaskOutput>>, per_shard: Vec<u64>) -> ShardOutcome {
    let winner = results.iter().position(|r| {
        matches!(
            r,
            Some(TaskOutput {
                verdict: TaskVerdict::Violated { .. } | TaskVerdict::Stopped { .. },
                ..
            })
        )
    });
    let Some(w) = winner else {
        let mut stats = SearchStats::default();
        for r in &results {
            let out = r.as_ref().expect("no winner means every task completed");
            debug_assert!(matches!(out.verdict, TaskVerdict::Holds));
            stats.absorb(&out.stats);
        }
        return ShardOutcome::AllHold { stats, per_shard };
    };

    // Everything below the winner ran to completion with `Holds` — the
    // scheduler never cancels a lower index than a decided result.
    let mut prefix = SearchStats::default();
    for r in results.iter().take(w) {
        let out = r.as_ref().expect("tasks below the winner completed");
        debug_assert!(matches!(out.verdict, TaskVerdict::Holds));
        prefix.absorb(&out.stats);
    }
    let out = results[w].take().expect("winner has a result");
    match out.verdict {
        TaskVerdict::Holds => unreachable!("winner is a non-Holds result"),
        TaskVerdict::Violated { cex, cex_ns } => {
            let mut stats = prefix;
            stats.absorb(&out.stats);
            ShardOutcome::Violated {
                cex,
                cex_ns,
                stats,
                per_shard,
            }
        }
        TaskVerdict::Stopped { reason, checkpoint } => {
            let mut stats = prefix;
            stats.absorb(&out.stats);
            let mut stats_prior = prefix;
            let mut remaining = vec![w];
            let mut legs = Vec::new();
            if let Some(cp) = checkpoint {
                legs.push((0, cp));
            }
            for (i, slot) in results.iter_mut().enumerate().skip(w + 1) {
                match slot.take() {
                    Some(TaskOutput {
                        stats: s,
                        verdict: TaskVerdict::Holds,
                    }) => stats_prior.absorb(&s),
                    Some(TaskOutput {
                        verdict:
                            TaskVerdict::Stopped {
                                checkpoint: Some(cp),
                                ..
                            },
                        ..
                    }) => {
                        legs.push((remaining.len(), cp));
                        remaining.push(i);
                    }
                    // Superseded violations and checkpoint-less stops are
                    // discarded (reporting them would leak the schedule);
                    // the valuation re-runs from scratch on resume.
                    Some(_) | None => remaining.push(i),
                }
            }
            ShardOutcome::Stopped {
                reason,
                stats,
                stats_prior,
                remaining,
                legs,
                per_shard,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn holds(states: u64) -> TaskOutput {
        TaskOutput {
            stats: SearchStats {
                states_visited: states,
                ..SearchStats::default()
            },
            verdict: TaskVerdict::Holds,
        }
    }

    fn stopped(states: u64, cap: u64) -> TaskOutput {
        TaskOutput {
            stats: SearchStats {
                states_visited: states,
                truncated: true,
                ..SearchStats::default()
            },
            verdict: TaskVerdict::Stopped {
                reason: AbortReason::StateBudget { max_states: cap },
                checkpoint: None,
            },
        }
    }

    #[test]
    fn classify_all_hold_sums_stats() {
        let out = classify(vec![Some(holds(3)), Some(holds(4))], vec![2]);
        match out {
            ShardOutcome::AllHold { stats, per_shard } => {
                assert_eq!(stats.states_visited, 7);
                assert_eq!(per_shard, vec![2]);
            }
            _ => panic!("expected AllHold"),
        }
    }

    #[test]
    fn classify_stop_splits_prefix_and_prior() {
        // Tasks: 0 holds, 1 stopped (winner), 2 holds-above, 3 untouched.
        let out = classify(
            vec![
                Some(holds(10)),
                Some(stopped(5, 100)),
                Some(holds(20)),
                None,
            ],
            vec![2, 2],
        );
        match out {
            ShardOutcome::Stopped {
                stats,
                stats_prior,
                remaining,
                legs,
                ..
            } => {
                // Abort-report stats: prefix + winner partial only.
                assert_eq!(stats.states_visited, 15);
                assert!(stats.truncated);
                // Checkpoint base: prefix + completed work above the
                // winner, so resume does not redo task 2.
                assert_eq!(stats_prior.states_visited, 30);
                assert!(!stats_prior.truncated);
                assert_eq!(remaining, vec![1, 3]);
                // The winner carried no engine checkpoint here.
                assert!(legs.is_empty());
            }
            _ => panic!("expected Stopped"),
        }
    }

    #[test]
    fn effective_shards_resolves_zero_to_cores() {
        let mut opts = VerifyOptions::default();
        assert_eq!(effective_shards(&opts), 1);
        opts.valuation_threads = Some(4);
        assert_eq!(effective_shards(&opts), 4);
        opts.valuation_threads = Some(0);
        assert!(effective_shards(&opts) >= 1);
    }

    #[test]
    fn inner_threads_split_the_budget() {
        let mut opts = VerifyOptions {
            valuation_threads: Some(4),
            ..VerifyOptions::default()
        };
        assert_eq!(inner_threads(&opts, 4), None, "sequential stays sequential");
        opts.threads = Some(8);
        assert_eq!(inner_threads(&opts, 4), Some(2));
        opts.threads = Some(2);
        assert_eq!(inner_threads(&opts, 4), Some(1), "at least one worker");
        assert_eq!(
            inner_threads(&opts, 1),
            Some(2),
            "one shard keeps the budget"
        );
    }
}
