//! Compiled rule plans and footprint-keyed rule memoization.
//!
//! [`CompiledRules`] lowers every rule body of a [`Composition`] once into a
//! flat join/filter/project [`Plan`](ddws_logic::Plan)
//! ([`compile_rule`](ddws_logic::compile_rule)), replacing the per-step FO
//! re-interpretation of `satisfying_valuations`. On top, [`RuleCache`]
//! memoizes rule extensions keyed by the rule's *read footprint*: the exact
//! materialized contents of every relation the plan can read
//! ([`SnapshotView::footprint`](crate::view::SnapshotView::footprint)).
//! Successive configurations mostly agree on any single rule's footprint —
//! a peer move touches a handful of relations while every rule of every
//! peer is re-evaluated — so most evaluations become a cache probe.
//!
//! **Soundness.** A cached extension is returned only when the footprint
//! key — which covers every relation in the rule body, positive, negated or
//! residual — compares *equal* (never hash-equal) to the stored one, and
//! the footprint materializes exactly what the evaluation views read per
//! relation. Lazily decided database relations cannot be materialized;
//! rules reading them are evaluated compiled but unmemoized. See DESIGN.md
//! §3.8.
//!
//! [`EvalCtx`] threads an optional compiled-plan table and cache through
//! [`Composition::successors_with`](crate::Composition::successors_with);
//! the default context reproduces the interpreted path bit for bit, keeping
//! the interpreter available as the oracle of record.

use crate::composition::{Composition, PeerId};
use crate::view::{EvalView, ReadSlot};
use ddws_logic::{compile_rule, eval_plan, satisfying_valuations, Fo, Plan, VarId};
use ddws_relational::hash::FxHashMap;
use ddws_relational::Value;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Instant;

/// Identifies one rule of a composition for plan lookup.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RuleRef {
    /// `state_rules[i].insert` of a peer.
    StateInsert(PeerId, usize),
    /// `state_rules[i].delete` of a peer.
    StateDelete(PeerId, usize),
    /// `action_rules[i]` of a peer.
    Action(PeerId, usize),
    /// `send_rules[i]` of a peer.
    Send(PeerId, usize),
    /// `input_rules[i]` of a peer.
    Input(PeerId, usize),
}

/// Every rule body of a composition, compiled once at build time.
#[derive(Clone, Debug)]
pub struct CompiledRules {
    plans: Vec<Plan>,
    state: Vec<Vec<(Option<u32>, Option<u32>)>>,
    action: Vec<Vec<u32>>,
    send: Vec<Vec<u32>>,
    input: Vec<Vec<u32>>,
}

impl CompiledRules {
    /// Compiles every rule of `comp`.
    pub fn new(comp: &Composition) -> Self {
        let mut plans = Vec::new();
        let mut push = |head: &[VarId], body: &Fo| -> u32 {
            let id = u32::try_from(plans.len()).expect("rule table overflow");
            plans.push(compile_rule(head, body));
            id
        };
        let mut state = Vec::with_capacity(comp.peers.len());
        let mut action = Vec::with_capacity(comp.peers.len());
        let mut send = Vec::with_capacity(comp.peers.len());
        let mut input = Vec::with_capacity(comp.peers.len());
        for peer in &comp.peers {
            state.push(
                peer.state_rules
                    .iter()
                    .map(|sr| {
                        (
                            sr.insert.as_ref().map(|b| push(&sr.head, b)),
                            sr.delete.as_ref().map(|b| push(&sr.head, b)),
                        )
                    })
                    .collect(),
            );
            action.push(
                peer.action_rules
                    .iter()
                    .map(|ar| push(&ar.head, &ar.body))
                    .collect(),
            );
            send.push(
                peer.send_rules
                    .iter()
                    .map(|(_, rule)| push(&rule.head, &rule.body))
                    .collect(),
            );
            input.push(
                peer.input_rules
                    .iter()
                    .map(|ir| push(&ir.head, &ir.body))
                    .collect(),
            );
        }
        CompiledRules {
            plans,
            state,
            action,
            send,
            input,
        }
    }

    /// The plan for a rule, with its table-wide id (the cache-key prefix).
    pub fn plan(&self, rule: RuleRef) -> Option<(u32, &Plan)> {
        let id = match rule {
            RuleRef::StateInsert(p, i) => self.state[p.index()][i].0?,
            RuleRef::StateDelete(p, i) => self.state[p.index()][i].1?,
            RuleRef::Action(p, i) => self.action[p.index()][i],
            RuleRef::Send(p, i) => self.send[p.index()][i],
            RuleRef::Input(p, i) => self.input[p.index()][i],
        };
        Some((id, &self.plans[id as usize]))
    }

    /// Number of compiled plans.
    pub fn len(&self) -> usize {
        self.plans.len()
    }

    /// Whether the composition has no rules at all.
    pub fn is_empty(&self) -> bool {
        self.plans.is_empty()
    }
}

type Extension = Arc<Vec<Vec<Value>>>;

/// A memo table from `(rule, footprint)` to the rule's extension, sharded
/// per rule (each rule's entries live behind their own lock, so concurrent
/// workers evaluating different rules never contend), with hit/miss/timing
/// counters. One cache serves one verification run: the quantification
/// domain must stay fixed for its lifetime (database contents may vary —
/// they are part of the key).
/// It stays off `ddws_relational::hash::ShardedTable`: hash sharding would
/// add a full footprint hash to every probe on the hot path.
#[derive(Debug, Default)]
pub struct RuleCache {
    rules: Vec<RwLock<FxHashMap<Vec<ReadSlot>, Extension>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evals: AtomicU64,
    eval_ns: AtomicU64,
}

impl RuleCache {
    /// A cache for the rules of `compiled`.
    pub fn new(compiled: &CompiledRules) -> Self {
        RuleCache {
            rules: (0..compiled.len()).map(|_| RwLock::default()).collect(),
            ..Default::default()
        }
    }

    /// An instrumentation-only cache: meters evaluation time but memoizes
    /// nothing (used to time the interpreted path with identical overhead).
    pub fn timing_only() -> Self {
        Self::default()
    }

    fn get(&self, rule: u32, key: &[ReadSlot]) -> Option<Extension> {
        let shard = self
            .rules
            .get(rule as usize)?
            .read()
            .expect("rule cache poisoned");
        shard.get(key).cloned()
    }

    fn insert(&self, rule: u32, key: Vec<ReadSlot>, ext: Extension) {
        if let Some(shard) = self.rules.get(rule as usize) {
            shard.write().expect("rule cache poisoned").insert(key, ext);
        }
    }

    /// Cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cache misses (plus unmemoizable evaluations) so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Metered rule evaluations so far. Every metered evaluation counts
    /// exactly one hit or one miss, so `hits() + misses() == evals()` at
    /// any quiescent point — the invariant the telemetry suite checks.
    pub fn evals(&self) -> u64 {
        self.evals.load(Ordering::Relaxed)
    }

    /// Total nanoseconds spent evaluating rules (cache probes included).
    pub fn eval_ns(&self) -> u64 {
        self.eval_ns.load(Ordering::Relaxed)
    }
}

/// Evaluation context threaded through successor generation: which engine
/// evaluates rule bodies, and where results are memoized and metered.
///
/// The default (`compiled: None, cache: None`) is the interpreted path with
/// no instrumentation — exactly the pre-compilation behaviour.
#[derive(Clone, Copy, Default)]
pub struct EvalCtx<'a> {
    /// Compiled plans; `None` evaluates through the FO interpreter.
    pub compiled: Option<&'a CompiledRules>,
    /// Footprint-keyed memo table and metrics. Works for both engines
    /// (timing accrues either way); memoization engages only with plans,
    /// whose `reads()` set bounds the footprint.
    pub cache: Option<&'a RuleCache>,
}

impl EvalCtx<'_> {
    /// Evaluates one rule body over `view` — the legacy [`RuleView`] or the
    /// compact representation's view — through plans and the cache when
    /// available. Returns the head tuples in sorted order — identical for
    /// both engines (the swarm differential pins this).
    ///
    /// [`RuleView`]: crate::view::RuleView
    pub fn eval_rule<V: EvalView + ?Sized>(
        &self,
        rule: RuleRef,
        head: &[VarId],
        body: &Fo,
        view: &V,
    ) -> Extension {
        let start = self.cache.map(|_| Instant::now());
        let result = self.eval_inner(rule, head, body, view);
        if let (Some(cache), Some(start)) = (self.cache, start) {
            cache.evals.fetch_add(1, Ordering::Relaxed);
            cache
                .eval_ns
                .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        }
        result
    }

    fn eval_inner<V: EvalView + ?Sized>(
        &self,
        rule: RuleRef,
        head: &[VarId],
        body: &Fo,
        view: &V,
    ) -> Extension {
        let Some((id, plan)) = self.compiled.and_then(|c| c.plan(rule)) else {
            // Interpreted evaluation: nothing is memoizable, so a metered
            // run books it as a miss (keeping hits + misses == evals).
            if let Some(cache) = self.cache {
                cache.misses.fetch_add(1, Ordering::Relaxed);
            }
            return Arc::new(satisfying_valuations(head, body, view));
        };
        let Some(cache) = self.cache else {
            return Arc::new(eval_plan(plan, view));
        };
        match view.eval_footprint(plan.reads()) {
            Some(key) => {
                if let Some(hit) = cache.get(id, &key) {
                    cache.hits.fetch_add(1, Ordering::Relaxed);
                    return hit;
                }
                cache.misses.fetch_add(1, Ordering::Relaxed);
                let ext = Arc::new(eval_plan(plan, view));
                cache.insert(id, key, ext.clone());
                ext
            }
            None => {
                // A lazily decided database relation is in the footprint:
                // evaluate compiled, skip memoization.
                cache.misses.fetch_add(1, Ordering::Relaxed);
                Arc::new(eval_plan(plan, view))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::CompositionBuilder;
    use crate::composition::QueueKind;
    use crate::config::Config;
    use ddws_relational::{Instance, Tuple, Value};

    /// A three-peer relay with state, action, send and input rules —
    /// every rule kind goes through the compiled path.
    fn fixture() -> (Composition, Instance, Vec<Value>) {
        let mut b = CompositionBuilder::new();
        b.default_lossy(true);
        b.channel("fwd", 1, QueueKind::Flat, "A", "B");
        b.channel("ack", 1, QueueKind::Flat, "B", "C");
        b.peer("A")
            .database("d", 1)
            .input("pick", 1)
            .input_rule("pick", &["x"], "d(x)")
            .send_rule("fwd", &["x"], "pick(x)");
        b.peer("B")
            .state("seen", 1)
            .action("log", 1)
            .state_insert_rule("seen", &["x"], "?fwd(x)")
            .state_delete_rule("seen", &["x"], "seen(x) and not ?fwd(x)")
            .action_rule("log", &["x"], "seen(x) or ?fwd(x)")
            .send_rule("ack", &["x"], "?fwd(x)");
        b.peer("C")
            .state("done", 1)
            .state_insert_rule("done", &["x"], "?ack(x)");
        let comp = b.build().unwrap();
        let mut db = Instance::empty(&comp.voc);
        let d = comp.voc.lookup("A.d").unwrap();
        db.relation_mut(d).insert(Tuple::new(vec![Value(0)]));
        db.relation_mut(d).insert(Tuple::new(vec![Value(1)]));
        (comp, db, vec![Value(0), Value(1), Value(2)])
    }

    /// BFS a few levels under both evaluation modes and compare the full
    /// successor lists configuration-for-configuration.
    #[test]
    fn compiled_and_cached_successors_match_interpreted() {
        let (comp, db, dom) = fixture();
        let compiled = CompiledRules::new(&comp);
        let cache = RuleCache::new(&compiled);
        let ctx = EvalCtx {
            compiled: Some(&compiled),
            cache: Some(&cache),
        };

        let init_i = comp.initial_configs(&db, &dom);
        let init_c = comp.initial_configs_with(&db, &dom, ctx);
        assert_eq!(init_i, init_c, "initial configurations diverge");

        let mut frontier: Vec<Config> = init_i;
        for _level in 0..3 {
            let mut next = Vec::new();
            for cfg in &frontier {
                for mover in comp.movers() {
                    let interp = comp.successors(&db, &dom, cfg, mover);
                    let comp_c = comp.successors_with(&db, &dom, cfg, mover, ctx);
                    assert_eq!(interp, comp_c, "successors diverge for {mover:?}");
                    next.extend(interp);
                }
            }
            next.truncate(40);
            frontier = next;
        }
        assert!(cache.hits() > 0, "footprint memoization never engaged");
        assert!(cache.misses() > 0);
        assert!(cache.eval_ns() > 0);
        assert_eq!(
            cache.hits() + cache.misses(),
            cache.evals(),
            "every metered evaluation is exactly one hit or one miss"
        );
    }

    /// The interpreted path under a timing-only cache books every
    /// evaluation as a miss, so the accounting invariant holds there too.
    #[test]
    fn interpreted_metering_counts_every_eval_as_a_miss() {
        let (comp, db, dom) = fixture();
        let cache = RuleCache::timing_only();
        let ctx = EvalCtx {
            compiled: None,
            cache: Some(&cache),
        };
        let init = comp.initial_configs_with(&db, &dom, ctx);
        for cfg in &init {
            for mover in comp.movers() {
                comp.successors_with(&db, &dom, cfg, mover, ctx);
            }
        }
        assert!(cache.evals() > 0, "boot + successor evals were metered");
        assert_eq!(cache.hits(), 0, "nothing is memoizable when interpreting");
        assert_eq!(cache.misses(), cache.evals());
    }

    /// The cache must key on everything a rule reads: stepping a peer whose
    /// move changes a read relation must not serve a stale extension.
    #[test]
    fn cache_distinguishes_footprints() {
        let (comp, db, dom) = fixture();
        let compiled = CompiledRules::new(&comp);
        let cache = RuleCache::new(&compiled);
        let ctx = EvalCtx {
            compiled: Some(&compiled),
            cache: Some(&cache),
        };
        let a = comp.peer_by_name("A").unwrap().id;
        let b = comp.peer_by_name("B").unwrap().id;
        let init = comp
            .initial_configs_with(&db, &dom, ctx)
            .into_iter()
            .find(|c| {
                let pick = comp.voc.lookup("A.pick").unwrap();
                !c.rel.relation(pick).is_empty()
            })
            .unwrap();
        // A sends; B's `?fwd`-reading rules must see the new queue head in
        // every delivery branch.
        let seen = comp.voc.lookup("B.seen").unwrap();
        let (fwd, _) = comp.channel_by_name("fwd").unwrap();
        let delivered = comp
            .successors_with(&db, &dom, &init, crate::Mover::Peer(a), ctx)
            .into_iter()
            .find(|c| !c.queues[fwd.index()].is_empty())
            .unwrap();
        let recorded = comp
            .successors_with(&db, &dom, &delivered, crate::Mover::Peer(b), ctx)
            .iter()
            .any(|c| !c.rel.relation(seen).is_empty());
        assert!(recorded, "stale cached extension suppressed the insert");
    }
}
