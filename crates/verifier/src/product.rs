//! The on-the-fly product of a composition's run graph with a property
//! automaton, threaded through the lazy database oracle.
//!
//! States are `(configuration, mover, automaton state, partial database)`
//! tuples, interned to small ids. Three kinds of edges:
//!
//! * **boot** edges resolve the initial configurations,
//! * **fork** edges split on an undecided database fact (strictly growing
//!   the oracle, hence acyclic),
//! * **step** edges perform one serialized composition move while the
//!   automaton reads the current snapshot's letter.
//!
//! Acceptance is inherited from the automaton component, so an accepting
//! lasso of this system is exactly a counterexample run over the database
//! its oracle describes.
//!
//! Under a fixed database with interchangeable values, every configuration
//! a boot or step edge reaches is replaced by its orbit representative
//! ([`crate::symmetry`]): the system is then the quotient under those
//! value permutations, and its lassos are lifted back before they are
//! reported.
//!
//! The product memoizes no expansion per state: the engines own that
//! reuse. A re-expansion costs a snapshot letter plus lookups in the memos
//! that outlive it — [`SharedSearch`]'s steps and boots, the symmetry
//! reduction's representatives — and returns the same successors.
//!
//! Those memos are sharded behind `RwLock`s so one `ProductSystem` can be
//! expanded from many worker threads at once (see
//! [`parallel`](crate::parallel)). Memoized values are pure functions of
//! their keys, so the benign race — two threads computing the same entry
//! before either publishes it — wastes a little work but never changes a
//! result.

use crate::ground::AtomRegistry;
use crate::oracle::{FactUniverse, Oracle, RecordingDb};
use ddws_automata::{Expansion, Nba, TransitionSystem};
use ddws_model::{
    CompactConfig, CompactView, CompiledRules, Composition, Config, EvalCtx, IndependenceOracle,
    Mover, RuleCache, StatePool, ValueClasses, ValuePerm,
};
use ddws_relational::hash::{self, FxHashMap};
use ddws_relational::{Instance, Interner, Value};
use ddws_telemetry::{RuleMeterSource, SearchStats};
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Instant;

/// A state of the product system.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PState {
    /// Initial configurations not yet resolved (the oracle may need to
    /// decide facts that input rules touch).
    Boot {
        /// Interned oracle id.
        oracle: u32,
    },
    /// A running snapshot.
    Run {
        /// Interned configuration id.
        config: u32,
        /// The peer (or environment) taking the next step; `moveW` of this
        /// snapshot.
        mover: Mover,
        /// Property-automaton state.
        q: usize,
        /// Interned oracle id.
        oracle: u32,
    },
}

/// Shard count for the caches: enough to keep lock contention low at the
/// thread counts the engine targets (≤ 32 workers) without wasting memory
/// on sequential runs.
const SHARDS: usize = 16;

/// A sharded [`FxHashMap`] cache; values are cloned out under a read lock.
/// Callers store ids or `Arc`-wrapped successor sets (`Arc<[u32]>`), so
/// the clone is a refcount bump, never a deep copy of the cached step.
struct ShardedMap<K, V> {
    shards: Vec<RwLock<FxHashMap<K, V>>>,
}

impl<K, V> Default for ShardedMap<K, V> {
    fn default() -> Self {
        ShardedMap {
            shards: (0..SHARDS).map(|_| RwLock::default()).collect(),
        }
    }
}

impl<K: Hash + Eq, V: Clone> ShardedMap<K, V> {
    /// The shard holding `key` (the hasher is keyless, so the layout is
    /// stable across runs).
    fn shard(&self, key: &K) -> &RwLock<FxHashMap<K, V>> {
        &self.shards[hash::shard_of(key, SHARDS)]
    }

    fn get(&self, key: &K) -> Option<V> {
        self.shard(key)
            .read()
            .expect("cache shard poisoned")
            .get(key)
            .cloned()
    }

    fn insert(&self, key: K, value: V) {
        self.shard(&key)
            .write()
            .expect("cache shard poisoned")
            .insert(key, value);
    }

    /// Inserts unless the key is present; whether this call inserted.
    fn insert_new(&self, key: K, value: V) -> bool {
        let mut shard = self.shard(&key).write().expect("cache shard poisoned");
        match shard.entry(key) {
            std::collections::hash_map::Entry::Occupied(_) => false,
            std::collections::hash_map::Entry::Vacant(slot) => {
                slot.insert(value);
                true
            }
        }
    }
}

/// Successor configs of one cached expansion, or `Err(fact)` when the
/// expansion forks on an undecided database fact.
type StepResult = Result<Arc<[u32]>, usize>;

/// The compact state space of one run: the extension pool (hash-consed
/// relation instances and queue contents, bit-packed where the domain
/// allows) plus the configuration interner mapping [`CompactConfig`]s to
/// the dense ids [`PState`] carries. Both layers meter hits and misses, so
/// `SearchStats`' intern counters satisfy `hits + misses == calls` exactly.
pub(crate) struct CompactSpace {
    pub(crate) pool: StatePool,
    pub(crate) configs: Interner<CompactConfig>,
}

/// Search state shared across the valuations of one `check` call: the
/// configuration/oracle interners and the composition-step cache. Steps
/// depend only on (config, mover, oracle) — not on the property valuation —
/// so sharing them makes every valuation after the first traverse the
/// already-expanded graph instead of re-evaluating every rule.
pub struct SharedSearch {
    configs: Interner<Config>,
    /// Compact state space; `Some` routes configurations through the
    /// hash-cons pool and leaves the legacy `configs` interner unused
    /// (`VerifyOptions::state_repr`).
    compact: Option<CompactSpace>,
    oracles: Interner<Oracle>,
    /// (config, mover, oracle) → successor configs (or fork fact).
    steps: ShardedMap<(u32, Mover, u32), StepResult>,
    /// oracle → initial configs (or fork fact).
    boots: ShardedMap<u32, StepResult>,
    /// Compiled rule plans; `None` routes rule bodies through the FO
    /// interpreter (the oracle of record).
    compiled: Option<CompiledRules>,
    /// Footprint-keyed rule memo table and rule-evaluation metrics (timing
    /// only under the interpreter).
    rule_cache: RuleCache,
    /// Nanoseconds spent computing fresh boot expansions (cache misses in
    /// `boots` — re-reads cost nothing and are not timed).
    boot_ns: AtomicU64,
    /// Nanoseconds spent computing fresh composition steps (cache misses
    /// in `steps`).
    step_ns: AtomicU64,
}

impl SharedSearch {
    fn with_rules(compiled: Option<CompiledRules>, rule_cache: RuleCache) -> Self {
        SharedSearch {
            configs: Interner::new(),
            compact: None,
            oracles: Interner::new(),
            steps: ShardedMap::default(),
            boots: ShardedMap::default(),
            compiled,
            rule_cache,
            boot_ns: AtomicU64::new(0),
            step_ns: AtomicU64::new(0),
        }
    }

    /// Shared state that evaluates rules through compiled join/filter/
    /// project plans with footprint-keyed memoization (the default engine
    /// of [`crate::VerifyOptions`]).
    ///
    /// One `SharedSearch` serves one verification run: the memo table's
    /// soundness requires the quantification domain — and, in compact
    /// mode, the fixed database, whose footprint handle the state pool
    /// caches — to stay fixed for its lifetime.
    pub fn compiled(comp: &Composition) -> Self {
        let compiled = CompiledRules::new(comp);
        let rule_cache = RuleCache::new(&compiled);
        SharedSearch::with_rules(Some(compiled), rule_cache)
    }

    /// Shared state that evaluates rules through the FO interpreter but
    /// still meters evaluation time, so compiled-vs-interpreted timings in
    /// [`ddws_telemetry::SearchStats`] are comparable.
    pub fn interpreted_metered() -> Self {
        SharedSearch::with_rules(None, RuleCache::timing_only())
    }

    /// Switches this shared state to the compact (hash-consed, bit-packed)
    /// configuration representation. `value_capacity` must be one past the
    /// largest [`Value`] index any reachable extension can hold — the
    /// verifier derives it with
    /// [`domain::packing_capacity`](crate::domain::packing_capacity) from
    /// the closed input-bounded domain.
    ///
    /// Like the rule engine, the representation is fixed for the lifetime
    /// of the shared state: configuration ids from one representation are
    /// meaningless in the other.
    pub fn with_compact(mut self, comp: &Composition, value_capacity: usize) -> Self {
        self.compact = Some(CompactSpace {
            pool: StatePool::new(comp, value_capacity),
            configs: Interner::new(),
        });
        self
    }

    /// Intern-table counters: (calls, hits, misses) summed over the
    /// extension pool and the configuration interner. All zero under the
    /// legacy representation.
    pub fn intern_stats(&self) -> (u64, u64, u64) {
        match &self.compact {
            Some(space) => {
                let hits = space.pool.intern_hits() + space.configs.hits();
                let misses = space.pool.intern_misses() + space.configs.misses();
                (hits + misses, hits, misses)
            }
            None => (0, 0, 0),
        }
    }

    /// Approximate heap bytes held by the state store — interned
    /// configurations plus (in compact mode) the extension pool. This is
    /// the dominant term of a checkpoint's retained memory, since
    /// [`EngineCheckpoint`](ddws_automata::EngineCheckpoint) frontiers and
    /// visited sets store dense ids.
    pub fn approx_state_bytes(&self) -> usize {
        match &self.compact {
            Some(space) => {
                space.pool.approx_bytes() + space.configs.approx_bytes(CompactConfig::approx_bytes)
            }
            None => self.configs.approx_bytes(Config::approx_bytes),
        }
    }

    /// The rule-evaluation context this shared state configures.
    pub(crate) fn eval_ctx(&self) -> EvalCtx<'_> {
        EvalCtx {
            compiled: self.compiled.as_ref(),
            cache: Some(&self.rule_cache),
        }
    }

    /// Writes this shared state's accumulated meters — rule-cache counts,
    /// rule-evaluation time, boot and successor phase spans — into `stats`.
    ///
    /// The write *overwrites* (rather than adds): one `SharedSearch` spans
    /// every valuation of a run, so its counters are already run totals.
    /// Callers that build a fresh `SharedSearch` per sub-search fold each
    /// one and then `absorb` the per-search stats as usual.
    pub fn fold_into(&self, stats: &mut SearchStats) {
        let c = &self.rule_cache;
        stats.rule_evals = c.evals();
        stats.rule_cache_hits = c.hits();
        stats.rule_cache_misses = c.misses();
        stats.rule_eval_ns = c.eval_ns();
        stats.boot_ns = self.boot_ns.load(Ordering::Relaxed);
        stats.successor_ns = self.step_ns.load(Ordering::Relaxed);
        let (calls, hits, misses) = self.intern_stats();
        stats.intern_calls = calls;
        stats.intern_hits = hits;
        stats.intern_misses = misses;
    }
}

impl RuleMeterSource for SharedSearch {
    fn rule_cache_counts(&self) -> (u64, u64) {
        (self.rule_cache.hits(), self.rule_cache.misses())
    }
}

/// The symmetry reduction of one product system: its value classes and
/// the memo from raw configuration ids to representative ids. The memo is
/// per system because the classes depend on the valuation's atoms; the
/// step cache in [`SharedSearch`] keeps raw ids and stays shared.
struct Symmetry {
    classes: ValueClasses,
    reps: ShardedMap<u32, u32>,
    /// Memo entries whose representative differs from the raw id.
    merges: AtomicU64,
}

/// The product system.
pub struct ProductSystem<'a> {
    /// The composition under verification.
    pub comp: &'a Composition,
    /// Fixed database facts (outside the oracle universe).
    pub base_db: &'a Instance,
    /// Candidate facts subject to lazy decisions (empty for fixed-database
    /// verification).
    pub universe: &'a FactUniverse,
    /// The verification domain.
    pub domain: &'a [Value],
    /// Automaton for the *negated* property (or the protocol complement).
    pub nba: &'a Nba,
    /// The snapshot atoms the automaton's propositions refer to.
    pub atoms: &'a AtomRegistry,
    shared: &'a SharedSearch,
    /// Ample-set reduction; `None` explores every interleaving.
    reduction: Option<&'a IndependenceOracle>,
    /// Symmetry reduction; `None` when no two values are interchangeable.
    symmetry: Option<Symmetry>,
}

impl<'a> ProductSystem<'a> {
    /// Builds the product system, with the symmetry reduction on whenever
    /// the database is fixed and some values are interchangeable
    /// ([`crate::symmetry`]).
    pub fn new(
        comp: &'a Composition,
        base_db: &'a Instance,
        universe: &'a FactUniverse,
        domain: &'a [Value],
        nba: &'a Nba,
        atoms: &'a AtomRegistry,
        shared: &'a SharedSearch,
    ) -> Self {
        ProductSystem {
            comp,
            base_db,
            universe,
            domain,
            nba,
            atoms,
            shared,
            reduction: None,
            symmetry: crate::symmetry::product_classes(comp, base_db, universe, domain, atoms).map(
                |classes| Symmetry {
                    classes,
                    reps: ShardedMap::default(),
                    merges: AtomicU64::new(0),
                },
            ),
        }
    }

    /// The interchangeable-value classes the search reduces under, if any.
    pub fn value_classes(&self) -> Option<&ValueClasses> {
        self.symmetry.as_ref().map(|s| &s.classes)
    }

    /// Raw successor configurations this system replaced by a different
    /// orbit representative so far (each distinct one counted once).
    pub fn symmetry_merges(&self) -> u64 {
        self.symmetry
            .as_ref()
            .map_or(0, |s| s.merges.load(Ordering::Relaxed))
    }

    /// The representative of interned configuration `raw` under `classes`,
    /// interned, with the permutation mapping `raw` onto it.
    fn canonical_form(&self, raw: u32, classes: &ValueClasses) -> (u32, ValuePerm) {
        match &self.shared.compact {
            Some(space) => {
                let (rep, perm) = space.pool.canonical(&space.configs.resolve(raw), classes);
                let id = if perm.is_identity() {
                    raw
                } else {
                    space.configs.intern(rep)
                };
                (id, perm)
            }
            None => {
                let (rep, perm) = self.shared.configs.resolve(raw).canonical(classes);
                let id = if perm.is_identity() {
                    raw
                } else {
                    self.intern_config(rep)
                };
                (id, perm)
            }
        }
    }

    /// The orbit representative of a raw successor configuration
    /// (memoized).
    fn representative(&self, sym: &Symmetry, raw: u32) -> u32 {
        if let Some(rep) = sym.reps.get(&raw) {
            return rep;
        }
        let (rep, _) = self.canonical_form(raw, &sym.classes);
        if sym.reps.insert_new(raw, rep) && rep != raw {
            sym.merges.fetch_add(1, Ordering::Relaxed);
        }
        rep
    }

    /// Maps raw successor ids to representatives, dropping duplicates;
    /// `raw` itself when the reduction is off.
    fn representatives(&self, raw: Arc<[u32]>) -> Arc<[u32]> {
        let Some(sym) = &self.symmetry else {
            return raw;
        };
        let mut out: Vec<u32> = Vec::with_capacity(raw.len());
        for &r in raw.iter() {
            let rep = self.representative(sym, r);
            if !out.contains(&rep) {
                out.push(rep);
            }
        }
        out.into()
    }

    /// The permutation `π` behind one quotient step: `π·c = target` for
    /// the first raw `mover`-successor `c` of `config` whose representative
    /// is `target`. Counterexample lifting walks these.
    pub(crate) fn quotient_step(
        &self,
        config: u32,
        mover: Mover,
        oracle: u32,
        target: u32,
    ) -> Option<ValuePerm> {
        let sym = self.symmetry.as_ref()?;
        let raw = self.step_configs(config, mover, oracle).ok()?;
        let c = *raw
            .iter()
            .find(|&&c| self.representative(sym, c) == target)?;
        Some(self.canonical_form(c, &sym.classes).1)
    }

    /// Activates the ample-set reduction: the engines route expansions
    /// through [`TransitionSystem::successors_reduced`] and enforce the C3
    /// cycle proviso. The oracle may still decline every configuration
    /// (no statically independent mover), in which case expansions are
    /// full but counted in `SearchStats::full_expansions`.
    pub fn with_reduction(mut self, oracle: &'a IndependenceOracle) -> Self {
        self.reduction = Some(oracle);
        self
    }

    /// Resolves an interned configuration, materializing it from the
    /// compact pool when that representation is active. Hot paths never
    /// call this in compact mode (letters and steps work on handles); it
    /// serves counterexample reconstruction and display.
    pub fn config(&self, id: u32) -> Arc<Config> {
        match &self.shared.compact {
            Some(space) => Arc::new(space.pool.expand(self.comp, &space.configs.resolve(id))),
            None => self.shared.configs.resolve(id),
        }
    }

    /// Resolves an interned oracle.
    pub fn oracle(&self, id: u32) -> Arc<Oracle> {
        self.shared.oracles.resolve(id)
    }

    fn intern_config(&self, c: Config) -> u32 {
        self.shared.configs.intern(c)
    }

    fn intern_oracle(&self, o: Oracle) -> u32 {
        self.shared.oracles.intern(o)
    }

    /// Initial configurations for an oracle, cached across valuations.
    fn boot_configs(&self, oracle: u32) -> StepResult {
        if let Some(cached) = self.shared.boots.get(&oracle) {
            return cached;
        }
        let start = Instant::now();
        let o = self.oracle(oracle);
        let db = RecordingDb::new(self.base_db, self.universe, &o);
        let result = match &self.shared.compact {
            Some(space) => {
                let configs =
                    space
                        .pool
                        .initial_configs(self.comp, &db, self.domain, self.shared.eval_ctx());
                match db.undecided_hit() {
                    Some(fact) => Err(fact),
                    None => Ok(configs
                        .into_iter()
                        .map(|c| space.configs.intern(c))
                        .collect()),
                }
            }
            None => {
                let configs =
                    self.comp
                        .initial_configs_with(&db, self.domain, self.shared.eval_ctx());
                match db.undecided_hit() {
                    Some(fact) => Err(fact),
                    None => Ok(configs.into_iter().map(|c| self.intern_config(c)).collect()),
                }
            }
        };
        self.shared.boots.insert(oracle, result.clone());
        self.shared
            .boot_ns
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        result
    }

    /// One composition step, cached across valuations.
    fn step_configs(&self, config: u32, mover: Mover, oracle: u32) -> StepResult {
        let key = (config, mover, oracle);
        if let Some(cached) = self.shared.steps.get(&key) {
            return cached;
        }
        let start = Instant::now();
        let o = self.oracle(oracle);
        let db = RecordingDb::new(self.base_db, self.universe, &o);
        let result = match &self.shared.compact {
            Some(space) => {
                let cc = space.configs.resolve(config);
                let next = space.pool.successors(
                    self.comp,
                    &db,
                    self.domain,
                    &cc,
                    mover,
                    self.shared.eval_ctx(),
                );
                match db.undecided_hit() {
                    Some(fact) => Err(fact),
                    None => Ok(next.into_iter().map(|c| space.configs.intern(c)).collect()),
                }
            }
            None => {
                let cfg = self.config(config);
                let next = self.comp.successors_with(
                    &db,
                    self.domain,
                    &cfg,
                    mover,
                    self.shared.eval_ctx(),
                );
                match db.undecided_hit() {
                    Some(fact) => Err(fact),
                    None => Ok(next.into_iter().map(|c| self.intern_config(c)).collect()),
                }
            }
        };
        self.shared.steps.insert(key, result.clone());
        self.shared
            .step_ns
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        result
    }

    /// Forks a state on an undecided fact.
    fn fork(&self, state: PState, oracle_id: u32, fact: usize) -> Vec<PState> {
        let oracle = self.oracle(oracle_id);
        [true, false]
            .into_iter()
            .map(|v| {
                let o2 = self.intern_oracle(oracle.with_decided(fact, v));
                match state {
                    PState::Boot { .. } => PState::Boot { oracle: o2 },
                    PState::Run {
                        config, mover, q, ..
                    } => PState::Run {
                        config,
                        mover,
                        q,
                        oracle: o2,
                    },
                }
            })
            .collect()
    }
}

impl TransitionSystem for ProductSystem<'_> {
    type State = PState;

    fn initial_states(&self) -> Vec<PState> {
        let empty = self.intern_oracle(Oracle::undecided(self.universe.len()));
        vec![PState::Boot { oracle: empty }]
    }

    fn successors(&self, s: &PState) -> Arc<[PState]> {
        self.expand(s, None).0.into()
    }

    fn is_accepting(&self, s: &PState) -> bool {
        match *s {
            PState::Boot { .. } => false,
            PState::Run { q, .. } => self.nba.accepting[q],
        }
    }

    fn successors_reduced(&self, s: &PState) -> Expansion<PState> {
        let Some(ind) = self.reduction else {
            return Expansion {
                states: self.successors(s),
                ample: false,
            };
        };
        let (states, ample) = self.expand(s, Some(ind));
        Expansion {
            states: states.into(),
            ample,
        }
    }

    fn reduction_active(&self) -> bool {
        self.reduction.is_some()
    }
}

impl ProductSystem<'_> {
    /// Expands a product state; with `reduce` set, the scheduled movers at
    /// each successor configuration are restricted to its ample mover (the
    /// returned flag reports whether any restriction actually happened).
    ///
    /// Boot and fork edges are never reduced: they resolve initial
    /// configurations and grow the database oracle rather than choose an
    /// interleaving.
    fn expand(&self, s: &PState, reduce: Option<&IndependenceOracle>) -> (Vec<PState>, bool) {
        match *s {
            PState::Boot { oracle } => match self.boot_configs(oracle) {
                Err(fact) => (self.fork(*s, oracle, fact), false),
                Ok(configs) => {
                    let mut out = Vec::new();
                    for &cid in self.representatives(configs).iter() {
                        for mover in self.comp.movers() {
                            for &q in &self.nba.initial {
                                out.push(PState::Run {
                                    config: cid,
                                    mover,
                                    q,
                                    oracle,
                                });
                            }
                        }
                    }
                    (out, false)
                }
            },
            PState::Run {
                config,
                mover,
                q,
                oracle,
            } => {
                // 1. The letter of this snapshot (read off the compact
                //    handles directly when that representation is active —
                //    the per-(config, mover) hot path must not expand).
                let letter = {
                    let o = self.oracle(oracle);
                    let db = RecordingDb::new(self.base_db, self.universe, &o);
                    let letter = match &self.shared.compact {
                        Some(space) => {
                            let cc = space.configs.resolve(config);
                            let view = CompactView::new(
                                &space.pool,
                                self.comp,
                                &db,
                                &cc,
                                Some(mover),
                                self.domain,
                            );
                            self.atoms.letter_view(&view)
                        }
                        None => {
                            let cfg = self.config(config);
                            self.atoms
                                .letter(self.comp, &db, &cfg, Some(mover), self.domain)
                        }
                    };
                    if let Some(fact) = db.undecided_hit() {
                        return (self.fork(*s, oracle, fact), false);
                    }
                    letter
                };

                // 2. Automaton edges admitted by the letter.
                let q_targets: Vec<usize> = self.nba.successors(q, letter).collect();
                if q_targets.is_empty() {
                    return (Vec::new(), false);
                }

                // 3. Composition step (cached across valuations).
                let next_configs = match self.step_configs(config, mover, oracle) {
                    Err(fact) => return (self.fork(*s, oracle, fact), false),
                    Ok(c) => self.representatives(c),
                };

                let movers = self.comp.movers();
                let mut ample = false;
                let mut out =
                    Vec::with_capacity(next_configs.len() * movers.len() * q_targets.len());
                for &cid in next_configs.iter() {
                    // Ample eligibility is configuration-independent
                    // (static footprints), so neither representation
                    // materializes the successor here.
                    let ample_mover = reduce
                        .filter(|_| movers.len() > 1)
                        .and_then(IndependenceOracle::ample_mover_static);
                    let sched: &[Mover] = match &ample_mover {
                        Some(m) => {
                            ample = true;
                            std::slice::from_ref(m)
                        }
                        None => &movers,
                    };
                    for &m in sched {
                        for &q2 in &q_targets {
                            out.push(PState::Run {
                                config: cid,
                                mover: m,
                                q: q2,
                                oracle,
                            });
                        }
                    }
                }
                (out, ample)
            }
        }
    }
}
