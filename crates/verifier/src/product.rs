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
//! Those memos sit on the search's one [`ShardedTable`] so one
//! `ProductSystem` can be expanded from many worker threads at once (see
//! [`parallel`](crate::parallel)). Memoized values are pure functions of
//! their keys, so the benign race — two threads computing the same entry
//! before either publishes it — wastes a little work but never changes a
//! result.

use crate::domain::packing_capacity;
use crate::ground::AtomRegistry;
use crate::oracle::{FactUniverse, Oracle, RecordingDb};
use crate::verify::{RuleEval, StateRepr};
use ddws_automata::{Expansion, Letter, Nba, TransitionSystem};
use ddws_model::{
    CompactConfig, CompactView, CompiledRules, Composition, Config, EvalCtx, IndependenceOracle,
    Mover, RuleCache, StatePool, ValueClasses, ValuePerm,
};
use ddws_relational::hash::{FxHashMap, ShardedTable};
use ddws_relational::{Instance, Interner, Value};
use ddws_telemetry::{RuleMeterSource, SearchStats};
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
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

/// Successor configs of one cached expansion, or `Err(fact)` when the
/// expansion forks on an undecided database fact.
type StepResult = Result<Arc<[u32]>, usize>;

/// A memo of expansions, keyed by what determines them.
type Memo<K> = ShardedTable<FxHashMap<K, StepResult>>;

/// Where configurations live: the one switch on [`StateRepr`]. Both arms
/// intern to the ids [`PState`] carries, meaningful only to their store.
enum ConfigStore {
    /// Owned [`Config`]s, interned whole: the oracle of record.
    Legacy(Interner<Config>),
    /// The hash-consed, bit-packed extension pool plus the interner of
    /// [`CompactConfig`]s; both meter hits and misses exactly.
    Compact {
        pool: StatePool,
        configs: Interner<CompactConfig>,
    },
}

/// Interns `next` unless computing it read an undecided database fact, on
/// which the caller forks instead (interning nothing).
fn intern_decided<C: Hash + Eq>(
    db: &RecordingDb,
    next: Vec<C>,
    configs: &Interner<C>,
) -> StepResult {
    match db.undecided_hit() {
        Some(fact) => Err(fact),
        None => Ok(next.into_iter().map(|c| configs.intern(c)).collect()),
    }
}

impl ConfigStore {
    /// The interned successors of configuration `config` when `mover`
    /// steps (`from = Some((config, mover))`), or the interned initial
    /// configurations (`from = None`).
    fn expand(
        &self,
        sys: &ProductSystem,
        db: &RecordingDb,
        from: Option<(u32, Mover)>,
    ) -> StepResult {
        let (comp, domain, ctx) = (sys.comp, sys.domain, sys.shared.eval_ctx());
        match self {
            ConfigStore::Legacy(configs) => {
                let next = match from {
                    None => comp.initial_configs_with(db, domain, ctx),
                    Some((config, mover)) => {
                        comp.successors_with(db, domain, &configs.resolve(config), mover, ctx)
                    }
                };
                intern_decided(db, next, configs)
            }
            ConfigStore::Compact { pool, configs } => {
                let next = match from {
                    None => pool.initial_configs(comp, db, domain, ctx),
                    Some((config, mover)) => {
                        pool.successors(comp, db, domain, &configs.resolve(config), mover, ctx)
                    }
                };
                intern_decided(db, next, configs)
            }
        }
    }

    /// The letter of snapshot `(config, mover)`. The compact arm reads it
    /// off the handles: the per-(config, mover) hot path must not expand.
    fn letter(&self, sys: &ProductSystem, db: &RecordingDb, config: u32, mover: Mover) -> Letter {
        let (atoms, comp, domain) = (sys.atoms, sys.comp, sys.domain);
        match self {
            ConfigStore::Legacy(configs) => {
                atoms.letter(comp, db, &configs.resolve(config), Some(mover), domain)
            }
            ConfigStore::Compact { pool, configs } => {
                let cc = configs.resolve(config);
                atoms.letter_view(&CompactView::new(pool, comp, db, &cc, Some(mover), domain))
            }
        }
    }

    /// The representative of configuration `raw` under `classes`, interned,
    /// with the permutation mapping `raw` onto it.
    fn canonical(&self, raw: u32, classes: &ValueClasses) -> (u32, ValuePerm) {
        let (moved, perm) = match self {
            ConfigStore::Legacy(configs) => {
                let (rep, perm) = configs.resolve(raw).canonical(classes);
                ((!perm.is_identity()).then(|| configs.intern(rep)), perm)
            }
            ConfigStore::Compact { pool, configs } => {
                let (rep, perm) = pool.canonical(&configs.resolve(raw), classes);
                ((!perm.is_identity()).then(|| configs.intern(rep)), perm)
            }
        };
        (moved.unwrap_or(raw), perm)
    }

    /// Configuration `id` as an owned [`Config`], materialized from the
    /// pool under the compact representation.
    fn config(&self, comp: &Composition, id: u32) -> Arc<Config> {
        match self {
            ConfigStore::Legacy(configs) => configs.resolve(id),
            ConfigStore::Compact { pool, configs } => {
                Arc::new(pool.expand(comp, &configs.resolve(id)))
            }
        }
    }

    /// (calls, hits, misses) of the pool and the compact configuration
    /// interner; all zero under the legacy representation.
    fn intern_stats(&self) -> (u64, u64, u64) {
        match self {
            ConfigStore::Legacy(_) => (0, 0, 0),
            ConfigStore::Compact { pool, configs } => {
                let hits = pool.intern_hits() + configs.hits();
                let misses = pool.intern_misses() + configs.misses();
                (hits + misses, hits, misses)
            }
        }
    }

    /// Approximate heap bytes of the interned configurations plus (in
    /// compact mode) the extension pool.
    fn approx_bytes(&self) -> usize {
        match self {
            ConfigStore::Legacy(configs) => configs.approx_bytes(Config::approx_bytes),
            ConfigStore::Compact { pool, configs } => {
                pool.approx_bytes() + configs.approx_bytes(CompactConfig::approx_bytes)
            }
        }
    }
}

/// Search state shared across the valuations of one `check` call: the
/// configuration store, the oracle interner and the composition-step
/// memos. Steps depend only on (config, mover, oracle) — not on the
/// property valuation — so sharing them makes every valuation after the
/// first traverse the already-expanded graph instead of re-evaluating
/// every rule.
pub struct SharedSearch {
    store: ConfigStore,
    oracles: Interner<Oracle>,
    /// (config, mover, oracle) → successor configs (or fork fact).
    steps: Memo<(u32, Mover, u32)>,
    /// oracle → initial configs (or fork fact).
    boots: Memo<u32>,
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
    /// Shared state for one verification run of `comp`, with rules
    /// evaluated per `rule_eval` and configurations stored per
    /// `state_repr`; the compact pool's packing widths come from the fully
    /// interned `domain` ([`packing_capacity`]). The domain, the fixed
    /// database (whose footprint the pool caches) and both choices stay
    /// fixed for the state's lifetime: the memos and ids depend on them.
    pub fn new(
        comp: &Composition,
        rule_eval: RuleEval,
        state_repr: StateRepr,
        domain: &[Value],
    ) -> Self {
        let (compiled, rule_cache) = match rule_eval {
            RuleEval::Compiled => {
                let compiled = CompiledRules::new(comp);
                let rule_cache = RuleCache::new(&compiled);
                (Some(compiled), rule_cache)
            }
            RuleEval::Interpreted => (None, RuleCache::timing_only()),
        };
        let store = match state_repr {
            StateRepr::Compact => ConfigStore::Compact {
                pool: StatePool::new(comp, packing_capacity(comp, domain)),
                configs: Interner::new(),
            },
            StateRepr::Legacy => ConfigStore::Legacy(Interner::new()),
        };
        SharedSearch {
            store,
            oracles: Interner::new(),
            steps: Memo::default(),
            boots: Memo::default(),
            compiled,
            rule_cache,
            boot_ns: AtomicU64::new(0),
            step_ns: AtomicU64::new(0),
        }
    }

    /// The rule-evaluation engine this state was built with.
    pub fn rule_eval(&self) -> RuleEval {
        match self.compiled {
            Some(_) => RuleEval::Compiled,
            None => RuleEval::Interpreted,
        }
    }

    /// The configuration representation this state was built with.
    pub fn state_repr(&self) -> StateRepr {
        match self.store {
            ConfigStore::Legacy(_) => StateRepr::Legacy,
            ConfigStore::Compact { .. } => StateRepr::Compact,
        }
    }

    /// Approximate heap bytes held by the state store — interned
    /// configurations plus (in compact mode) the extension pool. This is
    /// the dominant term of a checkpoint's retained memory, since
    /// [`EngineCheckpoint`](ddws_automata::EngineCheckpoint) frontiers and
    /// visited sets store dense ids.
    pub fn approx_state_bytes(&self) -> usize {
        self.store.approx_bytes()
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
        let (calls, hits, misses) = self.store.intern_stats();
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
    reps: ShardedTable<FxHashMap<u32, u32>>,
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
                    reps: ShardedTable::default(),
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

    /// The orbit representative of a raw successor configuration
    /// (memoized).
    fn representative(&self, sym: &Symmetry, raw: u32) -> u32 {
        if let Some(rep) = sym.reps.get(&raw) {
            return rep;
        }
        let (rep, _) = self.shared.store.canonical(raw, &sym.classes);
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
        Some(self.shared.store.canonical(c, &sym.classes).1)
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
        self.shared.store.config(self.comp, id)
    }

    /// Resolves an interned oracle.
    pub fn oracle(&self, id: u32) -> Arc<Oracle> {
        self.shared.oracles.resolve(id)
    }

    /// Initial configurations for an oracle, cached across valuations.
    fn boot_configs(&self, oracle: u32) -> StepResult {
        let sh = self.shared;
        self.memo_expand(&sh.boots, oracle, &sh.boot_ns, oracle, None)
    }

    /// One composition step, cached across valuations.
    fn step_configs(&self, config: u32, mover: Mover, oracle: u32) -> StepResult {
        let (sh, from) = (self.shared, Some((config, mover)));
        self.memo_expand(
            &sh.steps,
            (config, mover, oracle),
            &sh.step_ns,
            oracle,
            from,
        )
    }

    /// [`ConfigStore::expand`] under `oracle`, answered from `memo` when
    /// cached; a fresh expansion is memoized under `key` and timed in `ns`.
    fn memo_expand<K: Hash + Eq>(
        &self,
        memo: &Memo<K>,
        key: K,
        ns: &AtomicU64,
        oracle: u32,
        from: Option<(u32, Mover)>,
    ) -> StepResult {
        if let Some(cached) = memo.get(&key) {
            return cached;
        }
        let start = Instant::now();
        let o = self.oracle(oracle);
        let db = RecordingDb::new(self.base_db, self.universe, &o);
        let result = self.shared.store.expand(self, &db, from);
        memo.insert_new(key, result.clone());
        ns.fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        result
    }

    /// Forks a state on an undecided fact.
    fn fork(&self, state: PState, oracle_id: u32, fact: usize) -> Vec<PState> {
        let oracle = self.oracle(oracle_id);
        [true, false]
            .into_iter()
            .map(|v| {
                let o2 = self.shared.oracles.intern(oracle.with_decided(fact, v));
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
        let empty = self
            .shared
            .oracles
            .intern(Oracle::undecided(self.universe.len()));
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
                // 1. The letter of this snapshot.
                let letter = {
                    let o = self.oracle(oracle);
                    let db = RecordingDb::new(self.base_db, self.universe, &o);
                    let letter = self.shared.store.letter(self, &db, config, mover);
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
