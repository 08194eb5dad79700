//! The top-level verification API.

use crate::counterexample::{Counterexample, RunStep};
use crate::domain::suggested_fresh_values;
use crate::ground::{canonical_valuations, ground_ltlfo, AtomRegistry};
use crate::oracle::{FactUniverse, Oracle};
use crate::product::{PState, ProductSystem, SharedSearch};
use crate::relevance::ColumnDomains;
use ddws_automata::emptiness::SearchStats;
use ddws_automata::{resume_accepting_lasso_with, ClockHandle, EngineCheckpoint, Ltl};
use ddws_logic::input_bounded::{check_input_bounded_sentence, IbOptions, IbViolation};
use ddws_logic::parser::{parse_sentence, ParseError, Resolver};
use ddws_logic::{LtlFo, LtlFoSentence, VarId};
use ddws_model::builder::collect_constants;
use ddws_model::{Composition, IndependenceOracle};
use ddws_relational::{Instance, RelId, Value};
use ddws_telemetry::{AbortReason, CancelToken, FaultHook, ReporterHandle, RunReport};
use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How the ∃-quantification over databases is handled.
#[derive(Clone, Debug, Default)]
pub enum DatabaseMode {
    /// Verify runs over one concrete database (useful for testing a
    /// deployment; not a proof over all databases).
    Fixed(Instance),
    /// Sound-and-complete verification over **all** databases with active
    /// domain inside the verification domain, via the lazy oracle.
    #[default]
    AllDatabases,
}

/// Partial-order reduction of peer interleavings.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Reduction {
    /// Explore every serialized interleaving (Definition 2.6 verbatim);
    /// bit-identical to the verifier before the reduction existed.
    #[default]
    Full,
    /// Ample-set partial-order reduction: per configuration, schedule only
    /// a mover that is statically independent of all others and invisible
    /// to the property's atoms (see `ddws_model::independence`). Verdicts
    /// are identical to [`Reduction::Full`]; counterexamples and search
    /// statistics may differ. Automatically degrades to `Full` when the
    /// property contains `X` (the reduction is sound only for
    /// stutter-invariant properties), observes a move proposition, or no
    /// mover qualifies.
    Ample,
}

/// Which engine evaluates reaction-rule bodies during successor
/// generation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum RuleEval {
    /// Compile each rule body once into a flat join/filter/project plan and
    /// memoize step results keyed on the *footprint* — the exact contents
    /// of the relations and queue heads the plan reads (DESIGN.md §3.8).
    /// Verdicts, successor sets and counterexamples are identical to
    /// [`RuleEval::Interpreted`]; only speed differs.
    #[default]
    Compiled,
    /// Re-interpret the FO body on every step — the oracle of record the
    /// differential harness compares the compiled engine against.
    /// Evaluation time is still metered so timings stay comparable.
    Interpreted,
}

/// Which representation the search stores configurations in.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum StateRepr {
    /// Hash-consed, bit-packed configurations ([`ddws_model::compact`]):
    /// relation instances and queue contents intern to dense handles over
    /// the closed input-bounded domain, successor generation works
    /// handle-to-handle without materializing [`Config`]s, and footprint
    /// keys shrink to per-relation handles. Verdicts, successor sequences
    /// and expansion counts are identical to [`StateRepr::Legacy`]; the
    /// representation-equivalence swarm pins this tuple for tuple.
    ///
    /// [`Config`]: ddws_model::Config
    #[default]
    Compact,
    /// The original owned-`Config` representation — the oracle of record
    /// the differential harness compares the compact path against.
    Legacy,
}

/// Verification options.
#[derive(Clone)]
pub struct VerifyOptions {
    /// Database handling.
    pub database: DatabaseMode,
    /// Number of fresh ("arbitrary distinct") domain values; `None` applies
    /// the heuristic of [`suggested_fresh_values`].
    pub fresh_values: Option<usize>,
    /// State budget for the product search.
    pub max_states: u64,
    /// Wall-clock budget for the whole entry-point call. Armed once when
    /// the run starts, so every valuation shares the same deadline
    /// instant; checked on the engines' ~1024-state progress stride.
    /// Exhaustion yields [`Outcome::Inconclusive`] with a resumable
    /// checkpoint (for [`Verifier::check`]) — never a panic or a hang.
    pub deadline: Option<Duration>,
    /// The clock the deadline is measured on. `None` uses the process
    /// wall clock; the deterministic simulator injects a virtual
    /// [`ManualClock`](ddws_automata::ManualClock) it advances from the
    /// fault hook, making deadline expiry a pure function of the
    /// schedule. Only deadline arithmetic reads this clock — phase
    /// timers in reports stay on real time (and are zeroed by
    /// `RunReport::redacted` for comparisons).
    pub clock: Option<ClockHandle>,
    /// Cooperative cancellation: cancel the token from any thread and
    /// every engine worker stops at its next loop iteration, yielding
    /// [`Outcome::Inconclusive`] with the recorded reason.
    pub cancel_token: Option<CancelToken>,
    /// Deterministic fault-injection hook, called once per state
    /// expansion with a 1-based global ordinal. Test-only: the fault
    /// swarm uses it to inject panics and cancellations at exact points;
    /// leave `None` in production.
    pub fault_hook: Option<FaultHook>,
    /// Product-search engine: `None` runs the sequential nested DFS
    /// (CVWY); `Some(n)` runs the parallel engine with `n` worker threads
    /// (`Some(0)` = all available cores). Verdicts are identical across
    /// engines; counterexamples may differ (see `crate::parallel`).
    pub threads: Option<usize>,
    /// Outer valuation shards: `None` walks the universal closure
    /// sequentially (the classic loop); `Some(n)` dispatches canonical
    /// valuations to `n` outer workers (`Some(0)` = all available cores),
    /// splitting the `threads` budget between outer shards and each inner
    /// product search. The first-violation cancel uses a deterministic
    /// winner rule — the lowest valuation index that does not hold — so
    /// verdict, counterexample, and redacted run report are identical
    /// across shard counts and schedules (see `DESIGN.md` §3.13). Under a
    /// fault hook or virtual clock the scheduler degrades to a
    /// deterministic cooperative round-robin on the calling thread.
    pub valuation_threads: Option<usize>,
    /// Enforce input-boundedness of the composition and property before
    /// checking (the hypothesis of Theorem 3.4). Disable only for
    /// experiments outside the decidable regime.
    pub require_input_bounded: bool,
    /// Input-boundedness checker options.
    pub ib_options: IbOptions,
    /// Partial-order reduction of peer interleavings (default
    /// [`Reduction::Full`]).
    pub reduction: Reduction,
    /// Rule-evaluation engine (default [`RuleEval::Compiled`]).
    pub rule_eval: RuleEval,
    /// Configuration representation (default [`StateRepr::Compact`]).
    pub state_repr: StateRepr,
    /// Where telemetry goes: progress snapshots while the search runs and
    /// one [`RunReport`] when it finishes. Defaults to the silent reporter,
    /// which costs one branch per ~1024 expanded states on the hot path.
    pub reporter: ReporterHandle,
    /// Minimum wall-clock spacing between progress snapshots; `None`
    /// disables progress emission entirely (the final report still goes
    /// out). Default: one second.
    pub progress_interval: Option<Duration>,
}

impl Default for VerifyOptions {
    fn default() -> Self {
        VerifyOptions {
            database: DatabaseMode::AllDatabases,
            fresh_values: None,
            max_states: 5_000_000,
            deadline: None,
            clock: None,
            cancel_token: None,
            fault_hook: None,
            threads: None,
            valuation_threads: None,
            require_input_bounded: true,
            ib_options: IbOptions::default(),
            reduction: Reduction::default(),
            rule_eval: RuleEval::default(),
            state_repr: StateRepr::default(),
            reporter: ReporterHandle::default(),
            progress_interval: Some(Duration::from_secs(1)),
        }
    }
}

// Manual: the fault hook is an opaque closure.
impl fmt::Debug for VerifyOptions {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("VerifyOptions")
            .field("database", &self.database)
            .field("fresh_values", &self.fresh_values)
            .field("max_states", &self.max_states)
            .field("deadline", &self.deadline)
            .field("clock", &self.clock.is_some())
            .field("cancel_token", &self.cancel_token.is_some())
            .field("fault_hook", &self.fault_hook.is_some())
            .field("threads", &self.threads)
            .field("valuation_threads", &self.valuation_threads)
            .field("require_input_bounded", &self.require_input_bounded)
            .field("reduction", &self.reduction)
            .field("rule_eval", &self.rule_eval)
            .field("state_repr", &self.state_repr)
            .field("progress_interval", &self.progress_interval)
            .finish_non_exhaustive()
    }
}

/// Builds the shared search state for one run: rule engine per
/// `rule_eval`, configuration representation per `state_repr` (the compact
/// pool's packing widths are sized from the closed verification domain,
/// which must be fully interned before this is called).
pub(crate) fn build_shared(
    comp: &Composition,
    rule_eval: RuleEval,
    state_repr: StateRepr,
    domain: &[Value],
) -> SharedSearch {
    let shared = match rule_eval {
        RuleEval::Compiled => SharedSearch::compiled(comp),
        RuleEval::Interpreted => SharedSearch::interpreted_metered(),
    };
    match state_repr {
        StateRepr::Compact => {
            shared.with_compact(comp, crate::domain::packing_capacity(comp, domain))
        }
        StateRepr::Legacy => shared,
    }
}

/// Whether an LTL-FO formula contains the `X` operator anywhere —
/// properties with `X` are not stutter-invariant, so the ample-set
/// reduction must stay off for them.
pub(crate) fn contains_next(f: &LtlFo) -> bool {
    match f {
        LtlFo::Fo(_) => false,
        LtlFo::X(_) => true,
        LtlFo::Not(g) => contains_next(g),
        LtlFo::And(gs) | LtlFo::Or(gs) => gs.iter().any(contains_next),
        LtlFo::Implies(a, b) | LtlFo::U(a, b) => contains_next(a) || contains_next(b),
    }
}

/// Builds the independence oracle for a check, or `None` when the
/// reduction must stay off: not requested, property not stutter-invariant
/// (contains `X`), or no mover qualifies under the observed atoms.
pub(crate) fn reduction_oracle(
    comp: &Composition,
    body: &LtlFo,
    observed: &BTreeSet<RelId>,
    opts: &VerifyOptions,
) -> Option<IndependenceOracle> {
    if opts.reduction != Reduction::Ample || contains_next(body) {
        return None;
    }
    Some(IndependenceOracle::new(comp, observed))
}

/// Verification failure (as opposed to a property verdict).
///
/// Budget, deadline and cancellation stops are *not* errors — they return
/// `Ok` with [`Outcome::Inconclusive`] so the caller still gets partial
/// statistics, the emitted run report, and (when available) a resumable
/// checkpoint.
#[derive(Debug)]
pub enum VerifyError {
    /// The property failed to parse.
    Parse(ParseError),
    /// The composition or property is outside the input-bounded fragment.
    NotInputBounded(Vec<IbViolation>),
    /// A search worker panicked while expanding the product. The panic
    /// was caught and isolated: surviving workers drained, their partial
    /// statistics were merged, and exactly one abort report (attached
    /// here) was emitted. There is no checkpoint — a panicking expansion
    /// may have lost arbitrary in-flight work, so the run refuses to
    /// pretend the frontier is coherent.
    WorkerPanicked {
        /// Index of the panicking worker (0 for the sequential engine).
        worker: usize,
        /// The stringified panic payload.
        payload: String,
        /// The `worker_panicked` run report, with partial counters.
        report: Box<RunReport>,
    },
    /// Unsupported configuration.
    Unsupported(String),
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::Parse(e) => write!(f, "{e}"),
            VerifyError::NotInputBounded(vs) => {
                writeln!(f, "specification is not input-bounded (§3.1):")?;
                for v in vs {
                    writeln!(f, "  - {v}")?;
                }
                Ok(())
            }
            VerifyError::WorkerPanicked {
                worker, payload, ..
            } => {
                write!(f, "search worker {worker} panicked: {payload}")
            }
            VerifyError::Unsupported(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for VerifyError {}

impl From<ParseError> for VerifyError {
    fn from(e: ParseError) -> Self {
        VerifyError::Parse(e)
    }
}

/// The verdict.
#[derive(Debug)]
pub enum Outcome {
    /// Every run over every database (within the domain bound) satisfies
    /// the property.
    Holds,
    /// A violating run exists.
    Violated(Box<Counterexample>),
    /// The search stopped before reaching a verdict: the state budget,
    /// the deadline, or the cancel token was exhausted. The report still
    /// carries the partial statistics, and [`Inconclusive::checkpoint`]
    /// (when present) resumes the search from where it stopped.
    Inconclusive(Box<Inconclusive>),
}

impl Outcome {
    /// Whether the property holds. `false` for both `Violated` and
    /// `Inconclusive` — check [`Outcome::is_inconclusive`] before reading
    /// `!holds()` as a violation.
    pub fn holds(&self) -> bool {
        matches!(self, Outcome::Holds)
    }

    /// Whether the search stopped without a verdict.
    pub fn is_inconclusive(&self) -> bool {
        matches!(self, Outcome::Inconclusive(_))
    }
}

/// Why and where a search stopped without a verdict.
#[derive(Debug)]
pub struct Inconclusive {
    /// The structured stop reason (budget, deadline, cancellation).
    pub reason: AbortReason,
    /// A resumable checkpoint. `Some` for [`Verifier::check`] and
    /// [`Verifier::resume`] runs; `None` for the modular and protocol
    /// entry points, whose per-run setup is cheap enough that a fresh
    /// call with laxer limits is the resume path.
    pub checkpoint: Option<Checkpoint>,
}

/// A frozen `check` run: everything needed to continue the truncated
/// product search(es) and the untouched tail of the valuation loop.
/// [`Verifier::resume`] with laxer limits reaches the same verdict a
/// fresh, unlimited [`Verifier::check`] would.
///
/// The checkpoint pins the original run's search shape — engine
/// (`threads`), outer shards (`valuation_threads`), reduction and
/// rule-evaluation mode — because the frozen frontiers' interned state
/// ids are only meaningful to the [`SharedSearch`] captured alongside
/// them. Budgets, deadline, cancellation and reporting come from the
/// options passed to `resume`.
///
/// Under valuation sharding a graceful stop can leave *several* shards
/// mid-search; each one is preserved as a leg in [`Checkpoint::shard_legs`]
/// and `resume` drains all of them plus the untouched tail.
///
/// Checkpoints are `Clone` so a supervisor can keep a pre-slice copy and
/// re-dispatch the job after a crashed quantum: the legs and valuation
/// tail are deep-copied, while the interned state space
/// (`SharedSearch`) is shared behind its `Arc` — interning is
/// append-only and idempotent, so states interned by the crashed
/// partial slice are at worst dead entries the re-run never reaches.
#[derive(Clone)]
pub struct Checkpoint {
    property: LtlFoSentence,
    observed: BTreeSet<RelId>,
    domain: Vec<Value>,
    base_db: Instance,
    universe: FactUniverse,
    /// Remaining universal-closure valuations, ascending original order,
    /// the winning (stop-deciding) one first.
    valuations: Vec<HashMap<VarId, Value>>,
    valuations_total: usize,
    /// Keeps the interned configuration/oracle ids in the legs valid.
    shared: Arc<SharedSearch>,
    /// In-flight per-shard engine frontiers, as (position within
    /// `valuations`, frozen frontier) pairs; the winner's leg first.
    legs: Vec<(usize, EngineCheckpoint<PState>)>,
    /// Aggregate statistics of the valuations *fully completed* by the
    /// interrupted run (below and above the winner; each leg carries its
    /// own counters and re-reports them cumulatively on resume).
    stats_prior: SearchStats,
    reduction: Reduction,
    rule_eval: RuleEval,
    state_repr: StateRepr,
    threads: Option<usize>,
    valuation_threads: Option<usize>,
}

impl Checkpoint {
    /// States the truncated search had visited when it stopped: fully
    /// completed valuations plus every in-flight leg.
    pub fn states_visited(&self) -> u64 {
        self.stats_prior.states_visited
            + self
                .legs
                .iter()
                .map(|(_, e)| e.states_visited())
                .sum::<u64>()
    }

    /// Universal-closure valuations not yet fully checked.
    pub fn valuations_remaining(&self) -> usize {
        self.valuations.len()
    }

    /// States visited by the deepest in-flight leg alone — the count the
    /// engine's `max_states` cap is measured against on resume. The cap
    /// is **per universal-closure valuation** (a fresh valuation starts
    /// from zero; fully completed valuations consume none of the next
    /// one's budget), so schedulers sizing the next slice's cap must add
    /// their quantum to this, not to the run-wide
    /// [`Checkpoint::states_visited`] sum — see
    /// [`Verifier::resume_slice`].
    pub fn frontier_states(&self) -> u64 {
        self.legs
            .iter()
            .map(|(_, e)| e.states_visited())
            .max()
            .unwrap_or(0)
    }

    /// In-flight per-shard engine frontiers preserved by the stop. `1`
    /// for unsharded runs; up to `valuation_threads` after a global stop
    /// (deadline, cancellation) caught several shards mid-search.
    pub fn shard_legs(&self) -> usize {
        self.legs.len()
    }

    /// The engine the checkpointed search ran (and will resume) with.
    pub fn threads(&self) -> Option<usize> {
        self.threads
    }

    /// The outer shard count the run was (and will be) dispatched with.
    pub fn valuation_threads(&self) -> Option<usize> {
        self.valuation_threads
    }

    /// Approximate heap bytes the checkpoint retains for the frozen state
    /// store — interned configurations plus, under the compact
    /// representation, the extension pool. This is the dominant term of a
    /// checkpoint's memory and the payload a scale-out frontier
    /// serializer would ship, so it is what the E13 bench tracks when it
    /// asserts compact checkpoints shrink.
    pub fn approx_state_bytes(&self) -> usize {
        self.shared.approx_state_bytes()
    }
}

impl fmt::Debug for Checkpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Checkpoint")
            .field("states_visited", &self.states_visited())
            .field("valuations_remaining", &self.valuations.len())
            .field("shard_legs", &self.legs.len())
            .field("threads", &self.threads)
            .field("valuation_threads", &self.valuation_threads)
            .field("reduction", &self.reduction)
            .field("rule_eval", &self.rule_eval)
            .field("state_repr", &self.state_repr)
            .finish_non_exhaustive()
    }
}

/// Verification report.
#[derive(Debug)]
pub struct Report {
    /// The verdict.
    pub outcome: Outcome,
    /// Aggregate search statistics across all valuations checked.
    pub stats: SearchStats,
    /// The verification domain used.
    pub domain: Vec<Value>,
    /// Number of universal-closure valuations examined.
    pub valuations_checked: usize,
    /// Valuations started per outer shard slot (one entry per shard;
    /// `[valuations_checked]` for unsharded runs). Counts are
    /// schedule-dependent under `valuation_threads > 1` with real
    /// threads, deterministic under the cooperative scheduler.
    pub shard_valuations: Vec<u64>,
    /// The run report also emitted through [`VerifyOptions::reporter`]
    /// (same counters as `stats`, plus phase timers and run labels).
    pub telemetry: RunReport,
}

/// The verifier: owns the composition (its symbol/variable tables grow as
/// properties are parsed) and a pool of fresh domain values reused across
/// checks.
pub struct Verifier {
    comp: Composition,
    fresh_pool: Vec<Value>,
}

impl Verifier {
    /// Wraps a composition for verification.
    pub fn new(comp: Composition) -> Self {
        Verifier {
            comp,
            fresh_pool: Vec::new(),
        }
    }

    /// The composition under verification.
    pub fn composition(&self) -> &Composition {
        &self.comp
    }

    /// Mutable access (e.g. to tweak [`Semantics`](ddws_model::Semantics)
    /// between checks).
    pub fn composition_mut(&mut self) -> &mut Composition {
        &mut self.comp
    }

    /// Parses an LTL-FO sentence over the composition schema (qualified
    /// names: `O.customer`, `O.?apply`, `CR.!rating`, `move_O`, …).
    pub fn parse_property(&mut self, src: &str) -> Result<LtlFoSentence, VerifyError> {
        let comp = &mut self.comp;
        let mut resolver = Resolver {
            voc: &comp.voc,
            vars: &mut comp.vars,
            symbols: &mut comp.symbols,
        };
        Ok(parse_sentence(src, &mut resolver)?)
    }

    /// Ensures the fresh pool holds at least `n` values and returns them.
    fn fresh(&mut self, n: usize) -> &[Value] {
        while self.fresh_pool.len() < n {
            self.fresh_pool.push(self.comp.symbols.fresh("_d"));
        }
        &self.fresh_pool[..n]
    }

    /// The verification domain for a property under the given options.
    pub fn domain_for(&mut self, property: &LtlFoSentence, opts: &VerifyOptions) -> Vec<Value> {
        let fresh_n = opts
            .fresh_values
            .unwrap_or_else(|| suggested_fresh_values(&self.comp, property));
        let mut dom: BTreeSet<Value> = self.comp.rule_constants.iter().copied().collect();
        property.body.visit_fo(&mut |fo| {
            let mut cs = BTreeSet::new();
            collect_constants(fo, &mut cs);
            dom.extend(cs);
        });
        if let DatabaseMode::Fixed(db) = &opts.database {
            dom.extend(db.active_domain());
        }
        dom.extend(self.fresh(fresh_n).iter().copied());
        dom.into_iter().collect()
    }

    /// Saves the composition's observation masks (restored after a check so
    /// verification tuning never leaks into direct uses of the composition).
    pub(crate) fn save_masks(&self) -> (Vec<bool>, Vec<bool>, Vec<bool>) {
        (
            self.comp.observed_received.clone(),
            self.comp.observed_sent.clone(),
            self.comp.frozen.clone(),
        )
    }

    /// Restores masks saved by [`Verifier::save_masks`].
    pub(crate) fn restore_masks(&mut self, saved: (Vec<bool>, Vec<bool>, Vec<bool>)) {
        self.comp.observed_received = saved.0;
        self.comp.observed_sent = saved.1;
        self.comp.frozen = saved.2;
    }

    /// Checks `C ⊨ property` (Theorem 3.4's decision procedure).
    pub fn check(
        &mut self,
        property: &LtlFoSentence,
        opts: &VerifyOptions,
    ) -> Result<Report, VerifyError> {
        let saved = self.save_masks();
        let result = self.check_inner(property, opts);
        self.restore_masks(saved);
        result
    }

    fn check_inner(
        &mut self,
        property: &LtlFoSentence,
        opts: &VerifyOptions,
    ) -> Result<Report, VerifyError> {
        let mut meta = crate::telemetry::RunMeta::new("check", opts);
        if opts.require_input_bounded {
            let mut violations = Vec::new();
            if let Err(vs) = self.comp.check_input_bounded(opts.ib_options) {
                violations.extend(vs);
            }
            if let Err(vs) = check_input_bounded_sentence(property, &self.comp, opts.ib_options) {
                violations.extend(vs);
            }
            if !violations.is_empty() {
                return Err(VerifyError::NotInputBounded(violations));
            }
        }

        // Track only the received/sent flags the property observes — the
        // others would double the configuration space per channel for
        // nothing.
        let mut observed = BTreeSet::new();
        property.body.visit_fo(&mut |fo| {
            observed.extend(fo.relations());
        });
        self.comp.observe_flags(&observed);
        self.comp.freeze_unobserved(&observed);

        let domain = self.domain_for(property, opts);
        let (base_db, universe) = self.database_setup(&opts.database, &domain);

        // Arc because an interrupted run's checkpoint must keep the
        // interners alive: the frozen engine frontier stores interned
        // configuration/oracle ids.
        let shared = Arc::new(build_shared(
            &self.comp,
            opts.rule_eval,
            opts.state_repr,
            &domain,
        ));
        // Fresh values are interchangeable: check valuations only up to
        // renaming of the fresh part of the domain. Moreover, the paper
        // quantifies the universal closure over the *run's* active domain
        // Dom(rho); with a fixed database and a closed composition, fresh
        // values can never enter any run (no rule, message or input can
        // introduce them), so valuations touching them are skipped -- this
        // is exact, not an approximation.
        let (constants, fresh) = self.split_domain(&domain);
        let fixed_closed = matches!(opts.database, DatabaseMode::Fixed(_)) && self.comp.is_closed();
        let fresh_for_closure: &[Value] = if fixed_closed { &[] } else { &fresh };
        let valuations =
            canonical_valuations(&property.universal_vars, &constants, fresh_for_closure);
        let valuations_total = valuations.len();
        self.run_universal_closure(
            &mut meta,
            opts,
            ClosureRun {
                property,
                observed: &observed,
                domain,
                base_db,
                universe,
                shared,
                valuations,
                legs: Vec::new(),
                stats_base: SearchStats::default(),
                valuations_total,
            },
        )
    }

    /// Convenience: parse then check.
    pub fn check_str(
        &mut self,
        property: &str,
        opts: &VerifyOptions,
    ) -> Result<Report, VerifyError> {
        let p = self.parse_property(property)?;
        self.check(&p, opts)
    }

    /// Runs the *first* slice of a preemptible check: a fresh search
    /// capped at `quantum` visited states. A slice that trips the cap
    /// returns [`Outcome::Inconclusive`] with a parked [`Checkpoint`];
    /// feed it to [`Verifier::resume_slice`] with the next quantum.
    /// `opts.max_states` is ignored — callers enforce their own total
    /// budget by choosing the cap via [`Verifier::slice_cap`].
    pub fn check_slice(
        &mut self,
        property: &str,
        opts: &VerifyOptions,
        quantum: u64,
    ) -> Result<Report, VerifyError> {
        let eff = VerifyOptions {
            max_states: quantum.max(1),
            ..opts.clone()
        };
        self.check_str(property, &eff)
    }

    /// Runs one more slice of a parked search: resumes `checkpoint` with
    /// the state budget raised by `quantum` *additional* states beyond
    /// what the in-flight leg has already visited (the budget counts a
    /// valuation's total visited states, so the previous cap would trip
    /// again immediately). The cap derives from
    /// [`Checkpoint::frontier_states`], not the run-wide visited sum: a
    /// `max_states` budget is per universal-closure valuation, and a
    /// sliced run must converge to the verdict of a one-shot
    /// [`Verifier::check`] under the same budget.
    pub fn resume_slice(
        &mut self,
        checkpoint: Checkpoint,
        opts: &VerifyOptions,
        quantum: u64,
    ) -> Result<Report, VerifyError> {
        let eff = VerifyOptions {
            max_states: Self::slice_cap(checkpoint.frontier_states(), quantum),
            ..opts.clone()
        };
        self.resume(checkpoint, &eff)
    }

    /// The effective state cap of a slice that has already visited
    /// `visited` states and may visit `quantum` more — the value a
    /// [`crate::AbortReason::StateBudget`] stop of that slice reports,
    /// which is how a scheduler tells a *parked* slice (cap was the
    /// synthetic slice cap) from a genuinely exhausted budget (cap was
    /// the job's own limit).
    pub fn slice_cap(visited: u64, quantum: u64) -> u64 {
        visited.saturating_add(quantum.max(1))
    }

    /// Continues a [`Checkpoint`] captured by an inconclusive
    /// [`Verifier::check`] (or a previous `resume`) on the same
    /// composition. The checkpoint pins the search shape — engine,
    /// reduction, rule evaluation — while budgets, deadline, cancellation
    /// and reporting come from `opts`. Note the state budget counts
    /// *total* visited states of the interrupted search, so resuming with
    /// the budget that tripped trips again immediately; raise it.
    ///
    /// A resumed search reaches the same verdict a fresh `check` with the
    /// laxer limits would, with cumulative statistics, and emits exactly
    /// one run report (entry point `"resume"`).
    pub fn resume(
        &mut self,
        checkpoint: Checkpoint,
        opts: &VerifyOptions,
    ) -> Result<Report, VerifyError> {
        let saved = self.save_masks();
        let result = self.resume_inner(checkpoint, opts);
        self.restore_masks(saved);
        result
    }

    fn resume_inner(
        &mut self,
        cp: Checkpoint,
        opts: &VerifyOptions,
    ) -> Result<Report, VerifyError> {
        // The frozen frontier's interned ids are only meaningful to the
        // checkpointed SharedSearch, under the checkpointed engine and
        // successor semantics — so those override whatever `opts` says.
        let eff = VerifyOptions {
            reduction: cp.reduction,
            rule_eval: cp.rule_eval,
            state_repr: cp.state_repr,
            threads: cp.threads,
            valuation_threads: cp.valuation_threads,
            ..opts.clone()
        };
        let mut meta = crate::telemetry::RunMeta::new("resume", &eff);
        let Checkpoint {
            property,
            observed,
            domain,
            base_db,
            universe,
            valuations,
            valuations_total,
            shared,
            legs,
            stats_prior,
            ..
        } = cp;
        // Re-apply the masks the original check ran under (restored by
        // `resume` afterwards, exactly as `check` does).
        self.comp.observe_flags(&observed);
        self.comp.freeze_unobserved(&observed);
        self.run_universal_closure(
            &mut meta,
            &eff,
            ClosureRun {
                property: &property,
                observed: &observed,
                domain,
                base_db,
                universe,
                shared,
                valuations,
                legs,
                stats_base: stats_prior,
                valuations_total,
            },
        )
    }

    /// Replays a [`Counterexample`] returned by [`Verifier::check`] for
    /// `property` under the same options, validating that it denotes a real
    /// violating run shape: the first snapshot is an initial configuration,
    /// every step is a legal composition move, and the cycle closes.
    ///
    /// The check re-applies the observation masks and verification domain
    /// that `check` used (counterexample configurations were produced under
    /// them), and runs the composition over the counterexample's own
    /// database — for `AllDatabases` mode that is the materialized oracle,
    /// so replay validates exactly the database the search decided.
    ///
    /// Returns `Err` with a description of the first mismatch. This is the
    /// oracle the differential test harness uses to cross-validate the
    /// sequential and parallel engines' witnesses.
    pub fn replay_counterexample(
        &mut self,
        property: &LtlFoSentence,
        cex: &Counterexample,
        opts: &VerifyOptions,
    ) -> Result<(), String> {
        let saved = self.save_masks();
        let result = self.replay_inner(property, cex, opts);
        self.restore_masks(saved);
        result
    }

    fn replay_inner(
        &mut self,
        property: &LtlFoSentence,
        cex: &Counterexample,
        opts: &VerifyOptions,
    ) -> Result<(), String> {
        // Mirror check_inner's mask setup: configurations in the
        // counterexample carry only observed flags and unfrozen state.
        let mut observed = BTreeSet::new();
        property.body.visit_fo(&mut |fo| {
            observed.extend(fo.relations());
        });
        self.comp.observe_flags(&observed);
        self.comp.freeze_unobserved(&observed);
        let domain = self.domain_for(property, opts);

        let steps: Vec<&RunStep> = cex.prefix.iter().chain(cex.cycle.iter()).collect();
        if cex.cycle.is_empty() {
            return Err("counterexample has an empty cycle".into());
        }
        let first = steps.first().expect("cycle is non-empty");
        let initials = self.comp.initial_configs(&cex.database, &domain);
        if !initials.contains(&first.config) {
            return Err("first snapshot is not an initial configuration".into());
        }
        for (i, pair) in steps.windows(2).enumerate() {
            let succs =
                self.comp
                    .successors(&cex.database, &domain, &pair[0].config, pair[0].mover);
            if !succs.contains(&pair[1].config) {
                return Err(format!(
                    "step {i}: snapshot is not a {:?}-successor of its predecessor",
                    pair[0].mover
                ));
            }
        }
        let last = steps.last().expect("cycle is non-empty");
        let wrap = self
            .comp
            .successors(&cex.database, &domain, &last.config, last.mover);
        let entry = &cex.cycle[0];
        if !wrap.contains(&entry.config) {
            return Err("cycle does not close back to its entry snapshot".into());
        }
        Ok(())
    }

    /// Splits a domain into (constants, fresh) parts — fresh values are the
    /// pool-minted ones, interchangeable under valuation symmetry.
    pub(crate) fn split_domain(&self, domain: &[Value]) -> (Vec<Value>, Vec<Value>) {
        let fresh: Vec<Value> = domain
            .iter()
            .copied()
            .filter(|v| self.fresh_pool.contains(v))
            .collect();
        let constants: Vec<Value> = domain
            .iter()
            .copied()
            .filter(|v| !self.fresh_pool.contains(v))
            .collect();
        (constants, fresh)
    }

    pub(crate) fn database_setup_pub(
        &self,
        mode: &DatabaseMode,
        domain: &[Value],
    ) -> (Instance, FactUniverse) {
        self.database_setup(mode, domain)
    }

    fn database_setup(&self, mode: &DatabaseMode, domain: &[Value]) -> (Instance, FactUniverse) {
        match mode {
            DatabaseMode::Fixed(db) => (db.clone(), FactUniverse::default()),
            DatabaseMode::AllDatabases => {
                let db_rels: Vec<RelId> = self
                    .comp
                    .peers
                    .iter()
                    .flat_map(|p| p.database.iter().copied())
                    .collect();
                (
                    Instance::empty(&self.comp.voc),
                    FactUniverse::new(&self.comp.voc, &db_rels, domain),
                )
            }
        }
    }
}

/// One batch of universal-closure valuations to dispatch through the shard
/// scheduler — the shared shape between `check` (a fresh batch, no legs)
/// and `resume` (the checkpoint's remaining batch with in-flight legs).
struct ClosureRun<'a> {
    property: &'a LtlFoSentence,
    observed: &'a BTreeSet<RelId>,
    domain: Vec<Value>,
    base_db: Instance,
    universe: FactUniverse,
    shared: Arc<SharedSearch>,
    /// The valuations to dispatch, in canonical order (for `resume`: the
    /// checkpoint's remaining valuations, interrupted winner first).
    valuations: Vec<HashMap<VarId, Value>>,
    /// Frozen engine frontiers to thaw, as (position into `valuations`,
    /// frontier) pairs. Empty for a fresh `check`.
    legs: Vec<(usize, EngineCheckpoint<PState>)>,
    /// Statistics of valuations completed before this batch (a resumed
    /// run's prior legs); the batch's counters are absorbed on top.
    stats_base: SearchStats,
    /// Size of the full universal closure, reported as
    /// [`Report::valuations_checked`] regardless of where this batch
    /// starts.
    valuations_total: usize,
}

impl Verifier {
    /// Runs one batch of universal-closure valuations through the shard
    /// scheduler ([`crate::scheduler`]) and maps the classified outcome to
    /// a [`Report`].
    ///
    /// This is the convergence point of `check` and `resume`: the outer
    /// worker pool, the first-violation cancel with the deterministic
    /// winner rule, the vacuous-valuation fold, the grounded-NBA cache,
    /// and multi-leg checkpointing all live here. Grounding and translation are deterministic, so
    /// rebuilding the automaton for a resumed valuation reproduces the
    /// exact atom numbering and NBA states its frozen frontier refers to.
    #[allow(clippy::too_many_lines)]
    fn run_universal_closure(
        &self,
        meta: &mut crate::telemetry::RunMeta,
        opts: &VerifyOptions,
        run: ClosureRun<'_>,
    ) -> Result<Report, VerifyError> {
        let ClosureRun {
            property,
            observed,
            domain,
            base_db,
            universe,
            shared,
            valuations,
            legs,
            stats_base,
            valuations_total,
        } = run;
        let negated_body = ddws_logic::LtlFo::not(property.body.clone());
        let reduction = reduction_oracle(&self.comp, &property.body, observed, opts);
        let shards = crate::scheduler::effective_shards(opts);
        // The inner engines split the remaining thread budget so
        // `opts.threads` bounds total engine parallelism, not
        // per-valuation parallelism.
        let task_opts = VerifyOptions {
            threads: crate::scheduler::inner_threads(opts, shards),
            ..opts.clone()
        };
        let cache = crate::scheduler::NbaCache::new();
        // One column-domain analysis per run decides the vacuous
        // valuations before any search (DESIGN.md §3.13.1). A single
        // valuation has nothing to skip, so the analysis only runs for a
        // real closure. An empty fact universe means the runs range over
        // the fixed `base_db` alone.
        let analysis_start = Instant::now();
        let domains = (valuations_total >= 2)
            .then(|| ColumnDomains::analyze(&self.comp, universe.is_empty().then_some(&base_db)));
        meta.nba_ns += analysis_start.elapsed().as_nanos() as u64;
        let limits = meta.limits(opts);
        let deterministic = crate::scheduler::deterministic_mode(opts);
        let mut resumes: Vec<Option<EngineCheckpoint<PState>>> =
            valuations.iter().map(|_| None).collect();
        for (pos, engine) in legs {
            resumes[pos] = Some(engine);
        }
        let tasks: Vec<crate::scheduler::ValuationTask> =
            valuations.iter().cloned().zip(resumes).collect();
        let comp = &self.comp;
        let meta_ref: &crate::telemetry::RunMeta = meta;
        let runner = |valuation: &HashMap<VarId, Value>,
                      resume: Option<EngineCheckpoint<PState>>,
                      limits: &ddws_automata::SearchLimits|
         -> crate::scheduler::TaskOutput {
            let nba_start = Instant::now();
            // A resumed leg was live when it was frozen; only fresh
            // valuations can fold away.
            if resume.is_none()
                && domains
                    .as_ref()
                    .is_some_and(|d| d.is_vacuous(&negated_body, valuation))
            {
                cache.add_ns(nba_start.elapsed().as_nanos() as u64);
                return crate::scheduler::TaskOutput {
                    stats: SearchStats {
                        valuations_vacuous: 1,
                        ..SearchStats::default()
                    },
                    verdict: crate::scheduler::TaskVerdict::Holds,
                };
            }
            let mut atoms = AtomRegistry::new();
            let ltl: Ltl = ground_ltlfo(&negated_body, valuation, &mut atoms);
            let nba = cache.translate(&ltl);
            cache.add_ns(nba_start.elapsed().as_nanos() as u64);
            let mut system =
                ProductSystem::new(comp, &base_db, &universe, &domain, &nba, &atoms, &shared);
            if let Some(ind) = &reduction {
                system = system.with_reduction(ind);
            }
            let tel = meta_ref.engine_telemetry(&task_opts, &shared);
            let result = match resume {
                // The interrupted valuation continues from its frozen
                // frontier; the untouched tail runs fresh searches.
                Some(engine) => resume_accepting_lasso_with(&system, engine, limits, &tel),
                None => crate::parallel::search_product(&system, &task_opts, limits, &tel),
            };
            match result {
                Ok((None, stats)) => crate::scheduler::TaskOutput {
                    stats,
                    verdict: crate::scheduler::TaskVerdict::Holds,
                },
                Ok((Some(lasso), stats)) => {
                    let cex_start = Instant::now();
                    let cex = build_counterexample(
                        &system,
                        &base_db,
                        &universe,
                        &property.universal_vars,
                        valuation,
                        lasso.prefix,
                        lasso.cycle,
                    );
                    crate::scheduler::TaskOutput {
                        stats,
                        verdict: crate::scheduler::TaskVerdict::Violated {
                            cex: Box::new(cex),
                            cex_ns: cex_start.elapsed().as_nanos() as u64,
                        },
                    }
                }
                Err(stop) => crate::scheduler::TaskOutput {
                    stats: stop.stats,
                    verdict: crate::scheduler::TaskVerdict::Stopped {
                        reason: stop.reason,
                        checkpoint: stop.checkpoint,
                    },
                },
            }
        };
        let outcome =
            crate::scheduler::run_valuation_shards(tasks, shards, &limits, deterministic, runner);
        meta.nba_ns += cache.ns();
        let fold = |batch: &SearchStats| -> SearchStats {
            let mut stats = stats_base;
            stats.absorb(batch);
            // The rule-evaluation and phase counters live in `shared` (they
            // span valuations and shards), so they overwrite rather than
            // accumulate.
            shared.fold_into(&mut stats);
            stats.nba_cache_hits = cache.hits();
            stats.nba_cache_misses = cache.misses();
            stats
        };
        match outcome {
            crate::scheduler::ShardOutcome::AllHold { stats, per_shard } => {
                let stats = fold(&stats);
                let telemetry = meta.finish(opts, "holds", &stats, domain.len(), valuations_total);
                Ok(Report {
                    outcome: Outcome::Holds,
                    stats,
                    domain,
                    valuations_checked: valuations_total,
                    shard_valuations: per_shard,
                    telemetry,
                })
            }
            crate::scheduler::ShardOutcome::Violated {
                index: _,
                cex,
                cex_ns,
                stats,
                per_shard,
            } => {
                let stats = fold(&stats);
                meta.cex_ns += cex_ns;
                let telemetry =
                    meta.finish(opts, "violated", &stats, domain.len(), valuations_total);
                Ok(Report {
                    outcome: Outcome::Violated(cex),
                    stats,
                    domain,
                    valuations_checked: valuations_total,
                    shard_valuations: per_shard,
                    telemetry,
                })
            }
            crate::scheduler::ShardOutcome::Stopped {
                index: _,
                reason,
                stats,
                stats_prior,
                remaining,
                legs,
                per_shard,
            } => {
                let stats = fold(&stats);
                if let AbortReason::WorkerPanicked { worker, payload } = &reason {
                    let report = meta.finish_abort(
                        opts,
                        &reason,
                        false,
                        &stats,
                        domain.len(),
                        valuations_total,
                    );
                    return Err(VerifyError::WorkerPanicked {
                        worker: *worker,
                        payload: payload.clone(),
                        report: Box::new(report),
                    });
                }
                // Anything left to verify makes the stop resumable — even
                // with no in-flight legs, the remaining valuations rerun
                // as fresh searches (that is exactly what resume does for
                // the untouched tail).
                let resumable = !remaining.is_empty();
                let telemetry = meta.finish_abort(
                    opts,
                    &reason,
                    resumable,
                    &stats,
                    domain.len(),
                    valuations_total,
                );
                let checkpoint = if resumable {
                    let mut prior = stats_base;
                    prior.absorb(&stats_prior);
                    Some(Checkpoint {
                        property: property.clone(),
                        observed: observed.clone(),
                        domain: domain.clone(),
                        base_db,
                        universe,
                        valuations: remaining.iter().map(|&i| valuations[i].clone()).collect(),
                        valuations_total,
                        shared: Arc::clone(&shared),
                        legs,
                        stats_prior: prior,
                        reduction: opts.reduction,
                        rule_eval: opts.rule_eval,
                        state_repr: opts.state_repr,
                        threads: opts.threads,
                        valuation_threads: opts.valuation_threads,
                    })
                } else {
                    None
                };
                Ok(Report {
                    outcome: Outcome::Inconclusive(Box::new(Inconclusive { reason, checkpoint })),
                    stats,
                    domain,
                    valuations_checked: valuations_total,
                    shard_valuations: per_shard,
                    telemetry,
                })
            }
        }
    }
}

/// Rebuilds a [`Counterexample`] from a product lasso: fork (oracle-growth)
/// pseudo-steps are elided, the final oracle is materialized as the
/// witnessing database.
pub(crate) fn build_counterexample(
    system: &ProductSystem<'_>,
    base_db: &Instance,
    universe: &FactUniverse,
    universal_vars: &[VarId],
    valuation: &std::collections::HashMap<VarId, Value>,
    prefix: Vec<PState>,
    cycle: Vec<PState>,
) -> Counterexample {
    let comp = system.comp;
    // The largest oracle along the path is the one of the cycle states
    // (oracles only grow, and never grow inside a cycle).
    let final_oracle: Oracle = match cycle.first() {
        Some(PState::Run { oracle, .. }) | Some(PState::Boot { oracle }) => {
            (*system.oracle(*oracle)).clone()
        }
        None => Oracle::undecided(universe.len()),
    };
    let mut database = base_db.clone();
    let decided = final_oracle.materialize(&comp.voc, universe);
    for (rel, _) in comp.voc.iter() {
        let r = decided.relation(rel);
        if !r.is_empty() {
            database.set_relation(rel, database.relation(rel).union(r));
        }
    }

    // Elide fork steps: a state is a real snapshot iff the next state on the
    // path has the same oracle (fork edges strictly grow it) — the last
    // state before the cycle and all cycle states are always real.
    let oracle_of = |s: &PState| -> u32 {
        match s {
            PState::Boot { oracle } | PState::Run { oracle, .. } => *oracle,
        }
    };
    let full: Vec<PState> = prefix.iter().chain(cycle.iter()).copied().collect();
    let mut steps: Vec<RunStep> = Vec::new();
    let mut cycle_start_in_steps = 0;
    for (i, s) in full.iter().enumerate() {
        let is_fork_source = full
            .get(i + 1)
            .map(|n| oracle_of(n) != oracle_of(s))
            .unwrap_or(false);
        if i == prefix.len() {
            cycle_start_in_steps = steps.len();
        }
        if is_fork_source {
            continue;
        }
        if let PState::Run { config, mover, .. } = s {
            steps.push(RunStep {
                config: (*system.config(*config)).clone(),
                mover: *mover,
            });
        }
    }
    let cycle_steps = steps.split_off(cycle_start_in_steps);
    let frozen_rels: Vec<String> = comp
        .voc
        .iter()
        .filter(|(rel, _)| comp.frozen[rel.index()])
        .map(|(_, d)| d.name.clone())
        .collect();
    Counterexample {
        database,
        frozen_rels,
        valuation: universal_vars
            .iter()
            .map(|v| (*v, *valuation.get(v).expect("valuation covers closure")))
            .collect(),
        prefix: steps,
        cycle: cycle_steps,
    }
}
