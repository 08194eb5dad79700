//! Shared harness for the differential swarm (tests/swarm.rs), its pinned
//! regression seeds (tests/regressions.rs), and the telemetry invariant
//! suite (tests/telemetry_invariants.rs).

// Each including test binary uses a subset of these helpers.
#![allow(dead_code)]
#![allow(unused_imports)]

use ddws_model::{builder::ENV, CompositionBuilder, QueueKind};
use ddws_model::{CompiledRules, Config, EvalCtx, RuleCache, StatePool};
use ddws_protocol::{automata_shapes, DataAgnosticProtocol, DataAwareProtocol, Observer};
use ddws_relational::{Instance, Tuple};
use ddws_testkit::compgen;
use ddws_testkit::rng::XorShift;
use ddws_verifier::{
    DatabaseMode, Outcome, Reduction, RuleEval, StateRepr, Verifier, VerifyOptions,
};
use std::collections::HashSet;

// The fault/report contract lives in the testkit now (feature `contract`)
// so the fault swarm, the telemetry invariant suite, and the
// deterministic simulator all assert one definition. Re-exported here so
// the test binaries keep their `common::` spelling.
pub use ddws_testkit::contract::{
    assert_fault_case, assert_fault_contract, assert_labelled, fault_opts, report_contract,
    silence_injected_panics, SWARM_BUDGET,
};

/// Runs `check` on a freshly drawn case; if it panics, delta-debugs the
/// case down to a 1-minimal spec that still fails, prints it, and
/// re-raises the original panic (so `gen::cases` still reports the
/// sub-seed to pin in tests/regressions.rs).
pub fn shrink_on_failure(rng: &mut XorShift, check: fn(&compgen::Case)) {
    let spec = compgen::spec(rng);
    let case = spec.build().expect("generated composition is well-formed");
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| check(&case)));
    let Err(payload) = outcome else { return };
    // Shrink quietly: the loop re-runs the failing check once per
    // candidate cut, and every *accepted* cut would otherwise dump one
    // more panic message and backtrace into the output.
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let min = compgen::minimize(&spec, |c| {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| check(c))).is_err()
    });
    std::panic::set_hook(prev);
    eprintln!(
        "swarm: minimized the failing case from {} to {} structural elements:\n{}",
        spec.size(),
        min.size(),
        min
    );
    std::panic::resume_unwind(payload);
}

/// Whether the case's property is violated under the sequential full
/// search — the reproduction predicate for the pinned shrinker regression.
pub fn violates_seq_full(case: &compgen::Case) -> bool {
    let mut v = Verifier::new(case.composition.clone());
    let opts = VerifyOptions {
        database: DatabaseMode::Fixed(case.database.clone()),
        fresh_values: Some(1),
        max_states: SWARM_BUDGET,
        ..VerifyOptions::default()
    };
    matches!(
        v.check_str(&case.property, &opts),
        Ok(r) if matches!(r.outcome, Outcome::Violated(_))
    )
}

/// Draws one case and asserts that `Reduction::Ample` and
/// `Reduction::Full` agree on its verdict.
///
/// Budget outcomes are handled explicitly rather than assumed away:
///
/// * both searches exceed the budget — agreement (trivially);
/// * only the *full* search exceeds it — fine: pruning interleavings is
///   the reduction's purpose, so the ample search may fit a budget the
///   full one blows;
/// * only the *ample* search exceeds it — also tolerated: on a violated
///   case the full nested DFS can stop early at a lasso the reduced
///   graph reaches later, so neither direction is comparable;
/// * both complete — the verdicts must be equal.
///
/// Any other error (parse failure, input-boundedness rejection) is a
/// generator bug and panics.
pub fn assert_case_agrees(rng: &mut XorShift) {
    case_agrees(&compgen::case(rng));
}

/// [`assert_case_agrees`] on an already-materialized case (the form the
/// shrinker re-runs).
pub fn case_agrees(case: &compgen::Case) {
    // `None` = the search stopped on its state budget (inconclusive).
    let run = |reduction: Reduction| -> Option<bool> {
        let mut v = Verifier::new(case.composition.clone());
        let opts = VerifyOptions {
            database: DatabaseMode::Fixed(case.database.clone()),
            fresh_values: Some(1),
            max_states: SWARM_BUDGET,
            reduction,
            ..VerifyOptions::default()
        };
        let report = v.check_str(&case.property, &opts).unwrap_or_else(|e| {
            panic!(
                "generator produced an unverifiable case `{}`: {e}",
                case.property
            )
        });
        match report.outcome {
            Outcome::Holds => Some(true),
            Outcome::Violated(_) => Some(false),
            Outcome::Inconclusive(_) => None,
        }
    };
    if let (Some(f), Some(a)) = (run(Reduction::Full), run(Reduction::Ample)) {
        assert_eq!(
            f, a,
            "verdict disagreement on `{}` (full: {f}, ample: {a})",
            case.property
        );
    }
}

/// Draws one case and asserts that the compiled rule-evaluation engine is
/// observationally identical to the FO interpreter on it:
///
/// 1. **tuple-for-tuple** — over a bounded breadth-first exploration of the
///    composition, `successors_with` under compiled plans (plus the
///    footprint cache) returns *exactly* the successor list the interpreted
///    path returns, order included, for every (configuration, mover);
/// 2. **verdicts** — `RuleEval::Compiled` and `RuleEval::Interpreted` agree
///    across the engine × reduction matrix `{seq, par2} × {Full, Ample}`.
///    Both engines explore the same product graph, so even budget aborts
///    must match shape-for-shape;
/// 3. **counterexamples replay** — a violation found by the compiled path
///    must replay under the interpreter (`replay_counterexample` runs the
///    plain interpreted `successors`), keeping the interpreter the oracle
///    of record.
pub fn assert_compiled_agrees(rng: &mut XorShift) {
    compiled_agrees(&compgen::case(rng));
}

/// [`assert_compiled_agrees`] on an already-materialized case (the form
/// the shrinker re-runs).
pub fn compiled_agrees(case: &compgen::Case) {
    // --- 1. Tuple-for-tuple successor agreement on the composition. ---
    let mut v = Verifier::new(case.composition.clone());
    let opts = VerifyOptions {
        database: DatabaseMode::Fixed(case.database.clone()),
        fresh_values: Some(1),
        max_states: SWARM_BUDGET,
        ..VerifyOptions::default()
    };
    let prop = v
        .parse_property(&case.property)
        .expect("generated property parses");
    let domain = v.domain_for(&prop, &opts);
    let comp = v.composition();
    let compiled = CompiledRules::new(comp);
    let cache = RuleCache::new(&compiled);
    let ctx = EvalCtx {
        compiled: Some(&compiled),
        cache: Some(&cache),
    };
    let mut frontier = comp.initial_configs(&case.database, &domain);
    assert_eq!(
        frontier,
        comp.initial_configs_with(&case.database, &domain, ctx),
        "initial configurations differ on `{}`",
        case.property
    );
    let mut seen: HashSet<Config> = frontier.iter().cloned().collect();
    for _ in 0..3 {
        let mut next = Vec::new();
        for cfg in &frontier {
            for mover in comp.movers() {
                let interpreted = comp.successors(&case.database, &domain, cfg, mover);
                let compiled_succs = comp.successors_with(&case.database, &domain, cfg, mover, ctx);
                assert_eq!(
                    interpreted, compiled_succs,
                    "successor sets differ for mover {mover:?} on `{}`",
                    case.property
                );
                for c in interpreted {
                    if seen.insert(c.clone()) {
                        next.push(c);
                    }
                }
            }
        }
        next.truncate(24);
        frontier = next;
    }

    // --- 2 & 3. Verdict agreement across the engine matrix, with replay. ---
    let run = |threads: Option<usize>, reduction: Reduction, rule_eval: RuleEval| {
        let mut v = Verifier::new(case.composition.clone());
        let opts = VerifyOptions {
            database: DatabaseMode::Fixed(case.database.clone()),
            fresh_values: Some(1),
            max_states: SWARM_BUDGET,
            threads,
            reduction,
            rule_eval,
            ..VerifyOptions::default()
        };
        let prop = v
            .parse_property(&case.property)
            .expect("generated property parses");
        let report = v.check(&prop, &opts).unwrap_or_else(|e| {
            panic!(
                "generator produced an unverifiable case `{}`: {e}",
                case.property
            )
        });
        if let Outcome::Violated(cex) = &report.outcome {
            v.replay_counterexample(&prop, cex, &opts)
                .unwrap_or_else(|e| {
                    panic!(
                        "threads={threads:?} reduction={reduction:?} \
                         rule_eval={rule_eval:?}: counterexample does not \
                         replay on `{}`: {e}",
                        case.property
                    )
                });
        }
        match report.outcome {
            Outcome::Holds => Ok(true),
            Outcome::Violated(_) => Ok(false),
            Outcome::Inconclusive(_) => Err(report.stats.states_visited),
        }
    };
    for threads in [None, Some(2)] {
        for reduction in [Reduction::Full, Reduction::Ample] {
            let c = run(threads, reduction, RuleEval::Compiled);
            let i = run(threads, reduction, RuleEval::Interpreted);
            assert_eq!(
                c.is_ok(),
                i.is_ok(),
                "threads={threads:?} reduction={reduction:?}: budget outcome \
                 differs between engines on `{}` (compiled: {c:?}, \
                 interpreted: {i:?})",
                case.property
            );
            if let (Ok(cv), Ok(iv)) = (c, i) {
                assert_eq!(
                    cv, iv,
                    "threads={threads:?} reduction={reduction:?}: verdict \
                     disagreement on `{}` (compiled: {cv}, interpreted: {iv})",
                    case.property
                );
            }
        }
    }
}

/// Draws one case and asserts that the compact (interned, bit-packed)
/// state representation is observationally identical to the legacy
/// `Config` representation on it:
///
/// 1. **tuple-for-tuple** — over a bounded breadth-first exploration of
///    the composition, `StatePool::successors` expanded back to `Config`s
///    returns *exactly* the successor list the legacy stepper returns,
///    order included, for every (configuration, mover). Each side drives
///    its own compiled-kernel cache, and the hit/miss totals must match:
///    the interned footprints have to key the rule cache exactly as the
///    legacy `Ext` footprints do;
/// 2. **verdicts** — `StateRepr::Compact` and `StateRepr::Legacy` agree
///    across `{seq, par2} × {Full, Ample} × {Compiled, Interpreted}`, and
///    `states_expanded` is equal wherever the engine is deterministic:
///    always for the sequential nested DFS, and for par2 under `Full`
///    (the parallel engine explores the whole graph, marking each state
///    visited before it is enqueued, so each is expanded exactly once).
///    Under par2 + `Ample` the C3 `already_visited` probe races, so only
///    the verdict is compared there;
/// 3. **counterexamples replay** — a violation found under the compact
///    representation must replay under the legacy interpreted stepper
///    (`replay_counterexample`), keeping legacy the oracle of record.
pub fn assert_repr_agrees(rng: &mut XorShift) {
    repr_agrees(&compgen::case(rng));
}

/// [`assert_repr_agrees`] on an already-materialized case (the form the
/// shrinker re-runs).
pub fn repr_agrees(case: &compgen::Case) {
    // --- 1. Tuple-for-tuple successor agreement on the composition. ---
    let mut v = Verifier::new(case.composition.clone());
    let opts = VerifyOptions {
        database: DatabaseMode::Fixed(case.database.clone()),
        fresh_values: Some(1),
        max_states: SWARM_BUDGET,
        ..VerifyOptions::default()
    };
    let prop = v
        .parse_property(&case.property)
        .expect("generated property parses");
    let domain = v.domain_for(&prop, &opts);
    let comp = v.composition();
    let pool = StatePool::new(comp, ddws_verifier::domain::packing_capacity(comp, &domain));
    let compiled_l = CompiledRules::new(comp);
    let cache_l = RuleCache::new(&compiled_l);
    let ctx_l = EvalCtx {
        compiled: Some(&compiled_l),
        cache: Some(&cache_l),
    };
    let compiled_c = CompiledRules::new(comp);
    let cache_c = RuleCache::new(&compiled_c);
    let ctx_c = EvalCtx {
        compiled: Some(&compiled_c),
        cache: Some(&cache_c),
    };
    let frontier = comp.initial_configs_with(&case.database, &domain, ctx_l);
    let compact_init: Vec<Config> = pool
        .initial_configs(comp, &case.database, &domain, ctx_c)
        .iter()
        .map(|cc| pool.expand(comp, cc))
        .collect();
    assert_eq!(
        frontier, compact_init,
        "initial configurations differ between representations on `{}`",
        case.property
    );
    let mut frontier = frontier;
    let mut seen: HashSet<Config> = frontier.iter().cloned().collect();
    for _ in 0..3 {
        let mut next = Vec::new();
        for cfg in &frontier {
            let cc = pool.compact(comp, cfg);
            for mover in comp.movers() {
                let legacy = comp.successors_with(&case.database, &domain, cfg, mover, ctx_l);
                let compact: Vec<Config> = pool
                    .successors(comp, &case.database, &domain, &cc, mover, ctx_c)
                    .iter()
                    .map(|s| pool.expand(comp, s))
                    .collect();
                assert_eq!(
                    legacy, compact,
                    "successor sets differ for mover {mover:?} on `{}`",
                    case.property
                );
                for c in legacy {
                    if seen.insert(c.clone()) {
                        next.push(c);
                    }
                }
            }
        }
        next.truncate(24);
        frontier = next;
    }
    assert_eq!(
        (cache_l.hits(), cache_l.misses()),
        (cache_c.hits(), cache_c.misses()),
        "rule-cache hit/miss totals diverge between representations on `{}` \
         (interned footprints must key the cache exactly as legacy Ext \
         footprints do)",
        case.property
    );
    // Construction pre-interns the two empty extensions (2 misses); any
    // actual traversal must intern beyond that.
    if !seen.is_empty() {
        assert!(
            pool.intern_hits() + pool.intern_misses() > 2,
            "the compact stepper did not touch the interner on `{}`",
            case.property
        );
    }

    // --- 2 & 3. Verdict + expansion agreement across the matrix. ---
    let run = |threads: Option<usize>,
               reduction: Reduction,
               rule_eval: RuleEval,
               state_repr: StateRepr|
     -> Result<(bool, u64), u64> {
        let mut v = Verifier::new(case.composition.clone());
        let opts = VerifyOptions {
            database: DatabaseMode::Fixed(case.database.clone()),
            fresh_values: Some(1),
            max_states: SWARM_BUDGET,
            threads,
            reduction,
            rule_eval,
            state_repr,
            ..VerifyOptions::default()
        };
        let prop = v
            .parse_property(&case.property)
            .expect("generated property parses");
        let report = v.check(&prop, &opts).unwrap_or_else(|e| {
            panic!(
                "generator produced an unverifiable case `{}`: {e}",
                case.property
            )
        });
        if state_repr == StateRepr::Compact {
            if let Outcome::Violated(cex) = &report.outcome {
                v.replay_counterexample(&prop, cex, &opts)
                    .unwrap_or_else(|e| {
                        panic!(
                            "threads={threads:?} reduction={reduction:?} \
                             rule_eval={rule_eval:?}: compact counterexample \
                             does not replay on `{}`: {e}",
                            case.property
                        )
                    });
            }
        }
        match report.outcome {
            Outcome::Holds => Ok((true, report.stats.states_expanded)),
            Outcome::Violated(_) => Ok((false, report.stats.states_expanded)),
            Outcome::Inconclusive(_) => Err(report.stats.states_visited),
        }
    };
    for threads in [None, Some(2)] {
        for reduction in [Reduction::Full, Reduction::Ample] {
            for rule_eval in [RuleEval::Compiled, RuleEval::Interpreted] {
                let c = run(threads, reduction, rule_eval, StateRepr::Compact);
                let l = run(threads, reduction, rule_eval, StateRepr::Legacy);
                assert_eq!(
                    c.is_ok(),
                    l.is_ok(),
                    "threads={threads:?} reduction={reduction:?} \
                     rule_eval={rule_eval:?}: budget outcome differs between \
                     representations on `{}` (compact: {c:?}, legacy: {l:?})",
                    case.property
                );
                if let (Ok((cv, ce)), Ok((lv, le))) = (c, l) {
                    assert_eq!(
                        cv, lv,
                        "threads={threads:?} reduction={reduction:?} \
                         rule_eval={rule_eval:?}: verdict disagreement on `{}` \
                         (compact: {cv}, legacy: {lv})",
                        case.property
                    );
                    let deterministic = threads.is_none() || reduction == Reduction::Full;
                    if deterministic {
                        assert_eq!(
                            ce, le,
                            "threads={threads:?} reduction={reduction:?} \
                             rule_eval={rule_eval:?}: states_expanded differs \
                             between representations on `{}` (compact: {ce}, \
                             legacy: {le})",
                            case.property
                        );
                    }
                }
            }
        }
    }
}

// --- Entry-point fixtures (tests/telemetry_invariants.rs, tests/differential.rs) ---

/// The open officer composition from examples/modular_loan — `O` asks the
/// environment for ratings — plus its one-customer database.
pub fn modular_fixture() -> (Verifier, Instance) {
    let mut b = CompositionBuilder::new();
    b.channel("getRating", 1, QueueKind::Flat, "O", ENV);
    b.channel("rating", 2, QueueKind::Flat, ENV, "O");
    b.peer("O")
        .database("customer", 2)
        .state("rated", 2)
        .input("check", 1)
        .input_rule("check", &["ssn"], "exists id: customer(id, ssn)")
        .send_rule("getRating", &["ssn"], "check(ssn)")
        .state_insert_rule("rated", &["ssn", "r"], "?rating(ssn, r)");
    let mut v = Verifier::new(b.build().expect("open composition"));
    let mut db = Instance::empty(&v.composition().voc);
    let c1 = v.composition_mut().symbols.intern("c1");
    let s1 = v.composition_mut().symbols.intern("s1");
    let customer = v.composition().voc.lookup("O.customer").unwrap();
    db.relation_mut(customer).insert(Tuple::new(vec![c1, s1]));
    (v, db)
}

pub const MODULAR_PROP: &str = "G (forall ssn, r: O.?rating(ssn, r) -> \
    (r = \"poor\" or r = \"fair\" or r = \"good\" or r = \"excellent\"))";
pub const MODULAR_SPEC: &str = "G (forall ssn, r: ENV.!rating(ssn, r) -> \
    (r = \"poor\" or r = \"fair\" or r = \"good\" or r = \"excellent\"))";

/// The request/response composition from examples/protocol_check, with a
/// database backing one fair rating.
pub fn protocol_fixture() -> (Verifier, Instance) {
    let mut b = CompositionBuilder::new();
    b.channel("getRating", 1, QueueKind::Flat, "O", "CR");
    b.channel("rating", 2, QueueKind::Flat, "CR", "O");
    b.peer("O")
        .database("customer", 1)
        .input("check", 1)
        .input_rule("check", &["ssn"], "customer(ssn)")
        .send_rule("getRating", &["ssn"], "check(ssn)");
    b.peer("CR").database("creditRating", 2).send_rule(
        "rating",
        &["ssn", "cat"],
        "?getRating(ssn) and creditRating(ssn, cat)",
    );
    let mut v = Verifier::new(b.build().expect("composition"));
    let mut db = Instance::empty(&v.composition().voc);
    let s1 = v.composition_mut().symbols.intern("s1");
    let fair = v.composition_mut().symbols.intern("fair");
    let customer = v.composition().voc.lookup("O.customer").unwrap();
    let credit = v.composition().voc.lookup("CR.creditRating").unwrap();
    db.relation_mut(customer).insert(Tuple::new(vec![s1]));
    db.relation_mut(credit).insert(Tuple::new(vec![s1, fair]));
    (v, db)
}

/// G(getRating → F rating) observed at the recipient — violated under
/// lossy channels.
pub fn response_protocol(v: &Verifier) -> DataAgnosticProtocol {
    DataAgnosticProtocol::new(
        v.composition(),
        &["getRating", "rating"],
        automata_shapes::response(2, 0, 1),
        Observer::AtRecipient,
    )
    .unwrap()
}

/// "Every rating message is database-backed", over a single-state
/// automaton with an accepting self-loop (so the product search actually
/// explores the composition).
pub fn db_backed_protocol(v: &mut Verifier) -> DataAwareProtocol {
    use ddws_automata::{Guard, Nba};
    let aware = DataAwareProtocol::new(
        v.composition_mut(),
        &[(
            "rating_is_db_backed",
            "forall ssn, cat: CR.!rating(ssn, cat) -> CR.creditRating(ssn, cat)",
        )],
        automata_shapes::universal(1),
    )
    .unwrap();
    let mut nba = Nba::new(1, 1);
    nba.add_initial(0);
    nba.add_transition(0, Guard::require(0), 0);
    nba.accepting[0] = true;
    DataAwareProtocol {
        symbols: aware.symbols,
        guards: aware.guards,
        automaton: nba,
    }
}
