//! Deterministic re-expansion of the product system.
//!
//! The product keeps no per-state expansion memo, so the sequential red
//! search re-expands states the blue search already expanded, and
//! byte-identical counterexamples rely on `ProductSystem::successors` and
//! `successors_reduced` returning the same sequence on every call. Each
//! case builds the product a fixed-database `check` builds, expands every
//! reachable state once (breadth-first, up to a cap), then expands them all
//! again in reverse order — after every shared memo is warm — and requires
//! the same sequences, across {Compact, Legacy} × {Full, Ample}.

use ddws::scenarios::chains;
use ddws_automata::{ltl_to_nba, TransitionSystem};
use ddws_logic::LtlFo;
use ddws_model::{Composition, IndependenceOracle};
use ddws_relational::Instance;
use ddws_testkit::{compgen, gen, seed_from};
use ddws_verifier::ground::{canonical_valuations, ground_ltlfo, AtomRegistry};
use ddws_verifier::oracle::FactUniverse;
use ddws_verifier::product::{PState, ProductSystem, SharedSearch};
use ddws_verifier::{DatabaseMode, RuleEval, StateRepr, Verifier, VerifyOptions};
use std::collections::{BTreeSet, HashSet, VecDeque};

/// Product states expanded per (valuation, representation, reduction).
const STATE_CAP: usize = 3_000;
/// Universal-closure valuations tried per case.
const VALUATION_CAP: usize = 3;

/// The full and the reduced expansion of one state.
type Expansions = (Vec<PState>, Vec<PState>, bool);

fn expand(system: &ProductSystem<'_>, s: &PState) -> Expansions {
    let reduced = system.successors_reduced(s);
    (
        system.successors(s).to_vec(),
        reduced.states.to_vec(),
        reduced.ample,
    )
}

fn assert_system_reexpands(system: &ProductSystem<'_>, label: &str) {
    let mut seen: HashSet<PState> = HashSet::new();
    let mut queue: VecDeque<PState> = VecDeque::new();
    for s in system.initial_states() {
        if seen.insert(s) {
            queue.push_back(s);
        }
    }
    let mut first: Vec<(PState, Expansions)> = Vec::new();
    while let Some(s) = queue.pop_front() {
        if first.len() >= STATE_CAP {
            break;
        }
        let e = expand(system, &s);
        for &t in &e.0 {
            if seen.insert(t) {
                queue.push_back(t);
            }
        }
        first.push((s, e));
    }
    for (s, e) in first.iter().rev() {
        assert_eq!(
            &expand(system, s),
            e,
            "{label}: re-expanding {s:?} changed its successors"
        );
    }
}

fn assert_reexpansion_is_deterministic(
    comp: &Composition,
    db: &Instance,
    property: &str,
    label: &str,
) {
    let mut v = Verifier::new(comp.clone());
    let sentence = v
        .parse_property(property)
        .unwrap_or_else(|e| panic!("{label}: `{property}` does not parse: {e}"));
    let opts = VerifyOptions {
        database: DatabaseMode::Fixed(db.clone()),
        fresh_values: Some(1),
        ..VerifyOptions::default()
    };
    let domain = v.domain_for(&sentence, &opts);
    // Mirror `check`: track only the flags and relations the property
    // observes.
    let mut observed = BTreeSet::new();
    sentence
        .body
        .visit_fo(&mut |fo| observed.extend(fo.relations()));
    let mut comp = v.composition().clone();
    comp.observe_flags(&observed);
    comp.freeze_unobserved(&observed);
    let universe = FactUniverse::default();
    let negated = LtlFo::not(sentence.body.clone());
    let valuations = canonical_valuations(&sentence.universal_vars, &domain, &[]);
    for compact in [true, false] {
        for ample in [false, true] {
            let repr = if compact {
                StateRepr::Compact
            } else {
                StateRepr::Legacy
            };
            let shared = SharedSearch::new(&comp, RuleEval::Compiled, repr, &domain);
            let oracle = ample.then(|| IndependenceOracle::new(&comp, &observed));
            for (i, valuation) in valuations.iter().take(VALUATION_CAP).enumerate() {
                let mut atoms = AtomRegistry::new();
                let nba = ltl_to_nba(&ground_ltlfo(&negated, valuation, &mut atoms));
                let mut system =
                    ProductSystem::new(&comp, db, &universe, &domain, &nba, &atoms, &shared);
                if let Some(oracle) = &oracle {
                    system = system.with_reduction(oracle);
                }
                assert_system_reexpands(
                    &system,
                    &format!("{label} compact={compact} ample={ample} valuation #{i}"),
                );
            }
        }
    }
}

#[test]
fn swarm_products_reexpand_identically() {
    // The same 200 cases as the full-vs-ample swarm in tests/swarm.rs.
    gen::cases(200, seed_from("swarm_full_vs_ample"), |rng| {
        let case = compgen::case(rng);
        assert_reexpansion_is_deterministic(
            &case.composition,
            &case.database,
            &case.property,
            &format!("swarm `{}`", case.property),
        );
    });
}

#[test]
fn relay_chain_products_reexpand_identically() {
    for m in 2..=3 {
        // The plain chain reduces under symmetry; its twin breaks every
        // value symmetry.
        for twin in [false, true] {
            let (comp, db) = chains::nested_relay(m, 0, 0, twin);
            for property in [
                "G (forall x: P0.emit(x) -> P0.token(x))",
                "G (forall x: P0.emit(x) -> false)",
            ] {
                assert_reexpansion_is_deterministic(
                    &comp,
                    &db,
                    property,
                    &format!("relay m={m} twin={twin} `{property}`"),
                );
            }
        }
    }
}
