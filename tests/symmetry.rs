//! The symmetry reduction against an independent unreduced search.
//!
//! Each cell is checked twice: as it stands, where the verifier merges
//! interchangeable values (DESIGN.md §3.16), and as its *asymmetric
//! twin*. The twin adds one fixed-database relation that no rule or
//! property reads, holding a successor chain over each class's values
//! (`t0→t1→…`, `a0→a1→…`). A directed chain has no non-trivial
//! automorphism, so the twin has no class of two or more values and its
//! search is the unreduced one — it shares no canonical form with the
//! reduced run. The chain adds no values and no valuations.
//!
//! For every cell: equal verdicts; on `holds`, where both searches
//! exhaust their graphs, the reduced `states_visited` is at most the
//! twin's; and every counterexample from either side replays.

mod common;

use ddws::scenarios::{bank_loan, chains, ecommerce, travel};
use ddws_logic::input_bounded::RelClass;
use ddws_model::{Composition, CompositionBuilder, Semantics, ValueClasses};
use ddws_relational::{Instance, Tuple};
use ddws_testkit::{compgen, gen, seed_from};
use ddws_verifier::{DatabaseMode, Outcome, Reduction, Report, StateRepr, Verifier, VerifyOptions};

/// The asymmetric twin of `(comp, db)`: one extra binary database
/// relation on the first peer, holding a successor chain over each class.
fn twin(comp: &Composition, db: &Instance, classes: &ValueClasses) -> (Composition, Instance) {
    let mut comp = comp.clone();
    let name = format!("{}.symmetry_breaker", comp.peers[0].name);
    let rel = comp.voc.declare(&name, 2).expect("an unused relation name");
    comp.classes.push(RelClass::Database);
    comp.rel_channel.push(None);
    comp.frozen.push(false);
    comp.peers[0].database.push(rel);
    let mut twin_db = Instance::empty(&comp.voc);
    for (r, _) in comp.voc.iter().filter(|(r, _)| *r != rel) {
        twin_db.set_relation(r, db.relation(r).clone());
    }
    for class in classes.classes() {
        for w in class.windows(2) {
            twin_db
                .relation_mut(rel)
                .insert(Tuple::new(vec![w[0], w[1]]));
        }
    }
    (comp, twin_db)
}

/// Checks `property` with `opts` (whose database is replaced by `db`).
fn check(
    comp: &Composition,
    db: &Instance,
    property: &str,
    opts: &VerifyOptions,
) -> (Verifier, Report) {
    let mut v = Verifier::new(comp.clone());
    let opts = VerifyOptions {
        database: DatabaseMode::Fixed(db.clone()),
        ..opts.clone()
    };
    let report = v
        .check_str(property, &opts)
        .unwrap_or_else(|e| panic!("`{property}` is unverifiable: {e}"));
    (v, report)
}

fn replay(
    v: &mut Verifier,
    db: &Instance,
    property: &str,
    opts: &VerifyOptions,
    report: &Report,
    side: &str,
) {
    if let Outcome::Violated(cex) = &report.outcome {
        let prop = v.parse_property(property).expect("parses");
        let opts = VerifyOptions {
            database: DatabaseMode::Fixed(db.clone()),
            ..opts.clone()
        };
        v.replay_counterexample(&prop, cex, &opts)
            .unwrap_or_else(|e| {
                panic!("{side} counterexample for `{property}` does not replay: {e}")
            });
    }
}

/// What one reduced-vs-twin comparison found.
struct Pair {
    reduced: Report,
    unreduced: Report,
}

/// Compares a cell with its asymmetric twin. Returns `None` when either
/// side ran out of budget.
fn compare(
    comp: &Composition,
    db: &Instance,
    property: &str,
    opts: &VerifyOptions,
) -> Option<Pair> {
    let mut probe = Verifier::new(comp.clone());
    let prop = probe.parse_property(property).expect("parses");
    let with_db = VerifyOptions {
        database: DatabaseMode::Fixed(db.clone()),
        ..opts.clone()
    };
    let classes = probe.value_classes(&prop, &with_db);
    let (twin_comp, twin_db) = twin(comp, db, &classes);
    {
        let mut t = Verifier::new(twin_comp.clone());
        let tprop = t.parse_property(property).expect("parses on the twin");
        let topts = VerifyOptions {
            database: DatabaseMode::Fixed(twin_db.clone()),
            ..opts.clone()
        };
        assert!(
            t.value_classes(&tprop, &topts).is_trivial(),
            "the twin of `{property}` still has interchangeable values"
        );
    }

    let (mut rv, reduced) = check(comp, db, property, opts);
    let (mut tv, unreduced) = check(&twin_comp, &twin_db, property, opts);
    if reduced.outcome.is_inconclusive() || unreduced.outcome.is_inconclusive() {
        return None;
    }
    assert_eq!(
        reduced.outcome.holds(),
        unreduced.outcome.holds(),
        "verdicts diverge on `{property}` ({opts:?})"
    );
    assert_eq!(
        unreduced.stats.symmetry_merges, 0,
        "the twin search is unreduced"
    );
    if reduced.outcome.holds() {
        assert!(
            reduced.stats.states_visited <= unreduced.stats.states_visited,
            "the reduced search visited more states than its twin on `{property}` ({} > {})",
            reduced.stats.states_visited,
            unreduced.stats.states_visited
        );
    }
    replay(&mut rv, db, property, opts, &reduced, "reduced");
    replay(&mut tv, &twin_db, property, opts, &unreduced, "twin");
    Some(Pair { reduced, unreduced })
}

fn base_opts() -> VerifyOptions {
    VerifyOptions {
        fresh_values: Some(1),
        max_states: common::SWARM_BUDGET,
        ..VerifyOptions::default()
    }
}

const RELAY_HOLDS: &str = "G (forall x: P0.emit(x) -> P0.token(x))";
const RELAY_VIOLATED: &str = "G (forall x: P0.emit(x) -> false)";

#[test]
fn relay_chains_match_their_twins_across_the_engine_matrix() {
    for m in 2..=4 {
        let (comp, db) = chains::nested_relay(m, 0, 0, false);
        for threads in [None, Some(2)] {
            for reduction in [Reduction::Full, Reduction::Ample] {
                for state_repr in [StateRepr::Compact, StateRepr::Legacy] {
                    let opts = VerifyOptions {
                        threads,
                        reduction,
                        state_repr,
                        ..base_opts()
                    };
                    let pair = compare(&comp, &db, RELAY_HOLDS, &opts)
                        .unwrap_or_else(|| panic!("m = {m} exceeds the budget"));
                    assert!(pair.reduced.stats.symmetry_merges > 0, "m = {m}");
                    assert!(
                        pair.reduced.stats.states_visited < pair.unreduced.stats.states_visited,
                        "m = {m} {opts:?}: {} vs {}",
                        pair.reduced.stats.states_visited,
                        pair.unreduced.stats.states_visited
                    );
                    compare(&comp, &db, RELAY_VIOLATED, &opts)
                        .unwrap_or_else(|| panic!("m = {m} exceeds the budget"));
                }
            }
        }
    }
}

#[test]
fn paper_cells_match_their_twins() {
    let nested = Semantics {
        nested_send_skips_empty: true,
        ..Semantics::default()
    };
    let mut cells: Vec<(Composition, Instance, &str)> = Vec::new();
    let mut bank = bank_loan::composition(true, nested);
    let bank_db = bank_loan::demo_database(&mut bank);
    cells.push((
        bank.clone(),
        bank_db.clone(),
        bank_loan::PROP_RATINGS_REFLECT_DB,
    ));
    cells.push((bank, bank_db, bank_loan::PROP_NO_RATING_EVER));
    let mut shop = ecommerce::composition(true, Semantics::default());
    let shop_db = ecommerce::demo_database(&mut shop);
    cells.push((
        shop.clone(),
        shop_db.clone(),
        ecommerce::PROP_CHARGES_ARE_VALID,
    ));
    cells.push((
        shop,
        shop_db,
        "G (forall card, status: Store.?charged(card, status) -> false)",
    ));
    let mut trip = travel::composition(true, nested);
    let trip_db = travel::demo_database(&mut trip);
    cells.push((trip.clone(), trip_db.clone(), travel::PROP_RESULTS_ARE_REAL));
    cells.push((
        trip,
        trip_db,
        "G (not (Portal.results(\"LIS\", \"f1\") and Portal.results(\"LIS\", \"f2\")))",
    ));
    for (comp, db, property) in &cells {
        for threads in [None, Some(2)] {
            let opts = VerifyOptions {
                threads,
                max_states: 2_000_000,
                ..base_opts()
            };
            compare(comp, db, property, &opts)
                .unwrap_or_else(|| panic!("`{property}` exceeds the budget"));
        }
    }
}

#[test]
fn swarm_cases_match_their_twins() {
    let mut symmetric = 0;
    gen::cases(200, seed_from("symmetry_twins"), |rng| {
        let case = compgen::case(rng);
        let Some(pair) = compare(
            &case.composition,
            &case.database,
            &case.property,
            &base_opts(),
        ) else {
            return;
        };
        if pair.reduced.stats.symmetry_merges > 0 {
            symmetric += 1;
        }
    });
    assert!(
        symmetric >= 10,
        "only {symmetric} of 200 cases merged anything"
    );
}

/// One peer that picks, every step, a token other than its previous pick.
/// Every step of an infinitely-picking run renames the tokens, so the
/// quotient's cycle lifts to several real laps.
fn rotor(m: usize) -> (Composition, Instance) {
    let mut b = CompositionBuilder::new();
    b.peer("P")
        .database("token", 1)
        .input("pick", 1)
        .input_rule("pick", &["x"], "token(x) and not prev_pick(x)");
    let mut comp = b.build().expect("rotor builds");
    let mut db = Instance::empty(&comp.voc);
    let token = comp.voc.lookup("P.token").expect("declared");
    for i in 0..m {
        let v = comp.symbols.intern(&format!("t{i}"));
        db.relation_mut(token).insert(Tuple::new(vec![v]));
    }
    (comp, db)
}

#[test]
fn a_multi_lap_lifted_cycle_replays() {
    let property = "F (forall x: P.pick(x) -> false)";
    let (comp, db) = rotor(3);
    for threads in [None, Some(2)] {
        for state_repr in [StateRepr::Compact, StateRepr::Legacy] {
            let opts = VerifyOptions {
                threads,
                state_repr,
                ..base_opts()
            };
            let pair = compare(&comp, &db, property, &opts).expect("decides");
            let Outcome::Violated(cex) = &pair.reduced.outcome else {
                panic!("picking forever refutes `{property}`");
            };
            // The cycle is real and revisits one orbit with the tokens
            // renamed: its snapshots all share one canonical form, yet at
            // least two of them differ.
            let mut v = Verifier::new(comp.clone());
            let prop = v.parse_property(property).expect("parses");
            let classes = v.value_classes(
                &prop,
                &VerifyOptions {
                    database: DatabaseMode::Fixed(db.clone()),
                    ..opts.clone()
                },
            );
            let orbit: Vec<_> = cex
                .cycle
                .iter()
                .map(|s| s.config.canonical(&classes).0)
                .collect();
            assert!(
                orbit.windows(2).all(|w| w[0] == w[1]),
                "one orbit around the cycle"
            );
            assert!(
                cex.cycle.windows(2).any(|w| w[0].config != w[1].config),
                "the lifted cycle renames the tokens"
            );
        }
    }
}
