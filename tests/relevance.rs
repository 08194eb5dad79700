//! Soundness evidence for the column-domain analysis
//! (`ddws_verifier::relevance`, DESIGN.md §3.13.1).
//!
//! The analysis claims every tuple of every relation in every reachable
//! snapshot lies in the product of that relation's column sets. These
//! tests check the claim against an exhaustive breadth-first walk of the
//! reachable configurations through the legacy stepper
//! (`Composition::initial_configs_with` / `successors_with` with the
//! interpreted evaluation context), which shares no code with the
//! analysis: the compgen swarm plus the bank-loan, e-commerce, travel,
//! relay and open request/response cells, each under the observation masks `check` applies for the
//! cell's property. Each walk is checked against the analysis of its
//! fixed database and against the all-databases analysis, of which the
//! fixed database is one instance.

use ddws::scenarios::{bank_loan, chains, ecommerce, travel};
use ddws_model::builder::ENV;
use ddws_model::{Composition, CompositionBuilder, Config, EvalCtx, QueueKind, Semantics};
use ddws_relational::{Instance, RelId, Tuple, Value};
use ddws_testkit::{compgen, gen, seed_from};
use ddws_verifier::relevance::ColumnDomains;
use ddws_verifier::{DatabaseMode, Verifier, VerifyOptions};
use std::collections::{BTreeSet, HashSet, VecDeque};

/// Reachable configurations one walk may visit before the test calls the
/// cell too large to be exhaustive.
const WALK_CAP: usize = 200_000;

/// The verification domain `check` would use for `property`, and the
/// relations the property observes.
fn domain_and_observed(
    comp: &Composition,
    db: &Instance,
    property: &str,
) -> (Vec<Value>, BTreeSet<RelId>) {
    let mut v = Verifier::new(comp.clone());
    let sentence = v.parse_property(property).expect("property parses");
    let opts = VerifyOptions {
        database: DatabaseMode::Fixed(db.clone()),
        fresh_values: Some(1),
        ..VerifyOptions::default()
    };
    let mut observed = BTreeSet::new();
    sentence
        .body
        .visit_fo(&mut |fo| observed.extend(fo.relations()));
    (v.domain_for(&sentence, &opts), observed)
}

/// Every reachable configuration of `comp` over `db`, breadth first.
fn reachable(comp: &Composition, db: &Instance, domain: &[Value]) -> Vec<Config> {
    let mut seen: HashSet<Config> = HashSet::new();
    let mut queue: VecDeque<Config> = VecDeque::new();
    for c in comp.initial_configs_with(db, domain, EvalCtx::default()) {
        if seen.insert(c.clone()) {
            queue.push_back(c);
        }
    }
    let movers = comp.movers();
    while let Some(c) = queue.pop_front() {
        for &mover in &movers {
            for s in comp.successors_with(db, domain, &c, mover, EvalCtx::default()) {
                if seen.insert(s.clone()) {
                    assert!(
                        seen.len() <= WALK_CAP,
                        "walk exceeded {WALK_CAP} configurations"
                    );
                    queue.push_back(s);
                }
            }
        }
    }
    seen.into_iter().collect()
}

/// Asserts every tuple of every snapshot (stored relations, every queued
/// message on both channel ends, the database) lies in the column sets.
fn assert_snapshots_admitted(
    label: &str,
    comp: &Composition,
    db: &Instance,
    configs: &[Config],
    domains: &ColumnDomains<'_>,
) {
    let check = |what: &str, rel, tuple: &[Value]| {
        assert!(
            domains.admits(rel, tuple),
            "{label}: {what} tuple {tuple:?} of `{}` lies outside the computed column sets",
            comp.voc.name(rel)
        );
    };
    for (rel, _) in comp.voc.iter() {
        for t in db.relation(rel).iter() {
            check("database", rel, t.values());
        }
    }
    for config in configs {
        for (rel, _) in comp.voc.iter() {
            for t in config.rel.relation(rel).iter() {
                check("stored", rel, t.values());
            }
        }
        for (i, ch) in comp.channels.iter().enumerate() {
            for msg in &config.queues[i] {
                for t in msg.as_relation().iter() {
                    for rel in std::iter::once(ch.out_rel).chain(ch.in_rel) {
                        check("queued", rel, t.values());
                    }
                }
            }
        }
    }
}

/// Walks one cell, under the observation masks `check` applies for
/// `property`, and checks it against both database modes.
fn assert_cell_sound(label: &str, comp: &Composition, db: &Instance, property: &str) -> usize {
    let (domain, observed) = domain_and_observed(comp, db, property);
    let mut comp = comp.clone();
    comp.observe_flags(&observed);
    comp.freeze_unobserved(&observed);
    let comp = &comp;
    let configs = reachable(comp, db, &domain);
    let fixed = ColumnDomains::analyze(comp, Some(db));
    assert_snapshots_admitted(&format!("{label} (fixed)"), comp, db, &configs, &fixed);
    let all = ColumnDomains::analyze(comp, None);
    assert_snapshots_admitted(
        &format!("{label} (all databases)"),
        comp,
        db,
        &configs,
        &all,
    );
    configs.len()
}

#[test]
fn column_sets_cover_every_reachable_snapshot_of_200_random_cases() {
    gen::cases(200, seed_from("relevance_soundness_walk"), |rng| {
        let case = compgen::case(rng);
        assert_cell_sound(
            &format!("compgen `{}`", case.property),
            &case.composition,
            &case.database,
            &case.property,
        );
    });
}

#[test]
fn column_sets_cover_every_reachable_snapshot_of_the_paper_cells() {
    let nested = Semantics {
        nested_send_skips_empty: true,
        ..Semantics::default()
    };
    let mut bank = bank_loan::composition(true, nested);
    let bank_db = bank_loan::demo_database(&mut bank);
    let mut shop = ecommerce::composition(true, Semantics::default());
    let shop_db = ecommerce::demo_database(&mut shop);
    let mut trip = travel::composition(true, nested);
    let trip_db = travel::demo_database(&mut trip);
    for (label, comp, db, property) in [
        (
            "bank loan",
            &bank,
            &bank_db,
            bank_loan::PROP_EVERY_APPLICATION_ANSWERED,
        ),
        (
            "e-commerce",
            &shop,
            &shop_db,
            ecommerce::PROP_CHARGES_ARE_VALID,
        ),
        ("travel", &trip, &trip_db, travel::PROP_RESULTS_ARE_REAL),
    ] {
        let configs = assert_cell_sound(label, comp, db, property);
        assert!(
            configs > 1,
            "{label}: the walk never left the initial configurations"
        );
    }
}

#[test]
fn column_sets_cover_every_reachable_snapshot_of_the_relay_cells() {
    let lookback = Semantics {
        lookback: 2,
        ..Semantics::default()
    };
    let integrity = chains::prop_integrity(3);
    // Observing the lookback chain keeps it from being frozen, so the
    // walk fills `prev_emit` and `prev2_emit`.
    let remembers = "G (forall x: P0.prev2_emit(x) -> P0.prev_emit(x))";
    for (label, mut comp, property) in [
        (
            "relay",
            chains::composition(3, true, Semantics::default()),
            integrity.as_str(),
        ),
        (
            "relay, lookback 2",
            chains::composition(3, true, lookback),
            remembers,
        ),
        (
            "relay with auditor",
            chains::composition_with_auditor(3, 3, true, Semantics::default()),
            integrity.as_str(),
        ),
    ] {
        let db = chains::database(&mut comp, 2);
        let configs = assert_cell_sound(label, &comp, &db, property);
        assert!(
            configs > 1,
            "{label}: the walk never left the initial configurations"
        );
    }
}

#[test]
fn column_sets_cover_every_reachable_snapshot_of_an_open_composition() {
    // The environment answers requests with any domain value, so the
    // channel it feeds, and everything recorded from it, is unbounded.
    let mut b = CompositionBuilder::new();
    b.channel("req", 1, QueueKind::Flat, "P", ENV);
    b.channel("resp", 1, QueueKind::Flat, ENV, "P");
    b.peer("P")
        .database("d", 1)
        .state("got", 1)
        .state_insert_rule("got", &["x"], "?resp(x)")
        .input("ask", 1)
        .input_rule("ask", &["x"], "d(x)")
        .send_rule("req", &["x"], "ask(x)");
    let mut comp = b.build().expect("open composition builds");
    let mut db = Instance::empty(&comp.voc);
    let d = comp.voc.lookup("P.d").expect("declared");
    let a = comp.symbols.intern("a");
    db.relation_mut(d).insert(Tuple::new(vec![a]));
    let configs = assert_cell_sound(
        "open request/response",
        &comp,
        &db,
        "G (forall x: P.got(x) -> P.d(x))",
    );
    assert!(
        configs > 1,
        "the walk never left the initial configurations"
    );
}
