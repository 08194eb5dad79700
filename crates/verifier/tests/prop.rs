//! Randomized tests of the verifier itself. The fresh-domain and engine
//! stability check of Theorem 3.4's small-model property lives in the root
//! package's `tests/small_model.rs`, so that it runs in tier-1.

use ddws_model::{Composition, CompositionBuilder, QueueKind};
use ddws_relational::{Instance, Tuple};
use ddws_testkit::{gen, seed_from};
use ddws_verifier::{DatabaseMode, Outcome, Verifier, VerifyOptions};

fn ping(lossy: bool) -> Composition {
    let mut b = CompositionBuilder::new();
    b.default_lossy(lossy);
    b.channel("ping", 1, QueueKind::Flat, "A", "B");
    b.peer("A")
        .database("friend", 1)
        .input("greet", 1)
        .input_rule("greet", &["x"], "friend(x)")
        .send_rule("ping", &["x"], "greet(x)");
    b.peer("B")
        .state("seen", 1)
        .state_insert_rule("seen", &["x"], "?ping(x)");
    b.build().unwrap()
}

const VIOLATED: &str = "G (forall x: B.?ping(x) -> false)";

/// All-databases violation implies a fixed-database violation over the
/// counterexample's own database (the oracle's witness is replayable).
#[test]
fn oracle_witness_replays_under_fixed_database() {
    gen::cases(
        8,
        seed_from("oracle_witness_replays_under_fixed_database"),
        |rng| {
            let lossy = rng.bool();
            let mut v = Verifier::new(ping(lossy));
            let opts = VerifyOptions {
                fresh_values: Some(2),
                ..VerifyOptions::default()
            };
            let report = v.check_str(VIOLATED, &opts).unwrap();
            let Outcome::Violated(cex) = report.outcome else {
                panic!("expected violation (lossy={lossy})");
            };
            let replay = v
                .check_str(
                    VIOLATED,
                    &VerifyOptions {
                        database: DatabaseMode::Fixed(cex.database.clone()),
                        fresh_values: Some(1),
                        ..VerifyOptions::default()
                    },
                )
                .unwrap();
            assert!(
                !replay.outcome.holds(),
                "witness database must replay (lossy={lossy})"
            );
        },
    );
}

/// Fixed-database verdicts are monotone under database growth for the
/// violated reachability property: adding friends cannot *unviolate* it.
#[test]
fn violations_monotone_in_database() {
    gen::cases(8, seed_from("violations_monotone_in_database"), |rng| {
        let n = rng.range(1, 4);
        let mut v = Verifier::new(ping(true));
        let mut db = Instance::empty(&v.composition().voc);
        let friend = v.composition().voc.lookup("A.friend").unwrap();
        for i in 0..n {
            let val = v.composition_mut().symbols.intern(&format!("f{i}"));
            db.relation_mut(friend).insert(Tuple::new(vec![val]));
        }
        let report = v
            .check_str(
                VIOLATED,
                &VerifyOptions {
                    database: DatabaseMode::Fixed(db),
                    fresh_values: Some(1),
                    ..VerifyOptions::default()
                },
            )
            .unwrap();
        assert!(!report.outcome.holds(), "{n} friends");
    });
}

#[test]
fn open_composition_with_all_databases() {
    // Environment moves and the lazy oracle compose: the environment can
    // deliver any domain value, so "got only holds database values" is
    // violated regardless of the database.
    use ddws_model::builder::ENV;
    let mut b = CompositionBuilder::new();
    b.default_lossy(true);
    b.channel("resp", 1, QueueKind::Flat, ENV, "P");
    b.peer("P")
        .database("d", 1)
        .state("got", 1)
        .state_insert_rule("got", &["x"], "?resp(x)");
    let mut v = Verifier::new(b.build().unwrap());
    let report = v
        .check_str(
            "G (forall x: P.?resp(x) -> P.d(x))",
            &VerifyOptions {
                fresh_values: Some(2),
                ..VerifyOptions::default()
            },
        )
        .unwrap();
    assert!(
        !report.outcome.holds(),
        "the unconstrained environment can send values outside d"
    );
}
