//! End-to-end verification of a small two-peer composition through the full
//! pipeline: builder → input-boundedness → grounding → tableau → lazy-oracle
//! product search.

use ddws_model::{Composition, CompositionBuilder, QueueKind};
use ddws_relational::{Instance, Tuple, Value};
use ddws_verifier::{DatabaseMode, RuleEval, StateRepr, Verifier, VerifyOptions};

/// Alice greets a friend (user input), sends `ping`; Bob records `seen` and
/// pongs back; Alice records `ponged`.
fn ping_pong(lossy: bool) -> Composition {
    let mut b = CompositionBuilder::new();
    b.default_lossy(lossy);
    b.channel("ping", 1, QueueKind::Flat, "Alice", "Bob");
    b.channel("pong", 1, QueueKind::Flat, "Bob", "Alice");
    b.peer("Alice")
        .database("friend", 1)
        .state("ponged", 1)
        .input("greet", 1)
        .input_rule("greet", &["x"], "friend(x)")
        .state_insert_rule("ponged", &["x"], "?pong(x)")
        .send_rule("ping", &["x"], "greet(x)");
    b.peer("Bob")
        .state("seen", 1)
        .state_insert_rule("seen", &["x"], "?ping(x)")
        .send_rule("pong", &["x"], "?ping(x)");
    b.build().unwrap()
}

fn opts() -> VerifyOptions {
    VerifyOptions {
        fresh_values: Some(2),
        ..VerifyOptions::default()
    }
}

#[test]
fn pings_only_carry_friends() {
    // Every received ping names a database friend: holds over ALL databases
    // because greet options are restricted to friends.
    let mut v = Verifier::new(ping_pong(true));
    let report = v
        .check_str("G (forall x: Bob.?ping(x) -> Alice.friend(x))", &opts())
        .unwrap();
    assert!(report.outcome.holds(), "stats: {:?}", report.stats);
    assert!(report.stats.states_visited > 0);
}

#[test]
fn some_database_delivers_a_ping() {
    // "No ping is ever received" is violated: the oracle invents a friend,
    // the user greets them, the channel delivers.
    let mut v = Verifier::new(ping_pong(true));
    let report = v
        .check_str("G (forall x: Bob.?ping(x) -> false)", &opts())
        .unwrap();
    match report.outcome {
        ddws_verifier::Outcome::Violated(cex) => {
            // The witnessing database must contain a friend.
            let friend = v.composition().voc.lookup("Alice.friend").unwrap();
            assert!(!cex.database.relation(friend).is_empty());
            assert!(!cex.cycle.is_empty());
            // Render it (smoke test for the pretty printer).
            let rendered = cex.display(v.composition()).to_string();
            assert!(rendered.contains("counterexample run"), "{rendered}");
        }
        other => panic!("expected violation, got {other:?}"),
    }
}

#[test]
fn lossy_channels_break_responsiveness() {
    // Every greeting is eventually seen by Bob — fails: the channel may
    // drop the ping (and the scheduler may never run Bob).
    let mut v = Verifier::new(ping_pong(true));
    let report = v
        .check_str("forall x: G (Alice.greet(x) -> F Bob.seen(x))", &opts())
        .unwrap();
    assert!(!report.outcome.holds());
}

#[test]
fn monotone_state_stays() {
    // `seen` has no deletion rule: once recorded, forever recorded.
    let mut v = Verifier::new(ping_pong(true));
    let report = v
        .check_str("forall x: G (Bob.seen(x) -> X Bob.seen(x))", &opts())
        .unwrap();
    assert!(report.outcome.holds());
}

#[test]
fn fixed_database_mode() {
    let comp = ping_pong(true);
    let friend = comp.voc.lookup("Alice.friend").unwrap();

    // Empty database: nobody can be greeted, no ping is ever received.
    let mut v = Verifier::new(comp);
    let empty_db = Instance::empty(&v.composition().voc);
    let report = v
        .check_str(
            "G (forall x: Bob.?ping(x) -> false)",
            &VerifyOptions {
                database: DatabaseMode::Fixed(empty_db),
                fresh_values: Some(1),
                ..VerifyOptions::default()
            },
        )
        .unwrap();
    assert!(report.outcome.holds(), "no friends, no pings");

    // One friend: a ping can arrive.
    let mut db = Instance::empty(&v.composition().voc);
    db.relation_mut(friend).insert(Tuple::new(vec![Value(0)]));
    let report = v
        .check_str(
            "G (forall x: Bob.?ping(x) -> false)",
            &VerifyOptions {
                database: DatabaseMode::Fixed(db),
                fresh_values: Some(1),
                ..VerifyOptions::default()
            },
        )
        .unwrap();
    assert!(!report.outcome.holds());
}

#[test]
fn budget_is_enforced() {
    let mut v = Verifier::new(ping_pong(true));
    let report = v
        .check_str(
            "G (forall x: Bob.?ping(x) -> Alice.friend(x))",
            &VerifyOptions {
                max_states: 10,
                fresh_values: Some(2),
                ..VerifyOptions::default()
            },
        )
        .expect("a budget stop is a report, not an error");
    match report.outcome {
        ddws_verifier::Outcome::Inconclusive(inc) => {
            assert!(matches!(
                inc.reason,
                ddws_verifier::AbortReason::StateBudget { max_states: 10 }
            ));
            let cp = inc.checkpoint.expect("budget stops are resumable");
            assert!(cp.states_visited() >= 10);
        }
        other => panic!("expected an inconclusive outcome, got {other:?}"),
    }
    assert!(report.stats.truncated);
    assert_eq!(report.telemetry.outcome, "budget_exceeded");
    let abort = report.telemetry.abort.as_ref().expect("abort object");
    assert_eq!(abort.budget, 10);
    assert!(abort.resumable);
}

#[test]
fn budget_stop_resumes_to_the_unbounded_verdict() {
    let mut v = Verifier::new(ping_pong(true));
    let property = "G (forall x: Bob.?ping(x) -> Alice.friend(x))";
    let unbounded = VerifyOptions {
        fresh_values: Some(2),
        ..VerifyOptions::default()
    };
    let expected = v.check_str(property, &unbounded).unwrap();
    for threads in [None, Some(2)] {
        let bounded = VerifyOptions {
            max_states: 10,
            threads,
            ..unbounded.clone()
        };
        let report = v.check_str(property, &bounded).unwrap();
        let cp = match report.outcome {
            ddws_verifier::Outcome::Inconclusive(inc) => inc.checkpoint.unwrap(),
            other => panic!("expected an inconclusive outcome, got {other:?}"),
        };
        assert_eq!(cp.threads(), threads);
        let resumed = v.resume(cp, &unbounded).unwrap();
        assert_eq!(
            resumed.outcome.holds(),
            expected.outcome.holds(),
            "threads={threads:?}: resume must agree with the unbounded run"
        );
        assert!(!resumed.outcome.is_inconclusive());
        assert_eq!(resumed.telemetry.entry_point, "resume");
        assert_eq!(resumed.valuations_checked, expected.valuations_checked);
    }
}

#[test]
fn resume_keeps_the_checkpointed_engine_and_representation() {
    // A checkpoint's state store fixes the rule engine and the
    // configuration representation its frozen ids belong to, so resume
    // options that name another pair are overridden.
    let mut v = Verifier::new(ping_pong(true));
    let property = "G (forall x: Bob.?ping(x) -> Alice.friend(x))";
    let oracle = VerifyOptions {
        fresh_values: Some(2),
        rule_eval: RuleEval::Interpreted,
        state_repr: StateRepr::Legacy,
        ..VerifyOptions::default()
    };
    let expected = v.check_str(property, &oracle).unwrap();
    let bounded = VerifyOptions {
        max_states: 10,
        ..oracle.clone()
    };
    let cp = match v.check_str(property, &bounded).unwrap().outcome {
        ddws_verifier::Outcome::Inconclusive(inc) => inc.checkpoint.unwrap(),
        other => panic!("expected an inconclusive outcome, got {other:?}"),
    };
    let mismatched = VerifyOptions {
        rule_eval: RuleEval::Compiled,
        state_repr: StateRepr::Compact,
        ..oracle
    };
    let resumed = v.resume(cp, &mismatched).unwrap();
    assert!(!resumed.outcome.is_inconclusive());
    assert_eq!(resumed.outcome.holds(), expected.outcome.holds());
    assert_eq!(resumed.stats.states_visited, expected.stats.states_visited);
    assert_eq!(resumed.telemetry.rule_eval, "interpreted");
    // The legacy store meters no interning; the compact one would.
    assert_eq!(resumed.stats.intern_calls, 0);
}

#[test]
fn non_input_bounded_property_rejected() {
    // ∃x over a state atom has no admissible guard (state atoms may not
    // bind quantified variables — the heart of §3.1).
    let mut v = Verifier::new(ping_pong(true));
    let err = v
        .check_str("G (exists x: Alice.ponged(x))", &opts())
        .unwrap_err();
    assert!(matches!(
        err,
        ddws_verifier::VerifyError::NotInputBounded(_)
    ));
}
