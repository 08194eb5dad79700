//! Integration tests for conversation protocols (§4) and modular
//! verification (§5) on small open/closed compositions.

use ddws_automata::{Guard, Nba};
use ddws_model::{Composition, CompositionBuilder, QueueKind};
use ddws_protocol::{automata_shapes, DataAgnosticProtocol, DataAwareProtocol, Observer};
use ddws_relational::{Instance, Tuple};
use ddws_verifier::{DatabaseMode, Outcome, Verifier, VerifyOptions};

/// Closed two-peer request/response composition.
fn req_resp(lossy: bool) -> Composition {
    let mut b = CompositionBuilder::new();
    b.default_lossy(lossy);
    b.channel("req", 1, QueueKind::Flat, "P", "R");
    b.channel("resp", 1, QueueKind::Flat, "R", "P");
    b.peer("P")
        .database("d", 1)
        .input("pick", 1)
        .input_rule("pick", &["x"], "d(x)")
        .send_rule("req", &["x"], "pick(x)");
    b.peer("R")
        .state("served", 1)
        .state_insert_rule("served", &["x"], "?req(x)")
        .send_rule("resp", &["x"], "?req(x)");
    b.build().unwrap()
}

/// Open composition: P requests from the environment and records replies.
fn open_client() -> Composition {
    let mut b = CompositionBuilder::new();
    b.default_lossy(true);
    b.channel("req", 1, QueueKind::Flat, "P", ddws_model::builder::ENV);
    b.channel("resp", 1, QueueKind::Flat, ddws_model::builder::ENV, "P");
    b.peer("P")
        .database("d", 1)
        .state("got", 1)
        .input("pick", 1)
        .input_rule("pick", &["x"], "d(x)")
        .state_insert_rule("got", &["x"], "?resp(x)")
        .send_rule("req", &["x"], "pick(x)");
    b.build().unwrap()
}

fn db_with(v: &mut Verifier, rel: &str, names: &[&str]) -> Instance {
    let comp = v.composition_mut();
    let values: Vec<_> = names.iter().map(|n| comp.symbols.intern(n)).collect();
    let mut db = Instance::empty(&comp.voc);
    let id = comp.voc.lookup(rel).unwrap();
    for val in values {
        db.relation_mut(id).insert(Tuple::new(vec![val]));
    }
    db
}

fn opts(db: Instance) -> VerifyOptions {
    VerifyOptions {
        database: DatabaseMode::Fixed(db),
        fresh_values: Some(1),
        ..VerifyOptions::default()
    }
}

// --- data-agnostic protocols (Theorem 4.2) ------------------------------

#[test]
fn no_response_before_request_holds() {
    // Protocol: no `resp` may be enqueued before the first `req`.
    // Σ = {req, resp}; automaton: ¬resp U req, or G ¬resp.
    let mut v = Verifier::new(req_resp(true));
    let db = db_with(&mut v, "P.d", &["a"]);
    // State 0: nothing seen; resp forbidden until req. req seen -> state 1
    // where everything is allowed.
    let mut nba = Nba::new(2, 2);
    nba.add_initial(0);
    nba.add_transition(0, Guard::forbid(1).and(Guard::forbid(0)), 0);
    nba.add_transition(0, Guard::require(0), 1);
    nba.add_transition(1, Guard::TOP, 1);
    nba.accepting[0] = true;
    nba.accepting[1] = true;
    let protocol = DataAgnosticProtocol::new(
        v.composition(),
        &["req", "resp"],
        nba,
        Observer::AtRecipient,
    )
    .unwrap();
    let report = v.check_data_agnostic(&protocol, &opts(db)).unwrap();
    assert!(report.outcome.holds(), "stats: {:?}", report.stats);
}

#[test]
fn response_protocol_fails_under_unfair_scheduling() {
    // "Every req is eventually followed by a resp" — the scheduler may
    // starve R (and lossy channels may drop the resp), so this fails.
    let mut v = Verifier::new(req_resp(true));
    let db = db_with(&mut v, "P.d", &["a"]);
    let nba = automata_shapes::response(2, 0, 1);
    let protocol = DataAgnosticProtocol::new(
        v.composition(),
        &["req", "resp"],
        nba,
        Observer::AtRecipient,
    )
    .unwrap();
    let report = v.check_data_agnostic(&protocol, &opts(db)).unwrap();
    match report.outcome {
        Outcome::Violated(cex) => {
            let (req, _) = v.composition().channel_by_name("req").unwrap();
            let delivered = cex
                .prefix
                .iter()
                .chain(cex.cycle.iter())
                .any(|s| s.config.received[req.index()]);
            assert!(delivered, "counterexample must contain an unanswered req");
        }
        other => panic!("expected violation, got {other:?}"),
    }
}

#[test]
fn never_protocol_on_dead_channel_holds() {
    // With an empty database nothing can be picked, so no req is ever
    // enqueued: "never req" holds.
    let mut v = Verifier::new(req_resp(true));
    let db = Instance::empty(&v.composition().voc);
    let nba = automata_shapes::never(2, 0);
    let protocol = DataAgnosticProtocol::new(
        v.composition(),
        &["req", "resp"],
        nba,
        Observer::AtRecipient,
    )
    .unwrap();
    let report = v.check_data_agnostic(&protocol, &opts(db)).unwrap();
    assert!(report.outcome.holds());
}

#[test]
fn observer_placement_distinguishes_lost_messages() {
    // "never req": at the recipient, a lost message is invisible; at the
    // source it is not. Freeze the composition so the only difference is
    // the observer. With a perfect channel both placements coincide; with a
    // lossy channel the at-source observer still sees the send.
    let mut v = Verifier::new(req_resp(true));
    let db = db_with(&mut v, "P.d", &["a"]);
    let nba = automata_shapes::never(1, 0);
    let at_recipient = DataAgnosticProtocol::new(
        v.composition(),
        &["req"],
        nba.clone(),
        Observer::AtRecipient,
    )
    .unwrap();
    let at_source =
        DataAgnosticProtocol::new(v.composition(), &["req"], nba, Observer::AtSource).unwrap();
    // Both are violated here (the message *can* arrive), but the at-source
    // violation can fire even on the loss branch; just assert both verdicts
    // are produced and agree on violation.
    let r1 = v
        .check_data_agnostic(&at_recipient, &opts(db.clone()))
        .unwrap();
    let r2 = v.check_data_agnostic(&at_source, &opts(db)).unwrap();
    assert!(!r1.outcome.holds());
    assert!(!r2.outcome.holds());
}

// --- data-aware protocols (Theorem 4.5) ----------------------------------

#[test]
fn data_aware_guard_checks_message_content() {
    // Symbol σ: "the last req message is a database value"; protocol: Gσ.
    let mut v = Verifier::new(req_resp(true));
    let db = db_with(&mut v, "P.d", &["a"]);
    let nba = {
        let mut nba = Nba::new(1, 1);
        nba.add_initial(0);
        nba.add_transition(0, Guard::require(0), 0);
        nba.accepting[0] = true;
        nba
    };
    let protocol = DataAwareProtocol::new(
        v.composition_mut(),
        &[("req_is_db_value", "forall x: P.!req(x) -> P.d(x)")],
        nba,
    )
    .unwrap();
    let report = v.check_data_aware(&protocol, &opts(db)).unwrap();
    assert!(report.outcome.holds(), "reqs are picked from the database");
}

#[test]
fn data_aware_guard_detects_violations() {
    // Protocol demanding every req equal "a" fails when the database also
    // holds "b".
    let mut v = Verifier::new(req_resp(true));
    let db = db_with(&mut v, "P.d", &["a", "b"]);
    let nba = {
        let mut nba = Nba::new(1, 1);
        nba.add_initial(0);
        nba.add_transition(0, Guard::require(0), 0);
        nba.accepting[0] = true;
        nba
    };
    let protocol = DataAwareProtocol::new(
        v.composition_mut(),
        &[("req_is_a", "forall x: P.!req(x) -> x = \"a\"")],
        nba,
    )
    .unwrap();
    let report = v.check_data_aware(&protocol, &opts(db)).unwrap();
    assert!(!report.outcome.holds());
}

#[test]
fn data_aware_violation_reports_the_whole_closure() {
    // A free guard variable: one product search per valuation of `x` over
    // {a, b, fresh}. Only x = b is violated, so the winning valuation is
    // not the last one — `valuations_checked` is still the closure size.
    let mut v = Verifier::new(req_resp(true));
    let db = db_with(&mut v, "P.d", &["a", "b"]);
    let nba = {
        let mut nba = Nba::new(1, 1);
        nba.add_initial(0);
        nba.add_transition(0, Guard::require(0), 0);
        nba.accepting[0] = true;
        nba
    };
    let protocol = DataAwareProtocol::new(
        v.composition_mut(),
        &[("req_is_a", "P.!req(x) -> x = \"a\"")],
        nba,
    )
    .unwrap();
    let b = v.composition_mut().symbols.intern("b");
    let report = v.check_data_aware(&protocol, &opts(db)).unwrap();
    match &report.outcome {
        Outcome::Violated(cex) => {
            let bound: Vec<_> = cex.valuation.iter().map(|&(_, value)| value).collect();
            assert_eq!(bound, vec![b], "the violating valuation binds x = b");
        }
        other => panic!("expected violation, got {other:?}"),
    }
    assert_eq!(report.valuations_checked, 3, "a, b and one fresh value");
    assert_eq!(report.telemetry.valuations_checked, 3);
}

// --- modular verification (Theorem 5.4) ----------------------------------

#[test]
fn environment_spec_makes_property_hold() {
    // Unconstrained environments can reply anything, so "P only records
    // \"ok\"" fails; under the spec "the environment only sends \"ok\"" it
    // holds.
    let mut v = Verifier::new(open_client());
    let db = db_with(&mut v, "P.d", &["ok"]);
    let property = v
        .parse_property("G (forall x: P.?resp(x) -> x = \"ok\")")
        .unwrap();

    // Without the spec: violated (the environment invents values).
    let report = v.check(&property, &opts(db.clone())).unwrap();
    assert!(
        !report.outcome.holds(),
        "an unconstrained environment sends arbitrary values"
    );

    // With the spec: holds.
    let spec = v
        .parse_env_spec("G (forall x: ENV.!resp(x) -> x = \"ok\")")
        .unwrap();
    let report = v.check_modular(&property, &spec, &opts(db)).unwrap();
    assert!(report.outcome.holds(), "stats: {:?}", report.stats);
}

#[test]
fn weak_environment_spec_leaves_property_violated() {
    let mut v = Verifier::new(open_client());
    let db = db_with(&mut v, "P.d", &["ok"]);
    let property = v
        .parse_property("G (forall x: P.?resp(x) -> x = \"ok\")")
        .unwrap();
    // A spec that allows two values cannot establish the property.
    let spec = v
        .parse_env_spec("G (forall x: ENV.!resp(x) -> (x = \"ok\" or x = \"bogus\"))")
        .unwrap();
    let report = v.check_modular(&property, &spec, &opts(db)).unwrap();
    assert!(!report.outcome.holds());
}

#[test]
fn non_strict_spec_rejected() {
    // A spec with a temporal operator under the closure (free variable) is
    // not strictly input-bounded (Theorem 5.5).
    let mut v = Verifier::new(open_client());
    let db = db_with(&mut v, "P.d", &["ok"]);
    let property = v
        .parse_property("G (forall x: P.?resp(x) -> x = \"ok\")")
        .unwrap();
    let spec = v
        .parse_env_spec("forall x: G (ENV.?req(x) -> F ENV.!resp(x))")
        .unwrap();
    let err = v.check_modular(&property, &spec, &opts(db)).unwrap_err();
    assert!(matches!(
        err,
        ddws_verifier::VerifyError::NotInputBounded(_)
    ));
}

#[test]
fn modular_verification_requires_open_composition() {
    let mut v = Verifier::new(req_resp(true));
    let db = db_with(&mut v, "P.d", &["a"]);
    let property = v.parse_property("G true").unwrap();
    let spec = v.parse_env_spec("G true").unwrap();
    let err = v.check_modular(&property, &spec, &opts(db)).unwrap_err();
    assert!(matches!(err, ddws_verifier::VerifyError::Unsupported(_)));
}
