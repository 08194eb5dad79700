//! E3 (Theorems 4.2 / 4.5): data-agnostic vs. data-aware conversation
//! protocol checking on the same composition.
//!
//! The two checks run interleaved. Each cell asserts the verdict it
//! returns, and each side's median and run report land in
//! `BENCH_E3.json`.

use ddws_automata::{Guard, Nba};
use ddws_bench::artifact::{self, cell, Artifact};
use ddws_bench::{req_resp, unary_db};
use ddws_protocol::{automata_shapes, DataAgnosticProtocol, DataAwareProtocol, Observer};
use ddws_verifier::{DatabaseMode, Report, Verifier, VerifyOptions};

fn verifier() -> (Verifier, VerifyOptions) {
    let mut v = Verifier::new(req_resp(true));
    let (db, _) = unary_db(v.composition_mut(), "P.d", 2);
    let opts = VerifyOptions {
        database: DatabaseMode::Fixed(db),
        fresh_values: Some(1),
        ..VerifyOptions::default()
    };
    (v, opts)
}

/// Every request is eventually answered, observed at the recipients.
fn data_agnostic() -> Report {
    let (mut v, opts) = verifier();
    let protocol = DataAgnosticProtocol::new(
        v.composition(),
        &["req", "resp"],
        automata_shapes::response(2, 0, 1),
        Observer::AtRecipient,
    )
    .unwrap();
    v.check_data_agnostic(&protocol, &opts).unwrap()
}

/// Every request carries a database value.
fn data_aware() -> Report {
    let (mut v, opts) = verifier();
    let mut nba = Nba::new(1, 1);
    nba.add_initial(0);
    nba.add_transition(0, Guard::require(0), 0);
    nba.accepting[0] = true;
    let protocol = DataAwareProtocol::new(
        v.composition_mut(),
        &[("req_is_db", "forall x: P.!req(x) -> P.d(x)")],
        nba,
    )
    .unwrap();
    v.check_data_aware(&protocol, &opts).unwrap()
}

fn main() {
    let samples = artifact::samples(5);
    let [(agnostic_ns, agnostic), (aware_ns, aware)] =
        artifact::medians(samples, [&mut data_agnostic, &mut data_aware]);
    println!(
        "e3_protocols: data_agnostic={} {agnostic_ns}ns data_aware={} {aware_ns}ns",
        agnostic.telemetry.outcome, aware.telemetry.outcome
    );
    // Lossy channels and unfair scheduling can drop a request forever, so
    // the response protocol fails; every sent request comes from `d`.
    assert!(
        !agnostic.outcome.holds(),
        "data-agnostic response: expected violated, got {}",
        agnostic.telemetry.outcome
    );
    assert!(
        aware.outcome.holds(),
        "data-aware content guard: expected holds, got {}",
        aware.telemetry.outcome
    );
    Artifact::new("e3_protocols", false, samples)
        .field("data_agnostic", cell(agnostic_ns, &agnostic.telemetry))
        .field("data_aware", cell(aware_ns, &aware.telemetry))
        .write();
}
