//! E2 (Lemma 3.5 / Theorem 3.4): cost of verifying a composition directly
//! vs. verifying its single-peer reduction — the PTIME reduction trades
//! queue bookkeeping for state relations and scheduler input branching.
//!
//! The two checks run interleaved. The bench asserts that they return the
//! same verdict and writes each side's median and run report, plus the
//! cost ratio, to `BENCH_E2.json`.

use ddws_bench::artifact::{self, cell, fixed, Artifact};
use ddws_bench::{req_resp, unary_db};
use ddws_verifier::reduction::{
    reduce_to_single_peer, translate_database, translate_property_source,
};
use ddws_verifier::{DatabaseMode, Report, Verifier, VerifyOptions};

const PROP: &str = "G (forall x: R.?req(x) -> P.d(x))";

fn direct() -> Report {
    let mut v = Verifier::new(req_resp(true));
    let (db, _) = unary_db(v.composition_mut(), "P.d", 2);
    let opts = VerifyOptions {
        database: DatabaseMode::Fixed(db),
        fresh_values: Some(1),
        ..VerifyOptions::default()
    };
    v.check_str(PROP, &opts).unwrap()
}

fn reduced() -> Report {
    let mut helper = Verifier::new(req_resp(true));
    let (db, _) = unary_db(helper.composition_mut(), "P.d", 2);
    let mut reduced = reduce_to_single_peer(helper.composition()).unwrap();
    let rdb = translate_database(&mut reduced, helper.composition(), &db);
    let rprop = translate_property_source(&reduced, helper.composition(), PROP);
    let mut v = Verifier::new(reduced.composition);
    let opts = VerifyOptions {
        database: DatabaseMode::Fixed(rdb),
        fresh_values: Some(1),
        require_input_bounded: false,
        ..VerifyOptions::default()
    };
    v.check_str(&rprop, &opts).unwrap()
}

fn main() {
    let samples = artifact::samples(5);
    let [(direct_ns, direct_run), (reduced_ns, reduced_run)] =
        artifact::medians(samples, [&mut direct, &mut reduced]);
    let (direct_verdict, reduced_verdict) = (
        &direct_run.telemetry.outcome,
        &reduced_run.telemetry.outcome,
    );
    assert_eq!(
        direct_verdict, reduced_verdict,
        "the single-peer reduction must agree with the direct check"
    );
    let ratio = reduced_ns as f64 / direct_ns.max(1) as f64;
    println!(
        "e2_reduction: {direct_verdict} direct={direct_ns}ns reduced={reduced_ns}ns \
         ratio={ratio:.1}x"
    );
    Artifact::new("e2_reduction", false, samples)
        .field("verdict", direct_verdict.as_str())
        .field("direct", cell(direct_ns, &direct_run.telemetry))
        .field("reduced", cell(reduced_ns, &reduced_run.telemetry))
        .field("reduced_over_direct", fixed(ratio, 1))
        .write();
}
