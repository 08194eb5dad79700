//! E4 (Theorem 5.4): modular verification of an open client against an
//! environment spec, vs. plain verification of the unconstrained client.
//!
//! The two checks run interleaved. The bench asserts that the
//! unconstrained check is violated and the modular one holds, and writes
//! each side's median and run report to `BENCH_E4.json`.

use ddws_bench::artifact::{self, cell, Artifact};
use ddws_model::{builder::ENV, CompositionBuilder, QueueKind};
use ddws_relational::{Instance, Tuple};
use ddws_verifier::{DatabaseMode, Report, Verifier, VerifyOptions};

const PROP: &str = "G (forall x: P.?resp(x) -> x = \"ok\")";
const ENV_SPEC: &str = "G (forall x: ENV.!resp(x) -> x = \"ok\")";

fn open_client() -> (Verifier, VerifyOptions) {
    let mut b = CompositionBuilder::new();
    b.default_lossy(true);
    b.channel("req", 1, QueueKind::Flat, "P", ENV);
    b.channel("resp", 1, QueueKind::Flat, ENV, "P");
    b.peer("P")
        .database("d", 1)
        .state("got", 1)
        .input("pick", 1)
        .input_rule("pick", &["x"], "d(x)")
        .state_insert_rule("got", &["x"], "?resp(x)")
        .send_rule("req", &["x"], "pick(x)");
    let mut v = Verifier::new(b.build().unwrap());
    let mut db = Instance::empty(&v.composition().voc);
    let ok = v.composition_mut().symbols.intern("ok");
    let d = v.composition().voc.lookup("P.d").unwrap();
    db.relation_mut(d).insert(Tuple::new(vec![ok]));
    let opts = VerifyOptions {
        database: DatabaseMode::Fixed(db),
        fresh_values: Some(1),
        ..VerifyOptions::default()
    };
    (v, opts)
}

fn unconstrained() -> Report {
    let (mut v, opts) = open_client();
    v.check_str(PROP, &opts).unwrap()
}

fn modular() -> Report {
    let (mut v, opts) = open_client();
    let property = v.parse_property(PROP).unwrap();
    let spec = v.parse_env_spec(ENV_SPEC).unwrap();
    v.check_modular(&property, &spec, &opts).unwrap()
}

fn main() {
    let samples = artifact::samples(5);
    let [(free_ns, free), (modular_ns, modular_run)] =
        artifact::medians(samples, [&mut unconstrained, &mut modular]);
    println!(
        "e4_modular: unconstrained={} {free_ns}ns modular={} {modular_ns}ns",
        free.telemetry.outcome, modular_run.telemetry.outcome
    );
    assert!(
        !free.outcome.holds(),
        "an unconstrained environment can answer anything: expected violated, got {}",
        free.telemetry.outcome
    );
    assert!(
        modular_run.outcome.holds(),
        "under the environment spec: expected holds, got {}",
        modular_run.telemetry.outcome
    );
    Artifact::new("e4_modular", false, samples)
        .field("unconstrained", cell(free_ns, &free.telemetry))
        .field("modular", cell(modular_ns, &modular_run.telemetry))
        .write();
}
