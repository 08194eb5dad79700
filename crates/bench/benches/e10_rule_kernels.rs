//! E10: compiled rule-evaluation kernels — the same verification workload
//! under `RuleEval::Compiled` (join/filter/project plans plus the
//! footprint-keyed step cache) and `RuleEval::Interpreted` (per-step FO
//! re-interpretation), on both the sequential nested-DFS engine and the
//! parallel engine at 2 workers.
//!
//! The workload is a 3-relay chain where every peer carries a phase rotor
//! plus never-firing audit rules with `O(ring³)`-literal ground guards —
//! ≥4 rules per peer, so rule evaluation dominates the interpreted run.
//! The bench asserts that compiled evaluation is at least 2× faster
//! end-to-end on each engine, and writes each cell's median and run
//! report plus the footprint-cache hit rates to `BENCH_E10.json` at the
//! workspace root.

use ddws::scenarios::chains;
use ddws_bench::artifact::{self, cell, fixed, Artifact, Object};
use ddws_model::Semantics;
use ddws_verifier::{DatabaseMode, Report, RuleEval, Verifier, VerifyOptions};

const ENGINES: [(&str, Option<usize>); 2] = [("seq", None), ("par2", Some(2))];

/// The rule-dense scenario shape: 3 peers (≥3), each with ≥4 rules from
/// the 8-phase rotor plus its audit pair, over a 1-token database.
const PEERS: usize = 3;
const RING: usize = 8;
const TOKENS: usize = 1;

fn opts(
    db: ddws_relational::Instance,
    threads: Option<usize>,
    rule_eval: RuleEval,
) -> VerifyOptions {
    VerifyOptions {
        database: DatabaseMode::Fixed(db),
        fresh_values: Some(1),
        threads,
        rule_eval,
        ..VerifyOptions::default()
    }
}

fn check_rule_dense(threads: Option<usize>, rule_eval: RuleEval) -> Report {
    let mut v = Verifier::new(chains::rule_dense_composition(
        PEERS,
        RING,
        true,
        Semantics::default(),
    ));
    let db = chains::database(v.composition_mut(), TOKENS);
    let report = v
        .check_str(
            &chains::prop_integrity(PEERS),
            &opts(db, threads, rule_eval),
        )
        .unwrap();
    assert!(report.outcome.holds());
    report
}

/// The E10 acceptance bar: on the rule-dense chain the compiled kernels must at least halve the
/// end-to-end median wall time on both engines. Each engine's cells and
/// the footprint-cache hit rate land in `BENCH_E10.json`.
fn main() {
    let samples = artifact::samples(5);
    let mut engines = Object::new();
    for (engine, threads) in ENGINES {
        let [(compiled, compiled_run)] = artifact::medians(
            samples,
            [&mut || check_rule_dense(threads, RuleEval::Compiled)],
        );
        let [(interpreted, interpreted_run)] = artifact::medians(
            samples,
            [&mut || check_rule_dense(threads, RuleEval::Interpreted)],
        );
        let stats = &compiled_run.stats;
        let hit_rate = stats.rule_cache_hits as f64
            / (stats.rule_cache_hits + stats.rule_cache_misses).max(1) as f64;
        let speedup = interpreted as f64 / compiled.max(1) as f64;
        println!(
            "e10_rule_kernels/acceptance/{engine}: compiled={compiled}ns \
             interpreted={interpreted}ns speedup={speedup:.2}x hit_rate={hit_rate:.4}"
        );
        assert!(
            compiled * 2 <= interpreted,
            "{engine}: expected >=2x compiled speedup, got {speedup:.2}x \
             ({compiled}ns vs {interpreted}ns)"
        );
        engines.push(
            engine,
            Object::new()
                .field("compiled", cell(compiled, &compiled_run.telemetry))
                .field("interpreted", cell(interpreted, &interpreted_run.telemetry))
                .field("speedup", fixed(speedup, 2))
                .field("hit_rate", fixed(hit_rate, 4)),
        );
    }
    // E10 has no reduced scale: every run is a full-scale one.
    Artifact::new("e10_rule_kernels", false, samples)
        .field(
            "scenario",
            Object::new()
                .field("peers", PEERS)
                .field("ring", RING)
                .field("tokens", TOKENS),
        )
        .field("engines", engines)
        .write();
}
