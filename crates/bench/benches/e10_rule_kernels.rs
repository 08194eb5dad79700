//! E10: compiled rule-evaluation kernels — the same verification workload
//! under `RuleEval::Compiled` (join/filter/project plans plus the
//! footprint-keyed step cache) and `RuleEval::Interpreted` (per-step FO
//! re-interpretation), on both the sequential nested-DFS engine and the
//! parallel engine at 2 workers.
//!
//! Two workloads bracket the compiler's range:
//!
//! * `rule_dense_holds`: a 3-relay chain where every peer carries a
//!   phase rotor plus never-firing audit rules with `O(ring³)`-literal
//!   ground guards — ≥4 rules per peer, rule evaluation dominates the
//!   interpreted run. Compiled must be at least 2× faster end-to-end here
//!   (asserted, per the E10 acceptance bar).
//! * `chains_holds`: the plain rule-sparse relay chain — measures the
//!   compiled path's overhead when there is little to win.
//!
//! After the timing groups the acceptance pass re-measures the rule-dense
//! workload, asserts the ≥2× bar per engine and writes each cell's median
//! and run report plus the footprint-cache hit rates to `BENCH_E10.json`
//! at the workspace root.

use ddws::scenarios::chains;
use ddws_bench::artifact::{self, cell, fixed, Artifact, Object};
use ddws_bench::harness::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ddws_model::Semantics;
use ddws_verifier::{DatabaseMode, Report, RuleEval, Verifier, VerifyOptions};

const ENGINES: [(&str, Option<usize>); 2] = [("seq", None), ("par2", Some(2))];
const RULE_EVALS: [(&str, RuleEval); 2] = [
    ("compiled", RuleEval::Compiled),
    ("interpreted", RuleEval::Interpreted),
];

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

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("e10_rule_kernels");
    group.sample_size(10);

    for (engine, threads) in ENGINES {
        for (eval_name, rule_eval) in RULE_EVALS {
            group.bench_with_input(
                BenchmarkId::new("rule_dense_holds", format!("{engine}/{eval_name}")),
                &(threads, rule_eval),
                |b, &(threads, rule_eval)| {
                    b.iter(|| check_rule_dense(threads, rule_eval).stats.states_visited)
                },
            );
        }
    }

    for (engine, threads) in ENGINES {
        for (eval_name, rule_eval) in RULE_EVALS {
            group.bench_with_input(
                BenchmarkId::new("chains_holds", format!("{engine}/{eval_name}")),
                &(threads, rule_eval),
                |b, &(threads, rule_eval)| {
                    b.iter(|| {
                        let mut v =
                            Verifier::new(chains::composition(3, true, Semantics::default()));
                        let db = chains::database(v.composition_mut(), 2);
                        let report = v
                            .check_str(&chains::prop_integrity(3), &opts(db, threads, rule_eval))
                            .unwrap();
                        assert!(report.outcome.holds());
                        report.stats.states_visited
                    })
                },
            );
        }
    }

    group.finish();

    acceptance();
}

/// The E10 acceptance bar, measured once outside the timing loops: on the
/// rule-dense chain the compiled kernels must at least halve the
/// end-to-end median wall time on both engines. Each engine's cells and
/// the footprint-cache hit rate land in `BENCH_E10.json`.
fn acceptance() {
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

criterion_group!(benches, bench);
criterion_main!(benches);
