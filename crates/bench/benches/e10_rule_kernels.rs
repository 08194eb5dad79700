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
//! workload, asserts the ≥2× bar per engine and writes the medians plus
//! footprint-cache hit rates to `BENCH_E10.json` at the workspace root.

use ddws::scenarios::chains;
use ddws_bench::harness::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ddws_model::Semantics;
use ddws_verifier::{DatabaseMode, Report, RuleEval, RunReport, Verifier, VerifyOptions};
use std::time::Instant;

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
/// end-to-end median wall time on both engines. The medians and the
/// footprint-cache hit rates land in `BENCH_E10.json`.
fn acceptance() {
    let samples = std::env::var("DDWS_BENCH_SAMPLES")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(5);
    let mut rows = Vec::new();
    let mut bench_report: Option<RunReport> = None;
    for (engine, threads) in ENGINES {
        let mut medians = Vec::new();
        let mut hit_rate = 0.0;
        for (_, rule_eval) in RULE_EVALS {
            let mut ns: Vec<u128> = Vec::with_capacity(samples);
            let mut last = None;
            for _ in 0..samples {
                let start = Instant::now();
                let report = check_rule_dense(threads, rule_eval);
                ns.push(start.elapsed().as_nanos());
                last = Some(report);
            }
            ns.sort_unstable();
            medians.push(ns[ns.len() / 2]);
            let report = last.expect("at least one sample");
            let stats = report.stats;
            if let RuleEval::Compiled = rule_eval {
                hit_rate = stats.rule_cache_hits as f64
                    / (stats.rule_cache_hits + stats.rule_cache_misses).max(1) as f64;
                bench_report.get_or_insert(report.telemetry);
            }
        }
        let (compiled, interpreted) = (medians[0], medians[1]);
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
        rows.push(format!(
            "    \"{engine}\": {{\n      \"compiled_median_ns\": {compiled},\n      \
             \"interpreted_median_ns\": {interpreted},\n      \
             \"speedup\": {speedup:.2},\n      \"hit_rate\": {hit_rate:.4}\n    }}"
        ));
    }
    // The bench harness is itself a reporting entry point (DESIGN.md
    // §3.9): relabel one measured run's report, validate it against the
    // schema, and keep it in the artifact.
    let bench_report = RunReport {
        entry_point: "bench".into(),
        ..bench_report.expect("at least one compiled sample")
    };
    let report_json = bench_report.to_json();
    RunReport::from_json(&report_json).expect("bench report validates against the schema");

    // E10 has no reduced scale: every run is a full-scale one.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let json = format!(
        "{{\n  \"experiment\": \"e10_rule_kernels\",\n  \"cores\": {cores},\n  \
         \"mode\": \"full\",\n  \"samples\": {samples},\n  \"scenario\": {{\n    \
         \"peers\": {PEERS},\n    \"ring\": {RING},\n    \"tokens\": {TOKENS}\n  }},\n  \
         \"engines\": {{\n{}\n  }},\n  \
         \"run_report\": {report_json}\n}}\n",
        rows.join(",\n")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_E10.json");
    std::fs::write(path, json).expect("write BENCH_E10.json");
    println!("e10_rule_kernels/acceptance: wrote {path}");
}

criterion_group!(benches, bench);
criterion_main!(benches);
