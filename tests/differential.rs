//! Differential tests across the full engine × reduction × rule-eval
//! matrix: the sequential product-search engine (`threads: None`, CVWY
//! nested DFS) and the parallel engine (`threads: Some(n)`, work-stealing
//! reachability + SCC lasso extraction), each under `Reduction::Full` and
//! `Reduction::Ample`, each with `RuleEval::Compiled` and
//! `RuleEval::Interpreted`, across every scenario composition.
//!
//! The contract under test (see DESIGN.md, "Parallel search",
//! "Partial-order reduction" and §3.8 "Compiled rule kernels"):
//!
//! * verdicts are **engine-, reduction- and rule-eval-independent** — all
//!   sixteen combinations return the same `Holds`/`Violated` answer;
//! * counterexamples may differ between combinations, but each returned
//!   counterexample must **replay**: its run must be a legal violating
//!   lasso of the composition over the counterexample's database
//!   ([`Verifier::replay_counterexample`]);
//! * state budgets bind every engine, with overshoot bounded by the
//!   worker count, and budget aborts carry `truncated` statistics.

use ddws::scenarios::{bank_loan, chains, ecommerce, travel};
use ddws_model::Semantics;
use ddws_relational::Instance;
use ddws_verifier::{
    AbortReason, BufferReporter, DatabaseMode, Outcome, Reduction, ReporterHandle, RuleEval,
    RunReport, Verifier, VerifyOptions,
};
use std::sync::Arc;

/// The engine matrix: sequential, and parallel at 1/2/4 workers.
const ENGINES: [Option<usize>; 4] = [None, Some(1), Some(2), Some(4)];

/// The reduction matrix.
const REDUCTIONS: [Reduction; 2] = [Reduction::Full, Reduction::Ample];

/// The rule-evaluation matrix: compiled join/filter/project plans with the
/// footprint cache, and the FO interpreter they must be indistinguishable
/// from.
const RULE_EVALS: [RuleEval; 2] = [RuleEval::Compiled, RuleEval::Interpreted];

fn fixed_opts(db: Instance) -> VerifyOptions {
    VerifyOptions {
        database: DatabaseMode::Fixed(db),
        fresh_values: Some(1),
        ..VerifyOptions::default()
    }
}

fn nested_sem() -> Semantics {
    Semantics {
        nested_send_skips_empty: true,
        ..Semantics::default()
    }
}

/// Checks `property` once per engine × reduction combination, asserting the
/// expected verdict from each and replaying every returned counterexample.
fn assert_engines_agree(
    make: &dyn Fn() -> (Verifier, VerifyOptions),
    property: &str,
    expect_holds: bool,
) {
    for threads in ENGINES {
        for reduction in REDUCTIONS {
            for rule_eval in RULE_EVALS {
                let (mut v, mut opts) = make();
                opts.threads = threads;
                opts.reduction = reduction;
                opts.rule_eval = rule_eval;
                let prop = v.parse_property(property).expect("property parses");
                let report = v.check(&prop, &opts).expect("verification completes");
                assert_eq!(
                    report.outcome.holds(),
                    expect_holds,
                    "engine threads={threads:?} reduction={reduction:?} \
                     rule_eval={rule_eval:?} disagrees on {property:?}"
                );
                if let Outcome::Violated(cex) = &report.outcome {
                    v.replay_counterexample(&prop, cex, &opts)
                        .unwrap_or_else(|e| {
                            panic!(
                                "threads={threads:?} reduction={reduction:?} \
                                 rule_eval={rule_eval:?}: \
                                 counterexample does not replay: {e}\n{cex:?}"
                            )
                        });
                }
            }
        }
    }
}

fn bank_loan_setup() -> (Verifier, VerifyOptions) {
    let mut v = Verifier::new(bank_loan::composition(true, nested_sem()));
    let db = bank_loan::demo_database(v.composition_mut());
    (v, fixed_opts(db))
}

#[test]
fn bank_loan_holds_on_every_engine() {
    assert_engines_agree(&bank_loan_setup, bank_loan::PROP_RATINGS_REFLECT_DB, true);
}

#[test]
fn bank_loan_violation_replays_on_every_engine() {
    assert_engines_agree(&bank_loan_setup, bank_loan::PROP_NO_RATING_EVER, false);
}

fn ecommerce_setup() -> (Verifier, VerifyOptions) {
    let mut v = Verifier::new(ecommerce::composition(true, Semantics::default()));
    let db = ecommerce::demo_database(v.composition_mut());
    (v, fixed_opts(db))
}

#[test]
fn ecommerce_holds_on_every_engine() {
    assert_engines_agree(&ecommerce_setup, ecommerce::PROP_CHARGES_ARE_VALID, true);
}

#[test]
fn ecommerce_violation_replays_on_every_engine() {
    // The storefront does get charge confirmations: "no confirmation ever
    // arrives" is refuted by the run that buys the book with the visa.
    assert_engines_agree(
        &ecommerce_setup,
        "G (forall card, status: Store.?charged(card, status) -> false)",
        false,
    );
}

fn travel_setup() -> (Verifier, VerifyOptions) {
    let mut v = Verifier::new(travel::composition(true, nested_sem()));
    let db = travel::demo_database(v.composition_mut());
    (v, fixed_opts(db))
}

#[test]
fn travel_holds_on_every_engine() {
    assert_engines_agree(&travel_setup, travel::PROP_RESULTS_ARE_REAL, true);
}

#[test]
fn travel_violation_replays_on_every_engine() {
    // The nested `offers` channel delivers both LIS flights in one message,
    // so "never both results at once" is violated (tests/scenarios.rs
    // establishes this for the sequential engine).
    assert_engines_agree(
        &travel_setup,
        "G (not (Portal.results(\"LIS\", \"f1\") and Portal.results(\"LIS\", \"f2\")))",
        false,
    );
}

fn chains_setup() -> (Verifier, VerifyOptions) {
    let mut v = Verifier::new(chains::composition(3, true, Semantics::default()));
    let db = chains::database(v.composition_mut(), 1);
    (v, fixed_opts(db))
}

#[test]
fn chains_holds_on_every_engine() {
    let prop = chains::prop_integrity(3);
    assert_engines_agree(&chains_setup, &prop, true);
}

#[test]
fn chains_violation_replays_on_every_engine() {
    // The relay does forward the token: "P1 never receives" is refuted.
    assert_engines_agree(&chains_setup, "G (forall x: P1.?hop0(x) -> false)", false);
}

fn auditor_chain_setup() -> (Verifier, VerifyOptions) {
    let mut v = Verifier::new(chains::composition_with_auditor(
        3,
        6,
        true,
        Semantics::default(),
    ));
    let db = chains::database(v.composition_mut(), 1);
    (v, fixed_opts(db))
}

#[test]
fn auditor_chain_holds_on_every_engine() {
    // The auditor is independent of the chain, so the ample reduction
    // schedules it alone almost everywhere — the verdict must not notice.
    let prop = chains::prop_integrity(3);
    assert_engines_agree(&auditor_chain_setup, &prop, true);
}

#[test]
fn auditor_chain_violation_replays_on_every_engine() {
    assert_engines_agree(
        &auditor_chain_setup,
        "G (forall x: P1.?hop0(x) -> false)",
        false,
    );
}

#[test]
fn auditor_chain_reduction_prunes_states() {
    // The quantitative claim behind E9: on the auditor chain the ample
    // reduction visits at least 2× fewer product states than the full
    // expansion, on both engines, with the verdict unchanged.
    let prop = chains::prop_integrity(3);
    for threads in [None, Some(2)] {
        let mut stats = Vec::new();
        for reduction in REDUCTIONS {
            let (mut v, mut opts) = auditor_chain_setup();
            opts.threads = threads;
            opts.reduction = reduction;
            let report = v.check_str(&prop, &opts).expect("verification completes");
            assert!(report.outcome.holds(), "threads={threads:?}");
            stats.push(report.stats);
        }
        let (full, ample) = (stats[0], stats[1]);
        assert_eq!(full.ample_hits, 0, "full search never reduces");
        assert!(
            ample.ample_hits > 0,
            "threads={threads:?}: reduction engaged"
        );
        assert!(
            ample.states_visited * 2 <= full.states_visited,
            "threads={threads:?}: expected ≥2× fewer states, got {} vs {}",
            ample.states_visited,
            full.states_visited
        );
    }
}

#[test]
fn rule_cache_metrics_surface_on_both_engines() {
    // SearchStats must report rule-evaluation metrics under both search
    // engines: the compiled run shows cache traffic (hits after the first
    // revisit, misses for the cold evaluations) and nonzero evaluation
    // time; the interpreted run shows timing only — its meter memoizes
    // nothing, so hits stay at zero.
    let prop = chains::prop_integrity(3);
    for threads in [None, Some(2)] {
        let (mut v, mut opts) = chains_setup();
        opts.threads = threads;
        opts.rule_eval = RuleEval::Compiled;
        let compiled = v.check_str(&prop, &opts).expect("verification completes");
        assert!(compiled.outcome.holds());
        assert!(
            compiled.stats.rule_cache_hits > 0,
            "threads={threads:?}: footprint cache never hit"
        );
        assert!(
            compiled.stats.rule_cache_misses > 0,
            "threads={threads:?}: cold evaluations must miss"
        );
        assert!(
            compiled.stats.rule_eval_ns > 0,
            "threads={threads:?}: rule timing not metered"
        );

        let (mut v, mut opts) = chains_setup();
        opts.threads = threads;
        opts.rule_eval = RuleEval::Interpreted;
        let interpreted = v.check_str(&prop, &opts).expect("verification completes");
        assert!(interpreted.outcome.holds());
        assert_eq!(
            interpreted.stats.rule_cache_hits, 0,
            "threads={threads:?}: the interpreted meter memoizes nothing"
        );
        assert!(
            interpreted.stats.rule_eval_ns > 0,
            "threads={threads:?}: interpreted timing not metered"
        );
    }
}

#[test]
fn all_databases_mode_agrees_and_replays() {
    // ∃-database verification: the oracle must *decide* `P0.token` facts to
    // build a violating run, and the replayed counterexample runs over the
    // materialized decided database.
    let make = || {
        let v = Verifier::new(chains::composition(2, true, Semantics::default()));
        let opts = VerifyOptions {
            database: DatabaseMode::AllDatabases,
            fresh_values: Some(1),
            ..VerifyOptions::default()
        };
        (v, opts)
    };
    assert_engines_agree(&make, "G (forall x: P1.?hop0(x) -> false)", false);
}

#[test]
fn run_reports_are_deterministic_and_round_trip() {
    // The non-timing face of a `RunReport` is a pure function of the
    // (composition, property, options) triple: repeating a run at a fixed
    // seed reproduces it byte-for-byte after `redacted()` zeroes the phase
    // timers. The timing face must be present (a completed search took
    // time) and the canonical JSON must round-trip losslessly.
    //
    // The byte-identity claim is restricted to deterministic schedules
    // (`None` and `Some(1)`): at two or more workers the rule-cache
    // counters depend on which worker wins a footprint race, so only the
    // round-trip and timing assertions apply there.
    let prop_holds = chains::prop_integrity(3);
    for (property, expect_holds) in [
        (prop_holds.as_str(), true),
        ("G (forall x: P1.?hop0(x) -> false)", false),
    ] {
        for threads in ENGINES {
            let run = || {
                let (mut v, mut opts) = chains_setup();
                opts.threads = threads;
                v.check_str(property, &opts)
                    .expect("verification completes")
            };
            let (a, b) = (run(), run());
            assert_eq!(a.outcome.holds(), expect_holds, "threads={threads:?}");
            if matches!(threads, None | Some(1)) {
                assert_eq!(
                    a.telemetry.redacted().to_json(),
                    b.telemetry.redacted().to_json(),
                    "threads={threads:?}: non-timing report fields drifted \
                     between identical runs on {property:?}"
                );
            }
            assert!(
                a.telemetry.phases.total_ns > 0,
                "threads={threads:?}: total wall time not metered"
            );
            let parsed =
                RunReport::from_json(&a.telemetry.to_json()).expect("canonical JSON parses back");
            assert_eq!(
                parsed, a.telemetry,
                "threads={threads:?}: JSON round-trip lost information"
            );
        }
    }
}

/// The outer valuation-shard matrix: unsharded, and 1/2/4 shard slots.
const VALUATION_SHARDS: [Option<usize>; 4] = [None, Some(1), Some(2), Some(4)];

fn chains_closure_setup() -> (Verifier, VerifyOptions) {
    let mut v = Verifier::new(chains::composition(3, true, Semantics::default()));
    let db = chains::database(v.composition_mut(), 2);
    (v, fixed_opts(db))
}

/// The closure property: two universal valuations (one per token), so the
/// outer shard scheduler has real work to split. Both are live — `seen`
/// can hold either token, and the implication between two state
/// relations is not decided by the column-domain analysis — so every
/// valuation runs a real product search.
const CHAINS_CLOSURE_HOLDS: &str = "forall x: G (P2.seen(x) -> P1.seen(x))";
const CHAINS_CLOSURE_VIOLATED: &str = "forall x: G (P1.?hop0(x) -> false)";

#[test]
fn valuation_shards_agree_across_the_matrix() {
    // {vt1, vt2, vt4} cells over the engine × reduction × representation
    // matrix: the verdict is shard-count-independent, counterexamples
    // replay, and the per-shard dispatch counts sum to the batch.
    use ddws_verifier::StateRepr;
    for (property, expect_holds) in [
        (CHAINS_CLOSURE_HOLDS, true),
        (CHAINS_CLOSURE_VIOLATED, false),
    ] {
        for valuation_threads in VALUATION_SHARDS {
            for threads in [None, Some(2)] {
                for reduction in REDUCTIONS {
                    for state_repr in [StateRepr::Legacy, StateRepr::Compact] {
                        let (mut v, mut opts) = chains_closure_setup();
                        opts.valuation_threads = valuation_threads;
                        opts.threads = threads;
                        opts.reduction = reduction;
                        opts.state_repr = state_repr;
                        let prop = v.parse_property(property).expect("property parses");
                        let report = v.check(&prop, &opts).expect("verification completes");
                        let cell = format!(
                            "vt={valuation_threads:?} threads={threads:?} \
                             reduction={reduction:?} repr={state_repr:?}"
                        );
                        assert_eq!(report.outcome.holds(), expect_holds, "{cell}");
                        assert_eq!(
                            report.shard_valuations.len(),
                            valuation_threads.unwrap_or(1).max(1),
                            "{cell}: one dispatch counter per shard slot"
                        );
                        if expect_holds {
                            // Every valuation was dispatched exactly once.
                            assert_eq!(
                                report.shard_valuations.iter().sum::<u64>(),
                                report.valuations_checked as u64,
                                "{cell}: dispatch counts must sum to the batch"
                            );
                        }
                        if let Outcome::Violated(cex) = &report.outcome {
                            v.replay_counterexample(&prop, cex, &opts)
                                .unwrap_or_else(|e| {
                                    panic!("{cell}: counterexample does not replay: {e}")
                                });
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn valuation_shard_reports_are_byte_identical() {
    // The determinism contract of the shard scheduler's winner rule:
    // verdict, counters, and the whole redacted run report are
    // byte-identical across outer shard counts — a violation or budget
    // stop reports exactly the statistics the sequential valuation loop
    // would have, however many shards raced.
    for (property, expect_holds) in [
        (CHAINS_CLOSURE_HOLDS, true),
        (CHAINS_CLOSURE_VIOLATED, false),
    ] {
        let run = |valuation_threads: Option<usize>| {
            let (mut v, mut opts) = chains_closure_setup();
            opts.valuation_threads = valuation_threads;
            v.check_str(property, &opts)
                .expect("verification completes")
        };
        let baseline = run(None);
        assert_eq!(baseline.outcome.holds(), expect_holds);
        for valuation_threads in [Some(1), Some(2), Some(4)] {
            let report = run(valuation_threads);
            assert_eq!(
                report.outcome.holds(),
                expect_holds,
                "vt={valuation_threads:?}"
            );
            assert_eq!(
                report.stats.states_visited, baseline.stats.states_visited,
                "vt={valuation_threads:?}: traversal counters drifted"
            );
            assert_eq!(
                report.telemetry.redacted().to_json(),
                baseline.telemetry.redacted().to_json(),
                "vt={valuation_threads:?}: redacted report drifted from the \
                 unsharded baseline on {property:?}"
            );
        }
    }
}

#[test]
fn multi_shard_checkpoint_resumes_to_the_verdict() {
    // A budget stop under cooperative sharding (deterministic mode: a
    // virtual clock is injected) freezes *several* in-flight legs — the
    // winner plus the superseded parked shards — and `resume` drains them
    // all to the unfaulted verdict with exact cumulative statistics.
    use ddws_verifier::ManualClock;
    let mut v = Verifier::new(chains::composition(4, true, Semantics::default()));
    let db = chains::database(v.composition_mut(), 4);
    let mut opts = fixed_opts(db);
    opts.valuation_threads = Some(2);
    opts.clock = Some(Arc::new(ManualClock::new(0)));
    opts.max_states = 2000;
    // Every token is a live valuation (see `CHAINS_CLOSURE_HOLDS`).
    let prop = "forall x: G (P3.seen(x) -> P1.seen(x))";

    let report = v.check_str(prop, &opts).expect("a budget stop is a report");
    let cp = match report.outcome {
        Outcome::Inconclusive(inc) => {
            assert!(matches!(
                inc.reason,
                AbortReason::StateBudget { max_states: 2000 }
            ));
            inc.checkpoint.expect("budget stops are resumable")
        }
        other => panic!("expected a budget stop, got {other:?}"),
    };
    assert!(
        cp.shard_legs() >= 2,
        "expected the winner plus at least one superseded parked shard, \
         got {} legs",
        cp.shard_legs()
    );

    opts.max_states = 1_000_000;
    let resumed = v.resume(cp, &opts).expect("resume completes");
    assert!(resumed.outcome.holds(), "the chain property holds");
    assert_eq!(resumed.valuations_checked, 4);

    // The unsharded, unsliced baseline agrees on verdict and traversal.
    let mut v2 = Verifier::new(chains::composition(4, true, Semantics::default()));
    let db2 = chains::database(v2.composition_mut(), 4);
    let base_opts = fixed_opts(db2);
    let baseline = v2.check_str(prop, &base_opts).expect("baseline completes");
    assert!(baseline.outcome.holds());
    assert_eq!(
        resumed.stats.states_visited, baseline.stats.states_visited,
        "a multi-leg resume revisits nothing and skips nothing"
    );
}

#[test]
fn budget_abort_still_emits_a_run_report() {
    // A budget abort is an outcome, not an absence of one: the check
    // returns `Ok` with an `Inconclusive` verdict, and the reporter still
    // receives exactly one final `RunReport`, labelled `budget_exceeded`,
    // with the truncated partial counters and the abort object attached.
    let buf = Arc::new(BufferReporter::new());
    let mut v = Verifier::new(chains::composition(3, true, Semantics::default()));
    let db = chains::database(v.composition_mut(), 2);
    let mut opts = fixed_opts(db);
    opts.max_states = 60;
    opts.reporter = ReporterHandle::new(buf.clone());
    let report = v
        .check_str(&chains::prop_integrity(3), &opts)
        .expect("a budget stop is a report, not an error");
    match &report.outcome {
        Outcome::Inconclusive(inc) => {
            assert!(matches!(
                inc.reason,
                AbortReason::StateBudget { max_states: 60 }
            ));
            assert!(inc.checkpoint.is_some(), "budget stops are resumable");
        }
        other => panic!("expected an inconclusive outcome, got {other:?}"),
    }
    let reports = buf.take_reports();
    assert_eq!(reports.len(), 1, "exactly one final report per run");
    let r = &reports[0];
    assert_eq!(r.entry_point, "check");
    assert_eq!(r.outcome, "budget_exceeded");
    assert!(r.counters.truncated, "partial counters must be flagged");
    assert!(r.counters.states_visited > 60);
    let abort = r.abort.as_ref().expect("abort object attached");
    assert_eq!(abort.reason, "budget_exceeded");
    assert_eq!(abort.budget, 60);
    assert_eq!(abort.spent, r.counters.states_visited);
    assert!(abort.resumable);
}

#[test]
fn budget_exceeded_at_every_thread_count() {
    // The 3-peer chain over 2 tokens reaches far more than 60 product
    // states, so a 60-state budget must trip — promptly, on every engine,
    // with overshoot at most one state per worker and partial statistics
    // flagged as truncated.
    const BUDGET: u64 = 60;
    for threads in ENGINES {
        let mut v = Verifier::new(chains::composition(3, true, Semantics::default()));
        let db = chains::database(v.composition_mut(), 2);
        let mut opts = fixed_opts(db);
        opts.max_states = BUDGET;
        opts.threads = threads;
        let report = v
            .check_str(&chains::prop_integrity(3), &opts)
            .expect("a budget stop is a report, not an error");
        match &report.outcome {
            Outcome::Inconclusive(inc) => {
                assert!(
                    matches!(inc.reason, AbortReason::StateBudget { max_states: BUDGET }),
                    "threads={threads:?}: wrong reason {:?}",
                    inc.reason
                );
                let workers = threads.unwrap_or(1) as u64;
                let visited = report.stats.states_visited;
                assert!(visited > BUDGET, "threads={threads:?}");
                assert!(
                    visited <= BUDGET + workers + 1,
                    "threads={threads:?}: overshoot too large ({visited} states)"
                );
                assert!(
                    report.stats.truncated,
                    "threads={threads:?}: stats not flagged"
                );
                let cp = inc
                    .checkpoint
                    .as_ref()
                    .expect("budget stops carry a checkpoint");
                assert_eq!(cp.states_visited(), visited, "threads={threads:?}");
            }
            other => panic!("threads={threads:?}: expected Inconclusive, got {other:?}"),
        }
    }
}
