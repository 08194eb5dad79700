//! Metamorphic invariants over the telemetry counters (DESIGN.md §3.9).
//!
//! Every completed verification must satisfy, regardless of engine,
//! reduction, or rule-evaluation mode:
//!
//! * `rule_cache_hits + rule_cache_misses == rule_evals` — every metered
//!   evaluation books exactly one cache outcome;
//! * under `Reduction::Full`, `ample_hits == full_expansions == 0`;
//! * under an *active* ample reduction, `ample_hits + full_expansions ==
//!   states_expanded` — every expansion is classified (when the reduction
//!   gates itself off, e.g. for an `X`-shaped property, both sides are 0);
//! * the `RunReport` counters equal `Counters::from_stats(&report.stats)`
//!   — the report is the stats, not a second bookkeeping path;
//! * sharded-merge totals are exact: the parallel engine's worker-local
//!   counters, merged at join, give the same `states_visited` /
//!   `states_expanded` / `transitions_explored` at every worker count
//!   (the full exploration is schedule-independent), and the same
//!   `states_visited` as the sequential engine on `Holds` verdicts;
//! * on a sequential both-`Holds` pair, the ample search visits no more
//!   states than the full search.
//!
//! Exercised over the 200-case random swarm and the scenario library.

mod common;

use ddws::scenarios::{bank_loan, chains, ecommerce, travel};
use ddws_model::Semantics;
use ddws_relational::Instance;
use ddws_testkit::faults::{FaultPlan, INJECTED_PANIC};
use ddws_testkit::{compgen, gen, seed_from};
use ddws_verifier::{
    BufferReporter, CancelToken, Counters, DatabaseMode, Outcome, Reduction, Report,
    ReporterHandle, RunReport, StateRepr, Verifier, VerifyError, VerifyOptions,
};
use std::sync::Arc;
use std::time::Duration;

fn run_case(case: &compgen::Case, threads: Option<usize>, reduction: Reduction) -> Option<Report> {
    run_case_sharded(case, threads, None, reduction)
}

fn run_case_sharded(
    case: &compgen::Case,
    threads: Option<usize>,
    valuation_threads: Option<usize>,
    reduction: Reduction,
) -> Option<Report> {
    let mut v = Verifier::new(case.composition.clone());
    let opts = VerifyOptions {
        database: DatabaseMode::Fixed(case.database.clone()),
        fresh_values: Some(1),
        max_states: common::SWARM_BUDGET,
        threads,
        valuation_threads,
        reduction,
        ..VerifyOptions::default()
    };
    match v.check_str(&case.property, &opts) {
        Ok(r) if r.outcome.is_inconclusive() => None,
        Ok(r) => Some(r),
        Err(e) => panic!("unverifiable case `{}`: {e}", case.property),
    }
}

/// The per-run invariants every completed check must satisfy.
fn assert_run_invariants(report: &Report, reduction: Reduction, label: &str) {
    let c = &report.telemetry.counters;
    assert_eq!(
        *c,
        Counters::from_stats(&report.stats),
        "{label}: RunReport counters diverge from Report stats"
    );
    assert!(!c.truncated, "{label}: completed run flagged truncated");
    assert_eq!(
        c.rule_cache_hits + c.rule_cache_misses,
        c.rule_evals,
        "{label}: every metered rule evaluation books exactly one cache outcome"
    );
    match reduction {
        Reduction::Full => {
            assert_eq!(c.ample_hits, 0, "{label}: full search never reduces");
            assert_eq!(
                c.full_expansions, 0,
                "{label}: full search never classifies"
            );
        }
        Reduction::Ample => {
            if c.ample_hits + c.full_expansions > 0 {
                assert_eq!(
                    c.ample_hits + c.full_expansions,
                    c.states_expanded,
                    "{label}: active reduction must classify every expansion"
                );
            }
        }
    }
    assert_eq!(report.telemetry.entry_point, "check", "{label}");
    assert_eq!(
        report.telemetry.valuations_checked as usize, report.valuations_checked,
        "{label}"
    );
    assert_eq!(
        report.telemetry.domain_size as usize,
        report.domain.len(),
        "{label}"
    );
}

#[test]
fn stats_invariants_hold_on_200_swarm_cases() {
    gen::cases(200, seed_from("telemetry_invariants"), |rng| {
        let case = compgen::case(rng);

        let seq_full = run_case(&case, None, Reduction::Full);
        let seq_ample = run_case(&case, None, Reduction::Ample);
        let par_full: Vec<Option<Report>> = [Some(1), Some(2), Some(4)]
            .into_iter()
            .map(|t| run_case(&case, t, Reduction::Full))
            .collect();
        let par2_ample = run_case(&case, Some(2), Reduction::Ample);
        let vt2_full = run_case_sharded(&case, None, Some(2), Reduction::Full);

        let labelled = [
            ("seq/full", Reduction::Full, &seq_full),
            ("seq/ample", Reduction::Ample, &seq_ample),
            ("par1/full", Reduction::Full, &par_full[0]),
            ("par2/full", Reduction::Full, &par_full[1]),
            ("par4/full", Reduction::Full, &par_full[2]),
            ("par2/ample", Reduction::Ample, &par2_ample),
            ("vt2/full", Reduction::Full, &vt2_full),
        ];
        for (label, reduction, report) in labelled {
            if let Some(r) = report {
                assert_run_invariants(r, reduction, &format!("{label} `{}`", case.property));
            }
        }

        // Sharded-merge exactness: the parallel engine always explores the
        // full reachable product (the lasso analysis runs after the
        // exploration), so at any worker count the merged totals must be
        // identical — scheduling moves work between shards, never creates
        // or loses it.
        let completed_par: Vec<&Report> = par_full.iter().flatten().collect();
        for pair in completed_par.windows(2) {
            let (a, b) = (&pair[0].stats, &pair[1].stats);
            assert_eq!(a.states_visited, b.states_visited, "`{}`", case.property);
            assert_eq!(a.states_expanded, b.states_expanded, "`{}`", case.property);
            assert_eq!(
                a.transitions_explored, b.transitions_explored,
                "`{}`",
                case.property
            );
        }

        // Outer sharding moves valuations between workers, never work
        // between searches: with the same (sequential) inner engine, the
        // sharded closure's merged traversal counters must equal the
        // unsharded loop's exactly — on `Holds` because every valuation
        // runs to completion either way, and on `Violated` because the
        // deterministic winner rule books the same prefix-plus-winner
        // stats at any shard count.
        if let (Some(sf), Some(vt)) = (&seq_full, &vt2_full) {
            assert_eq!(
                sf.outcome.holds(),
                vt.outcome.holds(),
                "sharded closure verdict diverges on `{}`",
                case.property
            );
            assert_eq!(
                (sf.stats.states_visited, sf.stats.transitions_explored),
                (vt.stats.states_visited, vt.stats.transitions_explored),
                "sharded closure traversal diverges on `{}`",
                case.property
            );
        }

        // On `Holds` the sequential engine also explores everything, so its
        // visited count must equal the parallel engines'.
        if let Some(sf) = &seq_full {
            if sf.outcome.holds() {
                for pf in &completed_par {
                    assert_eq!(
                        sf.stats.states_visited, pf.stats.states_visited,
                        "sharded merge diverges from the sequential total on `{}`",
                        case.property
                    );
                }
            }
            // Reduction soundness, quantitatively: on a both-`Holds` pair
            // the ample search explores a subgraph.
            if let Some(sa) = &seq_ample {
                if sf.outcome.holds() && sa.outcome.holds() {
                    assert!(
                        sa.stats.states_visited <= sf.stats.states_visited,
                        "ample visited more states than full on `{}` ({} > {})",
                        case.property,
                        sa.stats.states_visited,
                        sf.stats.states_visited
                    );
                }
            }
        }
    });
}

fn run_case_repr(
    case: &compgen::Case,
    threads: Option<usize>,
    reduction: Reduction,
    state_repr: StateRepr,
) -> Option<Report> {
    let mut v = Verifier::new(case.composition.clone());
    let opts = VerifyOptions {
        database: DatabaseMode::Fixed(case.database.clone()),
        fresh_values: Some(1),
        max_states: common::SWARM_BUDGET,
        threads,
        reduction,
        state_repr,
        ..VerifyOptions::default()
    };
    match v.check_str(&case.property, &opts) {
        Ok(r) if r.outcome.is_inconclusive() => None,
        Ok(r) => Some(r),
        Err(e) => panic!("unverifiable case `{}`: {e}", case.property),
    }
}

/// The interning meters' invariants (DESIGN.md §3.12):
///
/// * `intern_hits + intern_misses == intern_calls` on every compact run —
///   each intern call books exactly one table outcome — and all three are
///   zero under `StateRepr::Legacy`;
/// * the interner's sharded merge is exact where the representation is
///   deterministic: each distinct extension or configuration books exactly
///   one miss regardless of scheduling (a concurrent intern race books the
///   loser a *hit*), so under `Reduction::Full` — where the explored
///   graph is worker-count-independent — `intern_misses` is identical
///   across par1 / par2 / par4. (`intern_calls`/`intern_hits` may differ
///   by benign step-cache races: two workers both computing a not-yet-
///   cached expansion both intern its successors.);
/// * the representation never leaks into reporting: on deterministic
///   (sequential) runs the `redacted()` run reports of a compact and a
///   legacy check are byte-identical — interned states must change how
///   the search stores configurations, not what it reports.
#[test]
fn interner_counters_are_coherent_and_invisible_to_reports() {
    gen::cases(60, seed_from("telemetry_intern_invariants"), |rng| {
        let case = compgen::case(rng);

        let compact_par: Vec<Option<Report>> = [Some(1), Some(2), Some(4)]
            .into_iter()
            .map(|t| run_case_repr(&case, t, Reduction::Full, StateRepr::Compact))
            .collect();
        let compact_seq = run_case_repr(&case, None, Reduction::Full, StateRepr::Compact);
        let legacy_seq = run_case_repr(&case, None, Reduction::Full, StateRepr::Legacy);

        for (label, report) in [
            ("seq", &compact_seq),
            ("par1", &compact_par[0]),
            ("par2", &compact_par[1]),
            ("par4", &compact_par[2]),
        ] {
            if let Some(r) = report {
                assert_eq!(
                    r.stats.intern_hits + r.stats.intern_misses,
                    r.stats.intern_calls,
                    "{label}: every intern call books exactly one outcome on `{}`",
                    case.property
                );
                // A zero-valuation check never boots a search; any actual
                // exploration must have interned its states.
                if r.stats.states_visited > 0 {
                    assert!(
                        r.stats.intern_calls > 0,
                        "{label}: a compact search never touched the interner on `{}`",
                        case.property
                    );
                }
            }
        }
        if let Some(r) = &legacy_seq {
            assert_eq!(
                (
                    r.stats.intern_calls,
                    r.stats.intern_hits,
                    r.stats.intern_misses
                ),
                (0, 0, 0),
                "legacy run books intern traffic on `{}`",
                case.property
            );
        }

        // Sharded-merge exactness across worker counts: the distinct-entry
        // count (== misses) never depends on scheduling.
        let completed: Vec<&Report> = compact_par.iter().flatten().collect();
        for pair in completed.windows(2) {
            let (a, b) = (&pair[0].stats, &pair[1].stats);
            assert_eq!(
                a.intern_misses, b.intern_misses,
                "distinct interned entries diverge across worker counts on `{}`",
                case.property
            );
        }
        // And the sequential run books exactly the same distinct entries
        // as any parallel run (both explore the full reachable product).
        if let (Some(s), Some(p)) = (&compact_seq, completed.first()) {
            if s.outcome.holds() {
                assert_eq!(
                    s.stats.intern_misses, p.stats.intern_misses,
                    "seq/par distinct interned entries diverge on `{}`",
                    case.property
                );
            }
        }

        // Representation-blind reporting: identical redacted reports.
        if let (Some(c), Some(l)) = (&compact_seq, &legacy_seq) {
            let (c, l) = (c.telemetry.redacted(), l.telemetry.redacted());
            assert_eq!(
                c, l,
                "redacted reports differ between representations on `{}`",
                case.property
            );
            assert_eq!(
                format!("{:?}", c.to_json_value()),
                format!("{:?}", l.to_json_value()),
                "serialized redacted reports differ between representations on `{}`",
                case.property
            );
        }
    });
}

type Setup = Box<dyn Fn() -> (Verifier, Instance)>;

#[test]
fn stats_invariants_hold_on_the_scenario_library() {
    let setups: Vec<(&str, Setup, String)> = vec![
        (
            "bank_loan",
            Box::new(|| {
                let mut v = Verifier::new(bank_loan::composition(
                    true,
                    Semantics {
                        nested_send_skips_empty: true,
                        ..Semantics::default()
                    },
                ));
                let db = bank_loan::demo_database(v.composition_mut());
                (v, db)
            }),
            bank_loan::PROP_RATINGS_REFLECT_DB.to_string(),
        ),
        (
            "ecommerce",
            Box::new(|| {
                let mut v = Verifier::new(ecommerce::composition(true, Semantics::default()));
                let db = ecommerce::demo_database(v.composition_mut());
                (v, db)
            }),
            ecommerce::PROP_CHARGES_ARE_VALID.to_string(),
        ),
        (
            "travel",
            Box::new(|| {
                let mut v = Verifier::new(travel::composition(
                    true,
                    Semantics {
                        nested_send_skips_empty: true,
                        ..Semantics::default()
                    },
                ));
                let db = travel::demo_database(v.composition_mut());
                (v, db)
            }),
            travel::PROP_RESULTS_ARE_REAL.to_string(),
        ),
        (
            "chains",
            Box::new(|| {
                let mut v = Verifier::new(chains::composition(3, true, Semantics::default()));
                let db = chains::database(v.composition_mut(), 1);
                (v, db)
            }),
            chains::prop_integrity(3),
        ),
        (
            "auditor_chain",
            Box::new(|| {
                let mut v = Verifier::new(chains::composition_with_auditor(
                    3,
                    6,
                    true,
                    Semantics::default(),
                ));
                let db = chains::database(v.composition_mut(), 1);
                (v, db)
            }),
            chains::prop_integrity(3),
        ),
    ];

    for (name, setup, property) in &setups {
        for threads in [None, Some(2)] {
            for reduction in [Reduction::Full, Reduction::Ample] {
                let (mut v, db) = setup();
                let opts = VerifyOptions {
                    database: DatabaseMode::Fixed(db),
                    fresh_values: Some(1),
                    threads,
                    reduction,
                    ..VerifyOptions::default()
                };
                let report = v
                    .check_str(property, &opts)
                    .expect("scenario verification completes");
                assert_run_invariants(
                    &report,
                    reduction,
                    &format!("{name} threads={threads:?} reduction={reduction:?}"),
                );
            }
        }
    }
}

/// Asserts the report validates against the documented schema and carries
/// the expected entry-point label, returning it for further checks.
// One report per run, schema-valid, round-trippable, coherent counters,
// pinned entry point and outcome label — shared with the fault swarm and
// the deterministic simulator.
use common::assert_labelled;
use common::{
    db_backed_protocol, modular_fixture, protocol_fixture, response_protocol, MODULAR_PROP,
    MODULAR_SPEC,
};

#[test]
fn every_entry_point_emits_a_labelled_report() {
    // `check`: the bank-loan scenario.
    let buf = Arc::new(BufferReporter::new());
    {
        let mut v = Verifier::new(bank_loan::composition(
            true,
            Semantics {
                nested_send_skips_empty: true,
                ..Semantics::default()
            },
        ));
        let db = bank_loan::demo_database(v.composition_mut());
        let opts = VerifyOptions {
            database: DatabaseMode::Fixed(db),
            fresh_values: Some(1),
            reporter: ReporterHandle::new(buf.clone()),
            ..VerifyOptions::default()
        };
        let report = v
            .check_str(bank_loan::PROP_RATINGS_REFLECT_DB, &opts)
            .expect("check completes");
        assert!(report.outcome.holds());
        let r = assert_labelled(buf.take_reports(), "check", "holds");
        assert_eq!(r, report.telemetry, "reporter copy equals the Report copy");
    }

    // `check_modular`: the open officer composition from examples/modular_loan.
    {
        let (mut v, db) = modular_fixture();
        let opts = VerifyOptions {
            database: DatabaseMode::Fixed(db),
            fresh_values: Some(1),
            reporter: ReporterHandle::new(buf.clone()),
            ..VerifyOptions::default()
        };
        let property = v.parse_property(MODULAR_PROP).unwrap();
        let spec = v.parse_env_spec(MODULAR_SPEC).unwrap();
        let report = v
            .check_modular(&property, &spec, &opts)
            .expect("modular check completes");
        assert!(report.outcome.holds());
        let r = assert_labelled(buf.take_reports(), "check_modular", "holds");
        assert_eq!(r, report.telemetry);
    }

    // The protocol entry points: the request/response composition from
    // examples/protocol_check.
    {
        let (mut v, db) = protocol_fixture();
        let opts = VerifyOptions {
            database: DatabaseMode::Fixed(db),
            fresh_values: Some(1),
            reporter: ReporterHandle::new(buf.clone()),
            ..VerifyOptions::default()
        };

        // `protocol_data_agnostic`: G(getRating -> F rating), violated
        // under lossy channels.
        let response = response_protocol(&v);
        let report = v
            .check_data_agnostic(&response, &opts)
            .expect("data-agnostic check completes");
        assert!(!report.outcome.holds());
        let r = assert_labelled(buf.take_reports(), "protocol_data_agnostic", "violated");
        assert_eq!(r, report.telemetry);

        // `protocol_data_aware`: every rating message is database-backed.
        let aware = db_backed_protocol(&mut v);
        let report = v
            .check_data_aware(&aware, &opts)
            .expect("data-aware check completes");
        let label = if report.outcome.holds() {
            "holds"
        } else {
            "violated"
        };
        let r = assert_labelled(buf.take_reports(), "protocol_data_aware", label);
        assert_eq!(r, report.telemetry);
    }
}

#[test]
fn abort_reports_are_labelled_on_every_entry_point() {
    common::silence_injected_panics();
    let buf = Arc::new(BufferReporter::new());

    // Each abort trigger as an options mutation. `max_states: 1` trips on
    // every entry point (each product search visits at least two states);
    // the deadline and cancel stops fire before the first expansion, and
    // the injected panic at the first expansion.
    let arm = |label: &str, opts: &mut VerifyOptions| match label {
        "budget_exceeded" => opts.max_states = 1,
        "deadline_exceeded" => opts.deadline = Some(Duration::ZERO),
        "worker_panicked" => opts.fault_hook = FaultPlan::Panic(1).arm().hook,
        _ => {
            let token = CancelToken::new();
            token.cancel("cancelled before the run");
            opts.cancel_token = Some(token);
        }
    };
    // A graceful stop is an `Ok` Inconclusive report (with a checkpoint
    // exactly when the entry point is resumable); a panic is
    // `Err(WorkerPanicked)` carrying the report the reporter saw. Either
    // way exactly one schema-valid report is emitted, labelled for the
    // stop, with partial counters.
    let assert_abort = |result: Result<Report, VerifyError>,
                        entry: &str,
                        label: &str,
                        resumable: bool|
     -> RunReport {
        let reports = buf.take_reports();
        let resumable = resumable && label != "worker_panicked";
        let attached = match result {
            Ok(report) => {
                assert!(
                    matches!(&report.outcome, Outcome::Inconclusive(inc)
                        if inc.checkpoint.is_some() == resumable),
                    "{entry}/{label}: got {:?}",
                    report.outcome
                );
                report.telemetry
            }
            Err(VerifyError::WorkerPanicked {
                payload, report, ..
            }) => {
                assert!(
                    payload.contains(INJECTED_PANIC),
                    "{entry}/{label}: unexpected panic {payload}"
                );
                *report
            }
            Err(e) => panic!("{entry}/{label}: unexpected error {e}"),
        };
        let r = assert_labelled(reports, entry, label);
        assert_eq!(r, attached, "{entry}/{label}: reporter copy differs");
        assert!(
            r.counters.truncated,
            "{entry}/{label}: partial counters not flagged"
        );
        let abort = r
            .abort
            .as_ref()
            .unwrap_or_else(|| panic!("{entry}/{label}: abort object missing"));
        assert_eq!(abort.reason, label, "{entry}");
        assert_eq!(abort.resumable, resumable, "{entry}/{label}");
        r
    };

    for label in [
        "budget_exceeded",
        "deadline_exceeded",
        "cancelled",
        "worker_panicked",
    ] {
        // `check`: graceful stops capture a frontier checkpoint, so they
        // are resumable.
        {
            let mut v = Verifier::new(chains::composition(3, true, Semantics::default()));
            let db = chains::database(v.composition_mut(), 2);
            let mut opts = VerifyOptions {
                database: DatabaseMode::Fixed(db),
                fresh_values: Some(1),
                reporter: ReporterHandle::new(buf.clone()),
                ..VerifyOptions::default()
            };
            arm(label, &mut opts);
            let result = v.check_str(&chains::prop_integrity(3), &opts);
            let report = assert_abort(result, "check", label, true);
            // The bench harness relabels a verifier report as its own
            // entry point before validating it into the bench artifact;
            // abort reports must survive that relabelling.
            let bench = RunReport {
                entry_point: "bench".into(),
                ..report
            };
            RunReport::from_json_value(&bench.to_json_value())
                .unwrap_or_else(|e| panic!("bench/{label}: schema violation: {e}"));
        }

        // `check_modular`: aborts are final — the spec translation is
        // cheap to redo, so no checkpoint is captured.
        {
            let (mut v, db) = modular_fixture();
            let mut opts = VerifyOptions {
                database: DatabaseMode::Fixed(db),
                fresh_values: Some(1),
                reporter: ReporterHandle::new(buf.clone()),
                ..VerifyOptions::default()
            };
            arm(label, &mut opts);
            let property = v.parse_property(MODULAR_PROP).unwrap();
            let spec = v.parse_env_spec(MODULAR_SPEC).unwrap();
            let result = v.check_modular(&property, &spec, &opts);
            assert_abort(result, "check_modular", label, false);
        }

        // The protocol entry points, likewise final.
        {
            let (mut v, db) = protocol_fixture();
            let mut opts = VerifyOptions {
                database: DatabaseMode::Fixed(db),
                fresh_values: Some(1),
                reporter: ReporterHandle::new(buf.clone()),
                ..VerifyOptions::default()
            };
            arm(label, &mut opts);

            let response = response_protocol(&v);
            let result = v.check_data_agnostic(&response, &opts);
            assert_abort(result, "protocol_data_agnostic", label, false);

            let aware = db_backed_protocol(&mut v);
            let result = v.check_data_aware(&aware, &opts);
            assert_abort(result, "protocol_data_aware", label, false);
        }
    }
}
