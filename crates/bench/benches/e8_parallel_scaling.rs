//! E8: parallel product-search scaling — the same verification workload
//! run by the sequential nested-DFS engine (`threads: None`) and by the
//! work-stealing parallel engine at 1, 2 and 4 workers.
//!
//! Two workloads bracket the engines' trade-off:
//!
//! * `chains_holds`: the property holds, so both engines must exhaust the
//!   reachable product — the parallel engine's best case;
//! * `bank_violated`: a counterexample exists, so the sequential engine can
//!   stop early while the parallel one still explores everything first —
//!   its worst case (see DESIGN.md, "Parallel search").
//!
//! The engines run interleaved on each workload. The bench asserts that
//! all four return the same verdict, and writes each engine's median and
//! run report to `BENCH_E8.json`.

use ddws::scenarios::{bank_loan, chains};
use ddws_bench::artifact::{self, cell, Artifact, Object};
use ddws_model::Semantics;
use ddws_verifier::{DatabaseMode, Report, Verifier, VerifyOptions};

const ENGINES: [(&str, Option<usize>); 4] = [
    ("seq", None),
    ("par1", Some(1)),
    ("par2", Some(2)),
    ("par4", Some(4)),
];

/// A workload: its name and its check on a given engine.
type Workload = (&'static str, fn(Option<usize>) -> Report);

const WORKLOADS: [Workload; 2] = [
    ("chains_holds", chains_holds),
    ("bank_violated", bank_violated),
];

fn opts(db: ddws_relational::Instance, threads: Option<usize>) -> VerifyOptions {
    VerifyOptions {
        database: DatabaseMode::Fixed(db),
        fresh_values: Some(1),
        threads,
        ..VerifyOptions::default()
    }
}

fn chains_holds(threads: Option<usize>) -> Report {
    let mut v = Verifier::new(chains::composition(3, true, Semantics::default()));
    let db = chains::database(v.composition_mut(), 2);
    let report = v
        .check_str(&chains::prop_integrity(3), &opts(db, threads))
        .unwrap();
    assert!(report.outcome.holds());
    report
}

fn bank_violated(threads: Option<usize>) -> Report {
    let sem = Semantics {
        nested_send_skips_empty: true,
        ..Semantics::default()
    };
    let mut v = Verifier::new(bank_loan::composition(true, sem));
    let db = bank_loan::demo_database(v.composition_mut());
    let report = v
        .check_str(bank_loan::PROP_NO_RATING_EVER, &opts(db, threads))
        .unwrap();
    assert!(!report.outcome.holds());
    report
}

fn main() {
    let samples = artifact::samples(5);
    let mut artifact = Artifact::new("e8_parallel_scaling", false, samples);
    for (workload, check) in WORKLOADS {
        let mut checks = ENGINES.map(|(_, threads)| move || check(threads));
        let [seq, par1, par2, par4] = &mut checks;
        let runs = artifact::medians(samples, [seq, par1, par2, par4]);
        let mut engines = Object::new();
        for ((engine, _), (ns, report)) in ENGINES.iter().zip(&runs) {
            println!(
                "e8_parallel_scaling/{workload}/{engine}: {} {ns}ns states_visited={}",
                report.telemetry.outcome, report.stats.states_visited
            );
            assert_eq!(
                report.telemetry.outcome, runs[0].1.telemetry.outcome,
                "{workload}: {engine} and seq verdicts differ"
            );
            engines.push(
                engine,
                cell(*ns, &report.telemetry).field("states_visited", report.stats.states_visited),
            );
        }
        artifact = artifact.field(workload, Object::new().field("engines", engines));
    }
    artifact.write();
}
