//! E9: ample-set partial-order reduction — the same verification workload
//! under `Reduction::Full` and `Reduction::Ample`, on both the sequential
//! nested-DFS engine and the parallel engine at 2 workers.
//!
//! Three workloads span the reduction's range:
//!
//! * `auditor_chain`: a 3-relay chain plus a channel-free auditor
//!   rotating through 6 phases — the statically independent mover the
//!   reduction is built for. Ample must visit at most half of Full's
//!   states here (asserted, per the E9 acceptance bar).
//! * `chains`: all peers channel-coupled, so ample sets mostly degrade to
//!   full expansion — measures the oracle's overhead when there is
//!   nothing to prune.
//! * `bank_violated`: a counterexample exists, whatever the reduction
//!   prunes.
//!
//! Full and Ample run interleaved on each workload and engine. The bench
//! asserts that they return the same verdict everywhere, and writes each
//! cell's median and run report, plus the auditor chain's state ratio, to
//! `BENCH_E9.json`.

use ddws::scenarios::{bank_loan, chains};
use ddws_bench::artifact::{self, cell, fixed, Artifact, Object};
use ddws_model::Semantics;
use ddws_verifier::{DatabaseMode, Reduction, Report, Verifier, VerifyOptions};

const ENGINES: [(&str, Option<usize>); 2] = [("seq", None), ("par2", Some(2))];

/// A workload: its name, whether its property holds, and its check.
type Workload = (&'static str, bool, fn(Option<usize>, Reduction) -> Report);

const WORKLOADS: [Workload; 3] = [
    ("auditor_chain", true, auditor_chain),
    ("chains", true, plain_chain),
    ("bank_violated", false, bank_violated),
];

fn opts(
    db: ddws_relational::Instance,
    threads: Option<usize>,
    reduction: Reduction,
) -> VerifyOptions {
    VerifyOptions {
        database: DatabaseMode::Fixed(db),
        fresh_values: Some(1),
        threads,
        reduction,
        ..VerifyOptions::default()
    }
}

fn auditor_chain(threads: Option<usize>, reduction: Reduction) -> Report {
    let comp = chains::composition_with_auditor(3, 6, true, Semantics::default());
    let mut v = Verifier::new(comp);
    let db = chains::database(v.composition_mut(), 1);
    v.check_str(&chains::prop_integrity(3), &opts(db, threads, reduction))
        .unwrap()
}

fn plain_chain(threads: Option<usize>, reduction: Reduction) -> Report {
    let mut v = Verifier::new(chains::composition(3, true, Semantics::default()));
    let db = chains::database(v.composition_mut(), 2);
    v.check_str(&chains::prop_integrity(3), &opts(db, threads, reduction))
        .unwrap()
}

fn bank_violated(threads: Option<usize>, reduction: Reduction) -> Report {
    let sem = Semantics {
        nested_send_skips_empty: true,
        ..Semantics::default()
    };
    let mut v = Verifier::new(bank_loan::composition(true, sem));
    let db = bank_loan::demo_database(v.composition_mut());
    v.check_str(
        bank_loan::PROP_NO_RATING_EVER,
        &opts(db, threads, reduction),
    )
    .unwrap()
}

fn main() {
    let samples = artifact::samples(5);
    let mut artifact = Artifact::new("e9_partial_order", false, samples);
    for (workload, holds, check) in WORKLOADS {
        let mut engines = Object::new();
        for (engine, threads) in ENGINES {
            let mut full = || check(threads, Reduction::Full);
            let mut ample = || check(threads, Reduction::Ample);
            let [(full_ns, full), (ample_ns, ample)] =
                artifact::medians(samples, [&mut full, &mut ample]);
            let (full_states, ample_states) =
                (full.stats.states_visited, ample.stats.states_visited);
            println!(
                "e9_partial_order/{workload}/{engine}: {} full={full_ns}ns/{full_states} states \
                 ample={ample_ns}ns/{ample_states} states",
                full.telemetry.outcome
            );
            assert_eq!(
                full.outcome.holds(),
                holds,
                "{workload}/{engine}: full verdict"
            );
            assert_eq!(
                full.telemetry.outcome, ample.telemetry.outcome,
                "{workload}/{engine}: full and ample verdicts differ"
            );
            let states_ratio = full_states as f64 / ample_states.max(1) as f64;
            if workload == "auditor_chain" {
                assert!(
                    ample_states * 2 <= full_states,
                    "{engine}: expected >=2x reduction, got {ample_states} vs {full_states}"
                );
            }
            engines.push(
                engine,
                Object::new()
                    .field(
                        "full",
                        cell(full_ns, &full.telemetry).field("states_visited", full_states),
                    )
                    .field(
                        "ample",
                        cell(ample_ns, &ample.telemetry).field("states_visited", ample_states),
                    )
                    .field("states_ratio", fixed(states_ratio, 2)),
            );
        }
        artifact = artifact.field(workload, engines);
    }
    artifact.write();
}
