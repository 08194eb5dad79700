//! E6 (ablation): fixed-database verification vs. the lazy all-databases
//! oracle on the same property — the oracle pays for quantifying over
//! every database with active domain inside the verification domain.
//!
//! The all-databases check runs with 1, 2 and 3 fresh values. Each fresh
//! value enlarges the space of facts the oracle can fork on, so the bench
//! asserts that the visited states rise strictly with it. Each cell's
//! median and run report land in `BENCH_E6.json`.

use ddws_bench::artifact::{self, cell, Artifact, Object};
use ddws_bench::{req_resp, unary_db};
use ddws_verifier::{DatabaseMode, Report, Verifier, VerifyOptions};

const PROP: &str = "G (forall x: R.?req(x) -> P.d(x))";
const FRESH: [usize; 3] = [1, 2, 3];

fn check(database: Option<usize>, fresh: usize) -> Report {
    let mut v = Verifier::new(req_resp(true));
    let database = match database {
        Some(rows) => DatabaseMode::Fixed(unary_db(v.composition_mut(), "P.d", rows).0),
        None => DatabaseMode::AllDatabases,
    };
    let opts = VerifyOptions {
        database,
        fresh_values: Some(fresh),
        ..VerifyOptions::default()
    };
    let report = v.check_str(PROP, &opts).unwrap();
    assert!(report.outcome.holds(), "requests carry database values");
    report
}

fn main() {
    let samples = artifact::samples(5);
    let [(fixed_ns, fixed)] = artifact::medians(samples, [&mut || check(Some(2), 1)]);
    println!(
        "e6_database_modes/fixed: {fixed_ns}ns states_visited={}",
        fixed.stats.states_visited
    );
    let mut rows = Object::new();
    let mut visited = Vec::new();
    for fresh in FRESH {
        let [(ns, report)] = artifact::medians(samples, [&mut || check(None, fresh)]);
        let states = report.stats.states_visited;
        println!("e6_database_modes/all_databases/{fresh}: {ns}ns states_visited={states}");
        rows.push(
            &fresh.to_string(),
            cell(ns, &report.telemetry).field("states_visited", states),
        );
        visited.push(states);
    }
    assert!(
        visited.windows(2).all(|w| w[0] < w[1]),
        "all-databases states must rise with each fresh value, got {visited:?}"
    );
    Artifact::new("e6_database_modes", false, samples)
        .field(
            "fixed",
            cell(fixed_ns, &fixed.telemetry).field("states_visited", fixed.stats.states_visited),
        )
        .field("all_databases", rows)
        .write();
}
