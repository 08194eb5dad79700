//! E7 (complexity shape): verification cost against relay-chain length —
//! the state space (and thus exhaustive-search time) grows exponentially
//! in the number of peers, while each snapshot stays polynomial (the
//! PSPACE signature of Theorem 3.4).
//!
//! The bench asserts that the integrity property holds on chains of 2, 3
//! and 4 peers and that the visited states rise strictly with the peer
//! count. Each cell's median and run report land in `BENCH_E7.json`.

use ddws::scenarios::chains;
use ddws_bench::artifact::{self, cell, Artifact, Object};
use ddws_model::Semantics;
use ddws_verifier::{DatabaseMode, Report, Verifier, VerifyOptions};

const PEERS: [usize; 3] = [2, 3, 4];

fn check(n: usize) -> Report {
    let mut v = Verifier::new(chains::composition(n, true, Semantics::default()));
    let db = chains::database(v.composition_mut(), 1);
    let opts = VerifyOptions {
        database: DatabaseMode::Fixed(db),
        fresh_values: Some(1),
        ..VerifyOptions::default()
    };
    let report = v.check_str(&chains::prop_integrity(n), &opts).unwrap();
    assert!(report.outcome.holds(), "{n} peers: must hold");
    report
}

fn main() {
    let samples = artifact::samples(5);
    let mut rows = Object::new();
    let mut visited = Vec::new();
    for n in PEERS {
        let [(ns, report)] = artifact::medians(samples, [&mut || check(n)]);
        let states = report.stats.states_visited;
        println!("e7_pspace_shape/{n}: {ns}ns states_visited={states}");
        rows.push(
            &n.to_string(),
            cell(ns, &report.telemetry).field("states_visited", states),
        );
        visited.push(states);
    }
    assert!(
        visited.windows(2).all(|w| w[0] < w[1]),
        "states must rise with each added peer, got {visited:?}"
    );
    Artifact::new("e7_pspace_shape", false, samples)
        .field("peers", rows)
        .write();
}
