//! E1 (Theorem 3.4): verification cost of the bank-loan composition as the
//! verification domain grows — the PSPACE procedure's dominant axis.
//!
//! The strict ratings invariant is checked over a database of one and of
//! two customers. Each customer multiplies the input options and the queue
//! contents, so the bench asserts that both checks hold and that two
//! customers visit more states than one. Each cell's median and run
//! report land in `BENCH_E1.json`.

use ddws::scenarios::bank_loan;
use ddws_bench::artifact::{self, cell, Artifact, Object};
use ddws_model::Semantics;
use ddws_relational::{Instance, Tuple};
use ddws_verifier::{DatabaseMode, Report, Verifier, VerifyOptions};

const CUSTOMERS: [usize; 2] = [1, 2];

fn check(customers: usize) -> Report {
    let sem = Semantics {
        nested_send_skips_empty: true,
        ..Semantics::default()
    };
    let mut v = Verifier::new(bank_loan::composition(true, sem));
    let comp = v.composition_mut();
    let mut db = Instance::empty(&comp.voc);
    for i in 0..customers {
        let c = comp.symbols.intern(&format!("c{i}"));
        let s = comp.symbols.intern(&format!("s{i}"));
        let n = comp.symbols.intern(&format!("n{i}"));
        let loan = comp.symbols.intern("loan");
        let fair = comp.symbols.intern("fair");
        for (rel, t) in [
            ("A.wants", vec![c, loan]),
            ("O.customer", vec![c, s, n]),
            ("CR.creditRating", vec![s, fair]),
        ] {
            let id = comp.voc.lookup(rel).expect("bank-loan relation");
            db.relation_mut(id).insert(Tuple::new(t));
        }
    }
    let opts = VerifyOptions {
        database: DatabaseMode::Fixed(db),
        fresh_values: Some(1),
        ..VerifyOptions::default()
    };
    let report = v
        .check_str(bank_loan::PROP_RATINGS_REFLECT_DB, &opts)
        .unwrap();
    assert!(report.outcome.holds(), "{customers} customers: must hold");
    report
}

fn main() {
    let samples = artifact::samples(5);
    let mut rows = Object::new();
    let mut visited = Vec::new();
    for n in CUSTOMERS {
        let [(ns, report)] = artifact::medians(samples, [&mut || check(n)]);
        let states = report.stats.states_visited;
        println!("e1_domain_scaling/{n}: {ns}ns states_visited={states}");
        rows.push(
            &n.to_string(),
            cell(ns, &report.telemetry).field("states_visited", states),
        );
        visited.push(states);
    }
    assert!(
        visited[0] < visited[1],
        "2 customers must visit more states than 1, got {visited:?}"
    );
    Artifact::new("e1_domain_scaling", false, samples)
        .field("customers", rows)
        .write();
}
