//! The paper's running example end-to-end (Figure 1, Examples 1.1, 2.2,
//! 3.2): the four-peer bank-loan composition, verified against the paper's
//! own properties.
//!
//! Run with `cargo run --release --example bank_loan`.

use ddws::scenarios::bank_loan;
use ddws_model::Semantics;
use ddws_verifier::{DatabaseMode, Outcome, Verifier, VerifyOptions};
use std::time::Instant;

fn main() {
    let sem = Semantics {
        nested_send_skips_empty: true,
        ..Semantics::default()
    };
    let mut verifier = Verifier::new(bank_loan::composition(true, sem));
    let db = bank_loan::demo_database(verifier.composition_mut());
    let opts = VerifyOptions {
        database: DatabaseMode::Fixed(db),
        fresh_values: Some(1),
        max_states: 20_000_000,
        ..VerifyOptions::default()
    };

    println!("bank-loan composition: {} peers, {} channels", 4, 7);
    println!(
        "input-bounded: {}",
        verifier
            .composition()
            .check_input_bounded(Default::default())
            .is_ok()
    );

    for (name, prop) in [
        (
            "ratings reflect the agency DB (strict)",
            bank_loan::PROP_RATINGS_REFLECT_DB,
        ),
        (
            "no rating is ever received (strict)",
            bank_loan::PROP_NO_RATING_EVER,
        ),
        (
            "recorded applications persist (two closure variables)",
            "forall id, l: G (O.application(id, l) -> X O.application(id, l))",
        ),
        // Four closure variables: |domain|^4 valuations, nearly all of
        // which bind an atom to values no run can produce. The
        // column-domain analysis decides those before any search, so only
        // the live valuations cost a product search.
        (
            "property (11): every application answered (four closure variables)",
            bank_loan::PROP_EVERY_APPLICATION_ANSWERED,
        ),
        (
            "letters imply a recorded application (four closure variables)",
            bank_loan::PROP_LETTER_IMPLIES_APPLICATION,
        ),
    ] {
        let t0 = Instant::now();
        match verifier.check_str(prop, &opts) {
            Ok(report) => {
                println!(
                    "\n[{name}]\n  verdict: {}  states: {}  transitions: {}  valuations: {} \
                     ({} vacuous)  in {:?}",
                    if report.outcome.holds() {
                        "HOLDS"
                    } else {
                        "VIOLATED"
                    },
                    report.stats.states_visited,
                    report.stats.transitions_explored,
                    report.valuations_checked,
                    report.stats.valuations_vacuous,
                    t0.elapsed()
                );
                if let Outcome::Violated(cex) = report.outcome {
                    let total = cex.prefix.len() + cex.cycle.len();
                    println!(
                        "  counterexample run of {total} snapshots (prefix {} + cycle {})",
                        cex.prefix.len(),
                        cex.cycle.len()
                    );
                }
            }
            Err(e) => println!("\n[{name}]\n  error: {e}"),
        }
    }
}
