//! Deterministic fault-injection swarm (DESIGN.md §3.10).
//!
//! Each case draws a random small composition, one seeded fault plan
//! (panic at the Nth expansion, cancel at the Nth, or an already-expired
//! deadline), and one point of the engine × reduction matrix
//! `{seq, par1, par2, par4} × {Full, Ample}`, then drives the
//! *production* abort paths and asserts the robustness contract
//! ([`common::assert_fault_contract`]): the run terminates, the process
//! survives, exactly one schema-valid `RunReport` is emitted, merged
//! counters stay coherent, injected panics surface as typed errors, and
//! resuming a captured checkpoint without the fault agrees with an
//! unfaulted baseline run.
//!
//! On failure the harness prints the failing sub-seed; pin it in
//! tests/regressions.rs (`PINNED_FAULTS`) by feeding it to
//! `XorShift::new` directly.

mod common;

use ddws_testkit::{gen, seed_from};

#[test]
fn fault_swarm_is_robust_across_the_engine_matrix() {
    // Injected panics are expected noise here; keep the test output to
    // the genuine failures.
    common::silence_injected_panics();
    gen::cases(240, seed_from("fault_swarm"), common::assert_fault_case);
}

#[test]
fn a_long_until_chain_stops_at_its_deadline_during_translation() {
    // The negated right-nested chain `p U (p U … p)` makes the LTL→NBA
    // tableau exponential in its length: twelve links take minutes to
    // translate. Translation runs under the check's deadline, so the run
    // ends inconclusive shortly after 200 ms instead.
    use ddws::scenarios::chains;
    use ddws_verifier::{AbortReason, DatabaseMode, Outcome, Verifier, VerifyOptions};
    use std::time::{Duration, Instant};

    let (comp, db) = chains::nested_relay(2, 0, 0, false);
    let link = "P0.emit(x)";
    let chain = (0..12).fold(link.to_string(), |tail, _| format!("{link} U ({tail})"));
    let opts = VerifyOptions {
        database: DatabaseMode::Fixed(db),
        deadline: Some(Duration::from_millis(200)),
        ..VerifyOptions::default()
    };
    let started = Instant::now();
    let report = Verifier::new(comp)
        .check_str(&format!("forall x: {chain}"), &opts)
        .expect("the chain is a valid property");
    let elapsed = started.elapsed();
    match report.outcome {
        Outcome::Inconclusive(inc) => assert!(
            matches!(inc.reason, AbortReason::DeadlineExceeded { .. }),
            "unexpected stop: {}",
            inc.reason
        ),
        _ => panic!("a 12-link chain cannot translate within 200 ms"),
    }
    assert!(
        elapsed < Duration::from_secs(2),
        "the deadline was observed only after {elapsed:?}"
    );
}
