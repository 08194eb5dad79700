//! The small-model property behind Theorem 3.4, sampled: once the
//! fresh-value bound is large enough, verdicts do not change as it grows,
//! nor with channel lossiness or the search engine. Per case the
//! fresh-value bound, lossiness and engine (sequential vs. parallel worker
//! count) are drawn at random; the verdicts must not depend on any of them.

use ddws_model::{Composition, CompositionBuilder, QueueKind};
use ddws_testkit::{gen, seed_from};
use ddws_verifier::{Verifier, VerifyOptions};

fn ping(lossy: bool) -> Composition {
    let mut b = CompositionBuilder::new();
    b.default_lossy(lossy);
    b.channel("ping", 1, QueueKind::Flat, "A", "B");
    b.peer("A")
        .database("friend", 1)
        .input("greet", 1)
        .input_rule("greet", &["x"], "friend(x)")
        .send_rule("ping", &["x"], "greet(x)");
    b.peer("B")
        .state("seen", 1)
        .state_insert_rule("seen", &["x"], "?ping(x)");
    b.build().unwrap()
}

const HOLDS: &str = "G (forall x: B.?ping(x) -> A.friend(x))";
const VIOLATED: &str = "G (forall x: B.?ping(x) -> false)";

/// Verdicts are stable across fresh-domain bounds, channel lossiness and
/// search engines (the small-model property plus the parallel-engine
/// determinism contract, sampled jointly).
#[test]
fn verdicts_stable_in_fresh_domain_and_engine() {
    gen::cases(
        8,
        seed_from("verdicts_stable_in_fresh_domain_and_engine"),
        |rng| {
            let fresh = rng.range(1, 4);
            let lossy = rng.bool();
            let threads = *rng.choose(&[None, Some(1), Some(2)]);
            let mut v = Verifier::new(ping(lossy));
            let opts = VerifyOptions {
                fresh_values: Some(fresh),
                threads,
                ..VerifyOptions::default()
            };
            let holds = v.check_str(HOLDS, &opts).unwrap();
            assert!(
                holds.outcome.holds(),
                "fresh={fresh} lossy={lossy} threads={threads:?}"
            );
            let violated = v.check_str(VIOLATED, &opts).unwrap();
            assert!(
                !violated.outcome.holds(),
                "fresh={fresh} lossy={lossy} threads={threads:?}"
            );
        },
    );
}
