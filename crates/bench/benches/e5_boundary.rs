//! E5 (Corollary 3.6 / Theorem 3.7): reachable-state growth of the
//! counting relay as the queue bound k increases, on perfect and on lossy
//! channels.
//!
//! The bench asserts the Corollary 3.6 series: 12, 28, 60, 124 and 252
//! reachable configurations for k = 1..5 on both relays, each count
//! larger than the one before, so the state space has no fixpoint in k.
//! Each cell's median and configuration count land in `BENCH_E5.json`.
//! The cells carry no run report: `state_space_size` explores the
//! configuration graph directly, not through a verifier entry point.

use ddws_bench::artifact::{self, Artifact, Object};
use ddws_bench::{counting_relay, state_space_size};

const BOUNDS: std::ops::RangeInclusive<usize> = 1..=5;
const CONFIGS: [usize; 5] = [12, 28, 60, 124, 252];

fn main() {
    let samples = artifact::samples(5);
    let mut artifact = Artifact::new("e5_boundary", false, samples);
    for (relay, lossy) in [("perfect", false), ("lossy", true)] {
        let mut rows = Object::new();
        let mut series = Vec::new();
        for k in BOUNDS {
            let [(ns, configs)] = artifact::medians(
                samples,
                [&mut || {
                    let (comp, db, dom) = counting_relay(k, lossy, 2);
                    state_space_size(&comp, &db, &dom, 10_000_000)
                }],
            );
            println!("e5_boundary/{relay}/{k}: {ns}ns configs={configs}");
            rows.push(
                &k.to_string(),
                Object::new()
                    .field("median_ns", ns)
                    .field("configs", configs),
            );
            series.push(configs);
        }
        assert!(
            series.windows(2).all(|w| w[0] < w[1]),
            "{relay}: configurations must grow with k, got {series:?}"
        );
        assert_eq!(series, CONFIGS, "{relay}: the Corollary 3.6 series moved");
        artifact = artifact.field(relay, rows);
    }
    artifact.write();
}
