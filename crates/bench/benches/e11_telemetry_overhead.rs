//! E11: telemetry overhead — the rule-dense E10 workload re-measured under
//! two reporter configurations:
//!
//! * `off`: [`Silent`] reporter with the progress gate disabled
//!   (`progress_interval: None`) — the pre-telemetry hot path: counters
//!   are worker-local and no gate is ever consulted;
//! * `silent`: the shipping default — [`Silent`] reporter behind the 1 s
//!   progress gate. The hot-path cost is one coarse stride mask plus a
//!   relaxed atomic load per ~1024 expansions.
//!
//! The acceptance bar (DESIGN.md §3.9): the `silent` default costs at most
//! 5% wall time over `off` on the rule-dense scenario, on both engines.
//! Samples for the two configurations are interleaved so clock drift hits
//! both equally, and a small absolute allowance absorbs timer noise on top
//! of the relative bar. Each configuration's median and run report land
//! in `BENCH_E11.json`.

use ddws::scenarios::chains;
use ddws_bench::artifact::{self, cell, fixed, Artifact, Object};
use ddws_model::Semantics;
use ddws_verifier::{DatabaseMode, Report, Verifier, VerifyOptions};

const ENGINES: [(&str, Option<usize>, Option<usize>); 3] = [
    ("seq", None, None),
    ("par2", Some(2), None),
    ("vt2", None, Some(2)),
];

/// The rule-dense scenario shape, matching E10.
const PEERS: usize = 3;
const RING: usize = 8;
const TOKENS: usize = 1;

/// Absolute noise allowance on top of the 5% relative bar: the workload
/// runs for hundreds of milliseconds, so 10 ms is well under the bar
/// itself but absorbs scheduler jitter between interleaved samples.
const NOISE_NS: u128 = 10_000_000;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Config {
    Off,
    Silent,
}

fn options(
    db: ddws_relational::Instance,
    threads: Option<usize>,
    valuation_threads: Option<usize>,
    config: Config,
) -> VerifyOptions {
    let mut opts = VerifyOptions {
        database: DatabaseMode::Fixed(db),
        fresh_values: Some(1),
        threads,
        valuation_threads,
        ..VerifyOptions::default()
    };
    if config == Config::Off {
        opts.progress_interval = None;
    }
    opts
}

fn check_rule_dense(
    threads: Option<usize>,
    valuation_threads: Option<usize>,
    config: Config,
) -> Report {
    let mut v = Verifier::new(chains::rule_dense_composition(
        PEERS,
        RING,
        true,
        Semantics::default(),
    ));
    let db = chains::database(v.composition_mut(), TOKENS);
    let report = v
        .check_str(
            &chains::prop_integrity(PEERS),
            &options(db, threads, valuation_threads, config),
        )
        .unwrap();
    assert!(report.outcome.holds());
    report
}

/// The E11 acceptance bar, measured with `off`/`silent` samples
/// interleaved.
fn main() {
    let samples = artifact::samples(5);
    let mut engines = Object::new();
    for (engine, threads, vt) in ENGINES {
        let [(off, off_run), (silent, silent_run)] = artifact::medians(
            samples,
            [
                &mut || check_rule_dense(threads, vt, Config::Off),
                &mut || check_rule_dense(threads, vt, Config::Silent),
            ],
        );
        let overhead = silent as f64 / off.max(1) as f64 - 1.0;
        println!(
            "e11_telemetry_overhead/acceptance/{engine}: off={off}ns \
             silent={silent}ns overhead={:.2}%",
            overhead * 100.0
        );
        assert!(
            silent <= off + off / 20 + NOISE_NS,
            "{engine}: silent-reporter telemetry must cost <=5% (+noise), \
             got {:.2}% ({silent}ns vs {off}ns)",
            overhead * 100.0
        );
        engines.push(
            engine,
            Object::new()
                .field("off", cell(off, &off_run.telemetry))
                .field("silent", cell(silent, &silent_run.telemetry))
                .field("overhead", fixed(overhead, 4)),
        );
    }
    // E11 has no reduced scale: every run is a full-scale one.
    Artifact::new("e11_telemetry_overhead", false, samples)
        .field(
            "scenario",
            Object::new()
                .field("peers", PEERS)
                .field("ring", RING)
                .field("tokens", TOKENS),
        )
        .field("engines", engines)
        .write();
}
