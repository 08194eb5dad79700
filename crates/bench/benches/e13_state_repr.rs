//! E13: the succinct interned state representation — the same
//! verification workloads under `StateRepr::Compact` (hash-consed,
//! bit-packed configurations with interned footprints) and
//! `StateRepr::Legacy` (the owned-`Config` oracle of record).
//!
//! The workload suite revisits the E8–E10 scenario families at the
//! state-heavy scale E13 targets — the regime where the E10/E11 phase
//! profiles showed successor generation and queue bookkeeping dominating
//! `total_ns`:
//!
//! * `e8_nested_chain_{seq,par2}`: a 3-peer relay chain whose middle peer
//!   accumulates an arity-2 `seen2` join of its private database with the
//!   relayed tokens, shipping the whole extension downstream over a
//!   `QueueKind::Nested` channel — configurations are dominated by wide
//!   state extensions and relation-valued queue payloads, the exact
//!   shapes hash-consing collapses to `u32` handles.
//! * `e9_nested_chain_ample`: the same chain under `Reduction::Ample`,
//!   pairing the representation change with partial-order reduction.
//! * `e10_dense_chain_seq`: the chain with a phase rotor and an audit
//!   rule on the accumulator peer, so rule-dense evaluation (footprint
//!   construction per evaluation) rides on the heavy extensions.
//!
//! The representation cells run on each chain's *asymmetric twin*: P0
//! also holds an `order` relation, read by no rule, with a successor
//! chain over the tokens and over the private rows. It makes every value
//! distinguishable, so the symmetry reduction (DESIGN.md §3.16) finds no
//! class and these cells measure the representation on the full,
//! state-heavy search (133,246 states for `e8_nested_chain_seq`).
//!
//! The acceptance pass measures every workload under both
//! representations, asserts the legacy-oracle differential on every
//! cell (equal verdict and `states_visited` — the bench *fails* rather
//! than skipping the oracle), asserts the aggregate `total_ns` speedup
//! bar (≥5× at full scale, ≥2× in the `DDWS_BENCH_SMOKE=1` CI
//! configuration), and measures how much a truncated run's checkpoint
//! shrinks. The symmetric cells then check each chain as it stands,
//! where the tokens and the private rows form two classes, against its
//! twin under the compact representation: verdicts must agree and the
//! reduced search must visit fewer states. `BENCH_E13.json` at the
//! workspace root records both before/afters, each side's median with
//! its full run report.

use ddws::scenarios::chains;
use ddws_bench::artifact::{self, fixed, Artifact, Object};
use ddws_model::Composition;
use ddws_relational::Instance;
use ddws_verifier::{
    DatabaseMode, Outcome, Reduction, Report, RuleEval, StateRepr, Verifier, VerifyOptions,
};

const REPRS: [(&str, StateRepr); 2] = [
    ("compact", StateRepr::Compact),
    ("legacy", StateRepr::Legacy),
];

/// One suite cell: an E8/E9/E10-family scenario at E13 scale.
#[derive(Clone, Copy)]
struct Workload {
    name: &'static str,
    /// Private-database rows per peer; state extensions grow to `m²`.
    m: usize,
    /// Phase-rotor size on the accumulator peer (0 = no rotor).
    ring: usize,
    threads: Option<usize>,
    reduction: Reduction,
}

const fn cell(
    name: &'static str,
    m: usize,
    ring: usize,
    threads: Option<usize>,
    reduction: Reduction,
) -> Workload {
    Workload {
        name,
        m,
        ring,
        threads,
        reduction,
    }
}

/// The suite. Full scale is what `BENCH_E13.json` reports against the
/// ≥5× bar; smoke scale keeps the CI job under a second per cell and is
/// held to ≥2×.
fn workloads(smoke: bool) -> Vec<Workload> {
    if smoke {
        vec![
            cell("e8_nested_chain_seq", 3, 0, None, Reduction::Full),
            cell("e8_nested_chain_par2", 3, 0, Some(2), Reduction::Full),
            cell("e9_nested_chain_ample", 3, 0, None, Reduction::Ample),
            cell("e10_dense_chain_seq", 3, 4, None, Reduction::Full),
        ]
    } else {
        vec![
            cell("e8_nested_chain_seq", 6, 0, None, Reduction::Full),
            cell("e8_nested_chain_par2", 6, 0, Some(2), Reduction::Full),
            cell("e9_nested_chain_ample", 5, 0, None, Reduction::Ample),
            cell("e10_dense_chain_seq", 4, 6, None, Reduction::Full),
        ]
    }
}

/// The state-heavy relay chain ([`chains::nested_relay`]) with E13's
/// property. With `ring ≥ 2`, P1 carries the phase rotor of the
/// rule-dense E10 shape; with `twin`, P0's unread `order` relation breaks
/// every value symmetry.
fn state_heavy(m: usize, ring: usize, twin: bool) -> (Composition, Instance, String) {
    let (comp, db) = chains::nested_relay(m, ring, 0, twin);
    let prop = "G (forall x: P0.emit(x) -> P0.token(x))".to_string();
    (comp, db, prop)
}

fn opts(db: Instance, w: &Workload, state_repr: StateRepr) -> VerifyOptions {
    VerifyOptions {
        database: DatabaseMode::Fixed(db),
        fresh_values: Some(1),
        threads: w.threads,
        reduction: w.reduction,
        rule_eval: RuleEval::Compiled,
        state_repr,
        ..VerifyOptions::default()
    }
}

/// Checks a workload on its asymmetric twin (`twin`) or as it stands.
fn check(w: &Workload, state_repr: StateRepr, twin: bool) -> Report {
    let (comp, db, prop) = state_heavy(w.m, w.ring, twin);
    let mut v = Verifier::new(comp);
    let report = v.check_str(&prop, &opts(db, w, state_repr)).unwrap();
    assert!(report.outcome.holds(), "{} must hold", w.name);
    report
}

/// The E13 acceptance bar. Every cell runs under both representations —
/// the legacy oracle is the differential, not an option — and the
/// aggregate `total_ns` speedup must clear the bar: ≥5× at full scale,
/// ≥2× at the reduced smoke scale CI runs (`DDWS_BENCH_SMOKE=1`).
fn main() {
    let smoke = artifact::smoke();
    let bar = if smoke { 2.0 } else { 5.0 };
    let samples = artifact::samples(3);

    let mut rows = Object::new();
    let mut total_compact: u128 = 0;
    let mut total_legacy: u128 = 0;
    let mut unreduced = Vec::new();
    for w in workloads(smoke) {
        let [(compact_ns, compact)] =
            artifact::medians(samples, [&mut || check(&w, StateRepr::Compact, true)]);
        let [(legacy_ns, legacy)] =
            artifact::medians(samples, [&mut || check(&w, StateRepr::Legacy, true)]);
        // The legacy-oracle differential cell: both representations must
        // agree exactly on the verdict and the explored graph. Every
        // suite cell holds and runs either sequentially or under the
        // parallel engine with full expansion, so `states_visited` is
        // deterministic and must coincide.
        assert_eq!(
            (compact.outcome.holds(), compact.stats.states_visited),
            (legacy.outcome.holds(), legacy.stats.states_visited),
            "{}: compact and legacy runs diverged — representation bug",
            w.name
        );
        let speedup = legacy_ns as f64 / compact_ns.max(1) as f64;
        println!(
            "e13_state_repr/acceptance/{}: compact={compact_ns}ns legacy={legacy_ns}ns \
             speedup={speedup:.2}x visited={}",
            w.name, compact.stats.states_visited
        );
        total_compact += compact_ns;
        total_legacy += legacy_ns;
        let threads = w.threads.map_or("seq".into(), |n| format!("par{n}"));
        let reduction = if w.reduction == Reduction::Ample {
            "ample"
        } else {
            "full"
        };
        let scenario = Object::new()
            .field("m", w.m)
            .field("ring", w.ring)
            .field("threads", threads.as_str())
            .field("reduction", reduction);
        rows.push(
            w.name,
            Object::new()
                .field("scenario", scenario)
                .field("states_visited", compact.stats.states_visited)
                .field("differential", "verdict+states_visited equal")
                .field("compact", artifact::cell(compact_ns, &compact.telemetry))
                .field("legacy", artifact::cell(legacy_ns, &legacy.telemetry))
                .field("speedup", fixed(speedup, 2)),
        );
        unreduced.push((compact_ns, compact));
    }

    let total_speedup = total_legacy as f64 / total_compact.max(1) as f64;
    println!(
        "e13_state_repr/acceptance/total: compact={total_compact}ns legacy={total_legacy}ns \
         speedup={total_speedup:.2}x (bar {bar:.1}x, {})",
        if smoke { "smoke scale" } else { "full scale" }
    );
    assert!(
        total_speedup >= bar,
        "expected >={bar:.1}x compact speedup on suite total_ns, got {total_speedup:.2}x \
         ({total_compact}ns vs {total_legacy}ns)"
    );

    // Symmetry reduction: each chain as it stands (tokens and private
    // rows interchangeable) against its twin, both compact.
    let mut sym_rows = Object::new();
    let (mut total_reduced, mut total_unreduced) = (0u128, 0u128);
    for (w, (twin_ns, twin)) in workloads(smoke).iter().zip(&unreduced) {
        let [(reduced_ns, reduced)] =
            artifact::medians(samples, [&mut || check(w, StateRepr::Compact, false)]);
        let (r, t) = (&reduced.stats, &twin.stats);
        assert_eq!(
            reduced.outcome.holds(),
            twin.outcome.holds(),
            "{}: the symmetry-reduced verdict diverges from the twin's",
            w.name
        );
        assert!(
            r.states_visited < t.states_visited && r.symmetry_merges > 0,
            "{}: the reduction merged nothing ({} vs {} states)",
            w.name,
            r.states_visited,
            t.states_visited
        );
        let speedup = *twin_ns as f64 / reduced_ns.max(1) as f64;
        let states_ratio = t.states_visited as f64 / r.states_visited.max(1) as f64;
        println!(
            "e13_state_repr/symmetry/{}: reduced={reduced_ns}ns unreduced={twin_ns}ns \
             speedup={speedup:.2}x states {} vs {} ({states_ratio:.1}x)",
            w.name, r.states_visited, t.states_visited
        );
        total_reduced += reduced_ns;
        total_unreduced += twin_ns;
        sym_rows.push(
            w.name,
            Object::new()
                .field("states_ratio", fixed(states_ratio, 1))
                .field("reduced", artifact::cell(reduced_ns, &reduced.telemetry))
                .field("unreduced", artifact::cell(*twin_ns, &twin.telemetry))
                .field("speedup", fixed(speedup, 2)),
        );
    }
    let sym_speedup = total_unreduced as f64 / total_reduced.max(1) as f64;
    println!(
        "e13_state_repr/symmetry/total: reduced={total_reduced}ns \
         unreduced={total_unreduced}ns speedup={sym_speedup:.2}x"
    );

    // Checkpoint shrink: truncate the same search under both
    // representations at the same state budget and compare what the
    // frozen state store retains — the payload a scale-out frontier
    // serializer would ship.
    let (ck_m, ck_budget) = if smoke { (3, 500) } else { (5, 10_000) };
    let ck_w = cell("checkpoint", ck_m, 0, None, Reduction::Full);
    let mut ck_bytes = [0usize; 2];
    for (i, (_, state_repr)) in REPRS.iter().enumerate() {
        let (comp, db, prop) = state_heavy(ck_w.m, ck_w.ring, true);
        let mut v = Verifier::new(comp);
        let o = VerifyOptions {
            max_states: ck_budget,
            ..opts(db, &ck_w, *state_repr)
        };
        let report = v.check_str(&prop, &o).unwrap();
        let Outcome::Inconclusive(inc) = &report.outcome else {
            panic!("checkpoint run must truncate on its state budget");
        };
        let ck = inc.checkpoint.as_ref().expect("budget stop is resumable");
        ck_bytes[i] = ck.approx_state_bytes();
    }
    let [ck_compact, ck_legacy] = ck_bytes;
    let shrink = ck_legacy as f64 / ck_compact.max(1) as f64;
    println!(
        "e13_state_repr/acceptance/checkpoint: compact={ck_compact}B legacy={ck_legacy}B \
         shrink={shrink:.2}x"
    );
    assert!(
        ck_compact * 2 <= ck_legacy,
        "expected the compact checkpoint to retain at most half the bytes, got {shrink:.2}x \
         ({ck_compact}B vs {ck_legacy}B)"
    );

    Artifact::new("e13_state_repr", smoke, samples)
        .field("speedup_bar", fixed(bar, 1))
        .field("workloads", rows)
        .field(
            "total",
            Object::new()
                .field("compact_median_ns", total_compact)
                .field("legacy_median_ns", total_legacy)
                .field("speedup", fixed(total_speedup, 2)),
        )
        .field("symmetry", sym_rows)
        .field(
            "symmetry_total",
            Object::new()
                .field("reduced_median_ns", total_reduced)
                .field("unreduced_median_ns", total_unreduced)
                .field("speedup", fixed(sym_speedup, 2)),
        )
        .field(
            "checkpoint",
            Object::new()
                .field("truncated_at_states", ck_budget)
                .field("compact_bytes", ck_compact)
                .field("legacy_bytes", ck_legacy)
                .field("shrink", fixed(shrink, 2)),
        )
        .write();
}
