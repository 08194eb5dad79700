//! E14: the sharded universal-closure valuation loop — the same
//! many-valuation workloads under `valuation_threads: Some(1)` (the
//! unsharded outer loop through the scheduler) and `Some(4)` (four outer
//! shards with first-violation cancel and the shared grounded-NBA cache).
//!
//! The workload family is built so the *outer* loop dominates: a relay
//! chain whose single-variable closure property grounds once per domain
//! value, padded with a `pool` relation whose constants enlarge the
//! domain (one extra valuation each) and enter the transition system only
//! through one insert-only `stock` relation the property watches. Every
//! value of the domain can reach `stock`, so the column-domain analysis
//! folds no valuation away: every valuation searches a product of about
//! the same cost — the embarrassingly-parallel regime the shard scheduler
//! targets — and every grounded formula shares one atom-shape, so the
//! NBA cache translates once and hits `N-1` of `N` lookups.
//!
//! The acceptance pass measures each workload
//! under both shard counts, asserts the determinism differential on
//! every cell (equal verdict and `states_visited` — sharding must not
//! change what is explored), asserts the ≥90% NBA-cache hit rate, and
//! holds the aggregate wall-clock speedup to the bar (≥3× at full
//! scale, ≥1.5× in the `DDWS_BENCH_SMOKE=1` CI configuration) whenever
//! the host grants ≥4 cores; on smaller hosts the same totals are held
//! to a no-regression bound instead, because a wall-clock bar for a
//! 4-way parallel run is not meetable on one core. Each side's median and
//! run report land in `BENCH_E14.json` at the workspace root.

use ddws::scenarios::chains;
use ddws_bench::artifact::{self, fixed, Artifact, Object};
use ddws_model::Composition;
use ddws_relational::Instance;
use ddws_telemetry::Json;
use ddws_verifier::{DatabaseMode, Reduction, Report, RuleEval, Verifier, VerifyOptions};

/// One suite cell: a relay chain with `m` live tokens (per-valuation
/// search cost) and `pool` extra constants (one extra valuation each).
#[derive(Clone, Copy)]
struct Workload {
    name: &'static str,
    m: usize,
    pool: usize,
}

const fn cell(name: &'static str, m: usize, pool: usize) -> Workload {
    Workload { name, m, pool }
}

impl Workload {
    /// Domain size = `m` tokens + `m` private `mine` rows + `pool`
    /// constants — one universal valuation each (the composition is
    /// closed, so the fresh-value budget contributes nothing).
    const fn valuations(&self) -> usize {
        2 * self.m + self.pool
    }
}

/// The suite. Both scales keep ≥15 valuations so the expected NBA-cache
/// hit rate `(N-1)/N` clears the 90% bar by construction; full scale
/// raises the per-valuation search cost (≈55 ms at `m = 4`, ≈13 ms at
/// `m = 3` on a 2-vCPU VM) so the shard pool has real work to split.
fn workloads(smoke: bool) -> Vec<Workload> {
    if smoke {
        vec![cell("relay_narrow", 2, 12), cell("relay_wide", 2, 24)]
    } else {
        vec![cell("relay_narrow", 4, 12), cell("relay_wide", 3, 24)]
    }
}

/// The many-valuation join chain ([`chains::nested_relay`] with a
/// `pool`): P0 emits its `m` tokens over a nested channel, P1 joins them
/// against its private `mine` rows into `seen2` and ships the extension
/// downstream, P2 records what arrived. P1 also keeps an insert-only
/// `stock` of every value it knows — its `mine` and `pool` rows and the
/// tokens that arrived — and the property says recorded values persist.
/// `stock` can hold every domain value, so each of the `2m + pool`
/// valuations is live and runs a product search of about the same cost,
/// which is exactly the embarrassingly-parallel outer loop E14 shards.
fn many_valuation(m: usize, pool: usize) -> (Composition, Instance, String) {
    let (comp, db) = chains::nested_relay(m, 0, pool, false);
    let prop = "forall x: G (P1.stock(x) -> X P1.stock(x))".to_string();
    (comp, db, prop)
}

fn opts(db: Instance, valuation_threads: usize) -> VerifyOptions {
    VerifyOptions {
        database: DatabaseMode::Fixed(db),
        fresh_values: Some(1),
        threads: None,
        valuation_threads: Some(valuation_threads),
        reduction: Reduction::Full,
        rule_eval: RuleEval::Compiled,
        ..VerifyOptions::default()
    }
}

fn check(w: &Workload, valuation_threads: usize) -> Report {
    let (comp, db, prop) = many_valuation(w.m, w.pool);
    let mut v = Verifier::new(comp);
    let report = v.check_str(&prop, &opts(db, valuation_threads)).unwrap();
    assert!(report.outcome.holds(), "{} must hold", w.name);
    report
}

/// The E14 acceptance bar. Every cell runs under both shard counts —
/// the `vt1` run is the determinism oracle, not an option — the NBA
/// cache must hit ≥90%, and on hosts with ≥4 cores the aggregate
/// wall-clock speedup must clear ≥3× at full scale / ≥1.5× at smoke
/// scale. On smaller hosts the sharded totals are held to a
/// no-regression bound instead (the scheduler must not cost wall-clock
/// when it cannot win any).
fn main() {
    let smoke = artifact::smoke();
    let bar = if smoke { 1.5 } else { 3.0 };
    let samples = artifact::samples(3);
    let cores = artifact::cores();

    let mut rows = Object::new();
    let mut total_sharded: u128 = 0;
    let mut total_unsharded: u128 = 0;
    for w in workloads(smoke) {
        let [(unsharded_ns, unsharded)] = artifact::medians(samples, [&mut || check(&w, 1)]);
        let [(sharded_ns, sharded)] = artifact::medians(samples, [&mut || check(&w, 4)]);
        // The determinism differential: the shard count may change who
        // runs what when, never what is explored. Every cell holds, so
        // the per-valuation searches all run to completion and the
        // summed traversal counters must coincide exactly.
        assert_eq!(
            (
                unsharded.outcome.holds(),
                unsharded.stats.states_visited,
                unsharded.valuations_checked,
            ),
            (
                sharded.outcome.holds(),
                sharded.stats.states_visited,
                sharded.valuations_checked,
            ),
            "{}: vt1 and vt4 runs diverged — scheduler bug",
            w.name
        );
        assert_eq!(
            sharded.shard_valuations.len(),
            4,
            "{}: vt4 must report one valuation count per shard",
            w.name
        );
        assert_eq!(
            sharded.shard_valuations.iter().sum::<u64>(),
            sharded.valuations_checked as u64,
            "{}: per-shard valuation counts must partition the total",
            w.name
        );
        // The cache bar: one miss per distinct grounded atom-shape. The
        // single-variable property has exactly one shape, so N
        // valuations translate once and hit N-1 times.
        let s = &sharded.stats;
        assert_eq!(
            s.valuations_vacuous, 0,
            "{}: every valuation must stay live so the shards have real work",
            w.name
        );
        let lookups = s.nba_cache_hits + s.nba_cache_misses;
        let hit_rate = s.nba_cache_hits as f64 / lookups.max(1) as f64;
        assert_eq!(
            lookups,
            w.valuations() as u64,
            "{}: one NBA-cache lookup per valuation",
            w.name
        );
        assert!(
            hit_rate >= 0.9,
            "{}: expected >=90% NBA-cache hit rate, got {:.1}% ({} hits / {} lookups)",
            w.name,
            hit_rate * 100.0,
            s.nba_cache_hits,
            lookups
        );
        let speedup = unsharded_ns as f64 / sharded_ns.max(1) as f64;
        println!(
            "e14_valuation_shard/acceptance/{}: vt1={unsharded_ns}ns vt4={sharded_ns}ns \
             speedup={speedup:.2}x valuations={} hit_rate={:.1}%",
            w.name,
            sharded.valuations_checked,
            hit_rate * 100.0
        );
        total_unsharded += unsharded_ns;
        total_sharded += sharded_ns;
        rows.push(
            w.name,
            Object::new()
                .field(
                    "scenario",
                    Object::new()
                        .field("m", w.m)
                        .field("pool", w.pool)
                        .field("valuations", w.valuations()),
                )
                .field("states_visited", sharded.stats.states_visited)
                .field("differential", "verdict+states_visited+valuations equal")
                .field("nba_cache_hit_rate", fixed(hit_rate, 3))
                .field(
                    "shard_valuations",
                    Json::Array(
                        sharded
                            .shard_valuations
                            .iter()
                            .map(|&n| Json::UInt(n))
                            .collect(),
                    ),
                )
                .field("vt4", artifact::cell(sharded_ns, &sharded.telemetry))
                .field("vt1", artifact::cell(unsharded_ns, &unsharded.telemetry))
                .field("speedup", fixed(speedup, 2)),
        );
    }

    let total_speedup = total_unsharded as f64 / total_sharded.max(1) as f64;
    let bar_enforced = cores >= 4;
    println!(
        "e14_valuation_shard/acceptance/total: vt1={total_unsharded}ns vt4={total_sharded}ns \
         speedup={total_speedup:.2}x (bar {bar:.1}x, {}, {cores} cores{})",
        if smoke { "smoke scale" } else { "full scale" },
        if bar_enforced {
            ""
        } else {
            " — bar waived, no-regression bound enforced"
        }
    );
    if bar_enforced {
        assert!(
            total_speedup >= bar,
            "expected >={bar:.1}x sharded speedup on suite wall-clock, got {total_speedup:.2}x \
             ({total_sharded}ns vs {total_unsharded}ns)"
        );
    } else {
        // One core cannot realize a 4-way parallel win; what it *can*
        // witness is that the scheduler costs ~nothing. Allow generous
        // noise headroom — cells run for milliseconds.
        assert!(
            (total_sharded as f64) <= (total_unsharded as f64) * 1.5,
            "sharded loop regressed wall-clock on a {cores}-core host: \
             {total_sharded}ns vs {total_unsharded}ns"
        );
    }

    Artifact::new("e14_valuation_shard", smoke, samples)
        .field("speedup_bar", fixed(bar, 1))
        .field("speedup_bar_enforced", Json::Bool(bar_enforced))
        .field("workloads", rows)
        .field(
            "total",
            Object::new()
                .field("vt1_median_ns", total_unsharded)
                .field("vt4_median_ns", total_sharded)
                .field("speedup", fixed(total_speedup, 2)),
        )
        .write();
}
