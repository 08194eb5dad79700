//! Spans recorded from the benchmark's own code around its calls into
//! each layer, kept in memory and written out when the run ends, plus the
//! per-layer probes: standalone public calls on the same inputs a check
//! takes (build, parse, input-boundedness, grounding, NBA translation,
//! plan compilation, and a breadth-first walk of the compact successor
//! relation).

use crate::families::Source;
use crate::{stats, Metric};
use ddws_automata::ltl_to_nba;
use ddws_logic::input_bounded::{check_input_bounded_sentence, IbOptions};
use ddws_logic::LtlFo;
use ddws_model::{CompactConfig, CompiledRules, EvalCtx, RuleCache, StatePool};
use ddws_telemetry::{Counters, Json, RunReport};
use ddws_verifier::domain::packing_capacity;
use ddws_verifier::ground::{canonical_valuations, ground_ltlfo, AtomRegistry};
use ddws_verifier::{DatabaseMode, Outcome, Verifier, VerifyOptions};
use std::collections::{BTreeSet, HashSet, VecDeque};
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One timed call: which layer function, for which operation, under which
/// enclosing span.
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// The in-memory span store of one traced run.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a span the caller timed; returns its id for children.
    pub fn record(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let span = Span {
            name,
            op,
            parent,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Opens a span that [`Tracer::close`] ends.
    pub fn open(&mut self, name: &'static str, op: u64, parent: Option<usize>) -> usize {
        let now = Instant::now();
        self.record(name, op, parent, now, now)
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.ns(Instant::now());
    }

    /// Times `f` as a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, op, parent, start, Instant::now());
        out
    }

    /// Durations of every span named `name`, in seconds.
    pub fn durations_s(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
            .collect()
    }

    /// Summed duration of the spans named `name`, in seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        self.durations_s(name).iter().sum()
    }

    /// Writes the header and then one JSON object per span, one a line.
    pub fn write_jsonl(&self, path: &Path, header: Json) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{header}")?;
        for (id, s) in self.spans.iter().enumerate() {
            let span = Json::Object(vec![
                ("id".into(), Json::UInt(id as u64)),
                ("name".into(), Json::Str(s.name.into())),
                ("op".into(), Json::UInt(s.op)),
                (
                    "parent".into(),
                    s.parent.map_or(Json::Null, |p| Json::UInt(p as u64)),
                ),
                ("start_ns".into(), Json::UInt(s.start_ns)),
                ("end_ns".into(), Json::UInt(s.end_ns)),
            ]);
            writeln!(out, "{span}")?;
        }
        out.flush()
    }
}

/// Counters the layer probes accumulate across operations.
#[derive(Default)]
pub struct ProbeTotals {
    pub nba_states: u64,
    pub configs: u64,
    pub successor_us: Vec<f64>,
    pub intern_hits: u64,
    pub intern_misses: u64,
    pub pool_bytes: u64,
    /// The counter blocks of the probes' `check` reports.
    pub counters: Counters,
    pub valuations: u64,
    /// Leaf phases of the reports and their `total_ns`.
    pub attributed_ns: u64,
    pub total_ns: u64,
    pub cex_snapshots: u64,
    /// Counterexamples that failed to replay.
    pub wrong: Vec<String>,
}

impl ProbeTotals {
    fn absorb(&mut self, report: &RunReport) {
        let (c, p) = (&report.counters, &report.phases);
        let t = &mut self.counters;
        t.states_visited += c.states_visited;
        t.transitions_explored += c.transitions_explored;
        t.states_expanded += c.states_expanded;
        t.ample_hits += c.ample_hits;
        t.rule_cache_hits += c.rule_cache_hits;
        t.rule_cache_misses += c.rule_cache_misses;
        t.nba_cache_hits += c.nba_cache_hits;
        t.nba_cache_misses += c.nba_cache_misses;
        self.valuations += report.valuations_checked;
        self.attributed_ns +=
            p.boot_ns + p.successor_ns + p.lasso_ns + p.nba_translation_ns + p.counterexample_ns;
        self.total_ns += p.total_ns;
    }
}

/// Configurations one breadth-first probe may visit: enough to put every
/// corpus case and most cells through the kernels, small enough to keep
/// a traced pass short.
const PROBE_CONFIGS: usize = 50_000;

/// Runs every layer of one check as its own public call, spanned.
pub fn probe_layers(src: &Source, op: u64, tracer: &mut Tracer, totals: &mut ProbeTotals) {
    let probe = tracer.open("probe", op, None);
    let parent = Some(probe);
    let (comp, property, opts) = tracer.time("model.build", op, parent, || src.build());
    let mut verifier = Verifier::new(comp);
    let sentence = tracer.time("logic.parse", op, parent, || {
        verifier.parse_property(&property).expect("property parses")
    });
    tracer.time("logic.ib_check", op, parent, || {
        let comp = verifier.composition();
        let ib = IbOptions::default();
        comp.check_input_bounded(ib)
            .expect("input-bounded composition");
        check_input_bounded_sentence(&sentence, comp, ib).expect("input-bounded property");
    });

    // The masks and domain `Verifier::check` sets up before its search.
    let mut observed = BTreeSet::new();
    sentence
        .body
        .visit_fo(&mut |fo| observed.extend(fo.relations()));
    let domain = verifier.domain_for(&sentence, &opts);
    let constants = verifier.domain_for(
        &sentence,
        &VerifyOptions {
            fresh_values: Some(0),
            ..opts.clone()
        },
    );
    let mut comp = verifier.composition().clone();
    comp.observe_flags(&observed);
    comp.freeze_unobserved(&observed);
    let fixed_db = match &opts.database {
        DatabaseMode::Fixed(db) => Some(db.clone()),
        DatabaseMode::AllDatabases => None,
    };
    let fresh: Vec<_> = if fixed_db.is_some() && comp.is_closed() {
        Vec::new()
    } else {
        domain
            .iter()
            .copied()
            .filter(|v| !constants.contains(v))
            .collect()
    };

    let negated = LtlFo::not(sentence.body.clone());
    let shapes = tracer.time("verifier.ground", op, parent, || {
        let valuations = canonical_valuations(&sentence.universal_vars, &constants, &fresh);
        valuations
            .iter()
            .map(|val| ground_ltlfo(&negated, val, &mut AtomRegistry::new()))
            .collect::<BTreeSet<_>>()
    });
    totals.nba_states += tracer.time("automata.translate", op, parent, || {
        shapes
            .iter()
            .map(|ltl| ltl_to_nba(ltl).num_states() as u64)
            .sum::<u64>()
    });
    let compiled = tracer.time("model.plan_compile", op, parent, || {
        CompiledRules::new(&comp)
    });

    // The successor probe walks the configuration graph of a fixed
    // database; the all-databases oracle has no single database to walk.
    if let Some(db) = fixed_db {
        let pool = StatePool::new(&comp, packing_capacity(&comp, &domain));
        let cache = RuleCache::new(&compiled);
        let ctx = EvalCtx {
            compiled: Some(&compiled),
            cache: Some(&cache),
        };
        let initial = tracer.time("model.initial", op, parent, || {
            pool.initial_configs(&comp, &db, &domain, ctx)
        });
        let movers = comp.movers();
        let walk = Instant::now();
        let mut seen: HashSet<CompactConfig> = HashSet::new();
        let mut queue: VecDeque<CompactConfig> = VecDeque::new();
        for c in initial {
            if seen.insert(c.clone()) {
                queue.push_back(c);
            }
        }
        while let Some(c) = queue.pop_front() {
            if seen.len() >= PROBE_CONFIGS {
                break;
            }
            for &mover in &movers {
                let t0 = Instant::now();
                let succs = pool.successors(&comp, &db, &domain, &c, mover, ctx);
                totals
                    .successor_us
                    .push(t0.elapsed().as_nanos() as f64 / 1e3);
                for s in succs {
                    if seen.insert(s.clone()) {
                        queue.push_back(s);
                    }
                }
            }
        }
        tracer.record("model.walk", op, parent, walk, Instant::now());
        totals.configs += seen.len() as u64;
        totals.intern_hits += pool.intern_hits();
        totals.intern_misses += pool.intern_misses();
        totals.pool_bytes = totals.pool_bytes.max(pool.approx_bytes() as u64);
    }

    let report = tracer
        .time("verifier.check", op, parent, || {
            verifier.check(&sentence, &opts)
        })
        .expect("probe check runs");
    totals.absorb(&report.telemetry);
    if let Outcome::Violated(cex) = &report.outcome {
        totals.cex_snapshots += (cex.prefix.len() + cex.cycle.len()) as u64;
        let replayed = tracer.time("verifier.replay", op, parent, || {
            verifier.replay_counterexample(&sentence, cex, &opts)
        });
        if let Err(e) = replayed {
            totals
                .wrong
                .push(format!("probe {op}: counterexample does not replay: {e}"));
        }
    }
    tracer.close(probe);
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The per-layer metrics of the probes: time busy per layer, work done,
/// and the hit ratios of the layers that can waste work.
pub fn probe_metrics(tracer: &Tracer, t: &ProbeTotals) -> Vec<Metric> {
    let c = &t.counters;
    let us = &t.successor_us;
    let pct = |p: f64| {
        if us.is_empty() {
            0.0
        } else {
            stats::percentile(us, p)
        }
    };
    vec![
        Metric::new("model.build_s", tracer.total_s("model.build"), "s"),
        Metric::new("logic.parse_s", tracer.total_s("logic.parse"), "s"),
        Metric::new("logic.ib_check_s", tracer.total_s("logic.ib_check"), "s"),
        Metric::new(
            "model.plan_compile_s",
            tracer.total_s("model.plan_compile"),
            "s",
        ),
        Metric::new("verifier.ground_s", tracer.total_s("verifier.ground"), "s"),
        Metric::new(
            "automata.translate_s",
            tracer.total_s("automata.translate"),
            "s",
        ),
        Metric::new("automata.nba_states", t.nba_states as f64, "count"),
        Metric::new("model.initial_s", tracer.total_s("model.initial"), "s"),
        Metric::new("model.successor_s", us.iter().sum::<f64>() / 1e6, "s"),
        Metric::new("model.successor_calls", us.len() as f64, "count"),
        Metric::new("model.successor_us_p50", pct(50.0), "us"),
        Metric::new("model.successor_us_p99", pct(99.0), "us"),
        Metric::new("model.configs", t.configs as f64, "count"),
        Metric::new(
            "relational.intern_hit_ratio",
            ratio(t.intern_hits, t.intern_hits + t.intern_misses),
            "ratio",
        ),
        Metric::new("relational.intern_misses", t.intern_misses as f64, "count"),
        Metric::new("relational.pool_bytes", t.pool_bytes as f64, "bytes"),
        Metric::new(
            "model.rule_cache_hit_ratio",
            ratio(c.rule_cache_hits, c.rule_cache_hits + c.rule_cache_misses),
            "ratio",
        ),
        Metric::new("verifier.check_s", tracer.total_s("verifier.check"), "s"),
        Metric::new("verifier.states_visited", c.states_visited as f64, "count"),
        Metric::new(
            "verifier.transitions",
            c.transitions_explored as f64,
            "count",
        ),
        Metric::new(
            "verifier.ample_ratio",
            ratio(c.ample_hits, c.states_expanded),
            "ratio",
        ),
        Metric::new("verifier.valuations_checked", t.valuations as f64, "count"),
        Metric::new(
            "verifier.nba_cache_hit_ratio",
            ratio(c.nba_cache_hits, c.nba_cache_hits + c.nba_cache_misses),
            "ratio",
        ),
        Metric::new("verifier.replay_s", tracer.total_s("verifier.replay"), "s"),
        Metric::new("verifier.cex_snapshots", t.cex_snapshots as f64, "count"),
        Metric::new(
            "report.unattributed_frac",
            1.0 - ratio(t.attributed_ns, t.total_ns),
            "ratio",
        ),
    ]
}
