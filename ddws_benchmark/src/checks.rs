//! The check workloads — `explore`, `closure` and `oneshot` — driven
//! through `Verifier::check`, one pass after another until the run's
//! time is up.

use crate::families::{self, Cell, Source};
use crate::stats::{self, fastest, median};
use crate::trace::{probe_layers, probe_metrics, ProbeTotals, Tracer};
use crate::{
    latency_note, peak_rss_mb, service, time_setup, traced_e2e, Metric, RunConfig, RunResult,
    Verdict, Workload,
};
use ddws_logic::LtlFoSentence;
use ddws_verifier::{Outcome, Report, RuleEval, StateRepr, Verifier, VerifyError, VerifyOptions};
use std::time::Instant;

/// Compgen cases per `oneshot` pass (the two paper cells come on top).
const ONESHOT_CASES: usize = 2_000;
const ONESHOT_CASES_SMOKE: usize = 150;
/// Corpus cases re-checked against the oracle of record after the timed
/// phase.
const ORACLE_SAMPLE: usize = 250;
const ORACLE_SAMPLE_SMOKE: usize = 40;
/// Passes every run measures, however short its time.
const MIN_PASSES: usize = 3;
/// The side probe that measures the service layers in the traced runs of
/// the check workloads: corpus size and open-loop jobs.
const SIDE_CASES: usize = 200;
const SIDE_OPEN_JOBS: usize = 100;

/// A cell built, wrapped and parsed in set-up.
pub struct Prepared {
    cell: Cell,
    verifier: Verifier,
    property: LtlFoSentence,
    opts: VerifyOptions,
}

/// One check of a pass.
pub enum Check {
    /// Prepared in set-up; the timed operation is `Verifier::check`
    /// (`explore`, `closure`).
    Prebuilt(Box<Prepared>),
    /// Built inside the timed operation: `build`, `Verifier::new`,
    /// `parse_property` and `check` — the per-check fixed costs
    /// (`oneshot`).
    Fresh(Source),
}

impl Check {
    pub fn source(&self) -> Source {
        match self {
            Check::Prebuilt(p) => Source::Cell(p.cell.clone()),
            Check::Fresh(src) => src.clone(),
        }
    }

    /// The verdict every run must reach, for the pinned cells.
    fn pinned(&self) -> Option<Verdict> {
        let cell = match self {
            Check::Prebuilt(p) => &p.cell,
            Check::Fresh(Source::Cell(cell)) => cell,
            Check::Fresh(Source::Case(_)) => return None,
        };
        Some(if cell.holds {
            Verdict::Holds
        } else {
            Verdict::Violated
        })
    }
}

/// Builds a workload's checks, in the order the seed shuffles them into.
pub fn setup(workload: Workload, seed: u64, smoke: bool) -> Vec<Check> {
    let prebuilt = |cells: Vec<Cell>| -> Vec<Check> {
        cells
            .into_iter()
            .map(|cell| {
                let (comp, db) = cell.build();
                let mut verifier = Verifier::new(comp);
                let property = verifier
                    .parse_property(cell.property)
                    .expect("cell property parses");
                let opts = cell.options(db);
                Check::Prebuilt(Box::new(Prepared {
                    cell,
                    verifier,
                    property,
                    opts,
                }))
            })
            .collect()
    };
    let mut checks = match workload {
        Workload::Explore => prebuilt(families::explore_cells(smoke)),
        Workload::Closure => prebuilt(families::closure_cells(smoke)),
        Workload::Oneshot => {
            let n = if smoke {
                ONESHOT_CASES_SMOKE
            } else {
                ONESHOT_CASES
            };
            let cases = families::corpus(n, seed).into_iter().map(Source::Case);
            let cells = families::paper_cells().into_iter().map(Source::Cell);
            cases.chain(cells).map(Check::Fresh).collect()
        }
        Workload::Service => unreachable!("the service workload has its own set-up"),
    };
    families::shuffle(&mut checks, seed);
    checks
}

/// The gates' view of a whole run: verdicts, failures, wrong answers.
#[derive(Default)]
pub struct Ledger {
    /// The first pass's verdict per check; later passes must agree.
    pub verdicts: Vec<Option<Verdict>>,
    pub attempted: u64,
    pub failed: u64,
    pub wrong: Vec<String>,
}

impl Ledger {
    fn note(&mut self, i: usize, label: &str, got: Verdict, pinned: Option<Verdict>) {
        self.attempted += 1;
        if self.verdicts.len() <= i {
            self.verdicts.resize(i + 1, None);
        }
        if matches!(got, Verdict::Inconclusive | Verdict::Error) {
            self.failed += 1;
        }
        if let Some(want) = pinned {
            if got != want {
                self.wrong
                    .push(format!("{label}: pinned {want:?}, got {got:?}"));
            }
        }
        match self.verdicts[i] {
            None => self.verdicts[i] = Some(got),
            Some(first) if first != got => self.wrong.push(format!(
                "{label}: verdict changed from {first:?} to {got:?}"
            )),
            Some(_) => {}
        }
    }
}

/// Optional spans around one operation's calls.
struct Spans<'a> {
    tracer: Option<&'a mut Tracer>,
    op: u64,
    parent: Option<usize>,
}

impl Spans<'_> {
    fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        match self.tracer.as_deref_mut() {
            Some(t) => t.time(name, self.op, self.parent, f),
            None => f(),
        }
    }
}

fn verdict_of(result: &Result<Report, VerifyError>) -> Verdict {
    match result {
        Ok(r) => match r.outcome {
            Outcome::Holds => Verdict::Holds,
            Outcome::Violated(_) => Verdict::Violated,
            Outcome::Inconclusive(_) => Verdict::Inconclusive,
        },
        Err(_) => Verdict::Error,
    }
}

/// Replays a counterexample against the check that produced it.
fn replay(
    verifier: &mut Verifier,
    property: &LtlFoSentence,
    opts: &VerifyOptions,
    result: &Result<Report, VerifyError>,
) -> Result<(), String> {
    match result {
        Ok(Report {
            outcome: Outcome::Violated(cex),
            ..
        }) => verifier.replay_counterexample(property, cex, opts),
        _ => Ok(()),
    }
}

/// Runs one pass over `checks` and returns each operation's latency in
/// seconds. Counterexamples are replayed outside the timed operation.
pub fn pass(
    checks: &mut [Check],
    ledger: &mut Ledger,
    mut tracer: Option<&mut Tracer>,
) -> Vec<f64> {
    let mut latencies = Vec::with_capacity(checks.len());
    for (i, check) in checks.iter_mut().enumerate() {
        let pinned = check.pinned();
        let op_span = tracer.as_deref_mut().map(|t| t.open("op", i as u64, None));
        let mut spans = Spans {
            tracer: tracer.as_deref_mut(),
            op: i as u64,
            parent: op_span,
        };
        let start = Instant::now();
        let (label, verdict, replayed) = match check {
            Check::Prebuilt(p) => {
                let Prepared {
                    cell,
                    verifier,
                    property,
                    opts,
                } = &mut **p;
                let result = spans.time("verifier.check", || verifier.check(property, opts));
                latencies.push(start.elapsed().as_secs_f64());
                let replayed = replay(verifier, property, opts, &result);
                (cell.name.to_string(), verdict_of(&result), replayed)
            }
            Check::Fresh(src) => {
                let (comp, text, opts) = spans.time("model.build", || src.build());
                let mut verifier = spans.time("verifier.new", || Verifier::new(comp));
                let property = spans.time("logic.parse", || {
                    verifier.parse_property(&text).expect("property parses")
                });
                let result = spans.time("verifier.check", || verifier.check(&property, &opts));
                latencies.push(start.elapsed().as_secs_f64());
                let replayed = replay(&mut verifier, &property, &opts, &result);
                let label = match src {
                    Source::Cell(cell) => cell.name.to_string(),
                    Source::Case(_) => format!("case {i}"),
                };
                (label, verdict_of(&result), replayed)
            }
        };
        if let (Some(t), Some(id)) = (tracer.as_deref_mut(), op_span) {
            t.close(id);
        }
        if let Err(e) = replayed {
            ledger
                .wrong
                .push(format!("{label}: counterexample does not replay: {e}"));
        }
        ledger.note(i, &label, verdict, pinned);
    }
    latencies
}

/// The oracle of record: owned configurations, interpreted rules, the
/// sequential engine, one valuation at a time.
pub fn oracle_options(opts: VerifyOptions) -> VerifyOptions {
    VerifyOptions {
        state_repr: StateRepr::Legacy,
        rule_eval: RuleEval::Interpreted,
        threads: None,
        valuation_threads: None,
        ..opts
    }
}

/// The verdict of the oracle of record on one source.
pub fn oracle_verdict(src: &Source) -> Verdict {
    let (comp, text, opts) = src.build();
    let mut verifier = Verifier::new(comp);
    verdict_of(&verifier.check_str(&text, &oracle_options(opts)))
}

/// Re-checks a seeded sample of the corpus cases with the oracle of
/// record; every verdict must match the timed runs'.
pub fn oracle_gate(checks: &[Check], ledger: &mut Ledger, seed: u64, smoke: bool) {
    let mut cases: Vec<usize> = checks
        .iter()
        .enumerate()
        .filter(|(_, c)| matches!(c, Check::Fresh(Source::Case(_))))
        .map(|(i, _)| i)
        .collect();
    families::shuffle(&mut cases, seed ^ 0x0ac1e);
    let n = if smoke {
        ORACLE_SAMPLE_SMOKE
    } else {
        ORACLE_SAMPLE
    };
    for &i in cases.iter().take(n) {
        let want = oracle_verdict(&checks[i].source());
        let got = ledger.verdicts.get(i).copied().flatten();
        if got != Some(want) {
            ledger.wrong.push(format!(
                "case {i}: oracle of record says {want:?}, the timed run said {got:?}"
            ));
        }
    }
}

/// An `explore`, `closure` or `oneshot` run.
pub fn run(cfg: &RunConfig) -> RunResult {
    let mut build = || setup(cfg.workload, cfg.seed, cfg.smoke);
    let mut ledger = Ledger::default();
    if cfg.trace {
        return run_traced(cfg, &mut build(), ledger);
    }
    let mut setup_times = Vec::new();
    let mut checks = time_setup(&mut setup_times, &mut build, drop);

    let start = Instant::now();
    let mut pass_s = Vec::new();
    // Per check, its latency in every pass.
    let mut per_check: Vec<Vec<f64>> = vec![Vec::new(); checks.len()];
    while pass_s.len() < MIN_PASSES || start.elapsed().as_secs_f64() < cfg.seconds {
        let ops = pass(&mut checks, &mut ledger, None);
        pass_s.push(ops.iter().sum::<f64>());
        for (samples, op) in per_check.iter_mut().zip(ops) {
            samples.push(op);
        }
        drop(time_setup(&mut setup_times, &mut build, drop));
    }
    // Before the gates: the oracle of record's own memory is not the
    // workload's.
    let peak_rss = peak_rss_mb();
    if cfg.workload == Workload::Oneshot {
        oracle_gate(&checks, &mut ledger, cfg.seed, cfg.smoke);
    }
    // Hosts shared with other machines slow memory-bound work in bursts
    // of tens of seconds. The fastest pass, and each check's fastest run,
    // are a run's least disturbed estimates: over ten seeds they moved two
    // to four times less than medians over the passes did.
    let latencies: Vec<f64> = per_check.iter().map(|s| fastest(s)).collect();
    let [q1, q2, q3] = stats::quartiles(&pass_s);
    RunResult {
        attempted: ledger.attempted,
        failed: ledger.failed,
        wrong: ledger.wrong,
        passes: pass_s.len(),
        notes: vec![
            format!(
                "{} checks per pass; pass fastest={:.4}s q1={q1:.4}s median={q2:.4}s q3={q3:.4}s",
                checks.len(),
                fastest(&pass_s)
            ),
            latency_note("check latency (fastest over passes per check)", &latencies),
        ],
        metrics: vec![
            Metric::new("setup_s", median(&setup_times), "s"),
            Metric::new("suite_s", fastest(&pass_s), "s"),
            Metric::new("op_p50_ms", median(&latencies) * 1e3, "ms"),
            Metric::new("peak_rss_mb", peak_rss, "MB"),
        ],
    }
}

/// One traced pass, then the layer probes on every check's inputs, then
/// the service side probe.
fn run_traced(cfg: &RunConfig, checks: &mut [Check], mut ledger: Ledger) -> RunResult {
    let mut tracer = Tracer::new();
    let latencies = pass(checks, &mut ledger, Some(&mut tracer));
    let mut totals = ProbeTotals::default();
    for (i, check) in checks.iter().enumerate() {
        probe_layers(&check.source(), i as u64, &mut tracer, &mut totals);
    }
    // `explore` and `closure` only prove; replay is measured on the
    // bank-loan counterexample instead.
    if totals.cex_snapshots == 0 {
        let violated = families::paper_cells().into_iter().find(|c| !c.holds);
        let cell = violated.expect("a violated paper cell");
        probe_layers(
            &Source::Cell(cell),
            checks.len() as u64,
            &mut tracer,
            &mut totals,
        );
    }
    let mut metrics = probe_metrics(&tracer, &totals);
    ledger.wrong.extend(totals.wrong);

    // The check workloads serve nothing; a small traced session over the
    // corpus measures the service layers so that every layer metric is
    // defined in every traced run.
    let specs = families::corpus(SIDE_CASES, cfg.seed);
    let side = service::traced_session(&specs, SIDE_OPEN_JOBS, cfg.seed, &mut tracer);
    metrics.extend(side.metrics);
    let mut served = side.open;
    served.extend(side.closed);
    let (side_failed, side_wrong) =
        service::gate(&specs, &served, cfg.seed, service::ORACLE_SAMPLE_SMOKE);
    ledger.wrong.extend(side_wrong);

    metrics.extend(traced_e2e(latencies.iter().sum(), &latencies));
    crate::write_trace(cfg, &tracer);
    RunResult {
        attempted: ledger.attempted,
        failed: ledger.failed + side_failed,
        wrong: ledger.wrong,
        passes: 1,
        notes: Vec::new(),
        metrics,
    }
}
