//! The repository benchmark: four seeded workloads over the verifier and
//! the verification service.
//!
//! ```text
//! cargo run --release --offline --manifest-path ddws_benchmark/Cargo.toml -- \
//!     --workload <explore|closure|oneshot|service> --seed <u64> \
//!     [--seconds <s>] [--trace <0|1>] [--smoke]
//! ```
//!
//! An untraced run (`--trace 0`) measures the end-to-end metrics; a traced
//! run (`--trace 1`) is a separate run that times the benchmark's calls
//! into each layer and reports the per-layer metrics. Every run checks its
//! verdicts, prints each metric with its unit, and ends with one JSON
//! line: `{"correct", "attempted", "failed", "metrics"}`. A wrong verdict
//! exits with code 1. See README.md for the workloads and metrics.

mod checks;
mod families;
mod service;
mod stats;
mod trace;

use ddws_telemetry::Json;
use std::process::ExitCode;

/// How long one window of set-up repetitions lasts. An untraced run
/// takes one window before its timed phase and one after each pass (or
/// closed-loop segment); `setup_s` is the median repetition, so it sees
/// the host as the timed phase does rather than only the run's first
/// instant.
const SETUP_WINDOW_S: f64 = 0.05;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Explore,
    Closure,
    Oneshot,
    Service,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Explore,
        Workload::Closure,
        Workload::Oneshot,
        Workload::Service,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Explore => "explore",
            Workload::Closure => "closure",
            Workload::Oneshot => "oneshot",
            Workload::Service => "service",
        }
    }
}

/// One run's settings.
pub struct RunConfig {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// A few seconds per workload: smaller cells and corpora.
    pub smoke: bool,
}

/// A verdict as the gates compare it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Holds,
    Violated,
    /// Out of budget.
    Inconclusive,
    /// An error, a refused job, or any other terminal answer.
    Error,
}

impl Verdict {
    /// The service's verdict label.
    pub fn from_label(label: &str) -> Verdict {
        match label {
            "holds" => Verdict::Holds,
            "violated" => Verdict::Violated,
            "budget_exceeded" => Verdict::Inconclusive,
            _ => Verdict::Error,
        }
    }
}

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// What a run measured and how its verdicts fared.
pub struct RunResult {
    pub attempted: u64,
    /// Operations that did not end in a verdict: errors, budget stops,
    /// refused jobs.
    pub failed: u64,
    /// Wrong verdicts and failed replays; any makes the run incorrect.
    pub wrong: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Passes (or closed-loop segments) the run measured.
    pub passes: usize,
    pub notes: Vec<String>,
}

fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Repeats `setup` for one window, appending each repetition's time to
/// `times` and handing every result but the last to `teardown` outside
/// the timed region; returns the last result.
pub fn time_setup<T>(
    times: &mut Vec<f64>,
    mut setup: impl FnMut() -> T,
    mut teardown: impl FnMut(T),
) -> T {
    let window = std::time::Instant::now();
    loop {
        let t0 = std::time::Instant::now();
        let ready = setup();
        times.push(t0.elapsed().as_secs_f64());
        if window.elapsed().as_secs_f64() >= SETUP_WINDOW_S {
            return ready;
        }
        teardown(ready);
    }
}

/// Peak resident set size of this process so far, from
/// `/proc/self/status`.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The host stamp every output carries.
fn stamp(cfg: &RunConfig, passes: usize) -> Vec<(String, Json)> {
    vec![
        ("workload".into(), Json::Str(cfg.workload.name().into())),
        ("seed".into(), Json::UInt(cfg.seed)),
        ("cores".into(), Json::UInt(cores() as u64)),
        ("passes".into(), Json::UInt(passes as u64)),
        (
            "mode".into(),
            Json::Str(if cfg.trace { "trace" } else { "timed" }.into()),
        ),
        (
            "scale".into(),
            Json::Str(if cfg.smoke { "smoke" } else { "full" }.into()),
        ),
    ]
}

/// Writes a traced run's spans under `traces/` in the benchmark's
/// directory.
pub fn write_trace(cfg: &RunConfig, tracer: &trace::Tracer) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("traces")
        .join(format!("{}-{}.jsonl", cfg.workload.name(), cfg.seed));
    match tracer.write_jsonl(&path, Json::Object(stamp(cfg, 1))) {
        Ok(()) => println!("spans: {}", path.display()),
        Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
    }
}

/// A latency distribution as the printed notes report it: the sample
/// count, the median, and the highest percentile with at least ten
/// samples beyond it.
pub fn latency_note(label: &str, latencies_s: &[f64]) -> String {
    let ms = |p: f64| stats::percentile(latencies_s, p) * 1e3;
    let tail = match stats::tail_percentile(latencies_s.len()) {
        Some(p) => format!("p{p}={:.4}ms", ms(p)),
        None => "no resolvable tail".into(),
    };
    format!(
        "{label}: n={} p50={:.4}ms {tail} max={:.4}ms",
        latencies_s.len(),
        stats::median(latencies_s) * 1e3,
        ms(100.0)
    )
}

/// A traced run's end-to-end numbers, named apart from the untraced run's
/// so the two side by side show the tracing overhead.
pub fn traced_e2e(suite_s: f64, latencies_s: &[f64]) -> [Metric; 2] {
    [
        Metric::new("traced.suite_s", suite_s, "s"),
        Metric::new("traced.op_p50_ms", stats::median(latencies_s) * 1e3, "ms"),
    ]
}

/// Runs one workload.
pub fn run(cfg: &RunConfig) -> RunResult {
    let result = match cfg.workload {
        Workload::Service => service::run(cfg),
        _ => checks::run(cfg),
    };
    for m in &result.metrics {
        assert!(
            stats::valid_metric_name(m.name),
            "bad metric name {:?}",
            m.name
        );
    }
    result
}

/// The result line.
fn result_json(result: &RunResult) -> Json {
    let metrics = result
        .metrics
        .iter()
        .map(|m| {
            let v = Json::Object(vec![
                ("value".into(), Json::Float(m.value)),
                ("unit".into(), Json::Str(m.unit.into())),
            ]);
            (m.name.to_string(), v)
        })
        .collect();
    Json::Object(vec![
        ("correct".into(), Json::Bool(result.wrong.is_empty())),
        ("attempted".into(), Json::UInt(result.attempted)),
        ("failed".into(), Json::UInt(result.failed)),
        ("metrics".into(), Json::Object(metrics)),
    ])
}

const USAGE: &str = "usage: ddws_benchmark --workload <explore|closure|oneshot|service> \
                     [--seed <u64>] [--seconds <s>] [--trace <0|1>] [--smoke]";

fn parse_args(args: &[String]) -> Result<RunConfig, String> {
    let mut cfg = RunConfig {
        workload: Workload::Explore,
        seed: 1,
        seconds: 20.0,
        trace: false,
        smoke: false,
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            cfg.smoke = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                let w = Workload::ALL.into_iter().find(|w| w.name() == value);
                workload = Some(w.ok_or(format!("unknown workload {value:?}"))?);
            }
            "--seed" => cfg.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                cfg.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(cfg.seconds > 0.0 && cfg.seconds.is_finite()) {
                    return Err(format!("--seconds {value}: must be positive"));
                }
            }
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    cfg.workload = workload.ok_or("--workload is required")?;
    Ok(cfg)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse_args(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = run(&cfg);

    let host: Vec<String> = stamp(&cfg, result.passes)
        .into_iter()
        .map(|(k, v)| format!("{k}={}", v.as_str().map_or(v.to_string(), str::to_string)))
        .collect();
    println!("host: {}", host.join(" "));
    for note in &result.notes {
        println!("{note}");
    }
    for m in &result.metrics {
        println!("{} = {} {}", m.name, m.value, m.unit);
    }
    println!(
        "operations: attempted {} failed {}",
        result.attempted, result.failed
    );
    for w in &result.wrong {
        eprintln!("WRONG: {w}");
    }
    println!("{}", result_json(&result));
    if result.wrong.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric names `BENCHMARK.json` lists under `key`.
    fn declared(key: &str) -> Vec<String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let Some(Json::Array(metrics)) = doc.get(key) else {
            panic!("BENCHMARK.json has no {key} list");
        };
        metrics
            .iter()
            .map(|m| {
                m.get("name")
                    .and_then(Json::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect()
    }

    #[test]
    fn every_workload_emits_every_declared_metric_and_passes_its_gates() {
        for workload in Workload::ALL {
            for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
                let cfg = RunConfig {
                    workload,
                    seed: 3,
                    seconds: 1.0,
                    trace,
                    smoke: true,
                };
                let result = run(&cfg);
                let tag = format!("{} trace={trace}", workload.name());
                assert!(result.wrong.is_empty(), "{tag}: {:?}", result.wrong);
                assert_eq!(result.failed, 0, "{tag}: failed operations");
                assert!(result.attempted > 0, "{tag}: nothing attempted");
                let mut emitted: Vec<String> =
                    result.metrics.iter().map(|m| m.name.to_string()).collect();
                for m in &result.metrics {
                    assert!(m.value.is_finite(), "{tag}: {} = {}", m.name, m.value);
                }
                let mut want = declared(key);
                emitted.sort();
                want.sort();
                assert_eq!(emitted, want, "{tag}: emitted vs BENCHMARK.json {key}");
            }
        }
    }

    #[test]
    fn arguments_parse_in_the_command_line_form() {
        let args: Vec<String> = "--workload service --seed 42 --seconds 20 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        let cfg = parse_args(&args).expect("the command-line form parses");
        assert_eq!(cfg.workload, Workload::Service);
        assert_eq!((cfg.seed, cfg.seconds, cfg.trace), (42, 20.0, true));
        for bad in [
            "",
            "--workload nope",
            "--workload explore --trace 2",
            "--seed",
        ] {
            let args: Vec<String> = bad.split_whitespace().map(String::from).collect();
            assert!(parse_args(&args).is_err(), "{bad:?} must be refused");
        }
    }
}
