//! The one writer of every experiment's `BENCH_*.json` artifact: one
//! reader of the bench environment variables, the timing helpers every
//! bench measures with, and an [`Artifact`] that stamps the host, scale
//! and sample count and writes one line of [`Json`] at the workspace
//! root. A measured [`cell`] embeds the full [`RunReport`] of the run it
//! timed, so the report's key list is the only list of what a bench
//! records.

use ddws_server::Server;
use ddws_telemetry::{Json, RunReport};
use std::time::Instant;

/// Whether `DDWS_BENCH_SMOKE` asks for the reduced CI scale (set to
/// anything but empty or `0`).
pub fn smoke() -> bool {
    std::env::var("DDWS_BENCH_SMOKE").is_ok_and(|v| !v.is_empty() && v != "0")
}

/// The sample count: `DDWS_BENCH_SAMPLES` when it is a positive integer,
/// else the bench's own `default`.
pub fn samples(default: usize) -> usize {
    std::env::var("DDWS_BENCH_SAMPLES")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(default)
}

/// The host's core count, as every artifact records it.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Times each run `samples` times, the runs interleaved so clock drift
/// hits them alike, and returns each run's median wall time in
/// nanoseconds with the result of its last sample, in order.
pub fn medians<T, const N: usize>(
    samples: usize,
    mut runs: [&mut dyn FnMut() -> T; N],
) -> [(u128, T); N] {
    let mut ns: [Vec<u128>; N] = std::array::from_fn(|_| Vec::with_capacity(samples));
    let mut last: [Option<T>; N] = std::array::from_fn(|_| None);
    for _ in 0..samples.max(1) {
        for (i, run) in runs.iter_mut().enumerate() {
            let start = Instant::now();
            last[i] = Some(run());
            ns[i].push(start.elapsed().as_nanos());
        }
    }
    let mut timed = ns.into_iter().zip(last).map(|(mut ns, last)| {
        ns.sort_unstable();
        (ns[ns.len() / 2], last.expect("at least one sample"))
    });
    std::array::from_fn(|_| timed.next().expect("one result per run"))
}

/// The `p`-th percentile of an ascending, non-empty sample.
pub fn percentile<T: Copy>(sorted: &[T], p: usize) -> T {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[(sorted.len() - 1) * p / 100]
}

/// A JSON object under construction, in insertion order.
#[derive(Default)]
pub struct Object(Vec<(String, Json)>);

impl Object {
    /// An empty object.
    pub fn new() -> Object {
        Object::default()
    }

    /// The object with `key` appended.
    pub fn field(mut self, key: &str, value: impl ToJson) -> Object {
        self.push(key, value);
        self
    }

    /// Appends `key`.
    pub fn push(&mut self, key: &str, value: impl ToJson) {
        self.0.push((key.to_string(), value.to_json()));
    }
}

/// A value an artifact field can hold.
pub trait ToJson {
    /// The value as JSON.
    fn to_json(self) -> Json;
}

impl ToJson for Json {
    fn to_json(self) -> Json {
        self
    }
}

impl ToJson for Object {
    fn to_json(self) -> Json {
        Json::Object(self.0)
    }
}

impl ToJson for &str {
    fn to_json(self) -> Json {
        Json::Str(self.to_string())
    }
}

macro_rules! uint_to_json {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(self) -> Json {
                Json::UInt(u64::try_from(self).expect("a measurement fits in u64"))
            }
        }
    )*};
}
uint_to_json!(u64, usize, u128);

/// `x` rounded to `digits` decimal places: ratios and rates carry no
/// more precision than the measurement behind them.
pub fn fixed(x: f64, digits: i32) -> Json {
    let scale = 10f64.powi(digits);
    Json::Float((x * scale).round() / scale)
}

/// A measured cell: its median wall time and the run report behind it,
/// relabelled to entry point `"bench"` and validated against the schema.
pub fn cell(median_ns: u128, report: &RunReport) -> Object {
    let report = RunReport {
        entry_point: "bench".into(),
        ..report.clone()
    }
    .to_json_value();
    RunReport::from_json_value(&report).expect("bench report validates against the schema");
    Object::new()
        .field("median_ns", median_ns)
        .field("run_report", report)
}

/// The redacted report of the first job `server` served that searched: a
/// job whose closure valuations all fold away before search reports zero
/// states, which is no evidence of a search.
pub fn searched_report(server: &Server) -> RunReport {
    let jobs = server.jobs();
    let mut reports = jobs.iter().filter_map(|j| server.redacted_report(j.job));
    reports
        .find(|r| r.counters.states_visited > 0)
        .expect("some served job searched")
}

/// One experiment's `BENCH_<E>.json`, stamped with the host, the scale
/// and the sample count.
pub struct Artifact {
    experiment: &'static str,
    doc: Object,
}

impl Artifact {
    /// Starts the artifact of `experiment` (`e13_state_repr` writes
    /// `BENCH_E13.json`); `smoke` selects the recorded `mode`.
    pub fn new(experiment: &'static str, smoke: bool, samples: usize) -> Artifact {
        let doc = Object::new()
            .field("experiment", experiment)
            .field("cores", cores())
            .field("mode", if smoke { "smoke" } else { "full" })
            .field("samples", samples);
        Artifact { experiment, doc }
    }

    /// The artifact with the bench's own `key` appended.
    pub fn field(mut self, key: &str, value: impl ToJson) -> Artifact {
        self.doc.push(key, value);
        self
    }

    /// Writes `BENCH_<E>.json` at the workspace root.
    pub fn write(self) {
        let tag = self.experiment.split('_').next().unwrap_or_default();
        let path = format!(
            "{}/../../BENCH_{}.json",
            env!("CARGO_MANIFEST_DIR"),
            tag.to_uppercase()
        );
        std::fs::write(&path, format!("{}\n", self.doc.to_json()))
            .unwrap_or_else(|e| panic!("write {path}: {e}"));
        println!("{}/acceptance: wrote {path}", self.experiment);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn medians_interleave_runs_and_keep_each_last_result() {
        let order = std::cell::RefCell::new(String::new());
        let (mut a, mut b) = (0, 0);
        let [(_, last_a), (_, last_b)] = medians(
            3,
            [
                &mut || {
                    order.borrow_mut().push('a');
                    a += 1;
                    a
                },
                &mut || {
                    order.borrow_mut().push('b');
                    b += 10;
                    b
                },
            ],
        );
        assert_eq!((last_a, last_b), (3, 30));
        assert_eq!(order.into_inner(), "ababab");
    }

    #[test]
    fn percentiles_index_the_sorted_sample() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&sorted, 50), 50);
        assert_eq!(percentile(&sorted, 99), 99);
        assert_eq!(percentile(&[7u64], 99), 7);
    }

    #[test]
    fn cells_carry_a_validated_bench_report() {
        let report = RunReport {
            entry_point: "check".into(),
            engine: "seq".into(),
            reduction: "full".into(),
            rule_eval: "compiled".into(),
            outcome: "holds".into(),
            abort: None,
            valuations_checked: 1,
            domain_size: 2,
            counters: Default::default(),
            phases: Default::default(),
        };
        let Json::Object(fields) = cell(42, &report).to_json() else {
            panic!("a cell is an object");
        };
        assert_eq!(fields[0], ("median_ns".into(), Json::UInt(42)));
        let decoded = RunReport::from_json_value(&fields[1].1).expect("valid report");
        assert_eq!(decoded.entry_point, "bench");
    }

    #[test]
    fn fixed_rounds_to_the_requested_digits() {
        assert_eq!(fixed(2.345_678, 2), Json::Float(2.35));
        assert_eq!(fixed(0.998_61, 4).to_string(), "0.9986");
    }
}
