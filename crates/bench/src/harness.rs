//! An offline, dependency-free stand-in for the slice of the `criterion`
//! API the `e*` bench targets use.
//!
//! The workspace builds with no network access, so `criterion` cannot be a
//! dependency. This harness keeps the bench sources criterion-shaped —
//! groups, `sample_size`, `bench_with_input`, `BenchmarkId`, `b.iter` —
//! while measuring with plain [`std::time::Instant`] and printing a
//! min/median/max line per benchmark. There is no warm-up phase beyond one
//! untimed iteration and no statistical outlier analysis: the numbers are
//! for relative comparison, not publication.
//!
//! Set `DDWS_BENCH_SAMPLES` to override every group's sample count (useful
//! to smoke-test a bench target with `DDWS_BENCH_SAMPLES=1`).

use std::time::{Duration, Instant};

/// The top-level driver handed to each `criterion_group!` function.
#[derive(Default)]
pub struct Criterion {
    filter: Option<String>,
}

impl Criterion {
    /// A driver whose benchmark filter comes from the command line: the
    /// first non-flag argument, as `cargo bench -- <substring>` passes it.
    pub fn from_args() -> Self {
        let filter = std::env::args().skip(1).find(|a| !a.starts_with('-'));
        Criterion { filter }
    }

    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
            sample_size: 10,
        }
    }
}

/// A named set of benchmarks sharing a sample count.
pub struct BenchmarkGroup<'a> {
    criterion: &'a Criterion,
    name: String,
    sample_size: usize,
}

impl BenchmarkGroup<'_> {
    /// Sets how many timed samples each benchmark records.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n;
        self
    }

    /// Runs a benchmark with no parameter.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into();
        self.run(&id.label, |b| f(b));
        self
    }

    /// Runs a benchmark parameterized by `input`.
    pub fn bench_with_input<I, F>(&mut self, id: BenchmarkId, input: &I, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        self.run(&id.label, |b| f(b, input));
        self
    }

    /// Ends the group (kept for criterion source compatibility).
    pub fn finish(&mut self) {}

    fn run(&self, label: &str, mut f: impl FnMut(&mut Bencher)) {
        let full = format!("{}/{}", self.name, label);
        if let Some(filter) = &self.criterion.filter {
            if !full.contains(filter.as_str()) {
                return;
            }
        }
        let samples = crate::artifact::samples(self.sample_size);
        let mut bencher = Bencher {
            samples,
            durations: Vec::with_capacity(samples),
        };
        f(&mut bencher);
        report(&full, &bencher.durations);
    }
}

/// The per-benchmark measurement handle.
pub struct Bencher {
    samples: usize,
    durations: Vec<Duration>,
}

impl Bencher {
    /// Times `routine` once per sample (plus one untimed warm-up call).
    pub fn iter<R>(&mut self, mut routine: impl FnMut() -> R) {
        std::hint::black_box(routine());
        for _ in 0..self.samples {
            let start = Instant::now();
            let out = routine();
            let elapsed = start.elapsed();
            std::hint::black_box(out);
            self.durations.push(elapsed);
        }
    }
}

/// A benchmark label, optionally `function/parameter`-shaped.
pub struct BenchmarkId {
    label: String,
}

impl BenchmarkId {
    /// `function/parameter`.
    pub fn new(function: impl Into<String>, parameter: impl std::fmt::Display) -> Self {
        BenchmarkId {
            label: format!("{}/{parameter}", function.into()),
        }
    }

    /// Just the parameter as the label.
    pub fn from_parameter(parameter: impl std::fmt::Display) -> Self {
        BenchmarkId {
            label: parameter.to_string(),
        }
    }
}

impl From<&str> for BenchmarkId {
    fn from(label: &str) -> Self {
        BenchmarkId {
            label: label.to_string(),
        }
    }
}

impl From<String> for BenchmarkId {
    fn from(label: String) -> Self {
        BenchmarkId { label }
    }
}

fn report(label: &str, durations: &[Duration]) {
    if durations.is_empty() {
        println!("{label:<44} no samples recorded");
        return;
    }
    let mut sorted = durations.to_vec();
    sorted.sort();
    let median = sorted[sorted.len() / 2];
    println!(
        "{label:<44} time: [{} {} {}]  ({} samples)",
        fmt_duration(sorted[0]),
        fmt_duration(median),
        fmt_duration(*sorted.last().expect("non-empty")),
        sorted.len(),
    );
}

fn fmt_duration(d: Duration) -> String {
    let nanos = d.as_nanos();
    if nanos >= 1_000_000_000 {
        format!("{:.3} s", nanos as f64 / 1e9)
    } else if nanos >= 1_000_000 {
        format!("{:.3} ms", nanos as f64 / 1e6)
    } else if nanos >= 1_000 {
        format!("{:.3} µs", nanos as f64 / 1e3)
    } else {
        format!("{nanos} ns")
    }
}

/// Groups bench functions, mirroring `criterion::criterion_group!`.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        fn $name(c: &mut $crate::harness::Criterion) {
            $($target(c);)+
        }
    };
}

/// Entry point running every group, mirroring `criterion::criterion_main!`.
#[macro_export]
macro_rules! criterion_main {
    ($($group:ident),+ $(,)?) => {
        fn main() {
            let mut c = $crate::harness::Criterion::from_args();
            $($group(&mut c);)+
        }
    };
}

pub use crate::{criterion_group, criterion_main};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_records_one_duration_per_sample() {
        let mut b = Bencher {
            samples: 4,
            durations: Vec::new(),
        };
        let mut calls = 0;
        b.iter(|| calls += 1);
        assert_eq!(b.durations.len(), 4);
        assert_eq!(calls, 5, "one warm-up plus four timed");
    }

    #[test]
    fn benchmark_ids_format_like_criterion() {
        assert_eq!(BenchmarkId::new("lossy", 3).label, "lossy/3");
        assert_eq!(BenchmarkId::from_parameter(7).label, "7");
    }

    #[test]
    fn duration_formatting_picks_units() {
        assert_eq!(fmt_duration(Duration::from_nanos(12)), "12 ns");
        assert!(fmt_duration(Duration::from_micros(12)).ends_with("µs"));
        assert!(fmt_duration(Duration::from_millis(12)).ends_with("ms"));
        assert!(fmt_duration(Duration::from_secs(2)).ends_with(" s"));
    }
}
