//! Statistics helpers: order statistics, the tail-percentile rule, the
//! seeded arrival schedule, and the metric-name check.

use ddws_testkit::rng::XorShift;
use std::time::Duration;

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// The median (the mean of the two middle samples for an even count).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The smallest sample: the least disturbed of repeated timings of the
/// same work.
pub fn fastest(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "fastest of no samples");
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// The three quartile cut points as Python's `statistics.quantiles(xs,
/// n=4)` computes them (its default exclusive method), so a spread
/// computed here matches one computed from the printed values.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    assert!(xs.len() >= 2, "quartiles need two samples");
    let s = sorted(xs);
    let ld = s.len();
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (k, q) in out.iter_mut().enumerate() {
        let i = k + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        // Signed: after clamping, `j * 4` may exceed `i * m`.
        let delta = (i * m) as f64 - (j * 4) as f64;
        *q = (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0;
    }
    out
}

/// The 1-based nearest rank of the `p`-th percentile of `n` samples. The
/// tolerance keeps float error (`0.999 * 10_000` is a hair above 9990)
/// from rounding a whole rank up.
fn rank(p: f64, n: usize) -> usize {
    ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// The nearest-rank `p`-th percentile (`0 < p ≤ 100`).
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of no samples");
    sorted(xs)[rank(p, xs.len()) - 1]
}

/// The highest of p50, p75, p90, p99 and p99.9 that leaves at least ten
/// of `n` samples beyond it — the tail a run of `n` samples can resolve.
/// `None` below 20 samples.
pub fn tail_percentile(n: usize) -> Option<f64> {
    [99.9, 99.0, 90.0, 75.0, 50.0]
        .into_iter()
        .find(|&p| n.saturating_sub(rank(p, n)) >= 10)
}

/// Arrival offsets of `n` jobs from a Poisson process of `rate_per_s`:
/// exponential gaps drawn from `seed`, so one seed gives one schedule.
pub fn poisson_schedule(seed: u64, rate_per_s: f64, n: usize) -> Vec<Duration> {
    let mut rng = XorShift::new(seed);
    let mut t = 0.0f64;
    (0..n)
        .map(|_| {
            // A uniform draw in (0, 1]: 53 random bits, shifted off zero.
            let u = ((rng.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64;
            t += -u.ln() / rate_per_s;
            Duration::from_secs_f64(t)
        })
        .collect()
}

/// Whether `name` is a legal metric name: 1 to 64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or a digit.
pub fn valid_metric_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    (1..=64).contains(&name.len())
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
        // statistics.quantiles([5, 1, 4, 2, 3], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), [1.5, 3.0, 4.5]);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(percentile(&[5.0], 99.0), 5.0);
    }

    #[test]
    fn tail_percentile_leaves_ten_samples_beyond() {
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(21), Some(50.0));
        assert_eq!(tail_percentile(19), None);
    }

    #[test]
    fn poisson_schedule_is_seeded_and_has_the_requested_rate() {
        let a = poisson_schedule(7, 100.0, 5_000);
        assert_eq!(a, poisson_schedule(7, 100.0, 5_000));
        assert_ne!(a, poisson_schedule(8, 100.0, 5_000));
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "offsets ascend");
        let rate = a.len() as f64 / a.last().unwrap().as_secs_f64();
        assert!((90.0..110.0).contains(&rate), "measured rate {rate}");
    }

    #[test]
    fn metric_names() {
        for good in ["setup_s", "model.successor_us_p50", "a", "9-lives"] {
            assert!(valid_metric_name(good), "{good}");
        }
        for bad in ["", "_x", ".x", "a b", "a/b", "x!", &"a".repeat(65)] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }
}
