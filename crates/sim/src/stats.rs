//! Streaming statistics and overhead reporting.
//!
//! The paper reports means of 5 runs, overhead percentages relative to an
//! untracked baseline, and speedup factors. [`Summary`] accumulates samples
//! with Welford's online algorithm (numerically stable, single pass) and
//! [`overhead_pct`]/[`speedup`] implement the paper's derived metrics.

use serde::Serialize;

/// Online mean/variance/min/max accumulator (Welford).
#[derive(Debug, Clone, Default, Serialize)]
pub struct Summary {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Summary {
    pub fn new() -> Self {
        Self {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Build a summary from an iterator of samples.
    pub fn from_samples<I: IntoIterator<Item = f64>>(samples: I) -> Self {
        let mut s = Self::new();
        for x in samples {
            s.add(x);
        }
        s
    }

    /// Add one sample.
    pub fn add(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.mean
        }
    }

    /// Sample standard deviation (n−1 denominator).
    pub fn stddev(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            (self.m2 / (self.n - 1) as f64).sqrt()
        }
    }

    pub fn min(&self) -> f64 {
        self.min
    }

    pub fn max(&self) -> f64 {
        self.max
    }
}

/// Overhead of `measured` relative to `baseline`, in percent — the paper's
/// "overhead (%)" metric: 100·(measured − baseline)/baseline.
pub fn overhead_pct(measured: f64, baseline: f64) -> f64 {
    if baseline <= 0.0 {
        return f64::NAN;
    }
    100.0 * (measured - baseline) / baseline
}

/// Speedup of `fast` over `slow` — the paper's "N× speedup" metric.
pub fn speedup(slow: f64, fast: f64) -> f64 {
    if fast <= 0.0 {
        return f64::NAN;
    }
    slow / fast
}

/// Exact percentile of a sample set (nearest-rank). Sorts a scratch copy;
/// intended for end-of-run reporting, not hot paths.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!((0.0..=100.0).contains(&p));
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs in percentile input"));
    let rank = ((p / 100.0) * (v.len() as f64 - 1.0)).round() as usize;
    v[rank]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_basics() {
        let s = Summary::from_samples([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-9);
        // population stddev is 2.0; sample stddev = sqrt(32/7)
        assert!((s.stddev() - (32.0f64 / 7.0).sqrt()).abs() < 1e-9);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn empty_summary_is_safe() {
        let s = Summary::new();
        assert!(s.mean().is_nan());
        assert_eq!(s.stddev(), 0.0);
    }

    #[test]
    fn single_sample() {
        let s = Summary::from_samples([3.5]);
        assert_eq!(s.mean(), 3.5);
        assert_eq!(s.stddev(), 0.0);
        assert_eq!(s.min(), 3.5);
        assert_eq!(s.max(), 3.5);
    }

    #[test]
    fn overhead_and_speedup() {
        assert!((overhead_pct(200.0, 100.0) - 100.0).abs() < 1e-12);
        assert!((overhead_pct(104.0, 100.0) - 4.0).abs() < 1e-12);
        assert!((speedup(130.0, 10.0) - 13.0).abs() < 1e-12);
        assert!(overhead_pct(1.0, 0.0).is_nan());
        assert!(speedup(1.0, 0.0).is_nan());
    }

    #[test]
    fn percentile_nearest_rank() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 50.0), 3.0);
        assert_eq!(percentile(&xs, 100.0), 5.0);
    }

    #[test]
    fn welford_matches_naive_on_random_data() {
        let mut rng = crate::SimRng::new(123);
        let xs: Vec<f64> = (0..5000).map(|_| rng.next_f64() * 100.0).collect();
        let s = Summary::from_samples(xs.iter().copied());
        let naive_mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let naive_var =
            xs.iter().map(|x| (x - naive_mean).powi(2)).sum::<f64>() / (xs.len() - 1) as f64;
        assert!((s.mean() - naive_mean).abs() < 1e-9);
        assert!((s.stddev() - naive_var.sqrt()).abs() < 1e-9);
    }
}
