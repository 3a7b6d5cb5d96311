//! Order statistics for repeated measurements.
//!
//! Quartiles use the same method as Python's
//! `statistics.quantiles(values, n=4)`, because that is what the
//! acceptance check of this benchmark is computed with.

/// Median, quartiles and extremes of one metric's repetitions.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

impl Summary {
    /// Interquartile range as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// `statistics.quantiles(sorted, n=4)[k-1]` for `k` in 1..=3: Python's
/// exclusive method, which extrapolates past the ends of a two-sample set.
fn quartile(sorted: &[f64], k: usize) -> f64 {
    let len = sorted.len();
    if len == 1 {
        return sorted[0];
    }
    let m = len + 1;
    let j = (k * m / 4).clamp(1, len - 1);
    let delta = (k * m) as f64 - (j * 4) as f64;
    (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
}

/// The median of `values`.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    summarize(values).median
}

/// Summarizes `values`.
///
/// # Panics
///
/// Panics on an empty slice: a metric without samples is omitted by the
/// caller, never reported as 0.
pub fn summarize(values: &[f64]) -> Summary {
    assert!(!values.is_empty(), "no samples to summarize");
    let s = sorted(values);
    let n = s.len();
    Summary {
        n,
        min: s[0],
        q1: quartile(&s, 1),
        median: quartile(&s, 2),
        q3: quartile(&s, 3),
        max: s[n - 1],
    }
}

/// How many samples must lie beyond a reported percentile.
pub const SAMPLES_BEYOND: usize = 10;

/// The `p`-th percentile (`0 < p < 100`) of pooled latency samples, or
/// `None` when fewer than [`SAMPLES_BEYOND`] samples lie beyond it — a
/// tail read off a handful of samples is noise, not a percentile.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let n = values.len();
    // Nearest rank: the smallest sample with at least p% at or below it
    // (the epsilon keeps 90% of 100 at rank 90 despite rounding).
    let rank = ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).max(1);
    if n < rank + SAMPLES_BEYOND {
        return None;
    }
    Some(sorted(values)[rank - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        assert_eq!((s.min, s.max, s.n), (1.0, 10.0, 10));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = summarize(&[2.0, 1.0]);
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
    }

    #[test]
    fn single_sample_is_its_own_summary() {
        let s = summarize(&[7.5]);
        assert_eq!(
            (s.min, s.q1, s.median, s.q3, s.max),
            (7.5, 7.5, 7.5, 7.5, 7.5)
        );
        assert_eq!(s.spread(), 0.0);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((summarize(&v).spread() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        // 1000 samples: 10 lie beyond p99, so it is reported...
        assert_eq!(percentile(&v, 99.0), Some(990.0));
        // ...but p99.9 has one sample beyond it.
        assert_eq!(percentile(&v, 99.9), None);
        // 999 samples leave only 9 beyond p99.
        assert_eq!(percentile(&v[..999], 99.0), None);
        // Exactly ten beyond p90 of 100, whatever the float rounding.
        assert_eq!(percentile(&v[..100], 90.0), Some(90.0));
        // A median needs 20 samples.
        assert_eq!(percentile(&v[..19], 50.0), None);
        assert_eq!(percentile(&v[..20], 50.0), Some(10.0));
    }
}
