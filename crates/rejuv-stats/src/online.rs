//! Numerically stable single-pass statistics (Welford's algorithm).

use serde::{Deserialize, Serialize};

/// Single-pass accumulator for count, mean, variance, min and max.
///
/// Uses Welford's recurrence, which is numerically stable even for long
/// streams of nearly equal values — exactly the situation that arises when
/// monitoring response times of a healthy system for hours.
///
/// # Example
///
/// ```
/// use rejuv_stats::OnlineStats;
///
/// let stats: OnlineStats = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
///     .into_iter()
///     .collect();
/// assert_eq!(stats.mean(), 5.0);
/// assert_eq!(stats.population_variance(), 4.0);
/// assert_eq!(stats.min(), Some(2.0));
/// assert_eq!(stats.max(), Some(9.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct OnlineStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    ///
    /// Non-finite values are ignored (and not counted); response-time
    /// streams must never poison downstream statistics with a NaN.
    #[inline]
    pub fn push(&mut self, x: f64) {
        if !x.is_finite() {
            return;
        }
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations accumulated.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Returns `true` if no observation has been accumulated.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Arithmetic mean; `0.0` for an empty accumulator.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample variance (divides by `n − 1`); `0.0` if `n < 2`.
    pub fn sample_variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Population variance (divides by `n`); `0.0` if empty.
    pub fn population_variance(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Sample standard deviation, the square root of [`Self::sample_variance`].
    pub fn sample_std_dev(&self) -> f64 {
        self.sample_variance().sqrt()
    }

    /// Smallest observation, or `None` if empty.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation, or `None` if empty.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Merges another accumulator into `self` (parallel Welford/Chan update),
    /// as if every observation pushed into `other` had been pushed into
    /// `self` as well.
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        self.mean += delta * other.count as f64 / total as f64;
        self.m2 +=
            other.m2 + delta * delta * (self.count as f64 * other.count as f64) / total as f64;
        self.count = total;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl FromIterator<f64> for OnlineStats {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut stats = OnlineStats::new();
        stats.extend(iter);
        stats
    }
}

impl Extend<f64> for OnlineStats {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for x in iter {
            self.push(x);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_mean_var(data: &[f64]) -> (f64, f64) {
        let n = data.len() as f64;
        let mean = data.iter().sum::<f64>() / n;
        let var = data.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
        (mean, var)
    }

    #[test]
    fn empty_stats_are_benign() {
        let s = OnlineStats::new();
        assert!(s.is_empty());
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.sample_variance(), 0.0);
        assert_eq!(s.population_variance(), 0.0);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
    }

    #[test]
    fn single_observation() {
        let mut s = OnlineStats::new();
        s.push(3.5);
        assert_eq!(s.count(), 1);
        assert_eq!(s.mean(), 3.5);
        assert_eq!(s.sample_variance(), 0.0);
        assert_eq!(s.min(), Some(3.5));
        assert_eq!(s.max(), Some(3.5));
    }

    #[test]
    fn matches_two_pass_computation() {
        let data: Vec<f64> = (0..1000)
            .map(|i| (i as f64 * 0.7).sin() * 10.0 + 5.0)
            .collect();
        let s: OnlineStats = data.iter().copied().collect();
        let (mean, var) = naive_mean_var(&data);
        assert!((s.mean() - mean).abs() < 1e-10);
        assert!((s.sample_variance() - var).abs() < 1e-9);
    }

    #[test]
    fn stable_for_large_offsets() {
        // Classic catastrophic-cancellation case for the naive algorithm.
        let data = [1e9 + 4.0, 1e9 + 7.0, 1e9 + 13.0, 1e9 + 16.0];
        let s: OnlineStats = data.into_iter().collect();
        assert!((s.sample_variance() - 30.0).abs() < 1e-6);
    }

    #[test]
    fn non_finite_values_are_skipped() {
        let mut s = OnlineStats::new();
        s.push(1.0);
        s.push(f64::NAN);
        s.push(f64::INFINITY);
        s.push(3.0);
        assert_eq!(s.count(), 2);
        assert_eq!(s.mean(), 2.0);
    }

    #[test]
    fn merge_equals_sequential() {
        let a_data: Vec<f64> = (0..100).map(|i| i as f64 * 0.3).collect();
        let b_data: Vec<f64> = (0..57).map(|i| 42.0 - i as f64).collect();
        let mut merged: OnlineStats = a_data.iter().copied().collect();
        let b: OnlineStats = b_data.iter().copied().collect();
        merged.merge(&b);

        let all: OnlineStats = a_data.iter().chain(b_data.iter()).copied().collect();
        assert_eq!(merged.count(), all.count());
        assert!((merged.mean() - all.mean()).abs() < 1e-10);
        assert!((merged.sample_variance() - all.sample_variance()).abs() < 1e-9);
        assert_eq!(merged.min(), all.min());
        assert_eq!(merged.max(), all.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let data = [1.0, 2.0, 3.0];
        let mut s: OnlineStats = data.into_iter().collect();
        let before = s;
        s.merge(&OnlineStats::new());
        assert_eq!(s, before);

        let mut empty = OnlineStats::new();
        empty.merge(&before);
        assert_eq!(empty, before);
    }
}
