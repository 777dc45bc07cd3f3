//! The exponential distribution.
//!
//! Interarrival and service times in the §3 simulation model are
//! exponential; this module provides the distribution object plus inverse-
//! transform sampling on top of any [`rand::Rng`].

use crate::StatsError;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// An exponential distribution with rate `lambda` (mean `1 / lambda`).
///
/// # Example
///
/// ```
/// use rejuv_stats::Exponential;
///
/// let service = Exponential::new(0.2)?; // µ = 0.2 tx/s, mean 5 s
/// assert_eq!(service.mean(), 5.0);
/// assert!((service.cdf(5.0) - (1.0 - (-1.0f64).exp())).abs() < 1e-12);
/// # Ok::<(), rejuv_stats::StatsError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Exponential {
    rate: f64,
}

impl Exponential {
    /// Creates an exponential distribution with the given rate.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidParameter`] unless `rate` is a positive
    /// finite number.
    pub fn new(rate: f64) -> Result<Self, StatsError> {
        if !(rate.is_finite() && rate > 0.0) {
            return Err(StatsError::InvalidParameter {
                name: "rate",
                value: rate,
                expected: "a positive finite real",
            });
        }
        Ok(Exponential { rate })
    }

    /// The rate parameter `lambda`.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// Mean, `1 / lambda`.
    pub fn mean(&self) -> f64 {
        1.0 / self.rate
    }

    /// Variance, `1 / lambda²`.
    pub fn variance(&self) -> f64 {
        1.0 / (self.rate * self.rate)
    }

    /// Probability density function at `x` (0 for negative `x`).
    pub fn pdf(&self, x: f64) -> f64 {
        if x < 0.0 {
            0.0
        } else {
            self.rate * (-self.rate * x).exp()
        }
    }

    /// Cumulative distribution function at `x`.
    pub fn cdf(&self, x: f64) -> f64 {
        if x < 0.0 {
            0.0
        } else {
            -(-self.rate * x).exp_m1()
        }
    }

    /// Upper-tail probability `P(X > x)`.
    pub fn survival(&self, x: f64) -> f64 {
        if x < 0.0 {
            1.0
        } else {
            (-self.rate * x).exp()
        }
    }

    /// Quantile function (inverse CDF).
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidProbability`] unless `0 ≤ p < 1`.
    pub fn quantile(&self, p: f64) -> Result<f64, StatsError> {
        if !(0.0..1.0).contains(&p) {
            return Err(StatsError::InvalidProbability(p));
        }
        Ok(-(-p).ln_1p() / self.rate)
    }

    /// Draws one sample by inverse-transform sampling.
    ///
    /// Uses `1 − U` with `U ∈ [0, 1)` so the logarithm argument is never
    /// zero.
    #[inline]
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let u: f64 = rng.random::<f64>();
        -(-u).ln_1p() / self.rate
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn rejects_bad_rate() {
        assert!(Exponential::new(0.0).is_err());
        assert!(Exponential::new(-1.0).is_err());
        assert!(Exponential::new(f64::NAN).is_err());
        assert!(Exponential::new(f64::INFINITY).is_err());
    }

    #[test]
    fn moments() {
        let e = Exponential::new(0.2).unwrap();
        assert_eq!(e.mean(), 5.0);
        assert!((e.variance() - 25.0).abs() < 1e-12);
        assert_eq!(e.rate(), 0.2);
    }

    #[test]
    fn cdf_pdf_consistency() {
        let e = Exponential::new(2.0).unwrap();
        assert_eq!(e.cdf(-1.0), 0.0);
        assert_eq!(e.pdf(-1.0), 0.0);
        assert_eq!(e.survival(-1.0), 1.0);
        // Numeric derivative of the CDF matches the pdf.
        let h = 1e-6;
        for x in [0.1, 0.5, 1.0, 3.0] {
            let d = (e.cdf(x + h) - e.cdf(x - h)) / (2.0 * h);
            assert!((d - e.pdf(x)).abs() < 1e-5);
        }
    }

    #[test]
    fn quantile_inverts_cdf() {
        let e = Exponential::new(0.2).unwrap();
        for p in [0.0, 0.1, 0.5, 0.9, 0.999] {
            let x = e.quantile(p).unwrap();
            assert!((e.cdf(x) - p).abs() < 1e-12);
        }
        assert!(e.quantile(1.0).is_err());
        assert!(e.quantile(-0.01).is_err());
    }

    #[test]
    fn median_is_ln2_over_rate() {
        let e = Exponential::new(4.0).unwrap();
        assert!((e.quantile(0.5).unwrap() - std::f64::consts::LN_2 / 4.0).abs() < 1e-14);
    }

    #[test]
    fn sampling_matches_moments() {
        let e = Exponential::new(0.2).unwrap();
        let mut rng = StdRng::seed_from_u64(42);
        let n = 200_000;
        let mut sum = 0.0;
        let mut sum_sq = 0.0;
        for _ in 0..n {
            let x = e.sample(&mut rng);
            assert!(x >= 0.0);
            sum += x;
            sum_sq += x * x;
        }
        let mean = sum / n as f64;
        let var = sum_sq / n as f64 - mean * mean;
        assert!((mean - 5.0).abs() < 0.05, "mean = {mean}");
        assert!((var - 25.0).abs() < 0.6, "var = {var}");
    }
}
