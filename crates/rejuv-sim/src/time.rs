//! Simulation time.

use serde::{Deserialize, Error, Serialize, Value};
use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point on the simulation clock, in seconds.
///
/// `SimTime` is a thin newtype over `f64` that guarantees the value is
/// finite and non-negative, which in turn makes it totally ordered —
/// event queues must never see a NaN timestamp. Zero is always `+0.0`,
/// so the value's bit pattern orders exactly like the value (the event
/// queue compares times as integers).
///
/// # Example
///
/// ```
/// use rejuv_sim::SimTime;
///
/// let t = SimTime::from_secs(1.5) + SimTime::from_secs(2.5);
/// assert_eq!(t.as_secs(), 4.0);
/// assert!(SimTime::ZERO < t);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct SimTime(f64);

impl SimTime {
    /// The simulation epoch, `t = 0`.
    pub const ZERO: SimTime = SimTime(0.0);

    /// Creates a time value from seconds.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative, NaN, or infinite. Simulation times
    /// come from validated distributions; a bad value here is a model bug
    /// that must fail fast. `-0.0` is accepted and stored as `+0.0`.
    #[inline]
    pub fn from_secs(secs: f64) -> Self {
        assert!(
            secs.is_finite() && secs >= 0.0,
            "simulation time must be finite and non-negative, got {secs}"
        );
        // `x + 0.0` is `x` for every other value.
        SimTime(secs + 0.0)
    }

    /// The time whose `f64` bits are `bits`, as read back from an
    /// event-queue key built from a valid `SimTime`.
    #[inline]
    pub(crate) fn from_key_bits(bits: u64) -> Self {
        let secs = f64::from_bits(bits);
        debug_assert!(secs.is_finite() && secs.is_sign_positive());
        SimTime(secs)
    }

    /// The value in seconds.
    #[inline]
    pub fn as_secs(self) -> f64 {
        self.0
    }

    /// Saturating subtraction: returns `ZERO` instead of going negative.
    pub fn saturating_sub(self, rhs: SimTime) -> SimTime {
        SimTime((self.0 - rhs.0).max(0.0))
    }
}

impl Default for SimTime {
    fn default() -> Self {
        SimTime::ZERO
    }
}

impl Deserialize for SimTime {
    /// Deserializes through [`SimTime::from_secs`]'s rules: a negative,
    /// NaN or infinite value is an error, `-0.0` becomes `+0.0`.
    fn from_value(value: &Value) -> Result<Self, Error> {
        let secs = f64::from_value(value)?;
        if secs.is_finite() && secs >= 0.0 {
            Ok(SimTime::from_secs(secs))
        } else {
            Err(Error::custom(format!(
                "simulation time must be finite and non-negative, got {secs}"
            )))
        }
    }
}

impl Eq for SimTime {}

impl PartialOrd for SimTime {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for SimTime {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        // Values are finite, non-negative and never `-0.0` by
        // construction; on that domain the IEEE total order is the
        // numeric order, and it needs no failure branch.
        self.0.total_cmp(&other.0)
    }
}

impl Add for SimTime {
    type Output = SimTime;

    #[inline]
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime::from_secs(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        *self = *self + rhs;
    }
}

impl Sub for SimTime {
    type Output = SimTime;

    /// # Panics
    ///
    /// Panics if the result would be negative; use
    /// [`SimTime::saturating_sub`] when that is expected.
    #[inline]
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime::from_secs(self.0 - rhs.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.0)
    }
}

impl From<SimTime> for f64 {
    fn from(t: SimTime) -> f64 {
        t.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_accessors() {
        assert_eq!(SimTime::from_secs(3.25).as_secs(), 3.25);
        assert_eq!(SimTime::ZERO.as_secs(), 0.0);
        assert_eq!(SimTime::default(), SimTime::ZERO);
        assert_eq!(f64::from(SimTime::from_secs(2.0)), 2.0);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_time_panics() {
        let _ = SimTime::from_secs(-1.0);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn nan_time_panics() {
        let _ = SimTime::from_secs(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn infinite_time_panics() {
        let _ = SimTime::from_secs(f64::INFINITY);
    }

    #[test]
    fn negative_zero_is_stored_as_positive_zero() {
        let t = SimTime::from_secs(-0.0);
        assert_eq!(t.as_secs().to_bits(), 0.0f64.to_bits());
        assert_eq!(t, SimTime::ZERO);
        // Arithmetic cannot bring it back either.
        assert!((t + SimTime::from_secs(-0.0)).as_secs().is_sign_positive());
        assert!((t - t).as_secs().is_sign_positive());
    }

    #[test]
    fn deserialize_validates() {
        let t = SimTime::from_value(&Value::F64(2.5)).unwrap();
        assert_eq!(t, SimTime::from_secs(2.5));
        assert_eq!(t.to_value(), Value::F64(2.5));
        let z = SimTime::from_value(&Value::F64(-0.0)).unwrap();
        assert!(z.as_secs().is_sign_positive());
        assert!(SimTime::from_value(&Value::F64(-1.0)).is_err());
        assert!(SimTime::from_value(&Value::F64(f64::INFINITY)).is_err());
        assert!(SimTime::from_value(&Value::Null).is_err());
    }

    #[test]
    fn ordering_is_total() {
        let a = SimTime::from_secs(1.0);
        let b = SimTime::from_secs(2.0);
        assert!(a < b);
        assert_eq!(a.cmp(&a), Ordering::Equal);
        assert_eq!(a.max(b), b);
    }

    #[test]
    fn total_cmp_orders_exactly_as_partial_cmp() {
        // Zero (also from a `-0.0` input), the subnormals' ends, the
        // smallest normal, one and the largest value, each with its ulp
        // neighbours: every place on the valid domain where the IEEE
        // total order and the numeric order could part.
        let mut secs = vec![-0.0, 0.0];
        for centre in [
            f64::from_bits(1),
            f64::from_bits(0x000f_ffff_ffff_ffff),
            f64::MIN_POSITIVE,
            1.0,
            f64::MAX,
        ] {
            secs.extend([centre.next_down(), centre, centre.next_up()]);
        }
        secs.retain(|s| s.is_finite() && *s >= 0.0);
        assert_eq!(secs.len(), 16, "{secs:?}");
        for &a in &secs {
            for &b in &secs {
                let (x, y) = (SimTime::from_secs(a), SimTime::from_secs(b));
                let numeric = x.0.partial_cmp(&y.0).expect("SimTime is finite");
                assert_eq!(x.cmp(&y), numeric, "{a:e} vs {b:e}");
                assert_eq!(x.partial_cmp(&y), Some(numeric));
                assert_eq!(x == y, numeric == Ordering::Equal);
            }
        }
    }

    #[test]
    fn arithmetic() {
        let a = SimTime::from_secs(5.0);
        let b = SimTime::from_secs(2.0);
        assert_eq!((a + b).as_secs(), 7.0);
        assert_eq!((a - b).as_secs(), 3.0);
        let mut c = a;
        c += b;
        assert_eq!(c.as_secs(), 7.0);
    }

    #[test]
    #[should_panic]
    fn underflow_panics() {
        let _ = SimTime::from_secs(1.0) - SimTime::from_secs(2.0);
    }

    #[test]
    fn saturating_sub_clamps() {
        let a = SimTime::from_secs(1.0);
        let b = SimTime::from_secs(2.0);
        assert_eq!(a.saturating_sub(b), SimTime::ZERO);
        assert_eq!(b.saturating_sub(a).as_secs(), 1.0);
    }

    #[test]
    fn display_format() {
        assert_eq!(SimTime::from_secs(1.5).to_string(), "1.500000s");
    }
}
