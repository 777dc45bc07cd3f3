//! Time-weighted statistics over the simulation clock.
//!
//! Queue lengths and population counts are *time-persistent* variables:
//! their average is weighted by how long each value was held, not by how
//! often it changed. [`TimeWeighted`] integrates a piecewise-constant
//! value over simulated time — the standard DES instrument behind
//! `L` in Little's law (`L = λ·W`).

use crate::SimTime;
use serde::{Deserialize, Serialize};

/// Integrates a piecewise-constant value over simulation time.
///
/// # Example
///
/// ```
/// use rejuv_sim::{stats::TimeWeighted, SimTime};
///
/// let mut tw = TimeWeighted::new(SimTime::ZERO, 0.0);
/// tw.update(SimTime::from_secs(2.0), 10.0); // value was 0 for 2 s
/// tw.update(SimTime::from_secs(6.0), 0.0);  // value was 10 for 4 s
/// // Average over [0, 6): (0·2 + 10·4) / 6.
/// assert!((tw.time_average(SimTime::from_secs(6.0)) - 40.0 / 6.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TimeWeighted {
    start: SimTime,
    last_change: SimTime,
    current: f64,
    integral: f64,
    max: f64,
}

impl TimeWeighted {
    /// Starts integrating from `now` with the given initial value.
    pub fn new(now: SimTime, initial: f64) -> Self {
        TimeWeighted {
            start: now,
            last_change: now,
            current: initial,
            integral: 0.0,
            max: initial,
        }
    }

    /// Records that the value changed to `value` at time `now`.
    ///
    /// # Panics
    ///
    /// Panics if `now` precedes the previous update (simulation time is
    /// monotone).
    #[inline]
    pub fn update(&mut self, now: SimTime, value: f64) {
        assert!(
            now >= self.last_change,
            "time-weighted updates must be chronological"
        );
        self.integral += self.current * (now - self.last_change).as_secs();
        self.last_change = now;
        self.current = value;
        self.max = self.max.max(value);
    }

    /// The value currently in force.
    pub fn current(&self) -> f64 {
        self.current
    }

    /// The largest value seen.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Time average over `[start, now]`; `0` if no time has elapsed.
    pub fn time_average(&self, now: SimTime) -> f64 {
        let elapsed = (now - self.start).as_secs();
        if elapsed <= 0.0 {
            return 0.0;
        }
        let integral = self.integral + self.current * (now - self.last_change).as_secs();
        integral / elapsed
    }

    /// Restarts the integration window at `now`, keeping the current
    /// value.
    pub fn reset_window(&mut self, now: SimTime) {
        self.update(now, self.current);
        self.start = now;
        self.integral = 0.0;
        self.max = self.current;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: f64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn constant_value() {
        let mut tw = TimeWeighted::new(t(0.0), 3.0);
        tw.update(t(5.0), 3.0);
        assert_eq!(tw.time_average(t(10.0)), 3.0);
        assert_eq!(tw.max(), 3.0);
        assert_eq!(tw.current(), 3.0);
    }

    #[test]
    fn step_function() {
        let mut tw = TimeWeighted::new(t(0.0), 0.0);
        tw.update(t(1.0), 4.0);
        tw.update(t(3.0), 1.0);
        // [0,1): 0; [1,3): 4; [3,5): 1 -> (0 + 8 + 2)/5 = 2.
        assert!((tw.time_average(t(5.0)) - 2.0).abs() < 1e-12);
        assert_eq!(tw.max(), 4.0);
    }

    #[test]
    fn zero_elapsed_is_zero() {
        let tw = TimeWeighted::new(t(2.0), 7.0);
        assert_eq!(tw.time_average(t(2.0)), 0.0);
    }

    #[test]
    #[should_panic(expected = "chronological")]
    fn non_monotone_update_panics() {
        let mut tw = TimeWeighted::new(t(5.0), 0.0);
        tw.update(t(4.0), 1.0);
    }

    #[test]
    fn window_reset() {
        let mut tw = TimeWeighted::new(t(0.0), 10.0);
        tw.update(t(10.0), 2.0);
        tw.reset_window(t(10.0));
        // New window only sees the value 2.
        assert!((tw.time_average(t(20.0)) - 2.0).abs() < 1e-12);
        assert_eq!(tw.max(), 2.0);
    }

    #[test]
    fn average_includes_open_segment() {
        let mut tw = TimeWeighted::new(t(0.0), 1.0);
        tw.update(t(2.0), 5.0);
        // [0,2): 1, [2,4): 5 -> (2 + 10)/4 = 3, without an explicit
        // update at t = 4.
        assert!((tw.time_average(t(4.0)) - 3.0).abs() < 1e-12);
    }
}
