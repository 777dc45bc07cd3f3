//! Fixed-size averaging windows.
//!
//! All three algorithms of the paper consume *averages of `n` successive
//! observations* rather than raw observations:
//! `x̄u = (1/n) Σ_{t=(u−1)n+1}^{un} x_t`. The windows are disjoint
//! (tumbling), not sliding.

use serde::{Deserialize, Serialize};

/// A tumbling window that emits the mean of every `n` consecutive
/// observations.
///
/// # Example
///
/// ```
/// use rejuv_core::AveragingWindow;
///
/// let mut w = AveragingWindow::new(3);
/// assert_eq!(w.push(1.0), None);
/// assert_eq!(w.push(2.0), None);
/// assert_eq!(w.push(6.0), Some(3.0));
/// assert_eq!(w.push(10.0), None); // a new window has begun
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AveragingWindow {
    size: usize,
    sum: f64,
    filled: usize,
}

impl AveragingWindow {
    /// Creates a window of `size` observations.
    ///
    /// # Panics
    ///
    /// Panics if `size == 0`; validated upstream by the config builders.
    pub fn new(size: usize) -> Self {
        assert!(size > 0, "window size must be at least 1");
        AveragingWindow {
            size,
            sum: 0.0,
            filled: 0,
        }
    }

    /// The window size `n`.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Number of observations accumulated in the current window.
    pub fn filled(&self) -> usize {
        self.filled
    }

    /// Whether this is a window of one holding nothing, with the exact
    /// `+0.0` sum every completed `push` leaves: each `push` then emits
    /// `(0.0 + value) / 1.0` and returns to this state, which lets a
    /// batch kernel skip the window altogether.
    pub(crate) fn is_clear_unit(&self) -> bool {
        self.size == 1 && self.filled == 0 && self.sum.to_bits() == 0
    }

    /// Adds one observation; returns `Some(mean)` when this observation
    /// completes the window, which then starts empty again.
    pub fn push(&mut self, value: f64) -> Option<f64> {
        self.sum += value;
        self.filled += 1;
        if self.filled == self.size {
            let mean = self.sum / self.size as f64;
            self.sum = 0.0;
            self.filled = 0;
            Some(mean)
        } else {
            None
        }
    }

    /// Adds a whole slice of observations, invoking `on_mean(index, mean)`
    /// for every window that completes; `index` is the position **within
    /// `values`** of the observation that completed the window.
    ///
    /// This is the batch fast path for the drain plane: whole windows are
    /// summed with a tight slice loop instead of one call per sample. It
    /// is guaranteed **bitwise-identical** to calling [`push`] once per
    /// value — the summation runs in the same left-to-right order, each
    /// window's sum starts from the same accumulator state (the carried
    /// partial sum, or `0.0` for a fresh window), and the mean is the
    /// same `sum / size` division. The callback must not grow or shrink
    /// the window (it cannot: the window is mutably borrowed for the
    /// whole call) — detectors that resize mid-stream (SARAA) keep their
    /// own loop.
    ///
    /// [`push`]: AveragingWindow::push
    ///
    /// ```
    /// use rejuv_core::AveragingWindow;
    ///
    /// let values: Vec<f64> = (0..23).map(|i| 0.1 + i as f64 * 0.3).collect();
    /// let mut scalar = AveragingWindow::new(5);
    /// let mut batch = scalar;
    /// scalar.push(7.7); // start both from a mid-window state
    /// batch.push(7.7);
    ///
    /// let mut expect: Vec<(usize, f64)> = Vec::new();
    /// for (i, &v) in values.iter().enumerate() {
    ///     if let Some(mean) = scalar.push(v) {
    ///         expect.push((i, mean));
    ///     }
    /// }
    /// let mut got = Vec::new();
    /// batch.push_slice(&values, |i, mean| got.push((i, mean)));
    /// // Bitwise equality, not approximate: same indices, same bits.
    /// assert_eq!(expect.len(), got.len());
    /// for (&(ei, em), &(gi, gm)) in expect.iter().zip(&got) {
    ///     assert_eq!(ei, gi);
    ///     assert_eq!(em.to_bits(), gm.to_bits());
    /// }
    /// assert_eq!(scalar, batch); // carried partial state matches too
    /// ```
    pub fn push_slice<F: FnMut(usize, f64)>(&mut self, values: &[f64], mut on_mean: F) {
        let mut i = 0;
        if self.filled > 0 {
            // Finish the carried partial window with the same sequential
            // accumulation `push` performs.
            let take = (self.size - self.filled).min(values.len());
            let mut sum = self.sum;
            for &v in &values[..take] {
                sum += v;
            }
            self.filled += take;
            i = take;
            if self.filled == self.size {
                let mean = sum / self.size as f64;
                self.sum = 0.0;
                self.filled = 0;
                on_mean(i - 1, mean);
            } else {
                self.sum = sum;
                return;
            }
        }
        // Whole windows: each starts from a fresh 0.0 accumulator exactly
        // as `push` would after a completion, summed left to right.
        while i + self.size <= values.len() {
            let mut sum = 0.0;
            for &v in &values[i..i + self.size] {
                sum += v;
            }
            let mean = sum / self.size as f64;
            i += self.size;
            on_mean(i - 1, mean);
        }
        // Carry the tail into the next partial window.
        let mut sum = 0.0;
        for &v in &values[i..] {
            sum += v;
        }
        self.sum = sum;
        self.filled = values.len() - i;
    }

    /// Changes the window size, discarding any partial window.
    ///
    /// SARAA adjusts its sample size exactly when a bucket transition
    /// occurs, which coincides with a completed window, so nothing is
    /// usually lost.
    ///
    /// # Panics
    ///
    /// Panics if `size == 0`.
    pub fn resize(&mut self, size: usize) {
        assert!(size > 0, "window size must be at least 1");
        self.size = size;
        self.sum = 0.0;
        self.filled = 0;
    }

    /// Discards any partial window, keeping the size.
    pub fn reset(&mut self) {
        self.sum = 0.0;
        self.filled = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "window size must be at least 1")]
    fn zero_size_panics() {
        let _ = AveragingWindow::new(0);
    }

    #[test]
    fn size_one_passes_values_through() {
        let mut w = AveragingWindow::new(1);
        assert_eq!(w.push(7.5), Some(7.5));
        assert_eq!(w.push(-2.0), Some(-2.0));
    }

    #[test]
    fn windows_are_disjoint() {
        let mut w = AveragingWindow::new(2);
        assert_eq!(w.push(1.0), None);
        assert_eq!(w.push(3.0), Some(2.0));
        assert_eq!(w.push(10.0), None);
        assert_eq!(w.push(20.0), Some(15.0));
    }

    #[test]
    fn resize_discards_partial() {
        let mut w = AveragingWindow::new(3);
        w.push(100.0);
        w.resize(2);
        assert_eq!(w.size(), 2);
        assert_eq!(w.filled(), 0);
        assert_eq!(w.push(1.0), None);
        assert_eq!(w.push(3.0), Some(2.0), "old partial must not leak in");
    }

    #[test]
    fn reset_discards_partial_keeps_size() {
        let mut w = AveragingWindow::new(2);
        w.push(100.0);
        w.reset();
        assert_eq!(w.size(), 2);
        assert_eq!(w.push(2.0), None);
        assert_eq!(w.push(4.0), Some(3.0));
    }

    #[test]
    fn long_stream_mean_of_means() {
        let mut w = AveragingWindow::new(5);
        let mut means = Vec::new();
        for i in 0..100 {
            if let Some(m) = w.push(i as f64) {
                means.push(m);
            }
        }
        assert_eq!(means.len(), 20);
        assert_eq!(means[0], 2.0); // mean of 0..5
        assert_eq!(means[19], 97.0); // mean of 95..100
    }
}
