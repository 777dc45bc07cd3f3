//! SRAA — static rejuvenation algorithm with averaging (the paper's
//! Fig. 6).

use crate::{
    AveragingWindow, BucketChain, BucketEvent, Decision, DetectorSnapshot, RejuvenationDetector,
    SnapshotError, SraaConfig,
};

/// The static rejuvenation algorithm with averaging.
///
/// Tumbling averages of `n` observations feed a [`BucketChain`] whose
/// bucket-`N` target is `µX + N·σX`: rejuvenation fires only once the
/// algorithm has accumulated evidence that the metric's distribution has
/// shifted right by `K − 1` standard deviations.
///
/// # Example
///
/// ```
/// use rejuv_core::{Decision, RejuvenationDetector, Sraa, SraaConfig};
///
/// let config = SraaConfig::builder(5.0, 5.0).sample_size(15).build()?;
/// let mut sraa = Sraa::new(config);
/// // (n, K, D) = (15, 1, 1): two consecutive window averages above µX
/// // trigger; that takes 2·15 observations of a shifted stream.
/// let mut decisions = Vec::new();
/// for _ in 0..30 {
///     decisions.push(sraa.observe(12.0));
/// }
/// assert_eq!(decisions.pop(), Some(Decision::Rejuvenate));
/// # Ok::<(), rejuv_core::ConfigError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Sraa {
    config: SraaConfig,
    window: AveragingWindow,
    chain: BucketChain,
    windows_seen: u64,
}

impl Sraa {
    /// Creates the detector from a validated configuration.
    pub fn new(config: SraaConfig) -> Self {
        Sraa {
            window: AveragingWindow::new(config.sample_size()),
            chain: BucketChain::new(config.buckets(), config.depth()),
            config,
            windows_seen: 0,
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &SraaConfig {
        &self.config
    }

    /// Current bucket index `N`.
    pub fn bucket(&self) -> usize {
        self.chain.bucket()
    }

    /// Current ball count `d`.
    pub fn count(&self) -> i64 {
        self.chain.count()
    }

    /// Number of completed averaging windows consumed so far.
    pub fn windows_seen(&self) -> u64 {
        self.windows_seen
    }

    /// Feeds one *completed window average* directly, bypassing the
    /// internal window. Exposed for harnesses that already aggregate.
    pub fn observe_mean(&mut self, mean: f64) -> Decision {
        self.windows_seen += 1;
        let exceeded = mean > self.config.target(self.chain.bucket());
        match self.chain.step(exceeded) {
            BucketEvent::Triggered => Decision::Rejuvenate,
            _ => Decision::Continue,
        }
    }
}

impl RejuvenationDetector for Sraa {
    fn observe(&mut self, value: f64) -> Decision {
        match self.window.push(value) {
            Some(mean) => self.observe_mean(mean),
            None => Decision::Continue,
        }
    }

    fn observe_batch(&mut self, values: &[f64], fired: &mut Vec<u64>, base_seq: u64) {
        // SRAA never resizes its window mid-run, so the whole batch can
        // flow through the window's slice fast path: one mean emission
        // (and one chain step) per `n` samples instead of `n` pushes.
        // The chain and the current bucket's target live in locals (the
        // chain is written back once); the target is recomputed with
        // `config.target`'s own expression only when the chain moves.
        let Sraa {
            config,
            window,
            chain: state,
            windows_seen,
        } = self;
        let mut chain = *state;
        let mut target = config.target(chain.bucket());
        let mut step = |i: usize, mean: f64| {
            let event = chain.step(mean > target);
            if event != BucketEvent::Stayed {
                if event == BucketEvent::Triggered {
                    fired.push(base_seq + i as u64);
                }
                target = config.target(chain.bucket());
            }
        };
        if window.is_clear_unit() {
            // Window of one (the static algorithm): `push` would emit
            // `(0.0 + v) / 1.0`, which is `v` itself except that `-0.0`
            // becomes `+0.0` — and ±0 compare equal, NaN compares
            // false either way — then leave the window clear again. So
            // the raw value steps the chain directly.
            for (i, &value) in values.iter().enumerate() {
                step(i, value);
            }
            *windows_seen += values.len() as u64;
        } else {
            window.push_slice(values, |i, mean| {
                *windows_seen += 1;
                step(i, mean);
            });
        }
        *state = chain;
    }

    fn reset(&mut self) {
        self.window.reset();
        self.chain.reset();
        self.windows_seen = 0;
    }

    fn name(&self) -> &'static str {
        "SRAA"
    }

    fn rejuvenation_count(&self) -> u64 {
        self.chain.triggers()
    }

    fn snapshot(&self) -> Option<DetectorSnapshot> {
        Some(DetectorSnapshot::Sraa {
            config: self.config,
            window: self.window,
            chain: self.chain,
            windows_seen: self.windows_seen,
        })
    }

    fn restore(&mut self, snapshot: &DetectorSnapshot) -> Result<(), SnapshotError> {
        match snapshot {
            DetectorSnapshot::Sraa {
                config,
                window,
                chain,
                windows_seen,
            } => {
                self.config = *config;
                self.window = *window;
                self.chain = *chain;
                self.windows_seen = *windows_seen;
                Ok(())
            }
            other => Err(SnapshotError::KindMismatch {
                detector: self.name(),
                snapshot: other.kind(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(n: usize, k: usize, d: u32) -> SraaConfig {
        SraaConfig::builder(5.0, 5.0)
            .sample_size(n)
            .buckets(k)
            .depth(d)
            .build()
            .unwrap()
    }

    /// Observations needed to trigger from a clean state when every
    /// window exceeds: K bucket overflows, each needing D+1 windows.
    fn min_trigger_observations(n: usize, k: usize, d: u32) -> usize {
        n * k * (d as usize + 1)
    }

    #[test]
    fn healthy_stream_never_triggers() {
        let mut sraa = Sraa::new(config(3, 2, 2));
        for i in 0..50_000 {
            // Values straddling but mostly below µX.
            let v = if i % 3 == 0 { 5.5 } else { 3.0 };
            assert_eq!(sraa.observe(v), Decision::Continue);
        }
        assert_eq!(sraa.rejuvenation_count(), 0);
    }

    #[test]
    fn sustained_shift_triggers_at_exact_step() {
        for (n, k, d) in [(1, 3, 5), (3, 5, 1), (5, 1, 3), (15, 1, 1), (2, 5, 3)] {
            let mut sraa = Sraa::new(config(n, k, d));
            let need = min_trigger_observations(n, k, d);
            for step in 1..=need {
                let decision = sraa.observe(100.0);
                if step < need {
                    assert_eq!(
                        decision,
                        Decision::Continue,
                        "(n,K,D)=({n},{k},{d}) step {step}"
                    );
                } else {
                    assert_eq!(decision, Decision::Rejuvenate, "(n,K,D)=({n},{k},{d})");
                }
            }
        }
    }

    #[test]
    fn short_burst_is_smoothed_by_averaging() {
        // One huge value inside an otherwise healthy window must not even
        // produce an exceeded window when the window is large enough.
        let mut sraa = Sraa::new(config(10, 1, 1));
        for _ in 0..9 {
            sraa.observe(1.0);
        }
        // Window mean: (9·1 + 30)/10 = 3.9 < µX = 5.
        assert_eq!(sraa.observe(30.0), Decision::Continue);
        assert_eq!(sraa.bucket(), 0);
        assert_eq!(sraa.count(), 0);
    }

    #[test]
    fn burst_tolerated_by_multiple_buckets() {
        // n = 1: a burst of large-but-not-huge values climbs bucket 0 but
        // recovery drains it before reaching bucket K.
        let mut sraa = Sraa::new(config(1, 3, 5));
        for _ in 0..6 {
            assert_eq!(sraa.observe(8.0), Decision::Continue); // > µX, bucket 0 overflows after 6
        }
        assert_eq!(sraa.bucket(), 1);
        // 8.0 is below the bucket-1 target µX + σX = 10, so the very next
        // observation underflows back to bucket 0 with a full count.
        assert_eq!(sraa.observe(8.0), Decision::Continue);
        assert_eq!(sraa.bucket(), 0);
        assert_eq!(sraa.count(), 5);
        // Recovery: values below the bucket-1 target µX + σX = 10 drain it.
        for _ in 0..20 {
            assert_eq!(sraa.observe(4.0), Decision::Continue);
        }
        assert_eq!(sraa.bucket(), 0);
        assert_eq!(sraa.rejuvenation_count(), 0);
    }

    #[test]
    fn higher_buckets_need_bigger_shifts() {
        // A shift of exactly +1σ (values at 10) exceeds bucket 0's target
        // (5) but not bucket 1's (10): the detector must stall at bucket 1
        // and never trigger with K = 2.
        let mut sraa = Sraa::new(config(1, 2, 2));
        for _ in 0..10_000 {
            assert_eq!(sraa.observe(10.0), Decision::Continue);
        }
        // The detector oscillates between buckets 0 and 1 forever.
        assert!(sraa.bucket() <= 1);
        assert_eq!(sraa.rejuvenation_count(), 0);
    }

    #[test]
    fn trigger_resets_for_next_cycle() {
        let mut sraa = Sraa::new(config(2, 1, 1));
        let need = min_trigger_observations(2, 1, 1);
        for _ in 0..need - 1 {
            sraa.observe(50.0);
        }
        assert_eq!(sraa.observe(50.0), Decision::Rejuvenate);
        assert_eq!(sraa.bucket(), 0);
        assert_eq!(sraa.count(), 0);
        assert_eq!(sraa.rejuvenation_count(), 1);
        // Second cycle triggers again after the same number of steps.
        for _ in 0..need - 1 {
            assert_eq!(sraa.observe(50.0), Decision::Continue);
        }
        assert_eq!(sraa.observe(50.0), Decision::Rejuvenate);
        assert_eq!(sraa.rejuvenation_count(), 2);
    }

    #[test]
    fn reset_clears_state_but_keeps_count() {
        let mut sraa = Sraa::new(config(2, 1, 1));
        for _ in 0..4 {
            sraa.observe(50.0);
        }
        assert_eq!(sraa.rejuvenation_count(), 1);
        sraa.observe(50.0);
        sraa.reset();
        assert_eq!(sraa.bucket(), 0);
        assert_eq!(sraa.windows_seen(), 0);
        assert_eq!(sraa.rejuvenation_count(), 1);
    }

    #[test]
    fn observe_mean_bypasses_window() {
        let mut a = Sraa::new(config(5, 1, 1));
        let mut b = Sraa::new(config(5, 1, 1));
        // a consumes raw values; b consumes the same means directly.
        for window in 0..2 {
            let vals = [10.0, 20.0, 30.0, 40.0, 50.0];
            let mean = vals.iter().sum::<f64>() / 5.0;
            let mut last = Decision::Continue;
            for v in vals {
                last = a.observe(v + window as f64 * 0.0);
            }
            assert_eq!(last, b.observe_mean(mean));
        }
    }

    #[test]
    fn boundary_value_does_not_exceed() {
        // Pseudo-code: ball added only when x̄ > target, strictly.
        let mut sraa = Sraa::new(config(1, 1, 1));
        for _ in 0..100 {
            assert_eq!(sraa.observe(5.0), Decision::Continue);
        }
        assert_eq!(sraa.count(), 0);
    }

    #[test]
    fn name_and_counters() {
        let sraa = Sraa::new(config(1, 1, 1));
        assert_eq!(sraa.name(), "SRAA");
        assert_eq!(sraa.rejuvenation_count(), 0);
    }
}
