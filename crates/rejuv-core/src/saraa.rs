//! SARAA — sampling-acceleration rejuvenation algorithm with averaging
//! (the paper's Fig. 7).

use crate::{
    AveragingWindow, BucketChain, BucketEvent, Decision, DetectorSnapshot, RejuvenationDetector,
    SaraaConfig, SnapshotError,
};

/// The sampling-acceleration rejuvenation algorithm with averaging.
///
/// Like [`crate::Sraa`], but with two changes taken from the paper:
///
/// 1. the bucket-`N` target is `µX + N·σX/√n` — the standard deviation
///    *of the sampling average*, because SARAA (like CLTA) tests the
///    hypothesis "the distribution has not shifted at all" rather than
///    "the distribution has shifted by `K − 1` σ",
/// 2. when degradation is detected (a bucket transition occurs), the
///    window shrinks per `n = floor(1 + (n_orig − 1)(1 − N/K))`, so the
///    deeper the degradation, the faster new evidence arrives.
///
/// # Example
///
/// ```
/// use rejuv_core::{RejuvenationDetector, Saraa, SaraaConfig};
///
/// let config = SaraaConfig::builder(5.0, 5.0)
///     .initial_sample_size(10)
///     .buckets(3)
///     .depth(1)
///     .build()?;
/// let mut saraa = Saraa::new(config);
/// assert_eq!(saraa.current_sample_size(), 10);
/// // Under heavy degradation the window shrinks as buckets overflow.
/// let mut fired = false;
/// for _ in 0..200 {
///     if saraa.observe(60.0).is_rejuvenate() {
///         fired = true;
///         break;
///     }
/// }
/// assert!(fired);
/// # Ok::<(), rejuv_core::ConfigError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Saraa {
    config: SaraaConfig,
    window: AveragingWindow,
    chain: BucketChain,
    windows_seen: u64,
}

impl Saraa {
    /// Creates the detector from a validated configuration.
    pub fn new(config: SaraaConfig) -> Self {
        Saraa {
            window: AveragingWindow::new(config.initial_sample_size()),
            chain: BucketChain::new(config.buckets(), config.depth()),
            config,
            windows_seen: 0,
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &SaraaConfig {
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

    /// The window size currently in force (shrinks as degradation
    /// deepens).
    pub fn current_sample_size(&self) -> usize {
        self.window.size()
    }

    /// Number of completed averaging windows consumed so far.
    pub fn windows_seen(&self) -> u64 {
        self.windows_seen
    }

    fn apply_mean(&mut self, mean: f64) -> Decision {
        self.windows_seen += 1;
        let n = self.window.size();
        let exceeded = mean > self.config.target(self.chain.bucket(), n);
        let event = self.chain.step(exceeded);
        self.follow(event)
    }

    /// Resizes the window after a chain event and reports the decision.
    fn follow(&mut self, event: BucketEvent) -> Decision {
        match event {
            BucketEvent::Triggered => {
                self.window.resize(self.config.initial_sample_size());
                Decision::Rejuvenate
            }
            BucketEvent::MovedUp | BucketEvent::MovedDown => {
                // Recompute the window for the new bucket. The paper's
                // pseudo-code updates n on every bucket transition, in
                // both directions.
                self.window
                    .resize(self.config.sample_size_for_bucket(self.chain.bucket()));
                Decision::Continue
            }
            BucketEvent::Stayed => Decision::Continue,
        }
    }
}

impl RejuvenationDetector for Saraa {
    fn observe(&mut self, value: f64) -> Decision {
        match self.window.push(value) {
            Some(mean) => self.apply_mean(mean),
            None => Decision::Continue,
        }
    }

    fn observe_batch(&mut self, values: &[f64], fired: &mut Vec<u64>, base_seq: u64) {
        // SARAA resizes its window on bucket transitions, so it cannot
        // hand the whole batch to `push_slice` (the window size must be
        // re-read after every completed mean). Instead: finish a carried
        // partial window with scalar pushes, then sum each whole window
        // with a tight slice loop — the accumulator starts from 0.0 and
        // runs left to right, exactly as repeated `push` would, so the
        // means are bitwise-identical to the scalar path's. The current
        // target (bucket and window size) lives in a local, recomputed
        // with `config.target`'s own expression only when the chain
        // moves and the window resizes — no per-window `sqrt`.
        let mut target = self.config.target(self.chain.bucket(), self.window.size());
        let mut i = 0;
        while i < values.len() {
            let remaining = values.len() - i;
            let need = self.window.size() - self.window.filled();
            if need > remaining {
                // No window can complete in what is left of the batch.
                for &v in &values[i..] {
                    self.window.push(v);
                }
                return;
            }
            let mean = if self.window.filled() > 0 {
                let mut mean = None;
                for &v in &values[i..i + need] {
                    mean = self.window.push(v);
                }
                mean.expect("window completes after `need` pushes")
            } else {
                let mut sum = 0.0;
                for &v in &values[i..i + need] {
                    sum += v;
                }
                // `push` leaves the window at (sum: 0.0, filled: 0) after
                // a completion, which is exactly its current state.
                sum / need as f64
            };
            i += need;
            self.windows_seen += 1;
            let event = self.chain.step(mean > target);
            if event != BucketEvent::Stayed {
                if self.follow(event).is_rejuvenate() {
                    fired.push(base_seq + (i - 1) as u64);
                }
                target = self.config.target(self.chain.bucket(), self.window.size());
            }
        }
    }

    fn reset(&mut self) {
        self.window = AveragingWindow::new(self.config.initial_sample_size());
        self.chain.reset();
        self.windows_seen = 0;
    }

    fn name(&self) -> &'static str {
        "SARAA"
    }

    fn rejuvenation_count(&self) -> u64 {
        self.chain.triggers()
    }

    fn snapshot(&self) -> Option<DetectorSnapshot> {
        // The accelerated sample size currently in force is the window's
        // size, so the window alone carries it across the round trip.
        Some(DetectorSnapshot::Saraa {
            config: self.config,
            window: self.window,
            chain: self.chain,
            windows_seen: self.windows_seen,
        })
    }

    fn restore(&mut self, snapshot: &DetectorSnapshot) -> Result<(), SnapshotError> {
        match snapshot {
            DetectorSnapshot::Saraa {
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
    use crate::AccelerationSchedule;

    fn config(n: usize, k: usize, d: u32) -> SaraaConfig {
        SaraaConfig::builder(5.0, 5.0)
            .initial_sample_size(n)
            .buckets(k)
            .depth(d)
            .build()
            .unwrap()
    }

    #[test]
    fn window_shrinks_on_bucket_overflow() {
        let cfg = config(10, 5, 1);
        let mut saraa = Saraa::new(cfg);
        assert_eq!(saraa.current_sample_size(), 10);
        // Overflow bucket 0: D+1 = 2 windows of 10 exceeding observations.
        for _ in 0..20 {
            saraa.observe(100.0);
        }
        assert_eq!(saraa.bucket(), 1);
        assert_eq!(
            saraa.current_sample_size(),
            cfg.sample_size_for_bucket(1),
            "window must follow the schedule"
        );
        assert_eq!(saraa.current_sample_size(), 8); // floor(1 + 9·(1 − 1/5))
    }

    #[test]
    fn window_grows_back_on_underflow() {
        let mut saraa = Saraa::new(config(10, 5, 1));
        for _ in 0..20 {
            saraa.observe(100.0); // reach bucket 1, n = 8
        }
        // Underflow bucket 1: one window below its target drops back.
        for _ in 0..8 {
            saraa.observe(0.0);
        }
        assert_eq!(saraa.bucket(), 0);
        assert_eq!(saraa.current_sample_size(), 10);
    }

    #[test]
    fn accelerated_trigger_is_faster_than_unaccelerated() {
        // Count raw observations to trigger under a sustained shift.
        fn observations_to_trigger(schedule: AccelerationSchedule) -> usize {
            let cfg = SaraaConfig::builder(5.0, 5.0)
                .initial_sample_size(10)
                .buckets(3)
                .depth(1)
                .schedule(schedule)
                .build()
                .unwrap();
            let mut saraa = Saraa::new(cfg);
            for i in 1..=10_000 {
                if saraa.observe(100.0).is_rejuvenate() {
                    return i;
                }
            }
            panic!("never triggered");
        }
        let linear = observations_to_trigger(AccelerationSchedule::Linear);
        let none = observations_to_trigger(AccelerationSchedule::None);
        let quad = observations_to_trigger(AccelerationSchedule::Quadratic);
        assert!(linear < none, "linear {linear} vs none {none}");
        assert!(quad <= linear, "quad {quad} vs linear {linear}");
        // Exact counts: None: 2 windows/bucket × 3 buckets × 10 = 60.
        assert_eq!(none, 60);
        // Linear: buckets use n = 10, 7, 4 → 2·10 + 2·7 + 2·4 = 42.
        assert_eq!(linear, 42);
    }

    #[test]
    fn trigger_restores_initial_window() {
        let mut saraa = Saraa::new(config(6, 2, 1));
        let mut fired = false;
        for _ in 0..1_000 {
            if saraa.observe(100.0).is_rejuvenate() {
                fired = true;
                break;
            }
        }
        assert!(fired);
        assert_eq!(saraa.current_sample_size(), 6);
        assert_eq!(saraa.bucket(), 0);
        assert_eq!(saraa.rejuvenation_count(), 1);
    }

    #[test]
    fn healthy_stream_never_triggers() {
        let mut saraa = Saraa::new(config(5, 3, 2));
        for i in 0..30_000 {
            let v = if i % 2 == 0 { 4.0 } else { 5.5 };
            assert_eq!(saraa.observe(v), Decision::Continue);
        }
        assert_eq!(saraa.rejuvenation_count(), 0);
    }

    #[test]
    fn saraa_targets_are_tighter_than_sraa() {
        // With n = 4, the bucket-1 target is µ + σ/2 = 7.5 rather than
        // µ + σ = 10: a +0.8σ shift (9.0) that stalls SRAA climbs SARAA.
        let cfg = SaraaConfig::builder(5.0, 5.0)
            .initial_sample_size(4)
            .buckets(2)
            .depth(1)
            .schedule(AccelerationSchedule::None)
            .build()
            .unwrap();
        let mut saraa = Saraa::new(cfg);
        let mut fired = false;
        for _ in 0..200 {
            if saraa.observe(9.0).is_rejuvenate() {
                fired = true;
                break;
            }
        }
        assert!(fired, "SARAA's √n-scaled targets must catch sub-σ shifts");
    }

    #[test]
    fn reset_restores_construction_state() {
        let mut saraa = Saraa::new(config(10, 5, 1));
        for _ in 0..25 {
            saraa.observe(100.0);
        }
        assert_ne!(saraa.current_sample_size(), 10);
        saraa.reset();
        assert_eq!(saraa.current_sample_size(), 10);
        assert_eq!(saraa.bucket(), 0);
        assert_eq!(saraa.windows_seen(), 0);
    }

    #[test]
    fn name_is_saraa() {
        assert_eq!(Saraa::new(config(1, 1, 1)).name(), "SARAA");
    }
}
