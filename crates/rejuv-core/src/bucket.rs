//! The bucket/ball counter state machine shared by the static algorithm,
//! SRAA and SARAA.
//!
//! The paper tracks degradation with a chain of `K` buckets of depth `D`.
//! The current bucket `N` keeps a ball count `d`: a ball is added when
//! the (averaged) observation exceeds the bucket's target value and
//! removed otherwise. Overflowing a bucket (`d > D`) advances to bucket
//! `N + 1`; underflowing (`d < 0`) retreats to bucket `N − 1` with a full
//! count; overflowing the last bucket triggers rejuvenation. The minimum
//! delay before a degradation can be affirmed is therefore `D · K`
//! (averaged) observations.

use serde::{Deserialize, Serialize};

/// What happened to the bucket chain after one step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BucketEvent {
    /// The ball count changed but the current bucket did not.
    Stayed,
    /// The current bucket overflowed; moved to bucket `N + 1`.
    MovedUp,
    /// The current bucket underflowed; moved back to bucket `N − 1`.
    MovedDown,
    /// The last bucket overflowed: rejuvenation must be triggered.
    /// The chain has already reset itself to `(d, N) = (0, 0)`.
    Triggered,
}

/// The bucket/ball degradation counter (the paper's Fig. 6 state
/// variables `d` and `N`).
///
/// # Example
///
/// ```
/// use rejuv_core::{BucketChain, BucketEvent};
///
/// let mut chain = BucketChain::new(2, 1); // K = 2 buckets, depth D = 1
/// assert_eq!(chain.step(true), BucketEvent::Stayed);   // d: 0 -> 1
/// assert_eq!(chain.step(true), BucketEvent::MovedUp);  // overflow -> N = 1
/// assert_eq!(chain.step(true), BucketEvent::Stayed);   // d: 0 -> 1
/// assert_eq!(chain.step(true), BucketEvent::Triggered);
/// assert_eq!((chain.bucket(), chain.count()), (0, 0)); // self-reset
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct BucketChain {
    buckets: usize,
    depth: u32,
    /// Current bucket index `N ∈ 0..buckets`.
    bucket: usize,
    /// Current ball count `d ∈ 0..=depth`.
    count: i64,
    /// Total number of times the chain has triggered.
    triggers: u64,
}

impl BucketChain {
    /// Creates a chain of `buckets` buckets, each of depth `depth`.
    ///
    /// # Panics
    ///
    /// Panics if `buckets == 0` or `depth == 0`; configurations are
    /// validated upstream by the config builders, so reaching this is a
    /// programming error.
    pub fn new(buckets: usize, depth: u32) -> Self {
        assert!(buckets > 0, "need at least one bucket");
        assert!(depth > 0, "bucket depth must be at least 1");
        BucketChain {
            buckets,
            depth,
            bucket: 0,
            count: 0,
            triggers: 0,
        }
    }

    /// Number of buckets `K`.
    pub fn buckets(&self) -> usize {
        self.buckets
    }

    /// Bucket depth `D`.
    pub fn depth(&self) -> u32 {
        self.depth
    }

    /// Current bucket index `N`.
    pub fn bucket(&self) -> usize {
        self.bucket
    }

    /// Current ball count `d` in the current bucket.
    pub fn count(&self) -> i64 {
        self.count
    }

    /// Number of times the chain has triggered since construction.
    pub fn triggers(&self) -> u64 {
        self.triggers
    }

    /// Advances the chain by one (averaged) observation.
    ///
    /// `exceeded` is whether the observation exceeded the current
    /// bucket's target value. Implements the paper's update rules
    /// verbatim:
    ///
    /// ```text
    /// if exceeded { d += 1 } else { d -= 1 }
    /// if d > D            { d := 0;  N := N + 1 }
    /// if d < 0 and N > 0  { d := D;  N := N - 1 }
    /// if d < 0 and N == 0 { d := 0 }
    /// if N == K           { trigger; d := 0; N := 0 }
    /// ```
    ///
    /// Branch-light: `exceeded` is data-dependent (on a healthy stream
    /// it flips unpredictably), so the count moves by a select, and a
    /// bucket-0 underflow — the common case on a healthy stream — is a
    /// `max(0)` clamp. Only overflow, trigger and move-down, all rare,
    /// are branches (DESIGN §12).
    pub fn step(&mut self, exceeded: bool) -> BucketEvent {
        let count = self.count + (2 * i64::from(exceeded) - 1);

        if count > i64::from(self.depth) {
            self.count = 0;
            self.bucket += 1;
            if self.bucket == self.buckets {
                self.bucket = 0;
                self.triggers += 1;
                return BucketEvent::Triggered;
            }
            return BucketEvent::MovedUp;
        }

        if self.bucket == 0 {
            self.count = count.max(0);
            return BucketEvent::Stayed;
        }
        if count < 0 {
            self.count = i64::from(self.depth);
            self.bucket -= 1;
            return BucketEvent::MovedDown;
        }
        self.count = count;
        BucketEvent::Stayed
    }

    /// Resets to the initial state `(d, N) = (0, 0)` without touching the
    /// trigger counter.
    pub fn reset(&mut self) {
        self.bucket = 0;
        self.count = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's update rules as first written, branch for branch: the
    /// oracle the branch-light `step` must match.
    fn reference_step(chain: &mut BucketChain, exceeded: bool) -> BucketEvent {
        if exceeded {
            chain.count += 1;
        } else {
            chain.count -= 1;
        }
        if chain.count > i64::from(chain.depth) {
            chain.count = 0;
            chain.bucket += 1;
            if chain.bucket == chain.buckets {
                chain.bucket = 0;
                chain.triggers += 1;
                return BucketEvent::Triggered;
            }
            return BucketEvent::MovedUp;
        }
        if chain.count < 0 {
            if chain.bucket > 0 {
                chain.count = i64::from(chain.depth);
                chain.bucket -= 1;
                return BucketEvent::MovedDown;
            }
            chain.count = 0;
        }
        BucketEvent::Stayed
    }

    #[test]
    fn step_matches_the_reference_on_every_reachable_state() {
        // Bounded exhaustive check: for every K, D ≤ 6, walk the states
        // reachable from (N, d) = (0, 0) under the reference rules and
        // compare the event and the whole chain after both inputs. The
        // walk must reach every (N, d) in 0..K × 0..=D, so nothing is
        // left unchecked.
        for buckets in 1..=6 {
            for depth in 1..=6u32 {
                let start = BucketChain::new(buckets, depth);
                let mut seen = std::collections::HashSet::from([(0, 0)]);
                let mut frontier = vec![start];
                while let Some(state) = frontier.pop() {
                    for exceeded in [false, true] {
                        let (mut fast, mut slow) = (state, state);
                        let event = fast.step(exceeded);
                        assert_eq!(
                            (event, fast),
                            (reference_step(&mut slow, exceeded), slow),
                            "K = {buckets}, D = {depth}, from {state:?}, exceeded = {exceeded}"
                        );
                        if seen.insert((fast.bucket, fast.count)) {
                            frontier.push(fast);
                        }
                    }
                }
                assert_eq!(seen.len(), buckets * (depth as usize + 1));
                // A deserialised snapshot skips `new`'s invariants, so
                // the two must also agree on counts just outside 0..=D.
                for bucket in 0..buckets {
                    for count in -2..=i64::from(depth) + 2 {
                        for exceeded in [false, true] {
                            let state = BucketChain {
                                bucket,
                                count,
                                ..start
                            };
                            let (mut fast, mut slow) = (state, state);
                            let event = fast.step(exceeded);
                            assert_eq!(
                                (event, fast),
                                (reference_step(&mut slow, exceeded), slow),
                                "from {state:?}, exceeded = {exceeded}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one bucket")]
    fn zero_buckets_panics() {
        let _ = BucketChain::new(0, 1);
    }

    #[test]
    #[should_panic(expected = "depth must be at least 1")]
    fn zero_depth_panics() {
        let _ = BucketChain::new(1, 0);
    }

    #[test]
    fn minimum_trigger_delay_is_depth_times_buckets() {
        // The paper: "the minimum delay before a degradation can be
        // affirmed is at least D · K observations".
        for (k, d) in [(1, 1), (3, 5), (5, 3), (2, 10)] {
            let mut chain = BucketChain::new(k, d);
            let mut steps = 0u32;
            loop {
                steps += 1;
                if chain.step(true) == BucketEvent::Triggered {
                    break;
                }
            }
            assert_eq!(steps, d * k as u32 + k as u32, "K = {k}, D = {d}");
            // Exactly (D+1) exceedances overflow one bucket, K times.
        }
    }

    #[test]
    fn healthy_observations_never_trigger() {
        let mut chain = BucketChain::new(3, 2);
        for _ in 0..10_000 {
            assert_ne!(chain.step(false), BucketEvent::Triggered);
        }
        assert_eq!(chain.bucket(), 0);
        assert_eq!(chain.count(), 0);
        assert_eq!(chain.triggers(), 0);
    }

    #[test]
    fn underflow_moves_back_with_full_count() {
        let mut chain = BucketChain::new(3, 2);
        // Fill bucket 0: d = 0 -> 1 -> 2 -> overflow at 3.
        chain.step(true);
        chain.step(true);
        assert_eq!(chain.step(true), BucketEvent::MovedUp);
        assert_eq!(chain.bucket(), 1);
        assert_eq!(chain.count(), 0);
        // One good observation underflows bucket 1 back to bucket 0 with
        // d = D, per the paper's `d := D; N := N − 1`.
        assert_eq!(chain.step(false), BucketEvent::MovedDown);
        assert_eq!(chain.bucket(), 0);
        assert_eq!(chain.count(), 2);
    }

    #[test]
    fn count_floors_at_zero_in_first_bucket() {
        let mut chain = BucketChain::new(2, 3);
        chain.step(false);
        chain.step(false);
        assert_eq!(chain.bucket(), 0);
        assert_eq!(chain.count(), 0);
    }

    #[test]
    fn alternating_observations_oscillate_without_progress() {
        let mut chain = BucketChain::new(2, 2);
        for _ in 0..1_000 {
            chain.step(true);
            chain.step(false);
        }
        assert_eq!(chain.bucket(), 0);
        assert!(chain.count() <= 1);
        assert_eq!(chain.triggers(), 0);
    }

    #[test]
    fn trigger_resets_chain_and_counts() {
        let mut chain = BucketChain::new(1, 1);
        chain.step(true);
        assert_eq!(chain.step(true), BucketEvent::Triggered);
        assert_eq!(chain.bucket(), 0);
        assert_eq!(chain.count(), 0);
        assert_eq!(chain.triggers(), 1);
        // It can trigger again.
        chain.step(true);
        assert_eq!(chain.step(true), BucketEvent::Triggered);
        assert_eq!(chain.triggers(), 2);
    }

    #[test]
    fn reset_preserves_trigger_count() {
        let mut chain = BucketChain::new(1, 1);
        chain.step(true);
        chain.step(true);
        assert_eq!(chain.triggers(), 1);
        chain.step(true);
        chain.reset();
        assert_eq!(chain.bucket(), 0);
        assert_eq!(chain.count(), 0);
        assert_eq!(chain.triggers(), 1);
    }

    #[test]
    fn invariants_hold_under_arbitrary_inputs() {
        // Deterministic pseudo-random walk over step inputs.
        let mut chain = BucketChain::new(4, 3);
        let mut state = 0x12345678u64;
        for _ in 0..100_000 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            chain.step(state & 0b11 != 0); // 75% exceeded
            assert!(chain.bucket() < 4);
            assert!((0..=3).contains(&chain.count()));
        }
    }
}
