//! Per-shard dead-letter queue for observations that lossy pushes
//! would otherwise silently drop.
//!
//! The paper's detectors (SRAA/SARAA/CLTA) estimate µX/σX from the
//! observation stream; every sample a saturated [`ObsQueue`] discards
//! biases those estimates exactly when the system is degrading — the
//! moment detection quality matters most. With a [`DeadLetterQueue`]
//! attached, the queue facade *captures* the actual `(value, at)`
//! samples instead of dropping them, and the drain path *replays* them
//! back into the shard (in capture order, at drain-batch boundaries)
//! once back-pressure clears.
//!
//! # Ordering invariant
//!
//! The logical per-shard stream is always `main queue ++ dead-letter
//! queue`. To keep that true, a lossy push consults the DLQ *first*:
//! while any sample is pending in the DLQ, new lossy pushes append to
//! the DLQ even if the main queue has room. Replay happens at the top
//! of each drain, re-filling the main queue from the DLQ front before
//! samples are popped. Together these preserve the per-producer FIFO
//! order that the decision digests are defined over, so a run that
//! saturates-and-replays produces the same report bytes as one that
//! never saturated.
//!
//! # Accounting
//!
//! The queue's `accepted` counter counts a sample once, when it enters
//! the *main* queue (replayed samples are counted at replay). With
//! `pending = captured - replayed`, every offered sample is in exactly
//! one bucket:
//!
//! ```text
//! accepted + pending + overflow == offered
//! ```
//!
//! `overflow` — a full DLQ — is the only true loss, and it is counted,
//! never silent. The DLQ never blocks a producer.
//!
//! [`ObsQueue`]: crate::queue::ObsQueue

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use crate::bus::{EventBus, OpEvent};

/// A point-in-time accounting view of a [`DeadLetterQueue`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DlqStats {
    /// Samples currently held (captured but not yet replayed).
    pub pending: usize,
    /// Lifetime samples captured from lossy pushes.
    pub captured: u64,
    /// Lifetime samples replayed back into the main queue.
    pub replayed: u64,
    /// Lifetime samples lost because the DLQ itself was full.
    pub overflow: u64,
}

/// A bounded FIFO of `(value, at)` samples a full shard queue would
/// have dropped. Attached to an [`ObsQueue`](crate::queue::ObsQueue)
/// via [`Supervisor::enable_dlq`](crate::supervisor::Supervisor::enable_dlq).
#[derive(Debug)]
pub struct DeadLetterQueue {
    shard: u32,
    capacity: usize,
    state: Mutex<VecDeque<(f64, f64)>>,
    /// Lock-free mirror of `state.len()` so the push fast path can
    /// skip the mutex while the DLQ is empty.
    pending_hint: AtomicUsize,
    captured: AtomicU64,
    replayed: AtomicU64,
    overflow: AtomicU64,
    bus: Mutex<Option<Arc<EventBus>>>,
}

impl DeadLetterQueue {
    /// A dead-letter queue for shard `shard` holding at most
    /// `capacity` pending samples.
    ///
    /// # Panics
    ///
    /// If `capacity` is zero.
    pub fn new(shard: u32, capacity: usize) -> Self {
        assert!(capacity > 0, "dead-letter capacity must be positive");
        Self {
            shard,
            capacity,
            state: Mutex::new(VecDeque::new()),
            pending_hint: AtomicUsize::new(0),
            captured: AtomicU64::new(0),
            replayed: AtomicU64::new(0),
            overflow: AtomicU64::new(0),
            bus: Mutex::new(None),
        }
    }

    /// The shard index this DLQ serves.
    pub fn shard(&self) -> u32 {
        self.shard
    }

    /// Maximum pending samples.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Samples currently pending (captured, not yet replayed). May be
    /// momentarily stale under concurrency; exact when quiescent.
    pub fn pending(&self) -> usize {
        self.pending_hint.load(Ordering::Acquire)
    }

    /// Point-in-time accounting view.
    pub fn stats(&self) -> DlqStats {
        DlqStats {
            pending: self.pending(),
            captured: self.captured.load(Ordering::Relaxed),
            replayed: self.replayed.load(Ordering::Relaxed),
            overflow: self.overflow.load(Ordering::Relaxed),
        }
    }

    /// Attaches an operational event bus; capture/replay/overflow
    /// transitions publish [`OpEvent`]s to it.
    pub fn set_bus(&self, bus: Arc<EventBus>) {
        *self.bus.lock().expect("dlq bus lock poisoned") = Some(bus);
    }

    fn publish(&self, event: OpEvent) {
        if let Some(bus) = self.bus.lock().expect("dlq bus lock poisoned").as_ref() {
            bus.publish(event);
        }
    }

    /// Captures up to `want` samples from `it`, oldest first. Returns
    /// the number captured; the shortfall is counted as overflow and
    /// the corresponding samples are left unconsumed in `it` (the
    /// caller discards them).
    pub(crate) fn capture_iter(
        &self,
        it: &mut dyn Iterator<Item = (f64, f64)>,
        want: usize,
    ) -> usize {
        if want == 0 {
            return 0;
        }
        let mut state = self.state.lock().expect("dlq state lock poisoned");
        let was_empty = state.is_empty();
        let take = want.min(self.capacity - state.len());
        state.extend(it.take(take));
        self.pending_hint.store(state.len(), Ordering::Release);
        drop(state);
        let lost = want - take;
        if take > 0 {
            self.captured.fetch_add(take as u64, Ordering::Relaxed);
            if was_empty {
                self.publish(OpEvent::QueueSaturated { shard: self.shard });
            }
            self.publish(OpEvent::SamplesDeadLettered {
                shard: self.shard,
                count: take as u64,
            });
        }
        if lost > 0 {
            self.overflow.fetch_add(lost as u64, Ordering::Relaxed);
            self.publish(OpEvent::DlqOverflow {
                shard: self.shard,
                count: lost as u64,
            });
        }
        take
    }

    /// Replays pending samples through `push`, which receives an
    /// iterator over the pending samples (oldest first) plus their
    /// count and returns how many it actually accepted. Only the
    /// accepted prefix is removed from the DLQ.
    pub(crate) fn replay_with<F>(&self, push: F) -> usize
    where
        F: FnOnce(&mut dyn Iterator<Item = (f64, f64)>, usize) -> usize,
    {
        let mut state = self.state.lock().expect("dlq state lock poisoned");
        let pending = state.len();
        if pending == 0 {
            return 0;
        }
        let took = {
            let mut it = state.iter().copied();
            push(&mut it, pending)
        };
        if took > 0 {
            state.drain(..took);
            self.pending_hint.store(state.len(), Ordering::Release);
            self.replayed.fetch_add(took as u64, Ordering::Relaxed);
            drop(state);
            self.publish(OpEvent::DlqReplayed {
                shard: self.shard,
                count: took as u64,
            });
        }
        took
    }

    /// The pending samples, oldest first (for checkpointing).
    pub fn contents(&self) -> Vec<(f64, f64)> {
        self.state
            .lock()
            .expect("dlq state lock poisoned")
            .iter()
            .copied()
            .collect()
    }

    /// Clears pending samples and zeroes all lifetime counters (used
    /// when restoring from a checkpoint that predates this DLQ).
    pub(crate) fn reset(&self) {
        let mut state = self.state.lock().expect("dlq state lock poisoned");
        state.clear();
        self.pending_hint.store(0, Ordering::Release);
        self.captured.store(0, Ordering::Relaxed);
        self.replayed.store(0, Ordering::Relaxed);
        self.overflow.store(0, Ordering::Relaxed);
    }

    /// Replaces pending samples and lifetime counters wholesale (used
    /// when restoring from a v4 checkpoint). Pending samples beyond
    /// `capacity` are kept: a checkpoint written by a larger DLQ must
    /// not lose data on restore.
    pub(crate) fn restore(
        &self,
        samples: &[(f64, f64)],
        captured: u64,
        replayed: u64,
        overflow: u64,
    ) {
        let mut state = self.state.lock().expect("dlq state lock poisoned");
        state.clear();
        state.extend(samples.iter().copied());
        self.pending_hint.store(state.len(), Ordering::Release);
        self.captured.store(captured, Ordering::Relaxed);
        self.replayed.store(replayed, Ordering::Relaxed);
        self.overflow.store(overflow, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Captures one sample; `false` means it overflowed.
    fn capture_one(dlq: &DeadLetterQueue, value: f64, at: f64) -> bool {
        dlq.capture_iter(&mut std::iter::once((value, at)), 1) == 1
    }

    #[test]
    fn capture_then_overflow_accounts_every_sample() {
        let dlq = DeadLetterQueue::new(0, 2);
        assert!(capture_one(&dlq, 1.0, 0.1));
        assert!(capture_one(&dlq, 2.0, 0.2));
        assert!(!capture_one(&dlq, 3.0, 0.3), "third sample overflows");
        let stats = dlq.stats();
        assert_eq!(stats.pending, 2);
        assert_eq!(stats.captured, 2);
        assert_eq!(stats.overflow, 1);
        assert_eq!(dlq.contents(), vec![(1.0, 0.1), (2.0, 0.2)]);
    }

    #[test]
    fn partial_batch_capture_counts_the_shortfall() {
        let dlq = DeadLetterQueue::new(3, 3);
        let samples = [(1.0, 1.0), (2.0, 2.0), (3.0, 3.0), (4.0, 4.0), (5.0, 5.0)];
        let mut it = samples.iter().copied();
        assert_eq!(dlq.capture_iter(&mut it, samples.len()), 3);
        let stats = dlq.stats();
        assert_eq!((stats.captured, stats.overflow), (3, 2));
        assert_eq!(dlq.contents(), vec![(1.0, 1.0), (2.0, 2.0), (3.0, 3.0)]);
    }

    #[test]
    fn replay_removes_only_the_accepted_prefix() {
        let dlq = DeadLetterQueue::new(0, 8);
        for i in 0..4 {
            assert!(capture_one(&dlq, i as f64, i as f64));
        }
        // Downstream only has room for two.
        let took = dlq.replay_with(|it, want| {
            assert_eq!(want, 4);
            it.take(2).count()
        });
        assert_eq!(took, 2);
        let stats = dlq.stats();
        assert_eq!(stats.pending, 2);
        assert_eq!(stats.replayed, 2);
        assert_eq!(dlq.contents(), vec![(2.0, 2.0), (3.0, 3.0)]);
        // Second replay drains the rest.
        assert_eq!(dlq.replay_with(|it, want| it.take(want).count()), 2);
        assert_eq!(dlq.pending(), 0);
        assert_eq!(dlq.stats().replayed, 4);
    }

    #[test]
    fn bus_events_track_the_lifecycle() {
        let bus = Arc::new(EventBus::new());
        let sub = bus.subscribe(16);
        let dlq = DeadLetterQueue::new(7, 1);
        dlq.set_bus(Arc::clone(&bus));
        assert!(capture_one(&dlq, 1.0, 0.0));
        assert!(!capture_one(&dlq, 2.0, 0.0));
        dlq.replay_with(|it, want| it.take(want).count());
        assert_eq!(
            sub.drain(),
            vec![
                OpEvent::QueueSaturated { shard: 7 },
                OpEvent::SamplesDeadLettered { shard: 7, count: 1 },
                OpEvent::DlqOverflow { shard: 7, count: 1 },
                OpEvent::DlqReplayed { shard: 7, count: 1 },
            ]
        );
    }

    #[test]
    fn restore_replaces_state_and_counters() {
        let dlq = DeadLetterQueue::new(0, 4);
        assert!(capture_one(&dlq, 9.0, 9.0));
        dlq.restore(&[(1.0, 1.0), (2.0, 2.0)], 10, 7, 3);
        let stats = dlq.stats();
        assert_eq!(stats.pending, 2);
        assert_eq!((stats.captured, stats.replayed, stats.overflow), (10, 7, 3));
        dlq.reset();
        assert_eq!(dlq.stats(), DlqStats::default());
    }
}
