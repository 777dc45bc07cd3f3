//! Bounded observation queues.
//!
//! Each supervisor shard owns one [`ObsQueue`]: the producer side (a
//! simulation feed, an instrumented request path) pushes raw samples,
//! the consumer side (the supervisor's drain loop) removes them in
//! batches. The queue is *bounded*: when the consumer falls behind,
//! pushes fail fast and are counted instead of blocking the producer —
//! overload degrades monitoring fidelity, never source throughput.
//!
//! Samples are `(value, at)` pairs; `at` is a simulation timestamp in
//! seconds, with `NaN` marking an untimed sample (producers that only
//! have a value). Timestamps ride along so the supervisor can build
//! inter-observation latency histograms; they never enter decision
//! digests.
//!
//! The queue is a mutex-guarded ring buffer stored as a structure of
//! arrays: one ring of values, one of timestamps. Batched pushes
//! ([`ObsQueue::push_batch`]) and batched drains
//! ([`ObsQueue::drain_into`]) each take the lock once, which amortises
//! it to a few nanoseconds per sample, and a drain copies each ring's
//! contiguous spans straight into the caller's value and timestamp
//! buffers. Any number of threads
//! may push and drain concurrently; every operation is linearised by
//! the lock, so the drained sequence is the push order.
//!
//! Blocking producers ([`ObsQueue::push_blocking`]) spin a bounded
//! number of times, then *park* on a condvar until the consumer frees
//! space — a stalled consumer costs a wait counter increment, not a
//! pegged core. Symmetrically, a [`WorkNotifier`] can be attached so an
//! empty→non-empty transition wakes a parked consumer thread (see
//! [`crate::pool::ConsumerPool`]): between batches, neither side burns
//! CPU. When the drain plane exits it calls [`ObsQueue::shutdown`],
//! which wakes any still-parked producer so a blocking push never
//! sleeps forever on space that cannot free.
//!
//! Lossy pushes need not mean lost samples: attaching a
//! [`DeadLetterQueue`] (see
//! [`crate::supervisor::Supervisor::enable_dlq`]) diverts what a full
//! queue would drop into a bounded side buffer, replayed in FIFO order
//! by the drain path once back-pressure clears.

use crate::assurance::failpoints::fp;
use crate::dlq::DeadLetterQueue;
use std::collections::TryReserveError;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};

/// Timestamp marker for samples that carry no timestamp.
pub(crate) const UNTIMED: f64 = f64::NAN;

/// How many scheduler yields a blocking push attempts before parking on
/// the space condvar. Short stalls resolve without a park; long stalls
/// sleep instead of spinning.
const BLOCKING_SPIN_LIMIT: u32 = 64;

/// Wakes a parked consumer when any of its queues gains work.
///
/// One notifier is shared by every queue a consumer thread drains; a
/// push into an *empty* queue signals it (pushes into a non-empty queue
/// don't need to — the consumer only parks after draining every queue
/// to empty, so a pending item is never overlooked).
#[derive(Debug, Default)]
pub struct WorkNotifier {
    state: Mutex<NotifyState>,
    cv: Condvar,
    /// Times a waiter actually blocked (telemetry for "the consumer
    /// parks instead of spinning").
    parks: AtomicU64,
}

#[derive(Debug, Default)]
struct NotifyState {
    /// Work arrived since the last `wait` returned.
    pending: bool,
    /// The consumer should drain what's left and exit.
    shutdown: bool,
}

/// What woke a [`WorkNotifier::wait`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Wakeup {
    /// At least one queue gained work; drain and wait again.
    Work,
    /// Shutdown was requested; drain remaining work and exit.
    Shutdown,
}

impl WorkNotifier {
    /// Creates an idle notifier.
    pub fn new() -> Self {
        WorkNotifier::default()
    }

    /// Signals that work is available, waking a parked waiter.
    pub fn notify_work(&self) {
        fp!("queue.notify-work");
        let mut state = self.state.lock().expect("notifier lock poisoned");
        state.pending = true;
        drop(state);
        self.cv.notify_all();
    }

    /// Requests shutdown, waking a parked waiter.
    pub fn shutdown(&self) {
        let mut state = self.state.lock().expect("notifier lock poisoned");
        state.shutdown = true;
        drop(state);
        self.cv.notify_all();
    }

    /// Blocks until work arrives or shutdown is requested. Consumes the
    /// pending-work flag; shutdown is sticky and reported only once no
    /// work signal is pending (so pre-shutdown pushes still drain).
    pub fn wait(&self) -> Wakeup {
        let mut state = self.state.lock().expect("notifier lock poisoned");
        if !state.pending && !state.shutdown {
            self.parks.fetch_add(1, Ordering::Relaxed);
            fp!("queue.wait-park");
            state = self
                .cv
                .wait_while(state, |s| !s.pending && !s.shutdown)
                .expect("notifier lock poisoned");
        }
        if state.pending {
            state.pending = false;
            Wakeup::Work
        } else {
            Wakeup::Shutdown
        }
    }

    /// Times a waiter actually went to sleep.
    pub fn parks(&self) -> u64 {
        self.parks.load(Ordering::Relaxed)
    }
}

/// Lifetime accounting of one queue. All counters are updated with
/// relaxed atomics — they are telemetry, not synchronisation.
#[derive(Debug, Default)]
struct Counters {
    /// Samples accepted over the queue's lifetime.
    accepted: AtomicU64,
    /// Samples rejected because the queue was full.
    dropped: AtomicU64,
    /// Times a blocking producer had to park waiting for space.
    waits: AtomicU64,
}

/// The queue's storage: values and timestamps in two parallel rings
/// (structure of arrays), so a drain hands the detector plain slices.
/// `head` is the slot of the oldest sample and `len` the occupancy;
/// both rings share them.
///
/// The rings are reserved at their full capacity up front but grow
/// their *length* only as slots are first written ([`Ring::fill`]):
/// reserving maps address space without touching it, so a queue costs
/// memory for the slots it has used, not for its bound. A drain that
/// empties the queue moves `head` back to slot 0 (as `VecDeque` does),
/// so a queue that never backs up keeps reusing its first slots instead
/// of cycling through, and touching, the whole reservation.
struct Ring {
    values: Vec<f64>,
    times: Vec<f64>,
    head: usize,
    len: usize,
    capacity: usize,
}

impl Ring {
    fn new(capacity: usize) -> Result<Self, TryReserveError> {
        let mut values = Vec::new();
        values.try_reserve_exact(capacity)?;
        let mut times = Vec::new();
        times.try_reserve_exact(capacity)?;
        Ok(Ring {
            values,
            times,
            head: 0,
            len: 0,
            capacity,
        })
    }

    fn free(&self) -> usize {
        self.capacity - self.len
    }

    /// Appends the next `n` samples of `it` (`n` at most the free
    /// space): one zipped slice loop per contiguous span, at most two.
    fn push(&mut self, it: &mut impl Iterator<Item = (f64, f64)>, n: usize) {
        debug_assert!(n <= self.free());
        let tail = self.head + self.len;
        let (tail, first) = if tail >= self.capacity {
            (tail - self.capacity, n)
        } else {
            (tail, n.min(self.capacity - tail))
        };
        self.fill(tail, tail + first, it);
        self.fill(0, n - first, it);
        self.len += n;
    }

    /// Writes slots `start..end` from `it`. Slots past the rings'
    /// current length are used for the first time, so the rings grow to
    /// `end` first. `start` is never past the length: every slot before
    /// the tail was written when it went live.
    fn fill(&mut self, start: usize, end: usize, it: &mut impl Iterator<Item = (f64, f64)>) {
        if end > self.values.len() {
            self.values.resize(end, 0.0);
            self.times.resize(end, 0.0);
        }
        let slots = self.values[start..end]
            .iter_mut()
            .zip(&mut self.times[start..end]);
        for ((value, at), (v, t)) in slots.zip(it) {
            *value = v;
            *at = t;
        }
    }

    /// Appends up to `max` of the oldest samples to `values` and
    /// `times` (at most two `extend_from_slice` per ring) and removes
    /// them; returns how many.
    fn drain_into(&mut self, values: &mut Vec<f64>, times: &mut Vec<f64>, max: usize) -> usize {
        let take = self.len.min(max);
        let first = take.min(self.capacity - self.head);
        let span = self.head..self.head + first;
        values.extend_from_slice(&self.values[span.clone()]);
        times.extend_from_slice(&self.times[span]);
        values.extend_from_slice(&self.values[..take - first]);
        times.extend_from_slice(&self.times[..take - first]);
        self.len -= take;
        self.head = if self.len == 0 {
            0
        } else {
            (self.head + take) % self.capacity
        };
        take
    }
}

/// The state every clone of an [`ObsQueue`] shares.
struct Inner {
    ring: Mutex<Ring>,
    /// Producers in `push_blocking` park here when the queue is full;
    /// `drain_into` notifies after freeing space.
    space: Condvar,
    capacity: usize,
    /// Mirror of the ring's occupancy, refreshed under the lock after
    /// every mutation, so `backlog_hint` can answer with one relaxed
    /// load instead of contending on the queue lock.
    occupancy: AtomicUsize,
    counters: Counters,
    /// Consumer wakeup hook, set once a consumer thread attaches.
    notifier: Mutex<Option<Arc<WorkNotifier>>>,
    /// Sticky shutdown flag: once set, parked producers wake and return
    /// short instead of sleeping on space that will never free (the
    /// drain plane is gone). See [`ObsQueue::shutdown`].
    shutdown: AtomicBool,
}

impl Inner {
    fn new(capacity: usize) -> Result<Self, TryReserveError> {
        Ok(Inner {
            ring: Mutex::new(Ring::new(capacity)?),
            space: Condvar::new(),
            capacity,
            occupancy: AtomicUsize::new(0),
            counters: Counters::default(),
            notifier: Mutex::new(None),
            shutdown: AtomicBool::new(false),
        })
    }

    fn notify(&self) {
        if let Some(n) = self
            .notifier
            .lock()
            .expect("notifier slot poisoned")
            .as_ref()
        {
            n.notify_work();
        }
    }

    fn lock(&self) -> MutexGuard<'_, Ring> {
        self.ring.lock().expect("queue lock poisoned")
    }

    /// Parks on the space condvar until the ring has a free slot or
    /// the queue shuts down.
    fn wait_while_full<'a>(&self, ring: MutexGuard<'a, Ring>) -> MutexGuard<'a, Ring> {
        self.space
            .wait_while(ring, |r| {
                r.free() == 0 && !self.shutdown.load(Ordering::SeqCst)
            })
            .expect("queue lock poisoned")
    }

    /// Appends `n` samples (at most the free space) under the held
    /// lock, then publishes the occupancy, counts them and wakes the
    /// consumer on an empty→non-empty transition.
    fn push_locked(
        &self,
        mut ring: MutexGuard<'_, Ring>,
        it: &mut impl Iterator<Item = (f64, f64)>,
        n: usize,
    ) {
        let was_empty = ring.len == 0;
        ring.push(it, n);
        self.occupancy.store(ring.len, Ordering::Relaxed);
        drop(ring);
        self.counters
            .accepted
            .fetch_add(n as u64, Ordering::Relaxed);
        if was_empty {
            self.notify();
        }
    }

    /// Single push attempt; does not count drops (the caller decides
    /// whether a full queue is a real drop or a blocking retry).
    fn try_push(&self, value: f64, at: f64) -> bool {
        fp!("queue.mutex.push");
        let ring = self.lock();
        if ring.free() == 0 {
            return false;
        }
        self.push_locked(ring, &mut std::iter::once((value, at)), 1);
        true
    }

    /// Moves up to `space` leading samples out of `it` under one lock
    /// acquisition; returns how many were accepted.
    fn push_batch_partial(&self, it: &mut impl Iterator<Item = (f64, f64)>, want: usize) -> usize {
        let ring = self.lock();
        let take = want.min(ring.free());
        if take > 0 {
            self.push_locked(ring, it, take);
        }
        take
    }

    fn push_blocking(&self, value: f64, at: f64) -> bool {
        for _ in 0..BLOCKING_SPIN_LIMIT {
            if self.try_push(value, at) {
                return true;
            }
            if self.shutdown.load(Ordering::SeqCst) {
                return false;
            }
            std::thread::yield_now();
        }
        // Park until the consumer frees space (or shutdown wakes us).
        // The push happens under the same lock the wait releases, so
        // space seen is space used.
        self.counters.waits.fetch_add(1, Ordering::Relaxed);
        fp!("queue.mutex.park");
        let ring = self.wait_while_full(self.lock());
        if ring.free() == 0 {
            return false; // woken by shutdown, still full
        }
        self.push_locked(ring, &mut std::iter::once((value, at)), 1);
        true
    }

    /// Parks until at least one slot is free (blocking batch refill).
    /// Returns `false` if the queue shut down while full instead.
    fn wait_for_space(&self) -> bool {
        for _ in 0..BLOCKING_SPIN_LIMIT {
            if self.shutdown.load(Ordering::SeqCst) {
                return false;
            }
            if self.lock().free() > 0 {
                return true;
            }
            std::thread::yield_now();
        }
        self.counters.waits.fetch_add(1, Ordering::Relaxed);
        self.wait_while_full(self.lock()).free() > 0
    }

    /// Sets the sticky shutdown flag and wakes every parked producer.
    fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Take the queue lock so a producer between its predicate check
        // and its sleep cannot miss this wakeup.
        let _ring = self.lock();
        self.space.notify_all();
    }

    fn drain_into(&self, values: &mut Vec<f64>, times: &mut Vec<f64>, max: usize) -> usize {
        fp!("queue.mutex.drain");
        let mut ring = self.lock();
        let take = ring.drain_into(values, times, max);
        self.occupancy.store(ring.len, Ordering::Relaxed);
        drop(ring);
        if take > 0 {
            fp!("queue.mutex.unpark");
            self.space.notify_all();
        }
        take
    }

    fn len(&self) -> usize {
        self.lock().len
    }
}

/// A bounded queue of observations, cheaply cloneable into producer and
/// consumer handles (clones share the same buffer and counters).
///
/// Construct with [`ObsQueue::bounded`].
#[derive(Clone)]
pub struct ObsQueue {
    inner: Arc<Inner>,
    /// Optional dead-letter queue, shared by every clone (set once,
    /// read with one atomic load on the push path). While attached,
    /// lossy pushes capture instead of dropping; see [`crate::dlq`].
    dlq: Arc<OnceLock<Arc<DeadLetterQueue>>>,
}

impl std::fmt::Debug for ObsQueue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObsQueue")
            .field("capacity", &self.capacity())
            .field("len", &self.len())
            .field("accepted", &self.accepted())
            .field("dropped", &self.dropped())
            .field("waits", &self.waits())
            .finish()
    }
}

impl ObsQueue {
    /// Creates a queue holding at most `capacity` pending observations.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0` or the allocator cannot reserve it.
    pub fn bounded(capacity: usize) -> Self {
        ObsQueue::try_bounded(capacity).expect("queue capacity must fit in memory")
    }

    /// [`ObsQueue::bounded`] that returns the allocator's refusal of
    /// `capacity` instead of panicking: the capacity may come from a
    /// log header.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub(crate) fn try_bounded(capacity: usize) -> Result<Self, TryReserveError> {
        assert!(capacity > 0, "queue capacity must be positive");
        Ok(ObsQueue {
            inner: Arc::new(Inner::new(capacity)?),
            dlq: Arc::new(OnceLock::new()),
        })
    }

    /// Attaches a consumer wakeup hook: pushes that make the queue
    /// non-empty will signal it. Replaces any previous notifier.
    pub fn attach_notifier(&self, notifier: Arc<WorkNotifier>) {
        *self.inner.notifier.lock().expect("notifier slot poisoned") = Some(notifier);
    }

    /// Offers one untimed observation; returns `false` (and counts a
    /// drop) if the queue is full. With a dead-letter queue attached,
    /// the sample is captured there instead and `false` means DLQ
    /// overflow — the only remaining (and counted) loss.
    pub fn push(&self, value: f64) -> bool {
        self.push_at(value, UNTIMED)
    }

    /// Offers one observation stamped at `at` seconds of simulation
    /// time; returns `false` (and counts a drop) if the queue is full.
    /// See [`ObsQueue::push`] for the dead-letter behaviour.
    pub fn push_at(&self, value: f64, at: f64) -> bool {
        if let Some(dlq) = self.dlq.get() {
            // While samples are pending in the DLQ, new lossy pushes
            // must queue *behind* them: the logical stream is always
            // `main queue ++ DLQ`, which is what keeps replayed runs
            // in per-producer FIFO order (and digests deterministic).
            if dlq.pending() > 0 {
                return dlq.capture_one(value, at);
            }
        }
        if self.inner.try_push(value, at) {
            return true;
        }
        if let Some(dlq) = self.dlq.get() {
            return dlq.capture_one(value, at);
        }
        self.inner.counters.dropped.fetch_add(1, Ordering::Relaxed);
        false
    }

    /// Offers a batch of `(value, at)` samples, accepting a leading
    /// prefix bounded by the free space; returns how many were
    /// accepted. The rest are counted as drops — unless a dead-letter
    /// queue is attached, in which case they are captured there (then
    /// the return value counts queued *plus* captured samples, and the
    /// shortfall is DLQ overflow). One lock acquisition covers the
    /// whole accepted prefix — the batched-producer fast path.
    pub fn push_batch<I>(&self, samples: I) -> usize
    where
        I: IntoIterator<Item = (f64, f64)>,
        I::IntoIter: ExactSizeIterator,
    {
        let mut it = samples.into_iter();
        let want = it.len();
        if let Some(dlq) = self.dlq.get() {
            // FIFO invariant: pending dead letters go first. See
            // `push_at`.
            if dlq.pending() > 0 {
                return dlq.capture_iter(&mut it, want);
            }
        }
        let took = self.inner.push_batch_partial(&mut it, want);
        if took < want {
            if let Some(dlq) = self.dlq.get() {
                return took + dlq.capture_iter(&mut it, want - took);
            }
            self.inner
                .counters
                .dropped
                .fetch_add((want - took) as u64, Ordering::Relaxed);
        }
        took
    }

    /// Pushes a batch losslessly: accepts as much as fits, then spins
    /// briefly and parks until the consumer frees space, repeating
    /// until every sample is enqueued — or until [`ObsQueue::shutdown`]
    /// wakes the park, at which point it stops short. Returns how many
    /// samples were enqueued (short of the batch length only on
    /// shutdown). Parks are counted in [`ObsQueue::waits`].
    pub fn push_batch_blocking<I>(&self, samples: I) -> usize
    where
        I: IntoIterator<Item = (f64, f64)>,
        I::IntoIter: ExactSizeIterator,
    {
        let mut it = samples.into_iter();
        let want = it.len();
        let mut pushed = 0;
        while pushed < want {
            let took = self.inner.push_batch_partial(&mut it, want - pushed);
            pushed += took;
            if pushed < want && !self.inner.wait_for_space() {
                break; // shut down while full: nothing will drain
            }
        }
        pushed
    }

    /// Pushes an untimed observation, waiting until space frees up. For
    /// producers that must not lose samples, e.g. the throughput bench's
    /// load generators. Returns `false` only if the queue was shut down
    /// while full (the sample was not enqueued).
    pub fn push_blocking(&self, value: f64) -> bool {
        self.push_blocking_at(value, UNTIMED)
    }

    /// Pushes a timestamped observation, waiting until space frees up.
    ///
    /// Spins (with scheduler yields) a bounded number of times, then
    /// parks until the consumer drains — a stalled consumer never costs
    /// a pegged producer core. Parks are counted in [`ObsQueue::waits`].
    /// Returns `false` only if the queue was shut down while full.
    pub fn push_blocking_at(&self, value: f64, at: f64) -> bool {
        self.inner.push_blocking(value, at)
    }

    /// Marks the queue shut down and wakes every parked producer: the
    /// drain plane is gone, so space will never free and a blocking
    /// push sleeping on it would hang forever. Blocking pushes observe
    /// the flag and return short instead. Sticky until
    /// `ObsQueue::clear_shutdown` (the consumer pool clears it on
    /// spawn so drain planes can run back to back on one supervisor);
    /// non-blocking pushes and drains are unaffected.
    pub fn shutdown(&self) {
        self.inner.shutdown()
    }

    /// Whether [`ObsQueue::shutdown`] has been called (and not cleared).
    pub fn is_shutdown(&self) -> bool {
        self.inner.shutdown.load(Ordering::SeqCst)
    }

    /// Clears the sticky shutdown flag so blocking pushes park again.
    pub(crate) fn clear_shutdown(&self) {
        self.inner.shutdown.store(false, Ordering::SeqCst);
    }

    /// The attached dead-letter queue, if any.
    pub fn dlq(&self) -> Option<&Arc<DeadLetterQueue>> {
        self.dlq.get()
    }

    /// Attaches a dead-letter queue: lossy pushes that find the queue
    /// full capture their samples there instead of dropping them. The
    /// attachment is shared by every clone of this queue — including
    /// clones made before the call. At most one DLQ per queue.
    ///
    /// # Panics
    ///
    /// If a DLQ is already attached.
    pub(crate) fn attach_dlq(&self, dlq: Arc<DeadLetterQueue>) {
        assert!(
            self.dlq.set(dlq).is_ok(),
            "dead-letter queue already attached"
        );
    }

    /// Re-ingests pending dead-lettered samples into the main queue
    /// (oldest first), bounded by the queue's free space; returns how
    /// many were moved. The drain path calls this before every drain,
    /// so replayed samples re-enter at drain-batch boundaries in
    /// capture order — the ordering the decision digests are defined
    /// over. No-op without a DLQ or with nothing pending.
    ///
    /// Ordering note: this pushes from the consumer thread while
    /// producers may push too, but while the DLQ is non-empty every
    /// lossy push is diverted *into* the DLQ (serialised by its lock),
    /// and the pending count only reads zero again after the replay's
    /// queue writes are published.
    pub(crate) fn replay_dead_letters(&self) -> usize {
        let Some(dlq) = self.dlq.get() else { return 0 };
        if dlq.pending() == 0 {
            return 0;
        }
        dlq.replay_with(|mut it, want| self.inner.push_batch_partial(&mut it, want))
    }

    /// Moves up to `max` pending samples out of the queue, appending
    /// their values to `values` and their timestamps to `times` in FIFO
    /// order; returns how many were moved. One lock acquisition and at
    /// most two slice copies per ring per batch; parked producers are
    /// woken when space was freed.
    pub fn drain_into(&self, values: &mut Vec<f64>, times: &mut Vec<f64>, max: usize) -> usize {
        self.inner.drain_into(values, times, max)
    }

    /// Pending observations right now.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Pending observations as a cheap, *approximate* heat signal:
    /// relaxed atomic loads only, never a lock. Exact when the queue is
    /// quiescent; under concurrent pushes and drains it is a racy
    /// snapshot that may lag either side by a batch. The consumer
    /// pool's work-stealing check reads this so sizing up a backlog
    /// never contends with the drain it is deciding whether to relieve.
    pub fn backlog_hint(&self) -> usize {
        self.inner.occupancy.load(Ordering::Relaxed)
    }

    /// Maximum pending observations.
    pub fn capacity(&self) -> usize {
        self.inner.capacity
    }

    /// Resets the lifetime accounting to checkpointed values; used when
    /// a supervisor restores a snapshot so its report resumes the
    /// checkpoint's totals.
    pub(crate) fn resume_counters(&self, accepted: u64, dropped: u64, waits: u64) {
        let counters = &self.inner.counters;
        counters.accepted.store(accepted, Ordering::Relaxed);
        counters.dropped.store(dropped, Ordering::Relaxed);
        counters.waits.store(waits, Ordering::Relaxed);
    }

    /// Lifetime count of accepted observations.
    pub fn accepted(&self) -> u64 {
        self.inner.counters.accepted.load(Ordering::Relaxed)
    }

    /// Lifetime count of observations dropped to back-pressure.
    pub fn dropped(&self) -> u64 {
        self.inner.counters.dropped.load(Ordering::Relaxed)
    }

    /// Lifetime count of blocking-producer parks (back-pressure stalls
    /// that put the producer to sleep instead of spinning).
    pub fn waits(&self) -> u64 {
        self.inner.counters.waits.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = ObsQueue::bounded(0);
    }

    #[test]
    fn push_fails_fast_when_full() {
        let q = ObsQueue::bounded(2);
        assert!(q.push(1.0));
        assert!(q.push(2.0));
        assert!(!q.push(3.0));
        assert_eq!((q.accepted(), q.dropped(), q.len()), (2, 1, 2));
    }

    #[test]
    fn drain_preserves_fifo_order_and_frees_space() {
        let q = ObsQueue::bounded(3);
        for v in [1.0, 2.0, 3.0] {
            q.push(v);
        }
        let mut out = Vec::new();
        assert_eq!(drain(&q, &mut out, 2), 2);
        assert_eq!(values(&out), vec![1.0, 2.0]);
        assert!(q.push(4.0), "drain must free capacity");
        assert_eq!(drain(&q, &mut out, 10), 2);
        assert_eq!(values(&out), vec![1.0, 2.0, 3.0, 4.0]);
        assert!(q.is_empty());
    }

    fn values(samples: &[(f64, f64)]) -> Vec<f64> {
        samples.iter().map(|&(v, _)| v).collect()
    }

    /// [`ObsQueue::drain_into`], re-zipped into `(value, at)` pairs
    /// appended to `out`.
    fn drain(q: &ObsQueue, out: &mut Vec<(f64, f64)>, max: usize) -> usize {
        let (mut values, mut times) = (Vec::new(), Vec::new());
        let n = q.drain_into(&mut values, &mut times, max);
        assert_eq!((values.len(), times.len()), (n, n));
        out.extend(values.into_iter().zip(times));
        n
    }

    #[test]
    fn timestamps_ride_along_and_untimed_is_nan() {
        let q = ObsQueue::bounded(4);
        q.push_at(1.5, 10.0);
        q.push(2.5);
        let mut out = Vec::new();
        drain(&q, &mut out, 8);
        assert_eq!(out[0], (1.5, 10.0));
        assert_eq!(out[1].0, 2.5);
        assert!(out[1].1.is_nan(), "untimed samples carry NaN");
    }

    #[test]
    fn clones_share_state() {
        let q = ObsQueue::bounded(4);
        let producer = q.clone();
        producer.push(7.0);
        assert_eq!(q.len(), 1);
        assert_eq!(q.accepted(), 1);
    }

    #[test]
    fn batch_push_accepts_a_prefix_and_counts_the_rest_as_drops() {
        let q = ObsQueue::bounded(4);
        q.push(0.0);
        let batch: Vec<(f64, f64)> = (1..=5).map(|i| (i as f64, UNTIMED)).collect();
        assert_eq!(q.push_batch(batch), 3, "only three slots were free");
        assert_eq!((q.accepted(), q.dropped(), q.len()), (4, 2, 4));
        let mut out = Vec::new();
        drain(&q, &mut out, 10);
        assert_eq!(values(&out), vec![0.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn batch_push_wraps_around_the_ring() {
        // Cycle a small ring well past its physical slot count so laps
        // and sequence-word advancement are exercised.
        let q = ObsQueue::bounded(3);
        let mut out = Vec::new();
        let mut expected = Vec::new();
        let mut next = 0.0;
        for round in 0..40 {
            let n = 1 + (round % 3);
            let batch: Vec<(f64, f64)> = (0..n).map(|i| (next + i as f64, UNTIMED)).collect();
            let took = q.push_batch(batch.clone());
            expected.extend(batch[..took].iter().map(|&(v, _)| v));
            next += n as f64;
            drain(&q, &mut out, 2);
        }
        drain(&q, &mut out, usize::MAX);
        assert_eq!(values(&out), expected);
        assert_eq!(q.accepted(), expected.len() as u64);
    }

    #[test]
    fn blocking_push_parks_instead_of_spinning() {
        let q = ObsQueue::bounded(1);
        q.push(0.0);
        let producer = q.clone();
        let handle = std::thread::spawn(move || {
            // Queue is full: the producer must wait for the drain below.
            producer.push_blocking(1.0);
        });
        // Wait until the producer has exhausted its spin budget and
        // counted its park; draining earlier would let a spin succeed.
        while q.waits() == 0 {
            std::thread::yield_now();
        }
        let mut out = Vec::new();
        drain(&q, &mut out, 1);
        handle.join().unwrap();
        assert_eq!(q.len(), 1);
        assert_eq!(q.accepted(), 2);
        assert_eq!(q.waits(), 1, "the stalled producer parked exactly once");
    }

    #[test]
    fn blocking_batch_push_delivers_everything() {
        let q = ObsQueue::bounded(4);
        let producer = q.clone();
        let handle = std::thread::spawn(move || {
            let batch: Vec<(f64, f64)> = (0..64).map(|i| (i as f64, UNTIMED)).collect();
            producer.push_batch_blocking(batch);
        });
        let mut out = Vec::new();
        while out.len() < 64 {
            if drain(&q, &mut out, 8) == 0 {
                std::thread::yield_now();
            }
        }
        handle.join().unwrap();
        assert_eq!(values(&out), (0..64).map(f64::from).collect::<Vec<_>>());
        assert_eq!((q.accepted(), q.dropped()), (64, 0));
    }

    #[test]
    fn notifier_signals_on_empty_to_nonempty_transition() {
        let q = ObsQueue::bounded(8);
        let notifier = Arc::new(WorkNotifier::new());
        q.attach_notifier(Arc::clone(&notifier));
        q.push(1.0);
        assert_eq!(notifier.wait(), Wakeup::Work, "first push signals");
        q.push(2.0); // non-empty: no signal needed
        notifier.shutdown();
        assert_eq!(notifier.wait(), Wakeup::Shutdown);
    }

    #[test]
    fn notifier_reports_pending_work_before_shutdown() {
        let n = WorkNotifier::new();
        n.notify_work();
        n.shutdown();
        assert_eq!(n.wait(), Wakeup::Work, "pre-shutdown work drains first");
        assert_eq!(n.wait(), Wakeup::Shutdown);
        assert_eq!(n.parks(), 0, "no wait ever blocked");
    }

    #[test]
    fn threaded_producer_consumer_loses_nothing_with_blocking_push() {
        let q = ObsQueue::bounded(16);
        let producer = q.clone();
        const N: u64 = 10_000;
        std::thread::scope(|scope| {
            scope.spawn(move || {
                for i in 0..N {
                    producer.push_blocking(i as f64);
                }
            });
            let mut seen = 0u64;
            let mut batch = Vec::new();
            let mut expected = 0.0;
            while seen < N {
                batch.clear();
                let n = drain(&q, &mut batch, 64);
                for &(v, _) in &batch {
                    assert_eq!(v, expected, "FIFO order must survive threading");
                    expected += 1.0;
                }
                seen += n as u64;
                if n == 0 {
                    std::thread::yield_now();
                }
            }
        });
        assert_eq!(q.accepted(), N);
        assert_eq!(q.dropped(), 0);
    }

    #[test]
    fn threaded_batched_producer_keeps_fifo_and_loses_nothing() {
        let q = ObsQueue::bounded(64);
        let producer = q.clone();
        const N: u64 = 50_000;
        std::thread::scope(|scope| {
            scope.spawn(move || {
                let mut i = 0u64;
                while i < N {
                    let n = (N - i).min(37);
                    let batch: Vec<(f64, f64)> = (i..i + n).map(|k| (k as f64, UNTIMED)).collect();
                    producer.push_batch_blocking(batch);
                    i += n;
                }
            });
            let mut seen = 0u64;
            let mut batch = Vec::new();
            let mut expected = 0.0;
            while seen < N {
                batch.clear();
                let n = drain(&q, &mut batch, 48);
                for &(v, _) in &batch {
                    assert_eq!(v, expected, "FIFO order must survive batching");
                    expected += 1.0;
                }
                seen += n as u64;
                if n == 0 {
                    std::thread::yield_now();
                }
            }
        });
        assert_eq!(q.accepted(), N);
        assert_eq!(q.dropped(), 0);
    }

    #[test]
    fn backlog_hint_tracks_occupancy_when_quiescent() {
        let q = ObsQueue::bounded(8);
        assert_eq!(q.backlog_hint(), 0);
        for v in 0..5 {
            q.push(v as f64);
        }
        assert_eq!(q.backlog_hint(), 5);
        let mut out = Vec::new();
        drain(&q, &mut out, 3);
        assert_eq!(q.backlog_hint(), 2);
        drain(&q, &mut out, usize::MAX);
        assert_eq!(q.backlog_hint(), 0);
    }

    /// Regression: a producer parked inside `push_batch_blocking` on a
    /// full queue must be woken by `shutdown` and return short, rather
    /// than sleep forever on space that will never free (the drain
    /// plane is gone). Before the fix, the park loop re-checked only
    /// occupancy, so the wake was lost and join hung.
    #[test]
    fn shutdown_wakes_a_parked_batch_producer() {
        let q = ObsQueue::bounded(4);
        for v in 0..4 {
            q.push(v as f64);
        }
        let producer = q.clone();
        let pushed = std::thread::scope(|scope| {
            let handle = scope.spawn(move || {
                let batch: Vec<(f64, f64)> = (0..8).map(|k| (100.0 + k as f64, UNTIMED)).collect();
                producer.push_batch_blocking(batch)
            });
            // Wait until the producer has given up spinning and
            // parked (parks are counted), then shut the queue down.
            while q.waits() == 0 {
                std::thread::yield_now();
            }
            q.shutdown();
            handle.join().unwrap()
        });
        assert!(q.is_shutdown());
        assert!(
            pushed < 8,
            "batch producer must return short on shutdown, pushed {pushed}"
        );
    }

    #[test]
    fn shutdown_wakes_a_parked_blocking_push_and_clear_rearms_it() {
        let q = ObsQueue::bounded(2);
        q.push(1.0);
        q.push(2.0);
        let producer = q.clone();
        let accepted = std::thread::scope(|scope| {
            let handle = scope.spawn(move || producer.push_blocking(3.0));
            while q.waits() == 0 {
                std::thread::yield_now();
            }
            q.shutdown();
            handle.join().unwrap()
        });
        assert!(!accepted, "shutdown while full must refuse");
        // The flag is sticky until cleared; once cleared (the pool
        // does this on spawn) and space exists, blocking pushes
        // work again.
        q.clear_shutdown();
        assert!(!q.is_shutdown());
        let mut out = Vec::new();
        drain(&q, &mut out, usize::MAX);
        assert!(q.push_blocking(4.0));
    }

    #[test]
    fn dlq_captures_overflow_instead_of_dropping() {
        let q = ObsQueue::bounded(2);
        q.attach_dlq(Arc::new(DeadLetterQueue::new(0, 3)));
        // 2 fit, 3 dead-letter, 1 overflows the DLQ itself.
        let mut offered = 0u64;
        for v in 0..6 {
            q.push(v as f64);
            offered += 1;
        }
        let stats = q.dlq().unwrap().stats();
        assert_eq!(q.dropped(), 0, "a DLQ means no silent drops");
        assert_eq!((stats.pending, stats.captured, stats.overflow), (3, 3, 1));
        assert_eq!(
            q.accepted() + stats.pending as u64 + stats.overflow,
            offered,
            "every offered sample is accounted for"
        );
    }

    #[test]
    fn pending_dead_letters_divert_pushes_even_with_queue_space() {
        let q = ObsQueue::bounded(2);
        q.attach_dlq(Arc::new(DeadLetterQueue::new(0, 8)));
        q.push(1.0);
        q.push(2.0);
        q.push(3.0); // full -> dead-lettered
        let mut out = Vec::new();
        drain(&q, &mut out, usize::MAX); // frees all space
                                         // The logical stream is queue ++ DLQ: while sample 3.0 is
                                         // still pending, later pushes must line up behind it, not
                                         // jump into the freed slots.
        assert!(q.push(4.0));
        assert_eq!(q.len(), 0, "push diverted to the DLQ");
        assert_eq!(values(&q.dlq().unwrap().contents()), vec![3.0, 4.0]);
        // Batch pushes divert the same way.
        assert_eq!(q.push_batch(vec![(5.0, UNTIMED)]), 1);
        assert_eq!(q.dlq().unwrap().pending(), 3);
    }

    #[test]
    fn replay_moves_dead_letters_fifo_bounded_by_free_space() {
        let q = ObsQueue::bounded(2);
        q.attach_dlq(Arc::new(DeadLetterQueue::new(0, 8)));
        for v in 0..5 {
            q.push(v as f64); // 0,1 queued; 2,3,4 dead-lettered
        }
        let mut out = Vec::new();
        drain(&q, &mut out, usize::MAX);
        assert_eq!(values(&out), vec![0.0, 1.0]);
        // Space for two: replay moves exactly the two oldest.
        assert_eq!(q.replay_dead_letters(), 2);
        drain(&q, &mut out, usize::MAX);
        assert_eq!(values(&out), vec![0.0, 1.0, 2.0, 3.0]);
        assert_eq!(q.replay_dead_letters(), 1);
        drain(&q, &mut out, usize::MAX);
        assert_eq!(values(&out), vec![0.0, 1.0, 2.0, 3.0, 4.0]);
        let stats = q.dlq().unwrap().stats();
        assert_eq!((stats.pending, stats.captured, stats.replayed), (0, 3, 3));
        // After replay the accounting identity still balances:
        // replayed samples moved from `pending` into `accepted`.
        assert_eq!(q.accepted() + stats.overflow, 5);
        assert_eq!(q.replay_dead_letters(), 0, "nothing pending");
    }

    #[test]
    fn batch_push_splits_between_queue_and_dlq() {
        let q = ObsQueue::bounded(2);
        q.attach_dlq(Arc::new(DeadLetterQueue::new(0, 2)));
        let batch: Vec<(f64, f64)> = (0..6).map(|v| (v as f64, UNTIMED)).collect();
        // 2 queued + 2 captured = 4 kept; 2 are DLQ overflow.
        assert_eq!(q.push_batch(batch), 4);
        assert_eq!(q.dropped(), 0);
        let stats = q.dlq().unwrap().stats();
        assert_eq!((stats.pending, stats.overflow), (2, 2));
    }

    #[test]
    #[should_panic(expected = "dead-letter queue already attached")]
    fn attaching_a_second_dlq_panics() {
        let q = ObsQueue::bounded(2);
        q.attach_dlq(Arc::new(DeadLetterQueue::new(0, 2)));
        q.attach_dlq(Arc::new(DeadLetterQueue::new(0, 2)));
    }

    /// The ring's live samples, oldest first, read in place.
    fn live(q: &ObsQueue) -> Vec<(u64, u64)> {
        let ring = q.inner.lock();
        (0..ring.len)
            .map(|i| (ring.head + i) % ring.capacity)
            .map(|slot| (ring.values[slot].to_bits(), ring.times[slot].to_bits()))
            .collect()
    }

    /// Every small ring state against a `VecDeque` model: capacities
    /// 1–5, every head offset, then every push/drain/push/drain script
    /// of sizes 0–6 and a final full drain. Covers the wrap-around, the
    /// first-use growth of the rings and the accepted prefix of a push
    /// that finds too little space.
    #[test]
    fn ring_matches_a_vecdeque_model_exhaustively() {
        // Four steps, each of size 0..=6: 7^4 scripts per start state.
        const SCRIPTS: usize = 7 * 7 * 7 * 7;
        let bits = |s: &[(f64, f64)]| -> Vec<(u64, u64)> {
            s.iter().map(|&(v, t)| (v.to_bits(), t.to_bits())).collect()
        };
        for capacity in 1..=5usize {
            let mut heads = vec![false; capacity];
            let mut wrapped = false;
            for head in 0..capacity {
                for script in 0..SCRIPTS {
                    let sizes: [usize; 4] =
                        std::array::from_fn(|k| script / 7usize.pow(k as u32) % 7);
                    let q = ObsQueue::bounded(capacity);
                    let mut model: VecDeque<(f64, f64)> = VecDeque::new();
                    let (mut out, mut expected) = (Vec::new(), Vec::new());
                    let mut next = 0u32;
                    let mut push = |q: &ObsQueue, model: &mut VecDeque<(f64, f64)>, n: usize| {
                        // Every third sample untimed, as producers mix.
                        let batch: Vec<(f64, f64)> = (next..next + n as u32)
                            .map(|i| {
                                let at = if i % 3 == 2 {
                                    UNTIMED
                                } else {
                                    f64::from(i) * 0.5
                                };
                                (f64::from(i), at)
                            })
                            .collect();
                        next += n as u32;
                        let fits = n.min(capacity - model.len());
                        model.extend(&batch[..fits]);
                        assert_eq!(q.push_batch(batch), fits, "accepted prefix");
                    };
                    // Reach slot `head` with one live sample.
                    push(&q, &mut model, head + 1);
                    assert_eq!(drain(&q, &mut out, head), head);
                    expected.extend(model.drain(..head));
                    for (step, &n) in sizes.iter().enumerate() {
                        {
                            let ring = q.inner.lock();
                            heads[ring.head] = true;
                            wrapped |= ring.head + ring.len > capacity;
                        }
                        if step % 2 == 0 {
                            push(&q, &mut model, n);
                        } else {
                            let take = n.min(model.len());
                            assert_eq!(drain(&q, &mut out, n), take);
                            expected.extend(model.drain(..take));
                        }
                        assert_eq!(live(&q), bits(&model.iter().copied().collect::<Vec<_>>()));
                        let ring = q.inner.lock();
                        assert_eq!(ring.values.len(), ring.times.len());
                        assert!(ring.values.len() <= capacity);
                        assert!(ring.values.len() as u64 <= q.accepted());
                        assert_eq!(q.backlog_hint(), model.len());
                    }
                    drain(&q, &mut out, usize::MAX);
                    expected.extend(model.drain(..));
                    assert_eq!(
                        bits(&out),
                        bits(&expected),
                        "cap {capacity} head {head} {sizes:?}"
                    );
                    assert_eq!(q.accepted(), expected.len() as u64);
                    assert_eq!(q.accepted() + q.dropped(), u64::from(next));
                }
            }
            assert!(
                heads.iter().all(|&h| h),
                "every head offset of {capacity} reached"
            );
            assert!(
                wrapped || capacity == 1,
                "live samples wrapped at {capacity}"
            );
        }
    }

    /// The rings reserve their capacity but grow only over slots that
    /// were written, and a queue drained to empty starts over at slot 0:
    /// a large, lightly used queue touches little memory.
    #[test]
    fn rings_grow_only_over_slots_that_were_pushed() {
        let q = ObsQueue::bounded(1 << 16);
        let grown = |q: &ObsQueue| {
            let ring = q.inner.lock();
            (ring.values.len(), ring.times.len())
        };
        assert_eq!(grown(&q), (0, 0), "a new queue has written no slot");
        assert!(q.inner.lock().values.capacity() >= 1 << 16);
        assert_eq!(q.push_batch((0..10).map(|i| (f64::from(i), UNTIMED))), 10);
        assert_eq!(grown(&q), (10, 10));
        let mut out = Vec::new();
        drain(&q, &mut out, 4);
        assert!(q.push(10.0));
        assert_eq!(grown(&q), (11, 11), "the tail grows while samples are live");
        drain(&q, &mut out, usize::MAX);
        for round in 0..1_000 {
            let batch = (0..512).map(|i| (f64::from(round * 512 + i), UNTIMED));
            assert_eq!(q.push_batch(batch), 512);
            assert_eq!(drain(&q, &mut out, usize::MAX), 512);
        }
        assert_eq!(
            grown(&q),
            (512, 512),
            "batches cycle through one batch of slots"
        );
    }
}
