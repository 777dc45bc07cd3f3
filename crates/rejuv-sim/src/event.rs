//! A stable, cancellable event queue.

use crate::SimTime;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};
use std::fmt;

/// Opaque handle to a scheduled event, used for cancellation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct EventId(u64);

impl fmt::Display for EventId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "event#{}", self.0)
    }
}

/// The delivery order of an event as one integer: the time's bits
/// above the sequence number. A `SimTime` is finite and non-negative
/// (and never `-0.0`), and on such values the IEEE bit pattern orders
/// like the number, so comparing keys compares `(time, seq)`.
///
/// [`EventQueue`] orders its heap by these keys. A model that keeps its
/// own small event calendar can store them too: with sequence numbers
/// taken in scheduling order, the smallest key is the event an
/// [`EventQueue`] would deliver next.
///
/// ```
/// use rejuv_sim::event::{key, key_time};
/// use rejuv_sim::SimTime;
///
/// let late = key(SimTime::from_secs(2.0), 0);
/// let early = key(SimTime::from_secs(1.0), 1);
/// let tie = key(SimTime::from_secs(1.0), 2);
/// assert!(early < tie && tie < late);
/// assert_eq!(key_time(tie), SimTime::from_secs(1.0));
/// ```
#[inline]
pub fn key(time: SimTime, seq: u64) -> u128 {
    (u128::from(time.as_secs().to_bits()) << 64) | u128::from(seq)
}

/// The time half of a [`key`].
#[inline]
pub fn key_time(key: u128) -> SimTime {
    SimTime::from_key_bits((key >> 64) as u64)
}

/// The sequence-number half of a [`key`]. With sequence numbers taken
/// in scheduling order, it orders keys by when they were scheduled.
#[inline]
pub fn key_seq(key: u128) -> u64 {
    key as u64
}

/// A heap entry, ordered by its key *reversed* so that `BinaryHeap` (a
/// max-heap) pops the smallest key first.
struct Scheduled<E> {
    key: u128,
    payload: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}

impl<E> Eq for Scheduled<E> {}

impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        other.key.cmp(&self.key)
    }
}

/// A time-ordered queue of events with stable FIFO tie-breaking and
/// O(log n) lazy cancellation.
///
/// Every event gets the next sequence number, and the heap orders one
/// `u128` [`key`] per entry, `(time bits, seq)`, so simultaneous events
/// pop in scheduling order and a comparison is two integer compares.
///
/// Cancellation is tracked in a dense per-sequence ledger (a
/// `VecDeque<bool>` indexed by `seq - base`) instead of a hash set, so
/// scheduling, cancelling and delivering never hash. A cancelled event
/// stays in the heap as a tombstone until it surfaces; while none are
/// left, [`Self::pop`] and [`Self::peek_time`] skip the ledger probe.
/// Resolved entries are compacted off the front of the ledger, keeping
/// it as small as the window of outstanding sequence numbers.
///
/// # Example
///
/// ```
/// use rejuv_sim::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// let a = q.schedule(SimTime::from_secs(2.0), "late");
/// let _b = q.schedule(SimTime::from_secs(1.0), "early");
/// q.cancel(a);
/// let (t, e) = q.pop().unwrap();
/// assert_eq!((t.as_secs(), e), (1.0, "early"));
/// assert!(q.pop().is_none());
/// ```
pub struct EventQueue<E> {
    heap: BinaryHeap<Scheduled<E>>,
    /// `pending[seq - base]` is `true` while that event is scheduled but
    /// neither delivered nor cancelled. Entries below `base` are
    /// resolved and compacted away.
    pending: VecDeque<bool>,
    /// Sequence number of `pending[0]`.
    base: u64,
    next_seq: u64,
    /// Number of `true` entries in `pending`.
    live: usize,
    /// Cancelled events whose tombstones still sit in the heap. While
    /// zero, every heap entry is live.
    cancelled_in_heap: usize,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            pending: VecDeque::new(),
            base: 0,
            next_seq: 0,
            live: 0,
            cancelled_in_heap: 0,
        }
    }

    /// Schedules `payload` to fire at absolute time `time` and returns a
    /// handle that can later be passed to [`Self::cancel`].
    pub fn schedule(&mut self, time: SimTime, payload: E) -> EventId {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Scheduled {
            key: key(time, seq),
            payload,
        });
        self.pending.push_back(true);
        self.live += 1;
        EventId(seq)
    }

    /// Takes the next sequence number for an event kept outside the
    /// heap (the engine's source slot). It is never pending here, so
    /// cancelling its id returns `false`.
    pub(crate) fn take_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        // Already resolved in the ledger, which stays dense.
        self.pending.push_back(false);
        self.compact_front();
        seq
    }

    /// Cancels a previously scheduled event.
    ///
    /// Returns `true` if the event had not yet fired or been cancelled.
    /// Cancelling an already-delivered or already-cancelled event is a
    /// no-op returning `false` (ids are never reused, so this is always
    /// safe).
    pub fn cancel(&mut self, id: EventId) -> bool {
        match self.slot_mut(id.0) {
            Some(slot) if *slot => {
                *slot = false;
                self.live -= 1;
                self.cancelled_in_heap += 1;
                self.compact_front();
                true
            }
            _ => false,
        }
    }

    /// Removes and returns the earliest non-cancelled event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.purge_head();
        let ev = self.heap.pop()?;
        self.mark_delivered(key_seq(ev.key));
        Some((key_time(ev.key), ev.payload))
    }

    /// Time of the earliest pending (non-cancelled) event without
    /// removing it.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.peek_key().map(key_time)
    }

    /// The [`key`] of the earliest pending event.
    pub(crate) fn peek_key(&mut self) -> Option<u128> {
        self.purge_head();
        self.heap.peek().map(|ev| ev.key)
    }

    /// Number of pending events, *excluding* lazily cancelled ones.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Returns `true` if no non-cancelled event is pending.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Discards every pending event.
    pub fn clear(&mut self) {
        self.heap.clear();
        self.pending.clear();
        self.base = self.next_seq;
        self.live = 0;
        self.cancelled_in_heap = 0;
    }

    /// Pops cancellation tombstones off the top of the heap, so that
    /// its head, if any, is live.
    fn purge_head(&mut self) {
        while self.cancelled_in_heap > 0 {
            match self.heap.peek() {
                Some(ev) if !self.is_pending(key_seq(ev.key)) => {
                    self.heap.pop();
                    self.cancelled_in_heap -= 1;
                }
                _ => return,
            }
        }
    }

    fn slot_mut(&mut self, seq: u64) -> Option<&mut bool> {
        let idx = seq.checked_sub(self.base)?;
        self.pending.get_mut(idx as usize)
    }

    fn is_pending(&self, seq: u64) -> bool {
        seq.checked_sub(self.base)
            .and_then(|idx| self.pending.get(idx as usize))
            .copied()
            .unwrap_or(false)
    }

    fn mark_delivered(&mut self, seq: u64) {
        if let Some(slot) = self.slot_mut(seq) {
            debug_assert!(*slot, "delivered an event that was not pending");
            *slot = false;
            self.live -= 1;
        }
        self.compact_front();
    }

    /// Drops resolved entries off the front of the ledger so it only
    /// spans outstanding sequence numbers. Amortised O(1).
    fn compact_front(&mut self) {
        while self.pending.front() == Some(&false) {
            self.pending.pop_front();
            self.base += 1;
        }
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl<E> fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EventQueue")
            .field("pending", &self.len())
            .field("heap_size", &self.heap.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: f64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(t(3.0), 'c');
        q.schedule(t(1.0), 'a');
        q.schedule(t(2.0), 'b');
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!['a', 'b', 'c']);
    }

    #[test]
    fn simultaneous_events_are_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(t(1.0), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn cancellation() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(1.0), "a");
        let b = q.schedule(t(2.0), "b");
        assert_eq!(q.len(), 2);
        assert!(q.cancel(a));
        assert!(!q.cancel(a), "double-cancel is a no-op");
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().map(|(_, e)| e), Some("b"));
        assert!(!q.cancel(b), "cancel after delivery is a no-op");
        assert!(q.is_empty());
    }

    #[test]
    fn cancel_unknown_id_is_false() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(!q.cancel(EventId(99)));
    }

    #[test]
    fn peek_time_skips_cancelled() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(1.0), "a");
        q.schedule(t(2.0), "b");
        q.cancel(a);
        assert_eq!(q.peek_time(), Some(t(2.0)));
        assert_eq!(q.pop().map(|(_, e)| e), Some("b"));
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn clear_discards_everything() {
        let mut q = EventQueue::new();
        q.schedule(t(1.0), 1);
        let b = q.schedule(t(2.0), 2);
        q.cancel(b);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ids_are_unique_across_pops() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(1.0), ());
        q.pop();
        let b = q.schedule(t(1.0), ());
        assert_ne!(a, b);
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        let mut q = EventQueue::new();
        q.schedule(t(5.0), 5);
        q.schedule(t(1.0), 1);
        assert_eq!(q.pop().map(|(_, e)| e), Some(1));
        q.schedule(t(3.0), 3);
        assert_eq!(q.pop().map(|(_, e)| e), Some(3));
        assert_eq!(q.pop().map(|(_, e)| e), Some(5));
    }
}
