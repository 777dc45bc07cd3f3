//! Event keys: one integer per pending event.
//!
//! A model with a small, fixed set of pending events (one arrival, a
//! completion per CPU, one GC end) stores each event's key where the
//! event belongs and delivers the smallest. With sequence numbers taken
//! in scheduling order, that is the event a general `(time, seq)` event
//! queue would deliver next, ties included.

use crate::SimTime;

/// The delivery order of an event as one integer: the time's bits
/// above the sequence number. A `SimTime` is finite and non-negative
/// (and never `-0.0`), and on such values the IEEE bit pattern orders
/// like the number, so comparing keys compares `(time, seq)`.
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
