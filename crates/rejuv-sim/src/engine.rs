//! The simulation engine: clock plus event queue plus run loop.

use crate::event::{key, key_time};
use crate::{EventId, EventQueue, SimTime};
use std::fmt;

/// A discrete-event simulation engine.
///
/// The engine owns the simulation clock and the pending-event queue.
/// Models drive it in one of two styles:
///
/// * **pull** — call [`Engine::next_event`] in a loop and dispatch on the
///   payload (what `rejuv-ecommerce` does), or
/// * **push** — call [`Engine::run`] with a handler closure and an event
///   budget.
///
/// Besides the queue, the engine keeps one *source slot* for a
/// self-rescheduling event stream such as a Poisson arrival process,
/// which always has exactly one event pending (see
/// [`Engine::schedule_source_in`]). Keeping that event out of the heap
/// halves the heap traffic of an arrival-driven model without changing
/// the delivery order.
///
/// # Example
///
/// ```
/// use rejuv_sim::{Engine, SimTime};
///
/// let mut engine = Engine::new();
/// engine.schedule_in(SimTime::from_secs(1.0), 1u32);
/// engine.schedule_in(SimTime::from_secs(2.0), 2u32);
///
/// let mut seen = Vec::new();
/// engine.run(usize::MAX, |engine, event| {
///     seen.push((engine.now().as_secs(), event));
/// });
/// assert_eq!(seen, vec![(1.0, 1), (2.0, 2)]);
/// ```
pub struct Engine<E> {
    now: SimTime,
    queue: EventQueue<E>,
    /// The source slot's event and its queue key.
    source: Option<(u128, E)>,
    delivered: u64,
}

impl<E> Engine<E> {
    /// Creates an engine with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        Engine {
            now: SimTime::ZERO,
            queue: EventQueue::new(),
            source: None,
            delivered: 0,
        }
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total number of events delivered so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Number of pending events, the source slot's included.
    pub fn pending(&self) -> usize {
        self.queue.len() + usize::from(self.source.is_some())
    }

    /// Schedules `payload` at the absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current clock — scheduling into
    /// the past is always a model bug.
    pub fn schedule_at(&mut self, at: SimTime, payload: E) -> EventId {
        assert!(
            at >= self.now,
            "cannot schedule into the past: now = {}, at = {}",
            self.now,
            at
        );
        self.queue.schedule(at, payload)
    }

    /// Schedules `payload` after a `delay` relative to the current clock.
    pub fn schedule_in(&mut self, delay: SimTime, payload: E) -> EventId {
        self.queue.schedule(self.now + delay, payload)
    }

    /// Schedules `payload` after `delay` into the source slot.
    ///
    /// The event takes the next sequence number exactly as
    /// [`Self::schedule_in`] would, so it is delivered in the same
    /// `(time, seq)` order, but it cannot be cancelled (only
    /// [`Self::clear_pending`] discards it). A source re-arms the slot
    /// when its event is delivered.
    ///
    /// # Panics
    ///
    /// Panics if the slot already holds an event.
    pub fn schedule_source_in(&mut self, delay: SimTime, payload: E) {
        assert!(self.source.is_none(), "the source slot is already armed");
        let at = self.now + delay;
        self.source = Some((key(at, self.queue.take_seq()), payload));
    }

    /// Cancels a pending event. Returns `true` if it was still pending.
    pub fn cancel(&mut self, id: EventId) -> bool {
        self.queue.cancel(id)
    }

    /// Delivers the next event, advancing the clock to its timestamp.
    ///
    /// Returns `None` when nothing is pending; the clock then stays at
    /// the last delivered event's time.
    pub fn next_event(&mut self) -> Option<(SimTime, E)> {
        let from_source = match &self.source {
            Some((source, _)) => self.queue.peek_key().is_none_or(|head| *source < head),
            None => false,
        };
        let (time, payload) = if from_source {
            let (source, payload) = self.source.take().expect("the slot is armed");
            (key_time(source), payload)
        } else {
            self.queue.pop()?
        };
        debug_assert!(time >= self.now, "event queue went backwards");
        self.now = time;
        self.delivered += 1;
        Some((time, payload))
    }

    /// Time of the next pending event, if any, without delivering it.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        let source = self.source.as_ref().map(|(source, _)| *source);
        [self.queue.peek_key(), source]
            .into_iter()
            .flatten()
            .min()
            .map(key_time)
    }

    /// Runs until nothing is pending or `max_events` have been delivered,
    /// passing each event to `handler` together with `&mut self` so the
    /// handler can schedule follow-up events.
    ///
    /// Returns the number of events delivered by this call.
    pub fn run<F>(&mut self, max_events: usize, mut handler: F) -> usize
    where
        F: FnMut(&mut Engine<E>, E),
    {
        let mut count = 0;
        while count < max_events {
            match self.next_event() {
                Some((_, payload)) => {
                    handler(self, payload);
                    count += 1;
                }
                None => break,
            }
        }
        count
    }

    /// Runs until the next event would be after `deadline` (or nothing is
    /// pending), delivering events to `handler`. The clock is left at the
    /// last delivered event, never advanced past `deadline` artificially.
    ///
    /// Returns the number of events delivered.
    pub fn run_until<F>(&mut self, deadline: SimTime, mut handler: F) -> usize
    where
        F: FnMut(&mut Engine<E>, E),
    {
        let mut count = 0;
        while let Some(t) = self.peek_time() {
            if t > deadline {
                break;
            }
            let (_, payload) = self.next_event().expect("peeked event exists");
            handler(self, payload);
            count += 1;
        }
        count
    }

    /// Discards all pending events, the source slot's included (the
    /// clock is left untouched).
    ///
    /// This is what a *rejuvenation* does to a system model: every
    /// in-flight activity is abandoned.
    pub fn clear_pending(&mut self) {
        self.queue.clear();
        self.source = None;
    }
}

impl<E> Default for Engine<E> {
    fn default() -> Self {
        Engine::new()
    }
}

impl<E> fmt::Debug for Engine<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Engine")
            .field("now", &self.now)
            .field("pending", &self.pending())
            .field("delivered", &self.delivered)
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
    fn clock_advances_with_events() {
        let mut e = Engine::new();
        e.schedule_at(t(1.5), "a");
        e.schedule_at(t(4.0), "b");
        assert_eq!(e.now(), SimTime::ZERO);
        assert_eq!(e.next_event().map(|(_, p)| p), Some("a"));
        assert_eq!(e.now(), t(1.5));
        assert_eq!(e.next_event().map(|(_, p)| p), Some("b"));
        assert_eq!(e.now(), t(4.0));
        assert_eq!(e.next_event(), None);
        assert_eq!(e.now(), t(4.0), "clock stays at last event");
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_the_past_panics() {
        let mut e = Engine::new();
        e.schedule_at(t(5.0), ());
        e.next_event();
        e.schedule_at(t(1.0), ());
    }

    #[test]
    fn schedule_in_is_relative() {
        let mut e = Engine::new();
        e.schedule_at(t(10.0), 0);
        e.next_event();
        e.schedule_in(t(2.0), 1);
        let (time, _) = e.next_event().unwrap();
        assert_eq!(time, t(12.0));
    }

    #[test]
    fn run_respects_budget() {
        let mut e = Engine::new();
        for i in 0..10 {
            e.schedule_at(t(i as f64), i);
        }
        let mut seen = Vec::new();
        let n = e.run(3, |_, ev| seen.push(ev));
        assert_eq!(n, 3);
        assert_eq!(seen, vec![0, 1, 2]);
        assert_eq!(e.pending(), 7);
    }

    #[test]
    fn handler_can_schedule_followups() {
        let mut e = Engine::new();
        e.schedule_at(t(1.0), 0u32);
        let mut seen = Vec::new();
        e.run(usize::MAX, |engine, ev| {
            seen.push(ev);
            if ev < 3 {
                engine.schedule_in(t(1.0), ev + 1);
            }
        });
        assert_eq!(seen, vec![0, 1, 2, 3]);
        assert_eq!(e.now(), t(4.0));
    }

    #[test]
    fn run_until_respects_deadline() {
        let mut e = Engine::new();
        for i in 1..=10 {
            e.schedule_at(t(i as f64), i);
        }
        let mut seen = Vec::new();
        let n = e.run_until(t(4.5), |_, ev| seen.push(ev));
        assert_eq!(n, 4);
        assert_eq!(seen, vec![1, 2, 3, 4]);
        assert_eq!(e.now(), t(4.0), "clock stops at the last delivered event");
        assert_eq!(e.pending(), 6);
        // A later call picks up where it left off.
        let n = e.run_until(t(100.0), |_, _| {});
        assert_eq!(n, 6);
    }

    #[test]
    fn run_until_with_followups_inside_window() {
        let mut e = Engine::new();
        e.schedule_at(t(1.0), 1u32);
        let mut seen = Vec::new();
        e.run_until(t(3.0), |eng, ev| {
            seen.push(ev);
            if ev < 10 {
                eng.schedule_in(t(1.0), ev + 1);
            }
        });
        // Events at t = 1, 2, 3 fit; the one at t = 4 does not.
        assert_eq!(seen, vec![1, 2, 3]);
    }

    #[test]
    fn cancel_through_engine() {
        let mut e = Engine::new();
        let id = e.schedule_at(t(1.0), "x");
        assert!(e.cancel(id));
        assert_eq!(e.next_event(), None);
    }

    #[test]
    fn clear_pending_abandons_events() {
        let mut e = Engine::new();
        e.schedule_at(t(1.0), 1);
        e.schedule_at(t(2.0), 2);
        e.clear_pending();
        assert_eq!(e.pending(), 0);
        assert_eq!(e.next_event(), None);
    }

    #[test]
    fn source_slot_interleaves_with_the_queue_in_seq_order() {
        let mut e = Engine::new();
        e.schedule_at(t(1.0), "queued first");
        e.schedule_source_in(t(1.0), "source");
        e.schedule_at(t(1.0), "queued last");
        e.schedule_at(t(0.5), "early");
        assert_eq!(e.pending(), 4);
        assert_eq!(e.peek_time(), Some(t(0.5)));
        let order: Vec<_> = std::iter::from_fn(|| e.next_event().map(|(_, p)| p)).collect();
        assert_eq!(order, ["early", "queued first", "source", "queued last"]);
        assert_eq!(e.pending(), 0);
        assert_eq!(e.delivered(), 4);
    }

    #[test]
    fn source_slot_rearms_from_the_handler() {
        let mut e = Engine::new();
        e.schedule_source_in(t(1.0), 0u32);
        e.schedule_at(t(2.5), 100);
        let mut seen = Vec::new();
        e.run_until(t(4.0), |eng, ev| {
            seen.push(ev);
            if ev < 100 {
                eng.schedule_source_in(t(1.0), ev + 1);
            }
        });
        assert_eq!(seen, vec![0, 1, 100, 2, 3]);
        assert_eq!(e.pending(), 1, "the next source event stays armed");
        assert_eq!(e.peek_time(), Some(t(5.0)));
        e.clear_pending();
        assert_eq!(e.pending(), 0);
        assert_eq!(e.next_event(), None);
    }

    #[test]
    #[should_panic(expected = "already armed")]
    fn source_slot_holds_one_event() {
        let mut e = Engine::new();
        e.schedule_source_in(t(1.0), ());
        e.schedule_source_in(t(2.0), ());
    }

    #[test]
    fn delivered_counter() {
        let mut e = Engine::new();
        e.schedule_at(t(1.0), ());
        e.schedule_at(t(2.0), ());
        e.run(usize::MAX, |_, _| {});
        assert_eq!(e.delivered(), 2);
    }
}
