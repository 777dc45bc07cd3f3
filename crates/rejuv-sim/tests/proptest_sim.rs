//! Property-based tests for the DES engine.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use rejuv_sim::{Engine, EventId, EventQueue, SimTime};

/// Delays (and absolute times) the reference-model tests draw from: a
/// small palette, so exact time ties are common, with both zeros.
const PALETTE: [f64; 8] = [0.0, -0.0, 0.25, 0.5, 1.0, 1.0, 3.0, 7.5];

/// Marks the payloads of source-slot events.
const SOURCE: u32 = 1 << 31;

/// The naive reference: every pending event in a `Vec`, delivered by a
/// linear search for the least `(time, seq)`.
#[derive(Default)]
struct Reference {
    now: f64,
    next_seq: u64,
    /// `(time, seq, payload)` of every pending event.
    pending: Vec<(f64, u64, u32)>,
    delivered: u64,
}

impl Reference {
    fn schedule(&mut self, time: f64, payload: u32) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.pending.push((time, seq, payload));
        seq
    }

    fn has_source(&self) -> bool {
        self.pending.iter().any(|e| e.2 & SOURCE != 0)
    }

    fn head(&self) -> Option<usize> {
        (0..self.pending.len()).min_by(|&a, &b| {
            let (ta, sa, _) = self.pending[a];
            let (tb, sb, _) = self.pending[b];
            ta.partial_cmp(&tb).unwrap().then(sa.cmp(&sb))
        })
    }

    fn peek_time(&self) -> Option<f64> {
        self.head().map(|i| self.pending[i].0)
    }

    fn pop(&mut self) -> Option<(f64, u32)> {
        let (time, _, payload) = self.pending.swap_remove(self.head()?);
        self.now = time;
        self.delivered += 1;
        Some((time, payload))
    }

    fn cancel(&mut self, seq: u64) -> bool {
        match self
            .pending
            .iter()
            .position(|e| e.1 == seq && e.2 & SOURCE == 0)
        {
            Some(i) => {
                self.pending.swap_remove(i);
                true
            }
            None => false,
        }
    }
}

/// A delivered time must equal the reference's and never be `-0.0`.
fn same_time(actual: SimTime, expected: f64) -> Result<(), TestCaseError> {
    prop_assert_eq!(actual.as_secs(), expected);
    prop_assert!(actual.as_secs().is_sign_positive(), "a -0.0 time escaped");
    Ok(())
}

/// Applies one operation to the engine and to the reference and checks
/// that they agree. `ids` holds every `(id, seq)` ever issued, so
/// cancels also hit delivered and cancelled events.
fn engine_step(
    engine: &mut Engine<u32>,
    reference: &mut Reference,
    ids: &mut Vec<(EventId, u64)>,
    payloads: &mut u32,
    (op, pick, slot): (u8, usize, usize),
) -> Result<(), TestCaseError> {
    let delay = PALETTE[slot];
    *payloads += 1;
    let payload = *payloads;
    match op {
        0 => {
            let id = engine.schedule_in(SimTime::from_secs(delay), payload);
            let seq = reference.schedule(reference.now + delay, payload);
            ids.push((id, seq));
        }
        1 => {
            let at = SimTime::from_secs(engine.now().as_secs() + delay);
            let id = engine.schedule_at(at, payload);
            let seq = reference.schedule(reference.now + delay, payload);
            ids.push((id, seq));
        }
        2 => {
            if !reference.has_source() {
                engine.schedule_source_in(SimTime::from_secs(delay), payload | SOURCE);
                reference.schedule(reference.now + delay, payload | SOURCE);
            }
        }
        3 => {
            if !ids.is_empty() {
                let (id, seq) = ids[pick % ids.len()];
                prop_assert_eq!(engine.cancel(id), reference.cancel(seq));
            }
        }
        4 => match (engine.next_event(), reference.pop()) {
            (Some((t, p)), Some((rt, rp))) => {
                same_time(t, rt)?;
                prop_assert_eq!(p, rp);
            }
            (actual, expected) => prop_assert_eq!(actual.map(|e| e.1), expected.map(|e| e.1)),
        },
        5 => match (engine.peek_time(), reference.peek_time()) {
            (Some(t), Some(rt)) => same_time(t, rt)?,
            (actual, expected) => prop_assert_eq!(actual.is_some(), expected.is_some()),
        },
        6 => {
            // The handler re-arms the source with the next palette delay,
            // as an arrival process does.
            let deadline = reference.now + delay * 2.0;
            let mut seen = Vec::new();
            engine.run_until(SimTime::from_secs(deadline), |eng, p| {
                seen.push(p);
                if p & SOURCE != 0 {
                    let next = PALETTE[(p as usize + 1) % PALETTE.len()];
                    eng.schedule_source_in(SimTime::from_secs(next), (p + 1) | SOURCE);
                }
            });
            let mut expected = Vec::new();
            while reference.peek_time().is_some_and(|t| t <= deadline) {
                let (_, p) = reference.pop().expect("peeked");
                expected.push(p);
                if p & SOURCE != 0 {
                    let next = PALETTE[(p as usize + 1) % PALETTE.len()];
                    reference.schedule(reference.now + next, (p + 1) | SOURCE);
                }
            }
            prop_assert_eq!(seen, expected);
        }
        _ => {
            engine.clear_pending();
            reference.pending.clear();
        }
    }
    prop_assert_eq!(engine.pending(), reference.pending.len());
    prop_assert_eq!(engine.delivered(), reference.delivered);
    same_time(engine.now(), reference.now)
}

proptest! {
    /// Events pop in non-decreasing time order regardless of insertion
    /// order.
    #[test]
    fn queue_pops_sorted(times in proptest::collection::vec(0.0f64..1e6, 0..300)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_secs(t), i);
        }
        let mut last = SimTime::ZERO;
        let mut count = 0;
        while let Some((t, _)) = q.pop() {
            prop_assert!(t >= last);
            last = t;
            count += 1;
        }
        prop_assert_eq!(count, times.len());
    }

    /// Equal timestamps preserve insertion (FIFO) order.
    #[test]
    fn queue_ties_are_fifo(
        groups in proptest::collection::vec((0.0f64..100.0, 1usize..6), 1..30),
    ) {
        let mut q = EventQueue::new();
        let mut id = 0usize;
        for &(t, cnt) in &groups {
            for _ in 0..cnt {
                q.schedule(SimTime::from_secs(t), id);
                id += 1;
            }
        }
        let mut seen_per_time: std::collections::HashMap<u64, Vec<usize>> =
            std::collections::HashMap::new();
        while let Some((t, payload)) = q.pop() {
            seen_per_time
                .entry(t.as_secs().to_bits())
                .or_default()
                .push(payload);
        }
        for ids in seen_per_time.values() {
            let mut sorted = ids.clone();
            sorted.sort_unstable();
            prop_assert_eq!(ids, &sorted, "FIFO violated within a timestamp");
        }
    }

    /// Cancelling an arbitrary subset removes exactly that subset.
    #[test]
    fn cancellation_removes_exactly_the_subset(
        times in proptest::collection::vec(0.0f64..1e4, 1..200),
        mask in proptest::collection::vec(any::<bool>(), 1..200),
    ) {
        let mut q = EventQueue::new();
        let ids: Vec<_> = times
            .iter()
            .enumerate()
            .map(|(i, &t)| q.schedule(SimTime::from_secs(t), i))
            .collect();
        let mut cancelled = std::collections::HashSet::new();
        for (i, (&id, &kill)) in ids.iter().zip(mask.iter().cycle()).enumerate() {
            if kill {
                prop_assert!(q.cancel(id));
                cancelled.insert(i);
            }
        }
        prop_assert_eq!(q.len(), times.len() - cancelled.len());
        while let Some((_, payload)) = q.pop() {
            prop_assert!(!cancelled.contains(&payload), "cancelled event delivered");
        }
    }

    /// The engine clock is monotone over any schedule of relative delays,
    /// including handler-scheduled follow-ups.
    #[test]
    fn engine_clock_is_monotone(delays in proptest::collection::vec(0.0f64..100.0, 1..100)) {
        let mut engine = Engine::new();
        for &d in &delays {
            engine.schedule_in(SimTime::from_secs(d), d);
        }
        let mut last = SimTime::ZERO;
        let mut spawned = 0u32;
        engine.run(10_000, |eng, payload| {
            assert!(eng.now() >= last);
            last = eng.now();
            if spawned < 50 && payload > 50.0 {
                spawned += 1;
                eng.schedule_in(SimTime::from_secs(payload / 2.0), payload / 2.0);
            }
        });
        prop_assert_eq!(engine.pending(), 0);
    }

    /// Random interleavings of every engine operation — schedule (relative
    /// and absolute), source-slot schedule, cancel (of live, delivered
    /// and cancelled ids), pop, peek, `run_until` and `clear_pending` —
    /// deliver exactly what a sorted `Vec` of `(time, seq)` delivers.
    #[test]
    fn engine_matches_the_sorted_vec_reference(
        ops in proptest::collection::vec((0u8..8, 0usize..1_000, 0usize..PALETTE.len()), 1..300),
    ) {
        let mut engine = Engine::new();
        let mut reference = Reference::default();
        let (mut ids, mut payloads) = (Vec::new(), 0u32);
        for op in ops {
            engine_step(&mut engine, &mut reference, &mut ids, &mut payloads, op)?;
        }
        // Drain what is left.
        while let Some((t, p)) = engine.next_event() {
            let (rt, rp) = reference.pop().expect("the reference has it too");
            same_time(t, rt)?;
            prop_assert_eq!(p, rp);
        }
        prop_assert!(reference.pending.is_empty());
        // Every issued id is now delivered or cancelled.
        for (id, _) in ids {
            prop_assert!(!engine.cancel(id));
        }
    }

    /// The bare queue against the same reference: absolute times from
    /// the palette (ties and both zeros), cancels of any issued id, and
    /// `len()` after every step.
    #[test]
    fn queue_matches_the_sorted_vec_reference(
        ops in proptest::collection::vec((0u8..5, 0usize..1_000, 0usize..PALETTE.len()), 1..300),
    ) {
        let mut q = EventQueue::new();
        let mut reference = Reference::default();
        let mut ids = Vec::new();
        for (i, (op, pick, slot)) in ops.into_iter().enumerate() {
            let time = PALETTE[slot];
            match op {
                0 | 1 => {
                    let id = q.schedule(SimTime::from_secs(time), i as u32);
                    ids.push((id, reference.schedule(time, i as u32)));
                }
                2 => {
                    if !ids.is_empty() {
                        let (id, seq) = ids[pick % ids.len()];
                        prop_assert_eq!(q.cancel(id), reference.cancel(seq));
                    }
                }
                3 => match (q.pop(), reference.pop()) {
                    (Some((t, p)), Some((rt, rp))) => {
                        same_time(t, rt)?;
                        prop_assert_eq!(p, rp);
                    }
                    (actual, expected) => prop_assert_eq!(actual.map(|e| e.1), expected.map(|e| e.1)),
                },
                _ => match (q.peek_time(), reference.peek_time()) {
                    (Some(t), Some(rt)) => same_time(t, rt)?,
                    (actual, expected) => prop_assert_eq!(actual.is_some(), expected.is_some()),
                },
            }
            prop_assert_eq!(q.len(), reference.pending.len());
            prop_assert_eq!(q.is_empty(), reference.pending.is_empty());
        }
        q.clear();
        prop_assert!(q.is_empty());
        for (id, _) in ids {
            prop_assert!(!q.cancel(id), "nothing is pending after clear");
        }
    }

    /// SimTime arithmetic is consistent: (a + b) − b == a.
    #[test]
    fn simtime_roundtrip(a in 0.0f64..1e9, b in 0.0f64..1e9) {
        let s = SimTime::from_secs(a) + SimTime::from_secs(b);
        let back = s - SimTime::from_secs(b);
        prop_assert!((back.as_secs() - a).abs() <= 1e-6 * (1.0 + a));
    }
}
