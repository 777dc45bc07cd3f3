//! The §3 host and the event calendar both models drive it on.
//!
//! A [`Host`] is steps 2–8 of the paper's model: FCFS CPUs, kernel
//! overhead, the heap leak, stop-the-world GC and rejuvenation.
//! [`crate::EcommerceSystem`] drives one host, [`crate::ClusterSystem`]
//! one per cluster node; each owns one [`Clock`], one [`Arrivals`]
//! process (step 1) and one stream of service [`UnitDraws`] shared by
//! its hosts.
//!
//! # Event calendar
//!
//! A host has at most `cpus` completions and one GC end pending, and it
//! already owns the state each of them belongs to. So instead of a
//! general event queue, every pending event is one `u128`
//! [`rejuv_sim::event::key`], `(time bits, seq)`, stored where it
//! belongs: the arrival key, each host's GC-end key and one key per
//! running-table row (and, in a cluster, each down host's up-key).
//! Sequence numbers come from the one [`Clock`] in scheduling order, so
//! the smallest key is the event a general `(time, seq)` event queue
//! would deliver next, ties included.
//!
//! The running table is kept in descending key order, so a host's next
//! completion is its last row. A completion is a `pop`; a service start
//! shifts the rows that complete sooner up by one and writes the new row
//! into the gap. A GC delays every row by the pause and gives the rows
//! fresh sequence numbers in the order their service started. The keys'
//! old sequence numbers already rank the rows that way (a row's number
//! is taken at its start or at the last GC, which kept start order), so
//! the table is sorted by them, rekeyed and sorted back, both in place.
//! A rejuvenation drops the rows and the GC key, so no key is ever left
//! behind to be skipped.
//!
//! # Variates
//!
//! Interarrival and service times come from two independent streams,
//! each drawn [`DRAW_AHEAD`] unit-rate variates at a time and divided by
//! the current rate on use, which gives the bits of sampling one at a
//! time. Under a [`RateProfile`] the thinning uniform shares the arrival
//! stream, so arrivals then sample one at a time;
//! [`Arrivals::set_profile`] first gives the unused draws back, so the
//! stream carries on where it would have been.

use crate::config::SystemConfig;
use crate::metrics::MetricsCollector;
use crate::trace::{EventTrace, SystemEvent};
use crate::workload::RateProfile;
use rand::rngs::StdRng;
use rand::Rng;
use rejuv_core::RejuvenationDetector;
use rejuv_sim::event::{key, key_seq, key_time};
use rejuv_sim::stats::TimeWeighted;
use rejuv_sim::SimTime;
use std::cmp::Reverse;
use std::collections::VecDeque;
use std::fmt;

/// How many variates a [`UnitDraws`] refill draws ahead.
const DRAW_AHEAD: usize = 32;

/// One unit-rate exponential variate from the next uniform of `rng`:
/// the op sequence of [`rejuv_stats::Exponential::sample`] before its
/// division by the rate.
#[inline]
fn unit_exponential(rng: &mut StdRng) -> f64 {
    let u: f64 = rng.random();
    -(-u).ln_1p()
}

/// Unit-rate exponential variates drawn ahead from one RNG stream.
///
/// A refill turns the next [`DRAW_AHEAD`] uniforms of the stream into
/// variates in one loop, so the libm calls run back to back instead of
/// one per event on the event chain. A consumer divides a draw by its
/// current rate, so every draw has the bits one-at-a-time sampling gives
/// it, in the same order.
#[derive(Debug)]
pub(crate) struct UnitDraws {
    rng: StdRng,
    /// The stream as it stood before the last refill.
    refilled_from: StdRng,
    units: [f64; DRAW_AHEAD],
    /// The index of the next unused draw; `DRAW_AHEAD` when none is left.
    next: usize,
}

impl UnitDraws {
    pub(crate) fn new(rng: StdRng) -> Self {
        UnitDraws {
            refilled_from: rng.clone(),
            rng,
            units: [0.0; DRAW_AHEAD],
            next: DRAW_AHEAD,
        }
    }

    /// The next unit-rate exponential variate.
    #[inline]
    fn take(&mut self) -> f64 {
        if self.next == DRAW_AHEAD {
            self.refill();
        }
        let unit = self.units[self.next];
        self.next += 1;
        unit
    }

    fn refill(&mut self) {
        self.refilled_from = self.rng.clone();
        for unit in &mut self.units {
            *unit = unit_exponential(&mut self.rng);
        }
        self.next = 0;
    }

    /// Gives the unused draws back to the stream: restores it as it
    /// stood before the last refill and replays the draws taken since,
    /// so `rng` continues exactly where one-at-a-time sampling would.
    fn rewind(&mut self) {
        if self.next == DRAW_AHEAD {
            return;
        }
        self.rng = self.refilled_from.clone();
        for _ in 0..self.next {
            let _: f64 = self.rng.random();
        }
        self.next = DRAW_AHEAD;
    }
}

/// A model's clock and the sequence counter its event keys are cut from.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Clock {
    /// The time of the last delivered event.
    pub(crate) now: SimTime,
    /// The sequence number the next scheduled event takes.
    next_seq: u64,
}

impl Clock {
    /// Keys an event at the absolute time `at`, taking the next
    /// sequence number.
    #[inline]
    pub(crate) fn schedule(&mut self, at: SimTime) -> u128 {
        debug_assert!(
            at >= self.now,
            "cannot schedule into the past: now = {}, at = {at}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        key(at, seq)
    }

    /// Advances the clock to the time of the event keyed `next`.
    #[inline]
    pub(crate) fn deliver(&mut self, next: u128) {
        let time = key_time(next);
        debug_assert!(time >= self.now, "the event calendar went backwards");
        self.now = time;
    }
}

/// The Poisson arrival process (step 1): one pending arrival, at a
/// constant rate or thinned against a [`RateProfile`].
#[derive(Debug)]
pub(crate) struct Arrivals {
    /// The pending arrival's key; armed by the first run and re-armed
    /// by every arrival, so it is never empty afterwards.
    pub(crate) key: Option<u128>,
    /// The constant rate, or the profile's majorizing rate while one is
    /// set.
    rate: f64,
    /// Drawn ahead while no profile is set, used one draw at a time (its
    /// `rng`) while one is.
    draws: UnitDraws,
    /// When set, arrivals are generated by Lewis–Shedler thinning.
    profile: Option<RateProfile>,
}

impl Arrivals {
    /// A constant-rate process; the caller has validated `rate`.
    pub(crate) fn new(rate: f64, rng: StdRng) -> Self {
        Arrivals {
            key: None,
            rate,
            draws: UnitDraws::new(rng),
            profile: None,
        }
    }

    /// Switches to the constant rate `rate` from the next arrival on.
    pub(crate) fn set_rate(&mut self, rate: f64) {
        self.rate = rate;
        self.profile = None;
    }

    /// Drives arrivals from `profile` from the next arrival on, giving
    /// the drawn-ahead variates back to the stream first.
    pub(crate) fn set_profile(&mut self, profile: RateProfile) {
        self.draws.rewind();
        self.rate = profile.max_rate();
        self.profile = Some(profile);
    }

    /// Arms the next arrival.
    #[inline]
    pub(crate) fn schedule(&mut self, clock: &mut Clock) {
        let unit = match self.profile {
            Some(_) => unit_exponential(&mut self.draws.rng),
            None => self.draws.take(),
        };
        self.key = Some(clock.schedule(clock.now + SimTime::from_secs(unit / self.rate)));
    }

    /// Delivers the pending arrival: arms the next one immediately and
    /// says whether this one is a transaction. Under a profile it is
    /// only a candidate, accepted with probability `λ(now) / λ_max`.
    #[inline]
    pub(crate) fn arrive(&mut self, clock: &mut Clock) -> bool {
        self.schedule(clock);
        let Some(profile) = &self.profile else {
            return true;
        };
        let accept_p = profile.rate_at(clock.now.as_secs()) / profile.max_rate();
        self.draws.rng.random::<f64>() < accept_p
    }
}

/// A host event, as [`Host::next_event`] names it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum HostEvent {
    /// The thread in the last row of the running table finishes its CPU
    /// processing (step 7).
    Completion,
    /// A full garbage collection ends (step 6).
    GcEnd,
}

/// A thread holding a CPU.
#[derive(Debug, Clone, Copy)]
struct RunningThread {
    arrival_time: SimTime,
    /// The [`key`] of its pending completion.
    completion: u128,
}

/// One §3 host: steps 2–8 of the paper's model.
pub(crate) struct Host {
    pub(crate) config: SystemConfig,
    pub(crate) detector: Option<Box<dyn RejuvenationDetector>>,
    pub(crate) trace: Option<EventTrace>,
    /// Arrival times of the threads waiting for a CPU, FCFS.
    queue: VecDeque<SimTime>,
    /// The threads holding a CPU (at most `cpus`), in descending
    /// completion-key order: the next to complete is the last row.
    running: Vec<RunningThread>,
    heap_used_mb: f64,
    /// The pending GC end's key while a full collection runs.
    gc_end: Option<u128>,
    /// The key at which a rejuvenated cluster node rejoins the rotation;
    /// `None` while it is up. The single-host model has no downtime.
    pub(crate) up: Option<u128>,
    /// Time-weighted active-thread population (Little's `L`).
    active_tw: TimeWeighted,
    /// Full GCs started since the current run began.
    pub(crate) gc_count: u64,
    /// Rejuvenations since the current run began.
    pub(crate) rejuvenations: u64,
}

impl Host {
    pub(crate) fn new(config: SystemConfig) -> Self {
        Host {
            config,
            detector: None,
            trace: None,
            queue: VecDeque::new(),
            running: Vec::new(),
            heap_used_mb: 0.0,
            gc_end: None,
            up: None,
            active_tw: TimeWeighted::new(SimTime::ZERO, 0.0),
            gc_count: 0,
            rejuvenations: 0,
        }
    }

    /// Starts a run at `now`: zeroes the per-run counters and opens a
    /// new window of the population statistic.
    pub(crate) fn begin_run(&mut self, now: SimTime) {
        self.gc_count = 0;
        self.rejuvenations = 0;
        self.active_tw.reset_window(now);
    }

    /// Number of threads active (queued + running).
    #[inline]
    pub(crate) fn active_threads(&self) -> usize {
        self.queue.len() + self.running.len()
    }

    /// Currently used heap in MB.
    pub(crate) fn heap_used_mb(&self) -> f64 {
        self.heap_used_mb
    }

    /// Whether a full garbage collection is in progress.
    pub(crate) fn gc_in_progress(&self) -> bool {
        self.gc_end.is_some()
    }

    /// The time-weighted mean active-thread count of the current run,
    /// up to `now`.
    pub(crate) fn mean_active_threads(&self, now: SimTime) -> f64 {
        self.active_tw.time_average(now)
    }

    /// The host's earliest pending event (the up-key aside) and its key.
    #[inline]
    pub(crate) fn next_event(&self) -> Option<(u128, HostEvent)> {
        let mut next = self
            .running
            .last()
            .map(|thread| (thread.completion, HostEvent::Completion));
        if let Some(gc_end) = self.gc_end {
            if next.is_none_or(|(completion, _)| gc_end < completion) {
                next = Some((gc_end, HostEvent::GcEnd));
            }
        }
        next
    }

    /// Delivers `event`, the one [`Self::next_event`] named, at the
    /// clock's time; returns `true` if it ended in a rejuvenation.
    #[inline]
    pub(crate) fn deliver(
        &mut self,
        event: HostEvent,
        clock: &mut Clock,
        services: &mut UnitDraws,
        metrics: &mut MetricsCollector,
    ) -> bool {
        match event {
            HostEvent::Completion => self.on_completion(clock, services, metrics),
            HostEvent::GcEnd => {
                self.on_gc_end(clock.now);
                false
            }
        }
    }

    /// Records the current active-thread count into the time-weighted
    /// population statistic; call after every change.
    #[inline]
    fn sync_active_tw(&mut self, now: SimTime) {
        self.active_tw.update(now, self.active_threads() as f64);
    }

    /// Step 2: a transaction arrives and queues FCFS for a CPU.
    #[inline]
    pub(crate) fn admit(&mut self, clock: &mut Clock, services: &mut UnitDraws) {
        let before = self.active_threads();
        self.queue.push_back(clock.now);
        self.sync_active_tw(clock.now);
        self.note_active_transition(clock.now, before);
        self.try_dispatch(clock, services);
    }

    /// Emits overhead-regime crossing events into the trace, comparing
    /// the active-thread count before a change to the count now.
    #[inline]
    fn note_active_transition(&mut self, now: SimTime, before: usize) {
        let Some(threshold) = self.config.kernel_threshold() else {
            return;
        };
        let Some(trace) = &mut self.trace else {
            return;
        };
        let after = self.queue.len() + self.running.len();
        let at = now.as_secs();
        if before <= threshold && after > threshold {
            trace.record(SystemEvent::OverheadEntered {
                at,
                active_threads: after,
            });
        } else if before > threshold && after <= threshold {
            trace.record(SystemEvent::OverheadLeft {
                at,
                active_threads: after,
            });
        }
    }

    /// Moves queued threads onto free CPUs.
    #[inline]
    fn try_dispatch(&mut self, clock: &mut Clock, services: &mut UnitDraws) {
        while self.running.len() < self.config.cpus() {
            let Some(arrival_time) = self.queue.pop_front() else {
                break;
            };
            self.start_service(arrival_time, clock, services);
        }
    }

    #[inline]
    fn start_service(
        &mut self,
        arrival_time: SimTime,
        clock: &mut Clock,
        services: &mut UnitDraws,
    ) {
        let now = clock.now;

        // Step 3: exponential processing time.
        let mut processing = services.take() / self.config.service_rate();

        // Step 4: kernel overhead above the active-thread threshold.
        // (`+ 1` because this thread is active too but already left the
        // queue and is not yet in `running`.)
        if let Some(threshold) = self.config.kernel_threshold() {
            if self.active_threads() + 1 > threshold {
                processing *= self.config.kernel_factor();
            }
        }

        // Per the paper, a GC delays "all running threads" — threads that
        // obtain a CPU *during* the collection are not additionally
        // delayed. (At high load this is moot: every CPU is held by a
        // frozen thread for the whole pause.)
        let completion = clock.schedule(now + SimTime::from_secs(processing));
        let thread = RunningThread {
            arrival_time,
            completion,
        };
        // Keep the rows in descending key order: shift the rows that
        // complete sooner up by one and fill the gap.
        let mut index = self.running.len();
        self.running.push(thread);
        while index > 0 && self.running[index - 1].completion < completion {
            self.running[index] = self.running[index - 1];
            index -= 1;
        }
        self.running[index] = thread;

        // Steps 5–6: allocate heap; trigger a full GC when it runs low.
        if let Some(mem) = self.config.memory().copied() {
            self.heap_used_mb += mem.alloc_mb;
            let free = mem.heap_mb - self.heap_used_mb;
            if free < mem.gc_free_threshold_mb && self.gc_end.is_none() {
                self.start_gc(mem.gc_pause_secs, clock);
            }
        }
    }

    fn start_gc(&mut self, pause_secs: f64, clock: &mut Clock) {
        self.gc_count += 1;
        if let Some(trace) = &mut self.trace {
            trace.record(SystemEvent::GcStarted {
                at: clock.now.as_secs(),
                heap_used_mb: self.heap_used_mb,
            });
        }
        let pause = SimTime::from_secs(pause_secs);
        self.gc_end = Some(clock.schedule(clock.now + pause));

        // Delay every running thread by the pause: each row's key is
        // rewritten in place, taking a fresh sequence number in the order
        // the rows started service, which their old numbers give. Then
        // restore the descending key order.
        self.running
            .sort_unstable_by_key(|thread| key_seq(thread.completion));
        for thread in &mut self.running {
            let delayed = key_time(thread.completion) + pause;
            thread.completion = clock.schedule(delayed);
        }
        self.running
            .sort_unstable_by_key(|thread| Reverse(thread.completion));
    }

    fn on_gc_end(&mut self, now: SimTime) {
        self.gc_end = None;
        // Reclaim all heap not held by live (running) threads.
        if let Some(mem) = self.config.memory() {
            let live = self.running.len() as f64 * mem.alloc_mb;
            let reclaimed = (self.heap_used_mb - live).max(0.0);
            self.heap_used_mb = live;
            if let Some(trace) = &mut self.trace {
                trace.record(SystemEvent::GcEnded {
                    at: now.as_secs(),
                    reclaimed_mb: reclaimed,
                });
            }
        }
    }

    /// Steps 7–8 for the last row; returns `true` if the detector made
    /// the host rejuvenate.
    #[inline]
    fn on_completion(
        &mut self,
        clock: &mut Clock,
        services: &mut UnitDraws,
        metrics: &mut MetricsCollector,
    ) -> bool {
        let now = clock.now;
        let before = self.active_threads();
        let thread = self.running.pop().expect("a completion is the last row's");
        self.sync_active_tw(now);
        self.note_active_transition(now, before);
        // Step 7: response time = waiting + processing (+ GC delays).
        let response_time = (now - thread.arrival_time).as_secs();
        metrics.record_completion(response_time);

        // NOTE: the completed thread's allocation is *not* released here.
        // It becomes garbage that stays in the heap until the next full
        // GC (or rejuvenation) — this leak-until-collect behaviour is the
        // software-aging mechanism of the §3 model.

        self.try_dispatch(clock, services);

        // Step 8: feed the detector; rejuvenate on demand. The
        // completion timestamp rides along for monitoring runtimes
        // (latency histograms); plain detectors ignore it.
        let rejuvenate = match &mut self.detector {
            Some(d) => d.observe_at(now.as_secs(), response_time).is_rejuvenate(),
            None => false,
        };
        if rejuvenate {
            self.rejuvenate(now, metrics);
        }
        rejuvenate
    }

    /// Terminates every thread in execution and releases all resources
    /// (the paper's rejuvenation routine).
    fn rejuvenate(&mut self, now: SimTime, metrics: &mut MetricsCollector) {
        self.rejuvenations += 1;
        let before = self.active_threads();
        metrics.lost += before as u64;

        // The rows and the GC key hold the pending completions and GC
        // end, so clearing them is all the descheduling there is.
        self.running.clear();
        self.queue.clear();
        self.heap_used_mb = 0.0;
        self.gc_end = None;

        if let Some(trace) = &mut self.trace {
            trace.record(SystemEvent::Rejuvenated {
                at: now.as_secs(),
                lost: before as u64,
            });
        }
        self.sync_active_tw(now);
        self.note_active_transition(now, before);
    }
}

impl fmt::Debug for Host {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Host")
            .field("queued", &self.queue.len())
            .field("running", &self.running.len())
            .field("heap_used_mb", &self.heap_used_mb)
            .field("gc_in_progress", &self.gc_in_progress())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ClusterSystem, EcommerceSystem, RoutingPolicy};
    use rejuv_core::{Sraa, SraaConfig};
    use rejuv_sim::RngStreams;
    use rejuv_stats::Exponential;

    /// The running table is in descending key order, and its rows'
    /// sequence numbers rank them in start order.
    fn assert_rows_are_keyed_in_order(host: &Host) {
        let rows = &host.running;
        assert!(
            rows.windows(2).all(|w| w[0].completion > w[1].completion),
            "rows in descending key order"
        );
        // FCFS: a row that started later has a later (or equal) arrival
        // time, and a GC must keep that order in the rows' sequence
        // numbers.
        let mut starts: Vec<_> = rows
            .iter()
            .map(|row| (key_seq(row.completion), row.arrival_time))
            .collect();
        starts.sort_unstable_by_key(|&(seq, _)| seq);
        assert!(
            starts.windows(2).all(|w| w[0].1 <= w[1].1),
            "sequence numbers in start order"
        );
    }

    #[test]
    fn running_rows_stay_key_sorted_with_start_ordered_sequence_numbers() {
        // Load 10 with no detector keeps the table full and GCs every
        // ~300 service starts; check the table after every termination.
        let mut sys = EcommerceSystem::new(SystemConfig::paper_at_load(10.0).unwrap(), 17);
        let mut gcs = 0;
        for _ in 0..3_000 {
            gcs += sys.run(1).gc_count;
            assert_rows_are_keyed_in_order(&sys.host);
        }
        assert!(gcs >= 5, "gcs = {gcs}");
    }

    #[test]
    fn cluster_rows_stay_key_sorted_with_start_ordered_sequence_numbers() {
        // Three hosts at load 10 each with SRAA and 30 s downtime: GCs,
        // rejuvenations and hosts leaving and rejoining the rotation.
        let config = SystemConfig::paper_at_load(1.0).unwrap();
        let sraa = SraaConfig::builder(5.0, 5.0)
            .sample_size(2)
            .buckets(5)
            .depth(3)
            .build()
            .unwrap();
        let mut cluster = ClusterSystem::new(config, 3, 6.0, RoutingPolicy::LeastActive, 30.0, 19);
        cluster.attach_detectors(|_| Box::new(Sraa::new(sraa)));
        let (mut gcs, mut rejuvenations, mut down) = (0, 0, 0);
        for _ in 0..6_000 {
            let m = cluster.run(1);
            gcs += m.aggregate.gc_count;
            rejuvenations += m.aggregate.rejuvenation_count;
            down += cluster.hosts.iter().filter(|h| h.up.is_some()).count();
            cluster
                .hosts
                .iter()
                .for_each(assert_rows_are_keyed_in_order);
        }
        assert!(gcs >= 5, "gcs = {gcs}");
        assert!(rejuvenations >= 5, "rejuvenations = {rejuvenations}");
        assert!(down > 0, "no host was ever down");
    }

    #[test]
    fn drawn_ahead_variates_match_one_at_a_time_sampling() {
        // Take every count of draws across two refills, then rewind: the
        // draws have the bits of `Exponential::sample` on the same
        // stream, and the rewound stream is where that sampling left it.
        let rate = 0.2;
        let exp = Exponential::new(rate).unwrap();
        for taken in 0..=2 * DRAW_AHEAD + 1 {
            let mut reference = RngStreams::new(31).stream(0);
            let mut draws = UnitDraws::new(reference.clone());
            for _ in 0..taken {
                let expected = exp.sample(&mut reference);
                assert_eq!((draws.take() / rate).to_bits(), expected.to_bits());
            }
            draws.rewind();
            assert_eq!(draws.rng, reference, "after {taken} draws");
            draws.rewind();
            assert_eq!(draws.rng, reference, "a second rewind is a no-op");
        }
    }
}
