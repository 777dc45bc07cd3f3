//! The event-driven e-commerce system model (the 8 numbered steps of §3).

use crate::config::SystemConfig;
use crate::metrics::{MetricsCollector, RunMetrics};
use crate::trace::{EventTrace, SystemEvent};
use crate::workload::RateProfile;
use rand::rngs::StdRng;
use rand::Rng;
use rejuv_core::RejuvenationDetector;
use rejuv_sim::event::{key, key_seq, key_time};
use rejuv_sim::stats::TimeWeighted;
use rejuv_sim::{RngStreams, SimTime};
use rejuv_stats::Exponential;
use std::cmp::Reverse;
use std::collections::VecDeque;
use std::fmt;

/// Events driving the model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    /// A new transaction thread arrives at the JVM (step 1).
    Arrival,
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

/// How many variates a [`UnitDraws`] refill draws ahead.
const DRAW_AHEAD: usize = 32;

/// Unit-rate exponential variates drawn ahead from one RNG stream.
///
/// A refill turns the next [`DRAW_AHEAD`] uniforms `u` of the stream
/// into `-(-u).ln_1p()` in one loop, so the libm calls run back to back
/// instead of one per event on the event chain. A consumer divides a
/// draw by its current rate, which is the exact op sequence of
/// [`Exponential::sample`], so every draw has the bits one-at-a-time
/// sampling gives it, in the same order.
#[derive(Debug)]
struct UnitDraws {
    rng: StdRng,
    /// The stream as it stood before the last refill.
    refilled_from: StdRng,
    units: [f64; DRAW_AHEAD],
    /// The index of the next unused draw; `DRAW_AHEAD` when none is left.
    next: usize,
}

impl UnitDraws {
    fn new(rng: StdRng) -> Self {
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
            let u: f64 = self.rng.random();
            *unit = -(-u).ln_1p();
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

/// The model's clock and the sequence counter its event keys are cut
/// from.
#[derive(Debug, Clone, Copy)]
struct Clock {
    /// The time of the last delivered event.
    now: SimTime,
    /// The sequence number the next scheduled event takes.
    next_seq: u64,
}

impl Clock {
    /// Keys an event at the absolute time `at`, taking the next
    /// sequence number.
    fn schedule(&mut self, at: SimTime) -> u128 {
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
    fn deliver(&mut self, next: u128) {
        let time = key_time(next);
        debug_assert!(time >= self.now, "the event calendar went backwards");
        self.now = time;
    }
}

/// The §3 simulation model.
///
/// The model keeps its own event calendar for its three event types
/// (arrival, completion, GC end) and implements the paper's steps:
///
/// 1. Poisson arrivals (rate `λ`); each arrival increments the active-
///    thread count and immediately schedules the next arrival.
/// 2. Threads queue FCFS for one of the `c` CPUs.
/// 3. CPU processing time is `Exp(µ)`.
/// 4. If more than `kernel_threshold` threads are active when service
///    starts, the processing time is multiplied by `kernel_factor`.
/// 5. On obtaining a CPU the thread allocates `alloc_mb` of heap.
/// 6. If the free heap then sits below `gc_free_threshold_mb`, a full GC
///    is scheduled: every running thread is delayed by `gc_pause_secs`
///    (threads that start *during* the collection are delayed by its
///    remainder — stop-the-world semantics). When the GC ends, all heap
///    not held by still-running threads is reclaimed.
/// 7. Completion records the response time (waiting + processing).
/// 8. Each response time is fed to the attached
///    [`RejuvenationDetector`]; on [`rejuv_core::Decision::Rejuvenate`]
///    every thread in execution is terminated (those transactions are
///    lost) and all CPU and heap resources are released.
///
/// # Event calendar
///
/// At any moment the model has one arrival, at most `cpus` completions
/// and at most one GC end pending, and it already owns the state each
/// of them belongs to. So instead of a general event queue, every
/// pending event is one `u128` [`rejuv_sim::event::key`],
/// `(time bits, seq)`, stored where it belongs: the arrival key, the
/// GC-end key and one key per running-table row. Sequence numbers are
/// taken in scheduling order, so the delivery order, ties included, is
/// that of a general `(time, seq)` event queue.
///
/// The running table is kept in descending key order, so the next
/// completion is its last row and the next event is the smallest of
/// three keys: the arrival, the GC end and that row. A completion is a
/// `pop`; a service start shifts the rows that complete sooner up by one
/// and writes the new row into the gap. A GC delays every row by the
/// pause and gives the rows fresh sequence numbers in the order their
/// service started. The keys' old sequence numbers already rank the rows
/// that way (a row's number is taken at its start or at the last GC,
/// which kept start order), so the table is sorted by them, rekeyed and
/// sorted back, both in place. A rejuvenation drops the rows and the GC
/// key, so no key is ever left behind to be skipped.
///
/// # Variates
///
/// Interarrival and service times come from two independent streams,
/// each drawn 32 unit-rate variates at a time and divided by the current
/// rate on use, which gives the bits of sampling one at a time.
/// Under a [`RateProfile`] the thinning uniform shares the arrival
/// stream, so arrivals then sample one at a time;
/// [`EcommerceSystem::set_rate_profile`] first gives the unused draws
/// back, so the stream carries on where it would have been.
///
/// # Example
///
/// ```
/// use rejuv_ecommerce::{EcommerceSystem, SystemConfig};
///
/// // Light load, no detector: nothing is ever lost.
/// let mut sys = EcommerceSystem::new(SystemConfig::mmc(0.4)?, 7);
/// let m = sys.run(2_000);
/// assert_eq!(m.completed, 2_000);
/// assert_eq!(m.lost, 0);
/// // Response time is near the no-queueing mean of 5 s.
/// assert!((m.mean_response_time - 5.0).abs() < 0.5);
/// # Ok::<(), rejuv_ecommerce::config::SystemConfigError>(())
/// ```
pub struct EcommerceSystem {
    config: SystemConfig,
    clock: Clock,
    /// The pending arrival's key; armed by the first `run` and re-armed
    /// by every arrival, so it is never empty afterwards.
    arrival: Option<u128>,
    arrival_dist: Exponential,
    service_dist: Exponential,
    /// The arrival stream: drawn ahead while no profile is set, used
    /// one draw at a time (its `rng`) while one is.
    arrivals: UnitDraws,
    services: UnitDraws,
    /// Optional non-homogeneous arrival profile; when set, arrivals are
    /// generated by Lewis–Shedler thinning against `arrival_dist`, which
    /// then carries the majorizing rate `profile.max_rate()`.
    profile: Option<RateProfile>,
    detector: Option<Box<dyn RejuvenationDetector>>,
    /// Arrival times of the threads waiting for a CPU, FCFS.
    queue: VecDeque<SimTime>,
    /// The threads holding a CPU (at most `cpus`), in descending
    /// completion-key order: the next to complete is the last row.
    running: Vec<RunningThread>,
    heap_used_mb: f64,
    /// The pending GC end's key while a full collection runs.
    gc_end: Option<u128>,
    gc_total: u64,
    record_response_times: bool,
    trace: Option<EventTrace>,
    /// Time-weighted active-thread population (Little's `L`).
    active_tw: TimeWeighted,
}

impl EcommerceSystem {
    /// Creates the model with the given configuration and master seed.
    ///
    /// Arrivals and service times consume independent RNG streams derived
    /// from the seed, so two runs with the same seed see identical
    /// arrival processes even if their service histories diverge (common
    /// random numbers across detector policies).
    pub fn new(config: SystemConfig, seed: u64) -> Self {
        let streams = RngStreams::new(seed);
        EcommerceSystem {
            arrival_dist: Exponential::new(config.arrival_rate())
                .expect("config validated the arrival rate"),
            service_dist: Exponential::new(config.service_rate())
                .expect("config validated the service rate"),
            arrivals: UnitDraws::new(streams.stream(0)),
            services: UnitDraws::new(streams.stream(1)),
            profile: None,
            config,
            clock: Clock {
                now: SimTime::ZERO,
                next_seq: 0,
            },
            arrival: None,
            detector: None,
            queue: VecDeque::new(),
            running: Vec::new(),
            heap_used_mb: 0.0,
            gc_end: None,
            gc_total: 0,
            record_response_times: false,
            trace: None,
            active_tw: TimeWeighted::new(SimTime::ZERO, 0.0),
        }
    }

    /// Records the current active-thread count into the time-weighted
    /// population statistic; call after every change.
    fn sync_active_tw(&mut self) {
        let active = self.queue.len() + self.running.len();
        self.active_tw.update(self.clock.now, active as f64);
    }

    /// Attaches (or replaces) the rejuvenation detector fed by step 8.
    pub fn attach_detector(&mut self, detector: Box<dyn RejuvenationDetector>) {
        self.detector = Some(detector);
    }

    /// Enables recording of every individual response time in the
    /// returned metrics (needed by the autocorrelation study).
    /// Enables the structured system-event trace, retaining the most
    /// recent `capacity` events (see [`crate::trace`]).
    pub fn enable_trace(&mut self, capacity: usize) {
        self.trace = Some(EventTrace::new(capacity));
    }

    /// The event trace, if enabled.
    pub fn trace(&self) -> Option<&EventTrace> {
        self.trace.as_ref()
    }

    /// Removes and returns the event trace.
    pub fn take_trace(&mut self) -> Option<EventTrace> {
        self.trace.take()
    }

    /// Enables recording of every individual response time in the
    /// returned metrics (needed by the autocorrelation study).
    pub fn record_response_times(&mut self, record: bool) {
        self.record_response_times = record;
    }

    /// The configuration in force.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// Changes the arrival rate mid-run — the mechanism for injecting
    /// arrival bursts (the disturbance the multi-bucket designs are
    /// meant to tolerate, §1 of the paper).
    ///
    /// Takes effect from the *next* scheduled arrival: the one already
    /// pending keeps its old timestamp, exactly as a real
    /// traffic shift would not recall an in-flight request.
    ///
    /// # Errors
    ///
    /// Returns [`crate::config::SystemConfigError`] if `lambda` is not a
    /// positive finite rate.
    pub fn set_arrival_rate(
        &mut self,
        lambda: f64,
    ) -> Result<(), crate::config::SystemConfigError> {
        self.config = self.config.with_arrival_rate(lambda)?;
        self.arrival_dist = Exponential::new(lambda).expect("with_arrival_rate validated the rate");
        self.profile = None;
        Ok(())
    }

    /// Drives arrivals from a time-varying [`RateProfile`] instead of
    /// the constant configured rate.
    ///
    /// Sampling is exact (Lewis–Shedler thinning against the profile's
    /// majorizing rate), and the profile clock is the simulation clock —
    /// `t = 0` is the simulation epoch, not the moment this method is
    /// called.
    pub fn set_rate_profile(&mut self, profile: RateProfile) {
        self.arrivals.rewind();
        self.arrival_dist =
            Exponential::new(profile.max_rate()).expect("validated profile has a positive max");
        self.profile = Some(profile);
    }

    /// Number of threads currently active (queued + running).
    pub fn active_threads(&self) -> usize {
        self.queue.len() + self.running.len()
    }

    /// Currently used heap in MB (0 when memory is disabled).
    ///
    /// Outside a collection this never exceeds the trigger point
    /// (capacity − threshold + one allocation). *During* a collection it
    /// can temporarily overshoot the nominal capacity: threads that
    /// obtain a CPU while the collector runs still allocate, and their
    /// garbage is reclaimed when the collection finishes. This models
    /// the paper's reading that only threads *running at GC start* are
    /// delayed.
    pub fn heap_used_mb(&self) -> f64 {
        self.heap_used_mb
    }

    /// Returns `true` while a full garbage collection is in progress.
    pub fn gc_in_progress(&self) -> bool {
        self.gc_end.is_some()
    }

    /// Runs the model until `transactions` have terminated (completed or
    /// lost), returning the collected metrics.
    ///
    /// The model keeps its state across calls, so consecutive `run`s
    /// continue the same sample path.
    pub fn run(&mut self, transactions: u64) -> RunMetrics {
        let mut metrics =
            MetricsCollector::with_capacity(self.record_response_times, transactions as usize);
        let start_time = self.clock.now;
        let gc_before = self.gc_total;
        self.active_tw.reset_window(start_time);

        // Bootstrap the arrival process on first use.
        if self.arrival.is_none() {
            self.schedule_arrival();
        }

        while metrics.total() < transactions {
            let Some(event) = self.next_event() else {
                break;
            };
            match event {
                Event::Arrival => self.on_arrival(),
                Event::Completion => self.on_completion(&mut metrics),
                Event::GcEnd => self.on_gc_end(),
            }
        }
        metrics.gc_count = self.gc_total - gc_before;
        let now = self.clock.now;
        metrics.finish_with_active(
            (now - start_time).as_secs(),
            self.active_tw.time_average(now),
        )
    }

    /// Delivers the pending event with the smallest key, advancing the
    /// clock to its time; `None` before the arrival process is armed.
    fn next_event(&mut self) -> Option<Event> {
        let mut next = self.arrival?;
        let mut event = Event::Arrival;
        if let Some(gc_end) = self.gc_end {
            if gc_end < next {
                next = gc_end;
                event = Event::GcEnd;
            }
        }
        if let Some(thread) = self.running.last() {
            if thread.completion < next {
                next = thread.completion;
                event = Event::Completion;
            }
        }
        self.clock.deliver(next);
        Some(event)
    }

    /// Arms the next arrival: the arrival process always has exactly
    /// one arrival pending.
    fn schedule_arrival(&mut self) {
        let delay = match self.profile {
            Some(_) => self.arrival_dist.sample(&mut self.arrivals.rng),
            None => self.arrivals.take() / self.arrival_dist.rate(),
        };
        self.arrival = Some(
            self.clock
                .schedule(self.clock.now + SimTime::from_secs(delay)),
        );
    }

    fn on_arrival(&mut self) {
        // Step 1: schedule the next arrival (candidate) immediately.
        self.schedule_arrival();

        // Thinning: under a rate profile this event is only a candidate;
        // accept it with probability λ(now) / λ_max.
        if let Some(profile) = &self.profile {
            let now = self.clock.now.as_secs();
            let accept_p = profile.rate_at(now) / profile.max_rate();
            if self.arrivals.rng.random::<f64>() >= accept_p {
                return;
            }
        }

        // Step 2: queue for a CPU (FCFS).
        let before = self.active_threads();
        self.queue.push_back(self.clock.now);
        self.sync_active_tw();
        self.note_active_transition(before);
        self.try_dispatch();
    }

    /// Emits overhead-regime crossing events into the trace, comparing
    /// the active-thread count before a change to the count now.
    fn note_active_transition(&mut self, before: usize) {
        let Some(threshold) = self.config.kernel_threshold() else {
            return;
        };
        let Some(trace) = &mut self.trace else {
            return;
        };
        let after = self.queue.len() + self.running.len();
        let at = self.clock.now.as_secs();
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
    fn try_dispatch(&mut self) {
        while self.running.len() < self.config.cpus() {
            let Some(arrival_time) = self.queue.pop_front() else {
                break;
            };
            self.start_service(arrival_time);
        }
    }

    fn start_service(&mut self, arrival_time: SimTime) {
        let now = self.clock.now;

        // Step 3: exponential processing time.
        let mut processing = self.services.take() / self.service_dist.rate();

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
        let completion = self.clock.schedule(now + SimTime::from_secs(processing));
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
                self.start_gc(mem.gc_pause_secs);
            }
        }
    }

    fn start_gc(&mut self, pause_secs: f64) {
        self.gc_total += 1;
        if let Some(trace) = &mut self.trace {
            trace.record(SystemEvent::GcStarted {
                at: self.clock.now.as_secs(),
                heap_used_mb: self.heap_used_mb,
            });
        }
        let pause = SimTime::from_secs(pause_secs);
        self.gc_end = Some(self.clock.schedule(self.clock.now + pause));

        // Delay every running thread by the pause: each row's key is
        // rewritten in place, taking a fresh sequence number in the order
        // the rows started service, which their old numbers give. Then
        // restore the descending key order.
        self.running
            .sort_unstable_by_key(|thread| key_seq(thread.completion));
        for thread in &mut self.running {
            let delayed = key_time(thread.completion) + pause;
            thread.completion = self.clock.schedule(delayed);
        }
        self.running
            .sort_unstable_by_key(|thread| Reverse(thread.completion));
    }

    fn on_gc_end(&mut self) {
        self.gc_end = None;
        // Reclaim all heap not held by live (running) threads.
        if let Some(mem) = self.config.memory() {
            let live = self.running.len() as f64 * mem.alloc_mb;
            let reclaimed = (self.heap_used_mb - live).max(0.0);
            self.heap_used_mb = live;
            if let Some(trace) = &mut self.trace {
                trace.record(SystemEvent::GcEnded {
                    at: self.clock.now.as_secs(),
                    reclaimed_mb: reclaimed,
                });
            }
        }
    }

    fn on_completion(&mut self, metrics: &mut MetricsCollector) {
        let before = self.active_threads();
        let thread = self.running.pop().expect("a completion is the last row's");
        self.sync_active_tw();
        self.note_active_transition(before);
        let now = self.clock.now;
        // Step 7: response time = waiting + processing (+ GC delays).
        let response_time = (now - thread.arrival_time).as_secs();
        metrics.record_completion(response_time);

        // NOTE: the completed thread's allocation is *not* released here.
        // It becomes garbage that stays in the heap until the next full
        // GC (or rejuvenation) — this leak-until-collect behaviour is the
        // software-aging mechanism of the §3 model.

        self.try_dispatch();

        // Step 8: feed the detector; rejuvenate on demand. The
        // completion timestamp rides along for monitoring runtimes
        // (latency histograms); plain detectors ignore it.
        let rejuvenate = match &mut self.detector {
            Some(d) => d.observe_at(now.as_secs(), response_time).is_rejuvenate(),
            None => false,
        };
        if rejuvenate {
            self.rejuvenate(metrics);
        }
    }

    /// Terminates every thread in execution and releases all resources
    /// (the paper's rejuvenation routine).
    fn rejuvenate(&mut self, metrics: &mut MetricsCollector) {
        metrics.rejuvenation_count += 1;
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
                at: self.clock.now.as_secs(),
                lost: before as u64,
            });
        }
        self.sync_active_tw();
        self.note_active_transition(before);
    }
}

impl fmt::Debug for EcommerceSystem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EcommerceSystem")
            .field("config", &self.config)
            .field("now", &self.clock.now)
            .field("queued", &self.queue.len())
            .field("running", &self.running.len())
            .field("heap_used_mb", &self.heap_used_mb)
            .field("gc_in_progress", &self.gc_end.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rejuv_core::{Clta, CltaConfig, Decision, Sraa, SraaConfig};

    fn sraa(n: usize, k: usize, d: u32) -> Box<dyn RejuvenationDetector> {
        Box::new(Sraa::new(
            SraaConfig::builder(5.0, 5.0)
                .sample_size(n)
                .buckets(k)
                .depth(d)
                .build()
                .unwrap(),
        ))
    }

    #[test]
    fn light_load_mmc_matches_analytic_mean() {
        // λ = 0.4 (2 CPUs of load): almost no queueing, E[RT] ≈ 5.
        let mut sys = EcommerceSystem::new(SystemConfig::mmc(0.4).unwrap(), 1);
        let m = sys.run(50_000);
        assert_eq!(m.completed, 50_000);
        assert!(
            (m.mean_response_time - 5.0).abs() < 0.1,
            "{}",
            m.mean_response_time
        );
        assert!((m.response_time_std_dev - 5.0).abs() < 0.15);
        assert_eq!(m.gc_count, 0);
        assert_eq!(m.rejuvenation_count, 0);
    }

    #[test]
    fn heavy_load_mmc_matches_erlang_c_mean() {
        // λ = 1.6 (ρ = 0.5): E[RT] = 5 + (1−Wc)/(cµ−λ) ≈ 5.0055.
        let mut sys = EcommerceSystem::new(SystemConfig::mmc(1.6).unwrap(), 2);
        let m = sys.run(100_000);
        assert!(
            (m.mean_response_time - 5.0055).abs() < 0.12,
            "{}",
            m.mean_response_time
        );
    }

    #[test]
    fn simulation_is_deterministic_per_seed() {
        let run = |seed| {
            let mut sys = EcommerceSystem::new(SystemConfig::paper(1.6).unwrap(), seed);
            sys.run(5_000)
        };
        let a = run(7);
        let b = run(7);
        let c = run(8);
        assert_eq!(a, b);
        assert_ne!(a.mean_response_time, c.mean_response_time);
    }

    #[test]
    fn gc_happens_and_inflates_response_times() {
        // Without a detector the paper system at moderate load must GC:
        // heap fills after ~297 service starts.
        let mut sys = EcommerceSystem::new(SystemConfig::paper(1.0).unwrap(), 3);
        sys.record_response_times(true);
        let m = sys.run(5_000);
        // Heap fills after ~297 service starts, so ~16 GCs in 5 000 tx.
        assert!(m.gc_count >= 10, "gc_count = {}", m.gc_count);
        // Some transactions must have been caught by a 60 s pause.
        assert!(m.max_response_time >= 60.0, "max = {}", m.max_response_time);
    }

    #[test]
    fn gc_frequency_matches_heap_arithmetic() {
        // Every service start leaks 10 MB until GC; GC triggers when free
        // < 100 MB, i.e. roughly every (3072 − 100)/10 ≈ 297 starts.
        let mut sys = EcommerceSystem::new(SystemConfig::paper(1.6).unwrap(), 9);
        let m = sys.run(30_000);
        let per_gc = 30_000.0 / m.gc_count as f64;
        assert!(
            (250.0..350.0).contains(&per_gc),
            "transactions per GC = {per_gc}"
        );
    }

    #[test]
    fn heap_stays_near_capacity_bound() {
        // Transient overshoot is bounded by one allocation per CPU (a GC
        // freeze can be crossed by at most `cpus` fresh service starts).
        let cfg = SystemConfig::paper(2.0).unwrap();
        let bound = 3072.0 + 16.0 * 10.0 + 1e-9;
        let mut sys = EcommerceSystem::new(cfg, 4);
        for _ in 0..50 {
            sys.run(200);
            assert!(
                sys.heap_used_mb() <= bound,
                "heap overran: {}",
                sys.heap_used_mb()
            );
        }
    }

    #[test]
    fn rejuvenation_flushes_everything() {
        // A detector that fires on the very first observation.
        struct Hair(u64);
        impl RejuvenationDetector for Hair {
            fn observe(&mut self, _: f64) -> Decision {
                self.0 += 1;
                Decision::Rejuvenate
            }
            fn reset(&mut self) {}
            fn name(&self) -> &'static str {
                "hair-trigger"
            }
            fn rejuvenation_count(&self) -> u64 {
                self.0
            }
        }
        let mut sys = EcommerceSystem::new(SystemConfig::paper(2.0).unwrap(), 5);
        sys.attach_detector(Box::new(Hair(0)));
        let m = sys.run(2_000);
        assert!(m.rejuvenation_count > 0);
        assert!(m.lost > 0);
        // A rejuvenation can lose several transactions at once, so the
        // stop condition may overshoot slightly, never undershoot.
        assert!(m.completed + m.lost >= 2_000);
        assert!(m.completed + m.lost < 2_100);
        // The run ends on a rejuvenating completion, which empties the heap.
        assert_eq!(sys.heap_used_mb(), 0.0);
    }

    #[test]
    fn no_detector_means_no_loss() {
        let mut sys = EcommerceSystem::new(SystemConfig::paper(1.6).unwrap(), 6);
        let m = sys.run(20_000);
        assert_eq!(m.lost, 0);
        assert_eq!(m.rejuvenation_count, 0);
        assert_eq!(m.loss_fraction(), 0.0);
    }

    #[test]
    fn detector_reduces_high_load_response_time() {
        // The headline claim of the paper: at high load, monitoring +
        // rejuvenation beats no rejuvenation on mean RT.
        let load = SystemConfig::paper_at_load(9.0).unwrap();
        let mut bare = EcommerceSystem::new(load, 11);
        let bare_m = bare.run(60_000);

        let mut guarded = EcommerceSystem::new(load, 11);
        guarded.attach_detector(sraa(3, 1, 5));
        let guarded_m = guarded.run(60_000);

        assert!(
            guarded_m.mean_response_time < bare_m.mean_response_time,
            "rejuvenated {} vs bare {}",
            guarded_m.mean_response_time,
            bare_m.mean_response_time
        );
        assert!(guarded_m.rejuvenation_count > 0);
    }

    #[test]
    fn clta_low_load_loss_is_small_but_nonzero() {
        // §5.6: CLTA (30, 1, 1), N = 1.96 drops ≈ 0.14 % at 0.5 CPUs.
        let cfg = SystemConfig::paper_at_load(0.5).unwrap();
        let clta = CltaConfig::builder(5.0, 5.0)
            .sample_size(30)
            .quantile_factor(1.96)
            .build()
            .unwrap();
        let mut sys = EcommerceSystem::new(cfg, 12);
        sys.attach_detector(Box::new(Clta::new(clta)));
        let m = sys.run(100_000);
        let loss = m.loss_fraction();
        assert!(loss > 0.0, "CLTA must occasionally false-alarm");
        assert!(loss < 0.02, "loss = {loss}");
    }

    #[test]
    fn response_times_are_recorded_in_order() {
        let mut sys = EcommerceSystem::new(SystemConfig::mmc(1.0).unwrap(), 13);
        sys.record_response_times(true);
        let m = sys.run(1_000);
        assert_eq!(m.response_times.len(), 1_000);
        assert!(m.response_times.iter().all(|&r| r > 0.0));
        let mean = m.response_times.iter().sum::<f64>() / 1_000.0;
        assert!((mean - m.mean_response_time).abs() < 1e-9);
    }

    #[test]
    fn littles_law_holds_in_simulation() {
        // L = λ·W: the time-weighted active population must equal the
        // arrival rate times the mean response time (conservation, exact
        // in the long run for a lossless system).
        for lambda in [0.4, 1.6, 2.4] {
            let mut sys = EcommerceSystem::new(SystemConfig::mmc(lambda).unwrap(), 71);
            let m = sys.run(80_000);
            let expected_l = lambda * m.mean_response_time;
            assert!(
                (m.mean_active_threads / expected_l - 1.0).abs() < 0.03,
                "λ = {lambda}: L = {} vs λW = {expected_l}",
                m.mean_active_threads
            );
        }
    }

    #[test]
    fn trace_records_gc_cycles() {
        use crate::trace::SystemEvent;
        let mut sys = EcommerceSystem::new(SystemConfig::paper(1.0).unwrap(), 61);
        sys.enable_trace(1_000);
        let m = sys.run(3_000);
        let trace = sys.trace().unwrap();
        let c = trace.counters();
        assert_eq!(c.gc_started, m.gc_count);
        // Every finished GC reclaimed something under the leak model.
        for e in trace.events() {
            if let SystemEvent::GcEnded { reclaimed_mb, .. } = e {
                assert!(*reclaimed_mb > 0.0);
            }
        }
        // Timestamps are non-decreasing.
        let times: Vec<f64> = trace.events().map(|e| e.at()).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn trace_records_overhead_crossings_and_rejuvenations() {
        use crate::trace::SystemEvent;
        let mut sys = EcommerceSystem::new(SystemConfig::paper_at_load(9.5).unwrap(), 63);
        sys.enable_trace(10_000);
        sys.attach_detector(sraa(3, 1, 5));
        let m = sys.run(20_000);
        let c = sys.trace().unwrap().counters();
        assert_eq!(c.rejuvenations, m.rejuvenation_count);
        assert!(
            c.overhead_entered > 0,
            "9.5 CPUs must cross the 50-thread knee"
        );
        // Entries and exits interleave: they differ by at most one.
        assert!(c.overhead_entered >= c.overhead_left);
        assert!(c.overhead_entered - c.overhead_left <= 1);
        // The trace actually contains Rejuvenated events with losses.
        let lost_in_trace: u64 = sys
            .trace()
            .unwrap()
            .events()
            .filter_map(|e| match e {
                SystemEvent::Rejuvenated { lost, .. } => Some(*lost),
                _ => None,
            })
            .sum();
        assert!(lost_in_trace > 0);
    }

    #[test]
    fn take_trace_detaches() {
        let mut sys = EcommerceSystem::new(SystemConfig::paper(1.0).unwrap(), 65);
        sys.enable_trace(10);
        sys.run(500);
        let t = sys.take_trace();
        assert!(t.is_some());
        assert!(sys.trace().is_none());
    }

    #[test]
    fn constant_profile_matches_plain_arrivals_statistically() {
        // A Constant profile goes through the thinning path with accept
        // probability 1, so throughput must match the plain process.
        use crate::workload::RateProfile;
        let mut plain = EcommerceSystem::new(SystemConfig::mmc(1.0).unwrap(), 21);
        let plain_m = plain.run(20_000);
        let mut profiled = EcommerceSystem::new(SystemConfig::mmc(1.0).unwrap(), 21);
        profiled.set_rate_profile(RateProfile::constant(1.0).unwrap());
        let prof_m = profiled.run(20_000);
        assert!(
            (plain_m.throughput() - prof_m.throughput()).abs() < 0.05,
            "{} vs {}",
            plain_m.throughput(),
            prof_m.throughput()
        );
    }

    #[test]
    fn piecewise_profile_changes_effective_rate() {
        use crate::workload::RateProfile;
        // 1 000 s at 0.4 tx/s, then 2.0 tx/s forever.
        let profile = RateProfile::piecewise(vec![(0.0, 0.4), (1_000.0, 2.0)]).unwrap();
        let mut sys = EcommerceSystem::new(SystemConfig::mmc(1.0).unwrap(), 23);
        sys.set_rate_profile(profile);
        let slow = sys.run(300); // ~750 s of the slow phase
        let slow_rate = 300.0 / slow.sim_duration_secs;
        assert!((slow_rate - 0.4).abs() < 0.1, "slow rate = {slow_rate}");

        sys.run(1_000); // cross the boundary
        let fast = sys.run(3_000);
        let fast_rate = 3_000.0 / fast.sim_duration_secs;
        assert!((fast_rate - 2.0).abs() < 0.25, "fast rate = {fast_rate}");
    }

    #[test]
    fn sinusoidal_profile_average_rate() {
        use crate::workload::RateProfile;
        let profile = RateProfile::sinusoidal(1.0, 0.8, 500.0).unwrap();
        let mut sys = EcommerceSystem::new(SystemConfig::mmc(1.0).unwrap(), 25);
        sys.set_rate_profile(profile);
        let m = sys.run(20_000); // many cycles: average ≈ base rate
        let rate = 20_000.0 / m.sim_duration_secs;
        assert!((rate - 1.0).abs() < 0.08, "rate = {rate}");
    }

    #[test]
    fn set_arrival_rate_clears_profile() {
        use crate::workload::RateProfile;
        let mut sys = EcommerceSystem::new(SystemConfig::mmc(1.0).unwrap(), 27);
        sys.set_rate_profile(RateProfile::constant(0.2).unwrap());
        sys.run(100);
        sys.set_arrival_rate(1.6).unwrap();
        let m = sys.run(5_000);
        let rate = 5_000.0 / m.sim_duration_secs;
        assert!((rate - 1.6).abs() < 0.15, "rate = {rate}");
    }

    #[test]
    fn running_rows_stay_key_sorted_with_start_ordered_sequence_numbers() {
        // Load 10 with no detector keeps the table full and GCs every
        // ~300 service starts; check the table after every termination.
        let mut sys = EcommerceSystem::new(SystemConfig::paper_at_load(10.0).unwrap(), 17);
        for _ in 0..3_000 {
            sys.run(1);
            let rows = &sys.running;
            assert!(
                rows.windows(2).all(|w| w[0].completion > w[1].completion),
                "rows in descending key order"
            );
            // FCFS: a row that started later has a later (or equal)
            // arrival time, and a GC must keep that order in the rows'
            // sequence numbers.
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
        assert!(sys.gc_total >= 5, "gc_total = {}", sys.gc_total);
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

    #[test]
    fn active_threads_accounting() {
        let mut sys = EcommerceSystem::new(SystemConfig::paper(2.0).unwrap(), 14);
        sys.run(500);
        // Active = queued + running, and running never exceeds CPUs.
        assert!(sys.active_threads() < 100_000);
        let m2 = sys.run(500);
        assert_eq!(m2.completed + m2.lost, 500, "run() counts per call");
    }
}
