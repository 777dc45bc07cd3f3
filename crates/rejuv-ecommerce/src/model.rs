//! The event-driven e-commerce system model (the 8 numbered steps of §3).

use crate::config::SystemConfig;
use crate::host::{Arrivals, Clock, Host, HostEvent, UnitDraws};
use crate::metrics::{MetricsCollector, RunMetrics};
use crate::trace::EventTrace;
use crate::workload::RateProfile;
use rejuv_core::RejuvenationDetector;
use rejuv_sim::RngStreams;
use std::fmt;

/// Events driving the model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    /// A new transaction thread arrives at the JVM (step 1).
    Arrival,
    /// A completion or GC end on the host.
    Host(HostEvent),
}

/// The §3 simulation model.
///
/// One §3 host (the crate's `host` module, shared with
/// [`crate::ClusterSystem`]) runs the paper's steps on the model's own
/// event calendar of one arrival, at most `cpus` completions and at most
/// one GC end:
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
    clock: Clock,
    arrivals: Arrivals,
    services: UnitDraws,
    pub(crate) host: Host,
    record_response_times: bool,
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
            clock: Clock::default(),
            arrivals: Arrivals::new(config.arrival_rate(), streams.stream(0)),
            services: UnitDraws::new(streams.stream(1)),
            host: Host::new(config),
            record_response_times: false,
        }
    }

    /// Attaches (or replaces) the rejuvenation detector fed by step 8.
    pub fn attach_detector(&mut self, detector: Box<dyn RejuvenationDetector>) {
        self.host.detector = Some(detector);
    }

    /// Enables the structured system-event trace, retaining the most
    /// recent `capacity` events (see [`crate::trace`]).
    pub fn enable_trace(&mut self, capacity: usize) {
        self.host.trace = Some(EventTrace::new(capacity));
    }

    /// The event trace, if enabled.
    pub fn trace(&self) -> Option<&EventTrace> {
        self.host.trace.as_ref()
    }

    /// Removes and returns the event trace.
    pub fn take_trace(&mut self) -> Option<EventTrace> {
        self.host.trace.take()
    }

    /// Enables recording of every individual response time in the
    /// returned metrics (needed by the autocorrelation study).
    pub fn record_response_times(&mut self, record: bool) {
        self.record_response_times = record;
    }

    /// The configuration in force.
    pub fn config(&self) -> &SystemConfig {
        &self.host.config
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
        self.host.config = self.host.config.with_arrival_rate(lambda)?;
        self.arrivals.set_rate(lambda);
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
        self.arrivals.set_profile(profile);
    }

    /// Number of threads currently active (queued + running).
    pub fn active_threads(&self) -> usize {
        self.host.active_threads()
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
        self.host.heap_used_mb()
    }

    /// Returns `true` while a full garbage collection is in progress.
    pub fn gc_in_progress(&self) -> bool {
        self.host.gc_in_progress()
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
        self.host.begin_run(start_time);

        // Bootstrap the arrival process on first use.
        if self.arrivals.key.is_none() {
            self.arrivals.schedule(&mut self.clock);
        }

        while metrics.total() < transactions {
            let Some(event) = self.next_event() else {
                break;
            };
            match event {
                Event::Arrival => {
                    if self.arrivals.arrive(&mut self.clock) {
                        self.host.admit(&mut self.clock, &mut self.services);
                    }
                }
                Event::Host(event) => {
                    self.host
                        .deliver(event, &mut self.clock, &mut self.services, &mut metrics);
                }
            }
        }
        metrics.gc_count = self.host.gc_count;
        metrics.rejuvenation_count = self.host.rejuvenations;
        let now = self.clock.now;
        metrics.finish(
            (now - start_time).as_secs(),
            self.host.mean_active_threads(now),
        )
    }

    /// Delivers the pending event with the smallest key, advancing the
    /// clock to its time; `None` before the arrival process is armed.
    #[inline]
    fn next_event(&mut self) -> Option<Event> {
        let mut next = self.arrivals.key?;
        let mut event = Event::Arrival;
        if let Some((key, host_event)) = self.host.next_event() {
            if key < next {
                next = key;
                event = Event::Host(host_event);
            }
        }
        self.clock.deliver(next);
        Some(event)
    }
}

impl fmt::Debug for EcommerceSystem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EcommerceSystem")
            .field("config", &self.host.config)
            .field("now", &self.clock.now)
            .field("host", &self.host)
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
    fn active_threads_accounting() {
        let mut sys = EcommerceSystem::new(SystemConfig::paper(2.0).unwrap(), 14);
        sys.run(500);
        // Active = queued + running, and running never exceeds CPUs.
        assert!(sys.active_threads() < 100_000);
        let m2 = sys.run(500);
        assert_eq!(m2.completed + m2.lost, 500, "run() counts per call");
    }
}
