//! A cluster of e-commerce hosts behind a load balancer.
//!
//! The companion paper of the lineage (Avritzer, Bondi, Weyuker:
//! *"Ensuring system performance for cluster and single server
//! systems"*, JSS 2006 — reference \[2\] of the DSN paper) extends the
//! rejuvenation algorithms to clusters. This module provides that
//! substrate: `H` hosts, each an independent instance of the §3 model
//! (CPUs, heap, GC, kernel overhead), one Poisson arrival stream split
//! by a routing policy, one detector per host, and — unlike the
//! instantaneous single-host rejuvenation — a configurable *downtime*
//! during which a rejuvenating host accepts no traffic and the balancer
//! routes around it.

use crate::config::SystemConfig;
use crate::metrics::{MetricsCollector, RunMetrics};
use crate::trace::{EventTrace, SystemEvent};
use crate::workload::RateProfile;
use rand::rngs::StdRng;
use rand::Rng;
use rejuv_core::RejuvenationDetector;
use rejuv_sim::{Engine, EventId, RngStreams, SimTime};
use rejuv_stats::Exponential;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::fmt;

/// How the load balancer picks a host for each arriving transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RoutingPolicy {
    /// Cycle through the available hosts in order.
    RoundRobin,
    /// Pick a host uniformly at random.
    Random,
    /// Pick the available host with the fewest active threads
    /// (least-loaded, the policy a production balancer approximates).
    LeastActive,
}

/// Events of the cluster simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    /// A transaction arrives at the balancer.
    Arrival,
    /// Thread `thread` on host `host` finishes processing.
    Completion { host: usize, thread: u64 },
    /// Full GC ends on `host`.
    GcEnd { host: usize },
    /// Rejuvenation downtime ends on `host`.
    HostUp { host: usize },
}

#[derive(Debug, Clone, Copy)]
struct RunningThread {
    id: u64,
    arrival_time: SimTime,
    completion_event: EventId,
    completion_time: SimTime,
}

/// Per-host state: the §3 model minus the arrival process.
struct Host {
    queue: VecDeque<(u64, SimTime)>,
    /// The threads holding a CPU, in ascending id order (ids grow with
    /// arrival and the queue is FCFS).
    running: Vec<RunningThread>,
    heap_used_mb: f64,
    gc_end_time: Option<SimTime>,
    gc_end_event: Option<EventId>,
    detector: Option<Box<dyn RejuvenationDetector>>,
    /// `Some(until)` while the host is down for rejuvenation.
    down_until: Option<SimTime>,
    gc_total: u64,
    rejuvenations: u64,
}

impl Host {
    fn new(detector: Option<Box<dyn RejuvenationDetector>>) -> Self {
        Host {
            queue: VecDeque::new(),
            running: Vec::new(),
            heap_used_mb: 0.0,
            gc_end_time: None,
            gc_end_event: None,
            detector,
            down_until: None,
            gc_total: 0,
            rejuvenations: 0,
        }
    }

    fn active_threads(&self) -> usize {
        self.queue.len() + self.running.len()
    }

    fn is_available(&self) -> bool {
        self.down_until.is_none()
    }
}

/// A cluster of `H` hosts running the §3 model behind one balancer.
///
/// # Example
///
/// ```
/// use rejuv_ecommerce::cluster::{ClusterSystem, RoutingPolicy};
/// use rejuv_ecommerce::SystemConfig;
///
/// // Four hosts, each the paper's host model, sharing λ = 4 x 1.0 tx/s.
/// let per_host = SystemConfig::paper(1.0)?;
/// let mut cluster = ClusterSystem::new(per_host, 4, 4.0, RoutingPolicy::RoundRobin, 0.0, 7);
/// let m = cluster.run(5_000);
/// assert_eq!(m.aggregate.completed, 5_000);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct ClusterSystem {
    /// Per-host model parameters (its `arrival_rate` field is unused; the
    /// cluster arrival rate governs).
    host_config: SystemConfig,
    hosts: Vec<Host>,
    engine: Engine<Event>,
    policy: RoutingPolicy,
    rr_next: usize,
    arrival_dist: Exponential,
    arrival_rng: StdRng,
    routing_rng: StdRng,
    service_rng: StdRng,
    service_dist: Exponential,
    profile: Option<RateProfile>,
    /// Seconds a host stays down after a rejuvenation.
    downtime_secs: f64,
    next_thread_id: u64,
    /// Transactions dropped because every host was down.
    rejected_no_host: u64,
    /// Per-host system event traces; `None` until
    /// [`ClusterSystem::enable_trace`].
    traces: Option<Vec<EventTrace>>,
}

/// Metrics of one cluster run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterMetrics {
    /// Merged metrics over all hosts.
    pub aggregate: RunMetrics,
    /// Per-host rejuvenation counts.
    pub rejuvenations_per_host: Vec<u64>,
    /// Per-host GC counts.
    pub gc_per_host: Vec<u64>,
    /// Transactions rejected because no host was available.
    pub rejected_no_host: u64,
}

impl ClusterSystem {
    /// Creates a cluster of `hosts` identical hosts.
    ///
    /// * `host_config` — the per-host §3 parameters (CPUs, heap, …),
    /// * `cluster_arrival_rate` — total λ offered to the balancer,
    /// * `downtime_secs` — how long a rejuvenating host stays out of
    ///   rotation (0 reproduces the single-host instantaneous model).
    ///
    /// # Panics
    ///
    /// Panics if `hosts == 0` or the rates are invalid.
    pub fn new(
        host_config: SystemConfig,
        hosts: usize,
        cluster_arrival_rate: f64,
        policy: RoutingPolicy,
        downtime_secs: f64,
        seed: u64,
    ) -> Self {
        assert!(hosts > 0, "a cluster needs at least one host");
        assert!(
            downtime_secs.is_finite() && downtime_secs >= 0.0,
            "downtime must be non-negative"
        );
        let streams = RngStreams::new(seed);
        ClusterSystem {
            arrival_dist: Exponential::new(cluster_arrival_rate)
                .expect("cluster arrival rate must be positive"),
            service_dist: Exponential::new(host_config.service_rate())
                .expect("config validated the service rate"),
            hosts: (0..hosts).map(|_| Host::new(None)).collect(),
            host_config,
            engine: Engine::new(),
            policy,
            rr_next: 0,
            arrival_rng: streams.stream(0),
            routing_rng: streams.stream(1),
            service_rng: streams.stream(2),
            profile: None,
            downtime_secs,
            next_thread_id: 0,
            rejected_no_host: 0,
            traces: None,
        }
    }

    /// Starts recording per-host [`SystemEvent`]s (GC, overhead-regime
    /// crossings, rejuvenations), each host keeping at most `capacity`
    /// recent events. Export the merged host-tagged document with
    /// [`ClusterSystem::take_traces`] and
    /// [`crate::trace::write_merged_jsonl`].
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn enable_trace(&mut self, capacity: usize) {
        self.traces = Some(
            (0..self.hosts.len())
                .map(|_| EventTrace::new(capacity))
                .collect(),
        );
    }

    /// The recorded trace of `host`, if tracing is enabled.
    ///
    /// # Panics
    ///
    /// Panics if `host` is out of range while tracing is enabled.
    pub fn trace(&self, host: usize) -> Option<&EventTrace> {
        self.traces.as_ref().map(|t| &t[host])
    }

    /// Takes ownership of all per-host traces (disables tracing).
    pub fn take_traces(&mut self) -> Option<Vec<EventTrace>> {
        self.traces.take()
    }

    /// Attaches a detector to host `host` (replacing any existing one).
    ///
    /// # Panics
    ///
    /// Panics if `host` is out of range.
    pub fn attach_detector(&mut self, host: usize, detector: Box<dyn RejuvenationDetector>) {
        self.hosts[host].detector = Some(detector);
    }

    /// Attaches one detector per host from a factory.
    pub fn attach_detectors<F>(&mut self, mut factory: F)
    where
        F: FnMut(usize) -> Box<dyn RejuvenationDetector>,
    {
        for h in 0..self.hosts.len() {
            self.hosts[h].detector = Some(factory(h));
        }
    }

    /// Drives cluster arrivals from a time-varying profile (total rate).
    pub fn set_rate_profile(&mut self, profile: RateProfile) {
        self.arrival_dist =
            Exponential::new(profile.max_rate()).expect("validated profile has a positive max");
        self.profile = Some(profile);
    }

    /// Number of hosts.
    pub fn hosts(&self) -> usize {
        self.hosts.len()
    }

    /// Number of hosts currently in rotation.
    pub fn available_hosts(&self) -> usize {
        self.hosts.iter().filter(|h| h.is_available()).count()
    }

    /// Total active threads across all hosts.
    pub fn active_threads(&self) -> usize {
        self.hosts.iter().map(Host::active_threads).sum()
    }

    /// Runs until `transactions` have terminated (completed + lost +
    /// rejected), returning per-run metrics.
    pub fn run(&mut self, transactions: u64) -> ClusterMetrics {
        let mut metrics = MetricsCollector::new(false);
        let start_time = self.engine.now();
        let gc_before: Vec<u64> = self.hosts.iter().map(|h| h.gc_total).collect();
        let rejuv_before: Vec<u64> = self.hosts.iter().map(|h| h.rejuvenations).collect();
        let rejected_before = self.rejected_no_host;

        if self.engine.pending() == 0 {
            self.schedule_arrival();
        }

        while metrics.total() + (self.rejected_no_host - rejected_before) < transactions {
            let Some((_, event)) = self.engine.next_event() else {
                break;
            };
            match event {
                Event::Arrival => self.on_arrival(),
                Event::Completion { host, thread } => {
                    self.on_completion(host, thread, &mut metrics)
                }
                Event::GcEnd { host } => self.on_gc_end(host),
                Event::HostUp { host } => {
                    self.hosts[host].down_until = None;
                }
            }
        }

        let aggregate = {
            let mut m = metrics;
            m.gc_count = self
                .hosts
                .iter()
                .zip(&gc_before)
                .map(|(h, &b)| h.gc_total - b)
                .sum();
            m.rejuvenation_count = self
                .hosts
                .iter()
                .zip(&rejuv_before)
                .map(|(h, &b)| h.rejuvenations - b)
                .sum();
            m.finish((self.engine.now() - start_time).as_secs())
        };
        ClusterMetrics {
            aggregate,
            rejuvenations_per_host: self
                .hosts
                .iter()
                .zip(&rejuv_before)
                .map(|(h, &b)| h.rejuvenations - b)
                .collect(),
            gc_per_host: self
                .hosts
                .iter()
                .zip(&gc_before)
                .map(|(h, &b)| h.gc_total - b)
                .collect(),
            rejected_no_host: self.rejected_no_host - rejected_before,
        }
    }

    /// Arms the engine's source slot with the next balancer arrival.
    fn schedule_arrival(&mut self) {
        let delay = self.arrival_dist.sample(&mut self.arrival_rng);
        self.engine
            .schedule_source_in(SimTime::from_secs(delay), Event::Arrival);
    }

    fn on_arrival(&mut self) {
        self.schedule_arrival();

        if let Some(profile) = &self.profile {
            let now = self.engine.now().as_secs();
            let accept_p = profile.rate_at(now) / profile.max_rate();
            if self.arrival_rng.random::<f64>() >= accept_p {
                return;
            }
        }

        let Some(host) = self.pick_host() else {
            self.rejected_no_host += 1;
            return;
        };

        let id = self.next_thread_id;
        self.next_thread_id += 1;
        let now = self.engine.now();
        let before = self.hosts[host].active_threads();
        self.hosts[host].queue.push_back((id, now));
        self.note_active_transition(host, before);
        self.try_dispatch(host);
    }

    /// Emits overhead-regime crossing events into the host's trace,
    /// comparing the active-thread count before a change to the count
    /// now — the per-host mirror of the single-host model's hook.
    fn note_active_transition(&mut self, host: usize, before: usize) {
        let Some(threshold) = self.host_config.kernel_threshold() else {
            return;
        };
        let Some(traces) = &mut self.traces else {
            return;
        };
        let after = self.hosts[host].active_threads();
        let at = self.engine.now().as_secs();
        if before <= threshold && after > threshold {
            traces[host].record(SystemEvent::OverheadEntered {
                at,
                active_threads: after,
            });
        } else if before > threshold && after <= threshold {
            traces[host].record(SystemEvent::OverheadLeft {
                at,
                active_threads: after,
            });
        }
    }

    /// Routing decision over available hosts; `None` if all are down.
    fn pick_host(&mut self) -> Option<usize> {
        let hosts = &self.hosts;
        let mut available = (0..hosts.len()).filter(|&h| hosts[h].is_available());
        match self.policy {
            RoutingPolicy::RoundRobin => {
                available.next()?;
                // Advance the cursor to the next available host.
                let mut pick = self.rr_next % hosts.len();
                while !hosts[pick].is_available() {
                    pick = (pick + 1) % hosts.len();
                }
                self.rr_next = pick + 1;
                Some(pick)
            }
            RoutingPolicy::Random => {
                let count = available.clone().count();
                if count == 0 {
                    return None;
                }
                available.nth(self.routing_rng.random_range(0..count))
            }
            RoutingPolicy::LeastActive => available.min_by_key(|&h| hosts[h].active_threads()),
        }
    }

    fn try_dispatch(&mut self, host: usize) {
        while self.hosts[host].running.len() < self.host_config.cpus() {
            let Some((id, arrival_time)) = self.hosts[host].queue.pop_front() else {
                break;
            };
            self.start_service(host, id, arrival_time);
        }
    }

    fn start_service(&mut self, host: usize, id: u64, arrival_time: SimTime) {
        let now = self.engine.now();
        let mut processing = self.service_dist.sample(&mut self.service_rng);
        if let Some(threshold) = self.host_config.kernel_threshold() {
            if self.hosts[host].active_threads() + 1 > threshold {
                processing *= self.host_config.kernel_factor();
            }
        }
        let completion_time = now + SimTime::from_secs(processing);
        let completion_event = self
            .engine
            .schedule_at(completion_time, Event::Completion { host, thread: id });
        let running = &mut self.hosts[host].running;
        debug_assert!(running.last().is_none_or(|last| last.id < id));
        running.push(RunningThread {
            id,
            arrival_time,
            completion_event,
            completion_time,
        });

        if let Some(mem) = self.host_config.memory().copied() {
            self.hosts[host].heap_used_mb += mem.alloc_mb;
            let free = mem.heap_mb - self.hosts[host].heap_used_mb;
            if free < mem.gc_free_threshold_mb && self.hosts[host].gc_end_time.is_none() {
                self.start_gc(host, mem.gc_pause_secs);
            }
        }
    }

    fn start_gc(&mut self, host: usize, pause_secs: f64) {
        self.hosts[host].gc_total += 1;
        if let Some(traces) = &mut self.traces {
            traces[host].record(SystemEvent::GcStarted {
                at: self.engine.now().as_secs(),
                heap_used_mb: self.hosts[host].heap_used_mb,
            });
        }
        let now = self.engine.now();
        let gc_end = now + SimTime::from_secs(pause_secs);
        self.hosts[host].gc_end_time = Some(gc_end);
        self.hosts[host].gc_end_event =
            Some(self.engine.schedule_at(gc_end, Event::GcEnd { host }));

        // Delay every running thread by the pause, rescheduling in
        // ascending id order.
        let pause = SimTime::from_secs(pause_secs);
        for thread in &mut self.hosts[host].running {
            self.engine.cancel(thread.completion_event);
            thread.completion_time += pause;
            thread.completion_event = self.engine.schedule_at(
                thread.completion_time,
                Event::Completion {
                    host,
                    thread: thread.id,
                },
            );
        }
    }

    fn on_gc_end(&mut self, host: usize) {
        self.hosts[host].gc_end_time = None;
        self.hosts[host].gc_end_event = None;
        if let Some(mem) = self.host_config.memory() {
            let live = self.hosts[host].running.len() as f64 * mem.alloc_mb;
            let reclaimed = (self.hosts[host].heap_used_mb - live).max(0.0);
            self.hosts[host].heap_used_mb = live;
            if let Some(traces) = &mut self.traces {
                traces[host].record(SystemEvent::GcEnded {
                    at: self.engine.now().as_secs(),
                    reclaimed_mb: reclaimed,
                });
            }
        }
    }

    fn on_completion(&mut self, host: usize, thread: u64, metrics: &mut MetricsCollector) {
        let before = self.hosts[host].active_threads();
        let running = &mut self.hosts[host].running;
        let Some(index) = running.iter().position(|t| t.id == thread) else {
            return;
        };
        let t = running.remove(index);
        self.note_active_transition(host, before);
        let now = self.engine.now();
        let response_time = (now - t.arrival_time).as_secs();
        metrics.record_completion(response_time);
        self.try_dispatch(host);

        let rejuvenate = match &mut self.hosts[host].detector {
            Some(d) => d.observe_at(now.as_secs(), response_time).is_rejuvenate(),
            None => false,
        };
        if rejuvenate {
            self.rejuvenate(host, metrics);
        }
    }

    fn rejuvenate(&mut self, host: usize, metrics: &mut MetricsCollector) {
        let h = &mut self.hosts[host];
        h.rejuvenations += 1;
        metrics.rejuvenation_count += 1;
        let before = h.active_threads();
        metrics.lost += before as u64;
        for thread in h.running.drain(..) {
            self.engine.cancel(thread.completion_event);
        }
        h.queue.clear();
        h.heap_used_mb = 0.0;
        if let Some(gc_event) = h.gc_end_event.take() {
            self.engine.cancel(gc_event);
        }
        h.gc_end_time = None;

        if self.downtime_secs > 0.0 {
            let up_at = self.engine.now() + SimTime::from_secs(self.downtime_secs);
            h.down_until = Some(up_at);
            self.engine.schedule_at(up_at, Event::HostUp { host });
        }

        if let Some(traces) = &mut self.traces {
            traces[host].record(SystemEvent::Rejuvenated {
                at: self.engine.now().as_secs(),
                lost: before as u64,
            });
        }
        self.note_active_transition(host, before);
    }
}

impl fmt::Debug for ClusterSystem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ClusterSystem")
            .field("hosts", &self.hosts.len())
            .field("available", &self.available_hosts())
            .field("policy", &self.policy)
            .field("now", &self.engine.now())
            .field("active_threads", &self.active_threads())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rejuv_core::{Sraa, SraaConfig};

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
    #[should_panic(expected = "at least one host")]
    fn zero_hosts_panics() {
        let cfg = SystemConfig::mmc(1.0).unwrap();
        let _ = ClusterSystem::new(cfg, 0, 1.0, RoutingPolicy::RoundRobin, 0.0, 1);
    }

    #[test]
    fn light_load_cluster_matches_single_host_statistics() {
        // 4 hosts x 16 CPUs at λ_total = 1.6 (0.4 per host): response
        // times sit at the no-queueing mean of 5 s for every policy.
        for policy in [
            RoutingPolicy::RoundRobin,
            RoutingPolicy::Random,
            RoutingPolicy::LeastActive,
        ] {
            let cfg = SystemConfig::mmc(1.0).unwrap();
            let mut cluster = ClusterSystem::new(cfg, 4, 1.6, policy, 0.0, 2);
            let m = cluster.run(20_000);
            assert_eq!(m.aggregate.completed, 20_000);
            assert!(
                (m.aggregate.mean_response_time - 5.0).abs() < 0.2,
                "{policy:?}: {}",
                m.aggregate.mean_response_time
            );
            assert_eq!(m.rejected_no_host, 0);
        }
    }

    #[test]
    fn round_robin_spreads_evenly() {
        // Paper hosts (with heap/GC) and no detectors: the leak model
        // makes per-host GC counts a clean proxy for per-host throughput.
        let cfg = SystemConfig::paper(1.0).unwrap();
        let mut cluster = ClusterSystem::new(cfg, 4, 1.6, RoutingPolicy::RoundRobin, 0.0, 3);
        let m = cluster.run(10_000);
        // Every host should see roughly a quarter of the work — GC counts
        // are a proxy for per-host throughput under the leak model.
        let total: u64 = m.gc_per_host.iter().sum();
        assert!(total > 0);
        for &g in &m.gc_per_host {
            assert!(
                (g as f64 - total as f64 / 4.0).abs() <= total as f64 / 4.0 * 0.5 + 2.0,
                "per-host GCs skewed: {:?}",
                m.gc_per_host
            );
        }
    }

    #[test]
    fn cluster_trace_records_per_host_and_merges_deterministically() {
        let cfg = SystemConfig::paper(1.0).unwrap();
        let run = || {
            let mut c = ClusterSystem::new(cfg, 3, 3.0, RoutingPolicy::LeastActive, 30.0, 9);
            c.attach_detectors(|_| sraa(2, 5, 3));
            c.enable_trace(65_536);
            let m = c.run(10_000);
            (m, c.take_traces().expect("tracing was enabled"))
        };
        let (m, traces) = run();
        assert_eq!(traces.len(), 3);

        // Per-host counters line up with the run metrics.
        for (host, trace) in traces.iter().enumerate() {
            assert_eq!(
                trace.counters().rejuvenations,
                m.rejuvenations_per_host[host],
                "host {host} rejuvenation counter"
            );
            assert_eq!(
                trace.counters().gc_started,
                m.gc_per_host[host],
                "host {host} GC counter"
            );
        }
        assert!(
            traces.iter().any(|t| t.counters().gc_started > 0),
            "the paper config must trigger GCs"
        );

        // The merged document: one header per host, then every event
        // host-tagged in nondecreasing time order.
        let merged = crate::trace::merged_jsonl_lines(&traces);
        let events: usize = traces.iter().map(|t| t.events().count()).sum();
        assert_eq!(merged.len(), 3 + events);
        for (host, line) in merged.iter().take(3).enumerate() {
            assert!(
                line.starts_with(&format!("{{\"host\":{host},\"events\":")),
                "header {host}: {line}"
            );
        }
        let times: Vec<f64> = merged[3..]
            .iter()
            .map(|line| {
                let at = line.split("\"at\":").nth(1).expect("event line has at");
                at.split([',', '}'])
                    .next()
                    .unwrap()
                    .parse::<f64>()
                    .expect("at parses")
            })
            .collect();
        assert!(
            times.windows(2).all(|w| w[0] <= w[1]),
            "merged events must be time-ordered"
        );

        // Same seed, second run: bitwise-identical document.
        let (_, traces2) = run();
        assert_eq!(merged, crate::trace::merged_jsonl_lines(&traces2));
    }

    #[test]
    fn determinism() {
        let cfg = SystemConfig::paper(1.0).unwrap();
        let run = |seed| {
            let mut c = ClusterSystem::new(cfg, 3, 3.0, RoutingPolicy::LeastActive, 30.0, seed);
            c.attach_detectors(|_| sraa(2, 5, 3));
            c.run(10_000)
        };
        assert_eq!(run(9), run(9));
        assert_ne!(
            run(9).aggregate.mean_response_time,
            run(10).aggregate.mean_response_time
        );
    }

    #[test]
    fn downtime_takes_host_out_of_rotation() {
        let cfg = SystemConfig::mmc(1.0).unwrap();
        let mut cluster = ClusterSystem::new(cfg, 2, 1.0, RoutingPolicy::RoundRobin, 500.0, 5);
        // Host 0 fires on its first observation and goes down for 500 s.
        cluster.attach_detector(0, sraa(1, 1, 1));
        let _ = cluster.run(200);
        // At some point during the run host 0 was down; the run completes
        // regardless because host 1 keeps serving.
        assert!(cluster.hosts() == 2);
        let m = cluster.run(2_000);
        assert_eq!(m.rejected_no_host, 0, "host 1 must absorb the load");
    }

    #[test]
    fn all_hosts_down_rejects_arrivals() {
        // Single-host cluster with downtime: while it is down, arrivals
        // are rejected and counted.
        let cfg = SystemConfig::mmc(1.0).unwrap();
        let mut cluster = ClusterSystem::new(cfg, 1, 2.0, RoutingPolicy::Random, 1_000.0, 6);
        cluster.attach_detector(0, sraa(1, 1, 1));
        let m = cluster.run(2_000);
        assert!(m.rejected_no_host > 0, "downtime must reject arrivals");
        assert!(m.aggregate.rejuvenation_count >= 1);
    }

    #[test]
    fn least_active_beats_random_at_high_load() {
        // Classic balancing result: least-active routing yields lower
        // response times than random splitting under load.
        let cfg = SystemConfig::mmc(1.0).unwrap();
        let run = |policy| {
            let mut c = ClusterSystem::new(cfg, 4, 11.2, policy, 0.0, 7);
            c.run(40_000).aggregate.mean_response_time
        };
        let random = run(RoutingPolicy::Random);
        let least = run(RoutingPolicy::LeastActive);
        assert!(least < random, "least {least} vs random {random}");
    }

    #[test]
    fn per_host_detectors_control_cluster_under_overload() {
        let cfg = SystemConfig::paper(1.0).unwrap();
        let total_lambda = 4.0 * 1.8; // 9 CPUs of load per host
        let bare = {
            let mut c = ClusterSystem::new(cfg, 4, total_lambda, RoutingPolicy::RoundRobin, 0.0, 8);
            c.run(60_000).aggregate.mean_response_time
        };
        let guarded = {
            let mut c =
                ClusterSystem::new(cfg, 4, total_lambda, RoutingPolicy::RoundRobin, 60.0, 8);
            c.attach_detectors(|_| sraa(2, 5, 3));
            c.run(60_000)
        };
        assert!(
            guarded.aggregate.mean_response_time * 2.0 < bare,
            "guarded {} vs bare {bare}",
            guarded.aggregate.mean_response_time
        );
        assert!(guarded.aggregate.rejuvenation_count > 0);
        // Under deep overload all four hosts occasionally rejuvenate at
        // once; the resulting rejected fraction must stay marginal.
        assert!(
            (guarded.rejected_no_host as f64) < 0.01 * 60_000.0,
            "rejected {}",
            guarded.rejected_no_host
        );
    }
}
