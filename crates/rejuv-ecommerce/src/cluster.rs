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
use crate::host::{Arrivals, Clock, Host, HostEvent, UnitDraws};
use crate::metrics::{MetricsCollector, RunMetrics};
use crate::trace::EventTrace;
use crate::workload::RateProfile;
use rand::rngs::StdRng;
use rand::Rng;
use rejuv_core::RejuvenationDetector;
use rejuv_sim::{RngStreams, SimTime};
use serde::{Deserialize, Serialize};
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
    /// A completion or GC end on a host.
    Host(usize, HostEvent),
    /// Rejuvenation downtime ends on a host.
    HostUp(usize),
}

/// A cluster of `H` hosts running the §3 model behind one balancer.
///
/// Every host is the single-host model's host (the crate's `host`
/// module); the cluster adds one arrival stream, the routing and the
/// downtime. The event calendar is the single-host model's too: the
/// next event is the smallest of the arrival key and each host's GC-end,
/// up and next-completion keys, an O(hosts) scan as routing is.
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
    /// The hosts; each host's config is the per-host model (its
    /// `arrival_rate` field is unused; the cluster arrival rate governs).
    pub(crate) hosts: Vec<Host>,
    clock: Clock,
    arrivals: Arrivals,
    /// One service stream shared by every host.
    services: UnitDraws,
    policy: RoutingPolicy,
    rr_next: usize,
    routing_rng: StdRng,
    /// Seconds a host stays down after a rejuvenation.
    downtime_secs: f64,
    /// Transactions dropped because every host was down.
    rejected_no_host: u64,
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
            cluster_arrival_rate.is_finite() && cluster_arrival_rate > 0.0,
            "cluster arrival rate must be positive"
        );
        assert!(
            downtime_secs.is_finite() && downtime_secs >= 0.0,
            "downtime must be non-negative"
        );
        let streams = RngStreams::new(seed);
        ClusterSystem {
            hosts: (0..hosts).map(|_| Host::new(host_config)).collect(),
            clock: Clock::default(),
            arrivals: Arrivals::new(cluster_arrival_rate, streams.stream(0)),
            services: UnitDraws::new(streams.stream(2)),
            policy,
            rr_next: 0,
            routing_rng: streams.stream(1),
            downtime_secs,
            rejected_no_host: 0,
        }
    }

    /// Starts recording per-host [`crate::trace::SystemEvent`]s (GC,
    /// overhead-regime crossings, rejuvenations), each host keeping at
    /// most `capacity` recent events. Export the merged host-tagged
    /// document with [`ClusterSystem::take_traces`] and
    /// [`crate::trace::write_merged_jsonl`].
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn enable_trace(&mut self, capacity: usize) {
        for host in &mut self.hosts {
            host.trace = Some(EventTrace::new(capacity));
        }
    }

    /// The recorded trace of `host`, if tracing is enabled.
    ///
    /// # Panics
    ///
    /// Panics if `host` is out of range.
    pub fn trace(&self, host: usize) -> Option<&EventTrace> {
        self.hosts[host].trace.as_ref()
    }

    /// Takes ownership of all per-host traces (disables tracing).
    pub fn take_traces(&mut self) -> Option<Vec<EventTrace>> {
        self.hosts
            .iter_mut()
            .map(|host| host.trace.take())
            .collect()
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
        for (index, host) in self.hosts.iter_mut().enumerate() {
            host.detector = Some(factory(index));
        }
    }

    /// Drives cluster arrivals from a time-varying profile (total rate).
    pub fn set_rate_profile(&mut self, profile: RateProfile) {
        self.arrivals.set_profile(profile);
    }

    /// Number of hosts.
    pub fn hosts(&self) -> usize {
        self.hosts.len()
    }

    /// Number of hosts currently in rotation.
    pub fn available_hosts(&self) -> usize {
        self.hosts.iter().filter(|h| h.up.is_none()).count()
    }

    /// Total active threads across all hosts.
    pub fn active_threads(&self) -> usize {
        self.hosts.iter().map(Host::active_threads).sum()
    }

    /// Runs until `transactions` have terminated (completed + lost +
    /// rejected), returning per-run metrics.
    pub fn run(&mut self, transactions: u64) -> ClusterMetrics {
        let mut metrics = MetricsCollector::new(false);
        let start_time = self.clock.now;
        for host in &mut self.hosts {
            host.begin_run(start_time);
        }
        let rejected_before = self.rejected_no_host;

        if self.arrivals.key.is_none() {
            self.arrivals.schedule(&mut self.clock);
        }

        while metrics.total() + (self.rejected_no_host - rejected_before) < transactions {
            let Some(event) = self.next_event() else {
                break;
            };
            match event {
                Event::Arrival => self.on_arrival(),
                Event::Host(index, event) => {
                    let host = &mut self.hosts[index];
                    let rejuvenated =
                        host.deliver(event, &mut self.clock, &mut self.services, &mut metrics);
                    if rejuvenated && self.downtime_secs > 0.0 {
                        let up_at = self.clock.now + SimTime::from_secs(self.downtime_secs);
                        host.up = Some(self.clock.schedule(up_at));
                    }
                }
                Event::HostUp(index) => self.hosts[index].up = None,
            }
        }

        metrics.gc_count = self.hosts.iter().map(|h| h.gc_count).sum();
        metrics.rejuvenation_count = self.hosts.iter().map(|h| h.rejuvenations).sum();
        let now = self.clock.now;
        let mean_active_threads = self.hosts.iter().map(|h| h.mean_active_threads(now)).sum();
        ClusterMetrics {
            aggregate: metrics.finish((now - start_time).as_secs(), mean_active_threads),
            rejuvenations_per_host: self.hosts.iter().map(|h| h.rejuvenations).collect(),
            gc_per_host: self.hosts.iter().map(|h| h.gc_count).collect(),
            rejected_no_host: self.rejected_no_host - rejected_before,
        }
    }

    /// Delivers the pending event with the smallest key, advancing the
    /// clock to its time; `None` before the arrival process is armed.
    #[inline]
    fn next_event(&mut self) -> Option<Event> {
        let mut next = self.arrivals.key?;
        let mut event = Event::Arrival;
        for (index, host) in self.hosts.iter().enumerate() {
            if let Some((key, host_event)) = host.next_event() {
                if key < next {
                    next = key;
                    event = Event::Host(index, host_event);
                }
            }
            if let Some(up) = host.up {
                if up < next {
                    next = up;
                    event = Event::HostUp(index);
                }
            }
        }
        self.clock.deliver(next);
        Some(event)
    }

    fn on_arrival(&mut self) {
        if !self.arrivals.arrive(&mut self.clock) {
            return;
        }
        match self.pick_host() {
            Some(host) => self.hosts[host].admit(&mut self.clock, &mut self.services),
            None => self.rejected_no_host += 1,
        }
    }

    /// Routing decision over available hosts; `None` if all are down.
    fn pick_host(&mut self) -> Option<usize> {
        let hosts = &self.hosts;
        let mut available = (0..hosts.len()).filter(|&h| hosts[h].up.is_none());
        match self.policy {
            RoutingPolicy::RoundRobin => {
                available.next()?;
                // Advance the cursor to the next available host.
                let mut pick = self.rr_next % hosts.len();
                while hosts[pick].up.is_some() {
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
}

impl fmt::Debug for ClusterSystem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ClusterSystem")
            .field("hosts", &self.hosts.len())
            .field("available", &self.available_hosts())
            .field("policy", &self.policy)
            .field("now", &self.clock.now)
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
    fn littles_law_holds_across_the_cluster() {
        // L = λ·W over the whole cluster: the summed time-weighted host
        // populations must equal the balancer's arrival rate times the
        // mean response time (no detector, so nothing is lost).
        let host = SystemConfig::paper(1.0).unwrap();
        for policy in [
            RoutingPolicy::LeastActive,
            RoutingPolicy::Random,
            RoutingPolicy::RoundRobin,
        ] {
            let lambda = 4.8;
            let mut cluster = ClusterSystem::new(host, 3, lambda, policy, 0.0, 71);
            let m = cluster.run(80_000).aggregate;
            assert_eq!(m.lost, 0, "{policy:?}: no detector, no loss");
            let expected_l = lambda * m.mean_response_time;
            assert!(
                (m.mean_active_threads / expected_l - 1.0).abs() < 0.03,
                "{policy:?}: L = {} vs λW = {expected_l}",
                m.mean_active_threads
            );
        }
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
