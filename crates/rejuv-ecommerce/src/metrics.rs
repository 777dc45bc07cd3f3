//! Metrics collected over one simulation run.

use rejuv_stats::OnlineStats;
use serde::{Deserialize, Serialize};

/// Counters and summaries produced by one run of the e-commerce model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunMetrics {
    /// Transactions that completed service and produced a response time.
    pub completed: u64,
    /// Transactions terminated by rejuvenations (the paper's cost
    /// metric).
    pub lost: u64,
    /// Mean response time over completed transactions, seconds.
    pub mean_response_time: f64,
    /// Sample standard deviation of the response time.
    pub response_time_std_dev: f64,
    /// Largest observed response time.
    pub max_response_time: f64,
    /// Number of full garbage collections that occurred.
    pub gc_count: u64,
    /// Number of rejuvenations triggered.
    pub rejuvenation_count: u64,
    /// Simulated seconds the run covered.
    pub sim_duration_secs: f64,
    /// Time-weighted average number of active threads (`L` in Little's
    /// law). Zero when the model does not track it.
    pub mean_active_threads: f64,
    /// The individual response times in completion order (empty unless
    /// recording was enabled).
    pub response_times: Vec<f64>,
}

impl RunMetrics {
    /// Fraction of transactions lost:
    /// `lost / (completed + lost)`, or 0 for an empty run.
    pub fn loss_fraction(&self) -> f64 {
        let total = self.completed + self.lost;
        if total == 0 {
            0.0
        } else {
            self.lost as f64 / total as f64
        }
    }

    /// Effective throughput over the run, completed transactions per
    /// simulated second.
    pub fn throughput(&self) -> f64 {
        if self.sim_duration_secs > 0.0 {
            self.completed as f64 / self.sim_duration_secs
        } else {
            0.0
        }
    }
}

/// Accumulates the metrics during a run.
#[derive(Debug, Clone, Default)]
pub(crate) struct MetricsCollector {
    pub stats: OnlineStats,
    pub lost: u64,
    pub gc_count: u64,
    pub rejuvenation_count: u64,
    pub record: bool,
    pub response_times: Vec<f64>,
}

impl MetricsCollector {
    pub fn new(record: bool) -> Self {
        MetricsCollector::with_capacity(record, 0)
    }

    /// Like [`Self::new`], pre-sizing the response-time buffer for
    /// `expected` completions so recording runs never reallocate
    /// mid-simulation.
    pub fn with_capacity(record: bool, expected: usize) -> Self {
        MetricsCollector {
            stats: OnlineStats::new(),
            lost: 0,
            gc_count: 0,
            rejuvenation_count: 0,
            record,
            response_times: if record {
                Vec::with_capacity(expected)
            } else {
                Vec::new()
            },
        }
    }

    pub fn record_completion(&mut self, response_time: f64) {
        self.stats.push(response_time);
        if self.record {
            self.response_times.push(response_time);
        }
    }

    pub fn total(&self) -> u64 {
        self.stats.count() + self.lost
    }

    pub fn finish(self, sim_duration_secs: f64, mean_active_threads: f64) -> RunMetrics {
        RunMetrics {
            completed: self.stats.count(),
            lost: self.lost,
            mean_response_time: self.stats.mean(),
            response_time_std_dev: self.stats.sample_std_dev(),
            max_response_time: self.stats.max().unwrap_or(0.0),
            gc_count: self.gc_count,
            rejuvenation_count: self.rejuvenation_count,
            sim_duration_secs,
            mean_active_threads,
            response_times: self.response_times,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loss_fraction_edge_cases() {
        let m = RunMetrics {
            completed: 0,
            lost: 0,
            mean_response_time: 0.0,
            response_time_std_dev: 0.0,
            max_response_time: 0.0,
            gc_count: 0,
            rejuvenation_count: 0,
            sim_duration_secs: 0.0,
            mean_active_threads: 0.0,
            response_times: Vec::new(),
        };
        assert_eq!(m.loss_fraction(), 0.0);
        assert_eq!(m.throughput(), 0.0);
    }

    #[test]
    fn collector_accumulates() {
        let mut c = MetricsCollector::new(true);
        c.record_completion(2.0);
        c.record_completion(4.0);
        c.lost = 2;
        c.gc_count = 1;
        assert_eq!(c.total(), 4);
        let m = c.finish(100.0, 0.0);
        assert_eq!(m.completed, 2);
        assert_eq!(m.lost, 2);
        assert_eq!(m.mean_response_time, 3.0);
        assert_eq!(m.loss_fraction(), 0.5);
        assert_eq!(m.throughput(), 0.02);
        assert_eq!(m.response_times, vec![2.0, 4.0]);
        assert_eq!(m.max_response_time, 4.0);
    }

    #[test]
    fn recording_can_be_disabled() {
        let mut c = MetricsCollector::new(false);
        c.record_completion(1.0);
        let m = c.finish(1.0, 0.0);
        assert!(m.response_times.is_empty());
        assert_eq!(m.completed, 1);
    }
}
