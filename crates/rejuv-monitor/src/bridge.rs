//! Attaching the runtime to live traffic.
//!
//! A simulated (or real) system expects a [`RejuvenationDetector`] it
//! can call synchronously: one observation in, one decision out.
//! [`MonitorBridge`] satisfies that contract while routing every
//! observation through a shared [`Supervisor`] shard — ingestion queue,
//! metrics, event log and all — so "the detector the model sees" and
//! "the stream the monitoring runtime supervises" are the same thing.
//!
//! One [`SharedSupervisor`] hands out one bridge per shard (e.g. one per
//! cluster host); after the run it yields the supervisor back for the
//! final report.

use crate::supervisor::{MonitorReport, Supervisor};
use rejuv_core::{Decision, DetectorSnapshot, RejuvenationDetector, SnapshotError};
use std::sync::{Arc, Mutex};

/// A supervisor shared between per-shard bridges and the coordinating
/// thread.
#[derive(Debug, Clone)]
pub struct SharedSupervisor {
    inner: Arc<Mutex<Supervisor>>,
}

impl SharedSupervisor {
    /// Wraps a supervisor for shared live attachment.
    pub fn new(supervisor: Supervisor) -> Self {
        SharedSupervisor {
            inner: Arc::new(Mutex::new(supervisor)),
        }
    }

    /// A synchronous detector façade for `shard`.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn bridge(&self, shard: usize) -> MonitorBridge {
        let count = self.with(|s| s.shard_count());
        assert!(shard < count, "shard {shard} out of range ({count} shards)");
        MonitorBridge {
            inner: Arc::clone(&self.inner),
            shard,
        }
    }

    /// Runs `f` with exclusive access to the supervisor.
    pub fn with<R>(&self, f: impl FnOnce(&mut Supervisor) -> R) -> R {
        let mut guard = self.inner.lock().expect("supervisor lock poisoned");
        f(&mut guard)
    }

    /// The current final report.
    pub fn report(&self) -> MonitorReport {
        self.with(|s| s.report())
    }

    /// Unwraps the supervisor once every bridge has been dropped.
    ///
    /// # Errors
    ///
    /// Returns `self` unchanged if bridges (or clones) are still alive.
    pub fn try_into_inner(self) -> Result<Supervisor, SharedSupervisor> {
        match Arc::try_unwrap(self.inner) {
            Ok(mutex) => Ok(mutex.into_inner().expect("supervisor lock poisoned")),
            Err(inner) => Err(SharedSupervisor { inner }),
        }
    }
}

/// A [`RejuvenationDetector`] façade over one supervisor shard.
///
/// `observe` ingests the value into the shard's bounded queue and
/// drains it synchronously, so the caller gets the decision for the
/// observation it just produced while the supervisor records the full
/// observability trail.
#[derive(Debug, Clone)]
pub struct MonitorBridge {
    inner: Arc<Mutex<Supervisor>>,
    shard: usize,
}

impl MonitorBridge {
    /// The shard this bridge feeds.
    pub fn shard(&self) -> usize {
        self.shard
    }
}

impl RejuvenationDetector for MonitorBridge {
    fn observe(&mut self, value: f64) -> Decision {
        self.inner
            .lock()
            .expect("supervisor lock poisoned")
            .process_sync(self.shard, value)
            .expect("monitor event log write failed")
    }

    fn observe_at(&mut self, at_secs: f64, value: f64) -> Decision {
        self.inner
            .lock()
            .expect("supervisor lock poisoned")
            .process_sync_at(self.shard, value, at_secs)
            .expect("monitor event log write failed")
    }

    fn reset(&mut self) {
        // Resetting the façade is not meaningful: the supervisor owns
        // the detector state and its lifetime counters.
    }

    fn name(&self) -> &'static str {
        "monitored"
    }

    fn rejuvenation_count(&self) -> u64 {
        self.inner
            .lock()
            .expect("supervisor lock poisoned")
            .rejuvenations(self.shard)
    }

    fn snapshot(&self) -> Option<DetectorSnapshot> {
        None
    }

    fn restore(&mut self, _snapshot: &DetectorSnapshot) -> Result<(), SnapshotError> {
        Err(SnapshotError::Unsupported {
            detector: self.name(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::supervisor::tests::sraa;
    use crate::supervisor::SupervisorConfig;

    fn supervisor(shards: usize) -> Supervisor {
        Supervisor::with_specs(SupervisorConfig::default(), &vec![sraa(); shards]).unwrap()
    }

    #[test]
    fn bridge_decisions_match_a_bare_detector() {
        let shared = SharedSupervisor::new(supervisor(2));
        let mut bridge: Box<dyn RejuvenationDetector> = Box::new(shared.bridge(1));
        let mut reference = sraa().build().unwrap();
        for i in 0..400 {
            let v = if i % 9 < 6 { 55.0 } else { 2.0 };
            assert_eq!(bridge.observe(v), reference.observe(v));
        }
        assert_eq!(bridge.rejuvenation_count(), reference.rejuvenation_count());
        assert!(bridge.rejuvenation_count() > 0);
        assert_eq!(shared.report().shards[1].processed, 400);
        assert_eq!(shared.report().shards[0].processed, 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bridge_rejects_unknown_shard() {
        let shared = SharedSupervisor::new(supervisor(1));
        let _ = shared.bridge(5);
    }

    #[test]
    fn try_into_inner_waits_for_bridges() {
        let shared = SharedSupervisor::new(supervisor(1));
        let bridge = shared.bridge(0);
        let shared = shared.try_into_inner().expect_err("bridge still alive");
        drop(bridge);
        let sup = shared.try_into_inner().expect("last handle");
        assert_eq!(sup.shard_count(), 1);
    }
}
