//! Online rejuvenation monitoring runtime.
//!
//! The DSN 2006 detectors (`rejuv-core`) decide *when* to rejuvenate;
//! this crate is the serving layer that runs them against live
//! observation streams the way a field deployment would:
//!
//! * [`supervisor::Supervisor`] — N independent monitored *shards*
//!   (e.g. one per cluster host), each a bounded ingestion queue
//!   ([`queue::ObsQueue`]) draining in batches through the detector its
//!   [`rejuv_core::DetectorSpec`] describes, with back-pressure
//!   accounting so overload drops samples instead of blocking the
//!   source. [`Supervisor::with_specs`] is the one constructor: a
//!   homogeneous fleet is N copies of one spec, a mixed one comes from
//!   a [`fleet::FleetConfig`] file, and reports roll up per detector
//!   kind ([`supervisor::DetectorKindReport`]),
//! * **checkpoint/resume** — [`Supervisor::snapshot`] captures every
//!   detector mid-epidemic via `rejuv_core::DetectorSnapshot`, plus
//!   each shard's spec; [`Supervisor::restore`] resumes
//!   behaviour-identically and rejects spec drift. A
//!   [`supervisor::CheckpointSink`] streams snapshots to
//!   [`checkpoint::save_snapshot`], which persists them atomically
//!   (write-temp-then-rename) so a crash never tears the file,
//! * [`pool::ConsumerPool`] — the drain plane:
//!   `SupervisorConfig::consumers` worker threads with static
//!   whole-shard ownership plus bounded work-stealing through an atomic
//!   claim table, each *parking* on a condvar whenever its queues are
//!   empty (zero idle CPU). Consumer count is a pure execution-strategy
//!   knob: digests, reports, traces and checkpoints are byte-identical
//!   across 1/2/4/8 consumers,
//! * [`metrics::MetricsReport`] — counters, gauges and fixed-bucket
//!   histograms folded from shard state, byte-stable when serialised,
//! * [`event::EventLog`] — a JSONL event log (run header, observation
//!   batches, rejuvenations, snapshots) that doubles as a replay script:
//!   [`replay_fleet_events`] re-ingests a recorded log through a fresh
//!   supervisor and reproduces every decision bit-for-bit, optionally
//!   resuming from a mid-run checkpoint,
//! * [`bridge::MonitorBridge`] — a synchronous detector façade so an
//!   engine-driven model (single-host §3 system, cluster) feeds the
//!   runtime as if it were a plain detector.
//!
//! # Quickstart
//!
//! ```
//! use rejuv_core::{DetectorKind, DetectorSpec};
//! use rejuv_monitor::{Supervisor, SupervisorConfig};
//!
//! // SRAA at the paper's SLA baseline (µX = σX = 5), n = 2, K = 5, D = 3.
//! let spec = DetectorSpec::new(DetectorKind::Sraa);
//! let mut supervisor = Supervisor::with_specs(
//!     SupervisorConfig::default(),
//!     &[spec; 4],                          // four monitored hosts
//! )?;
//!
//! // Producers push through cloneable senders (possibly from other
//! // threads); the supervisor drains in batches.
//! for shard in 0..4 {
//!     let sender = supervisor.sender(shard);
//!     for _ in 0..100 {
//!         sender.send(60.0); // a degraded stream
//!     }
//! }
//! while supervisor.poll_all()? > 0 {}
//!
//! let report = supervisor.report();
//! assert_eq!(report.total_processed, 400);
//! assert!(report.total_rejuvenations > 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod assurance;
pub mod bridge;
pub mod bus;
pub mod checkpoint;
pub mod dlq;
pub mod event;
pub mod expo;
pub mod fleet;
pub mod http;
pub mod metrics;
pub mod pool;
pub mod queue;
pub mod supervisor;

pub use bridge::{MonitorBridge, SharedSupervisor};
pub use bus::{BusSubscription, EventBus, OpEvent};
pub use checkpoint::{load_snapshot, save_snapshot};
pub use dlq::{DeadLetterQueue, DlqStats};
pub use event::{read_events, read_events_tolerant, EventLog, MonitorEvent, SharedBuffer};
pub use expo::{DrainPlane, ExpoSnapshot, ShardRuntime};
pub use fleet::{FleetConfig, FleetError, MAX_SHARDS};
pub use http::MetricsServer;
pub use metrics::{Histogram, HistogramProblem, MetricsReport};
pub use pool::{ConsumerPool, PoolJoin, PoolStats, PoolStatsHandle};
pub use queue::{ObsQueue, Wakeup, WorkNotifier};
pub use supervisor::{
    CheckpointClock, CheckpointSink, DetectorKindReport, DlqSnapshot, MonitorReport, ReloadError,
    RestoreError, ShardReport, ShardSender, ShardSnapshot, Supervisor, SupervisorConfig,
    SupervisorSnapshot, SNAPSHOT_VERSION, SNAPSHOT_VERSION_DLQ,
};

use queue::UNTIMED;
use rejuv_core::DetectorSpec;
use std::io;

/// Deterministically re-analyses a recorded event log: rebuilds a
/// supervisor with one shard per [`DetectorSpec`] (exactly what a
/// [`MonitorEvent::FleetStart`] header carries; a homogeneous run's
/// `Start` header maps to N copies of one spec) and re-ingests every
/// [`MonitorEvent::Batch`] / [`MonitorEvent::TimedBatch`] in recorded
/// order (timestamps included, so latency histograms reproduce too).
///
/// Feeding the resulting supervisor's [`Supervisor::report`] the same
/// serialisation as the live run's report must yield identical bytes —
/// the replay-determinism contract `monitord --replay` checks in CI.
/// `Start`, `FleetStart`, `Rejuvenated` and `Snapshot` events are
/// informational here: decisions are *recomputed*, not trusted from the
/// log.
///
/// With `snapshot`, the supervisor is restored from it first, and every
/// observation the checkpoint already covers (per shard, by sequence
/// number) is skipped instead of re-ingested. Because live checkpoints
/// land on drain-batch boundaries, the resumed run drains exactly the
/// batches the uninterrupted run drained after the checkpoint — so its
/// final report (digests, counters, histograms) is byte-identical to an
/// uninterrupted replay of the same log. A batch the checkpoint covers
/// only partially (possible only for checkpoints not taken by this
/// crate) is re-ingested from its first uncovered value.
///
/// # Errors
///
/// `InvalidData` if `config` cannot build a supervisor (a zero
/// `drain_batch`, `queue_capacity` or `consumers`, or a queue capacity
/// the allocator refuses: see [`Supervisor::with_specs`]; a log header
/// supplies these), if a spec fails detector validation, if the snapshot
/// does not fit the rebuilt fleet (see [`Supervisor::restore`]), or for
/// a malformed log, before the offending batch touches its shard: a
/// batch naming a shard outside the fleet, a `TimedBatch` whose `times`
/// and `values` differ in length, a `seq` whose batch overflows `u64`,
/// or a batch larger than the shard's queue (which a live run could
/// never have drained in one piece). Otherwise propagates event-log
/// write failures from the replaying supervisor (only possible if a log
/// was attached to it beforehand).
pub fn replay_fleet_events(
    events: &[MonitorEvent],
    config: SupervisorConfig,
    specs: &[DetectorSpec],
    snapshot: Option<&SupervisorSnapshot>,
) -> io::Result<Supervisor> {
    let supervisor = Supervisor::with_specs(config, specs)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    replay_into(supervisor, events, snapshot)
}

fn replay_into(
    mut supervisor: Supervisor,
    events: &[MonitorEvent],
    snapshot: Option<&SupervisorSnapshot>,
) -> io::Result<Supervisor> {
    let shards = supervisor.shard_count();
    let mut covered: Vec<u64> = vec![0; shards];
    if let Some(snapshot) = snapshot {
        supervisor
            .restore(snapshot)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        for (slot, shard) in covered.iter_mut().zip(&snapshot.shards) {
            *slot = shard.processed;
        }
    }
    for event in events {
        let (shard, seq, values, times) = match event {
            MonitorEvent::Batch { shard, seq, values } => (*shard as usize, *seq, values, None),
            MonitorEvent::TimedBatch {
                shard,
                seq,
                values,
                times,
            } => (*shard as usize, *seq, values, Some(times)),
            _ => continue,
        };
        // Validate the whole batch before touching its shard: a foreign
        // or tampered log is rejected, never half-applied.
        if shard >= shards {
            return Err(invalid_log(format!(
                "batch names shard {shard} of a {shards}-shard fleet"
            )));
        }
        if times.is_some_and(|t| t.len() != values.len()) {
            return Err(invalid_log(format!(
                "shard {shard} batch at seq {seq} carries {} times for {} values",
                times.map_or(0, Vec::len),
                values.len()
            )));
        }
        let end = seq.checked_add(values.len() as u64).ok_or_else(|| {
            invalid_log(format!(
                "shard {shard} batch at seq {seq} overflows the sequence space"
            ))
        })?;
        let done = covered[shard];
        if end <= done {
            continue; // the checkpoint already covers this batch
        }
        let offset = done.saturating_sub(seq) as usize;
        let values = &values[offset..];
        let queue = supervisor.queue(shard);
        let free = queue.capacity() - queue.len();
        if values.len() > free {
            return Err(invalid_log(format!(
                "shard {shard} batch at seq {seq} holds {} values but the queue has room for {free}",
                values.len()
            )));
        }
        // One push for the whole batch; a non-finite time is untimed,
        // as a live run's `ingest` would have queued it.
        let pushed = match times {
            Some(times) => queue.push_batch(
                values
                    .iter()
                    .zip(&times[offset..])
                    .map(|(&v, &at)| (v, if at.is_finite() { at } else { UNTIMED })),
            ),
            None => queue.push_batch(values.iter().map(|&v| (v, UNTIMED))),
        };
        assert_eq!(pushed, values.len(), "the batch fits the free space");
        while supervisor.poll_shard(shard)? > 0 {}
    }
    Ok(supervisor)
}

fn invalid_log(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::supervisor::tests::sraa;

    #[test]
    fn replay_reproduces_a_recorded_run_bitwise() {
        let config = SupervisorConfig {
            queue_capacity: 256,
            drain_batch: 16,
            snapshot_every: Some(50),
            ..SupervisorConfig::default()
        };
        let buffer = SharedBuffer::new();
        let mut live = Supervisor::with_specs(config, &[sraa(); 3]).unwrap();
        live.set_log(EventLog::new(Box::new(buffer.clone())));

        // A deterministic mixed workload: shard 1 degrades, the rest
        // stay healthy.
        for i in 0..900u64 {
            let shard = (i % 3) as usize;
            let value = if shard == 1 {
                52.0
            } else {
                3.0 + (i % 4) as f64
            };
            live.ingest(shard, value);
            if i % 7 == 0 {
                live.poll_all().unwrap();
            }
        }
        while live.poll_all().unwrap() > 0 {}
        live.take_log().unwrap().flush().unwrap();

        let events = read_events(std::io::Cursor::new(buffer.contents())).unwrap();
        assert!(events
            .iter()
            .any(|e| matches!(e, MonitorEvent::Snapshot { .. })));

        let replayed = replay_fleet_events(&events, config, &[sraa(); 3], None).unwrap();
        let live_report = live.report();
        let replay_report = replayed.report();
        // Replay preserves batch grouping (each recorded Batch is
        // re-ingested and drained as one group), so the *entire* report
        // — digests, counters, histograms — must be identical, down to
        // the serialised bytes.
        assert_eq!(live_report, replay_report);
        assert_eq!(
            serde_json::to_string(&live_report).unwrap(),
            serde_json::to_string(&replay_report).unwrap()
        );
    }

    fn replay_err(events: &[MonitorEvent], config: SupervisorConfig) -> io::Error {
        match replay_fleet_events(events, config, &[sraa(); 2], None) {
            Ok(_) => panic!("a malformed log must not replay"),
            Err(e) => e,
        }
    }

    fn batch(shard: u32, seq: u64, len: usize) -> MonitorEvent {
        MonitorEvent::Batch {
            shard,
            seq,
            values: vec![4.0; len],
        }
    }

    #[test]
    fn replay_rejects_a_shard_outside_the_fleet() {
        let err = replay_err(
            &[batch(0, 0, 3), batch(7, 0, 3)],
            SupervisorConfig::default(),
        );
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(
            err.to_string().contains("shard 7 of a 2-shard fleet"),
            "{err}"
        );
    }

    #[test]
    fn replay_rejects_a_batch_larger_than_the_queue() {
        let config = SupervisorConfig {
            queue_capacity: 4,
            ..SupervisorConfig::default()
        };
        let err = replay_err(&[batch(1, 0, 10)], config);
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("holds 10 values"), "{err}");
        // A batch that fits the same queue replays with nothing dropped.
        let ok = replay_fleet_events(&[batch(1, 0, 4)], config, &[sraa(); 2], None).unwrap();
        assert_eq!((ok.processed(1), ok.report().total_dropped), (4, 0));
    }

    #[test]
    fn replay_applies_nothing_of_a_batch_that_overflows_the_queue() {
        let config = SupervisorConfig {
            queue_capacity: 4,
            drain_batch: 4,
            ..SupervisorConfig::default()
        };
        let supervisor = Supervisor::with_specs(config, &[sraa(); 2]).unwrap();
        let queue = supervisor.queue(1).clone();
        let events = [batch(1, 0, 3), batch(1, 3, 5)];
        let Err(err) = replay_into(supervisor, &events, None) else {
            panic!("an overflowing batch must not replay");
        };
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(
            err.to_string()
                .contains("holds 5 values but the queue has room for 4"),
            "{err}"
        );
        // The first batch went in whole and was drained; not one value
        // of the second reached the queue, and nothing was dropped.
        assert_eq!((queue.accepted(), queue.dropped(), queue.len()), (3, 0, 0));
    }

    #[test]
    fn replay_queues_non_finite_times_as_untimed() {
        let times = vec![0.5, f64::INFINITY, f64::NAN, 2.0, f64::NEG_INFINITY, 3.25];
        let values = vec![4.0, 60.0, 61.0, 5.0, 62.0, 3.0];
        let event = MonitorEvent::TimedBatch {
            shard: 0,
            seq: 0,
            values: values.clone(),
            times: times.clone(),
        };
        let config = SupervisorConfig::default();
        let replayed = replay_fleet_events(&[event], config, &[sraa()], None).unwrap();
        let mut live = Supervisor::with_specs(config, &[sraa()]).unwrap();
        for (&value, &at) in values.iter().zip(&times) {
            if at.is_finite() {
                live.ingest_at(0, value, at);
            } else {
                live.ingest(0, value);
            }
        }
        while live.poll_all().unwrap() > 0 {}
        assert_eq!(
            serde_json::to_string(&replayed.report()).unwrap(),
            serde_json::to_string(&live.report()).unwrap()
        );
    }

    #[test]
    fn replay_rejects_an_overflowing_sequence_number() {
        let err = replay_err(&[batch(0, u64::MAX - 1, 3)], SupervisorConfig::default());
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("overflows"), "{err}");
    }

    #[test]
    fn replay_rejects_mismatched_times() {
        let event = MonitorEvent::TimedBatch {
            shard: 0,
            seq: 0,
            values: vec![4.0, 5.0, 6.0],
            times: vec![0.5, 1.0],
        };
        let err = replay_err(&[event], SupervisorConfig::default());
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("2 times for 3 values"), "{err}");
    }
}
