//! Batch-kernel versus per-sample equivalence suite.
//!
//! `drain_shard` hands every drained chunk to
//! `RejuvenationDetector::observe_batch`. The in-crate detectors
//! override it with batch kernels; the trait's default is the plain
//! per-sample `observe` loop. [`PerSample`] wraps a detector and
//! forwards everything *except* `observe_batch`, so the wrapped
//! detector runs the default loop through the very same drain path;
//! `Supervisor::with_specs_wrapped` installs it around each spec-built
//! detector.
//! These tests run one preloaded workload both ways — across consumer
//! counts, for a homogeneous SRAA fleet and the 4-kind example fleet,
//! and over the synchronous path — and require the event-log trace,
//! the final report JSON, the final checkpoint JSON and every per-shard
//! decision digest to match *byte for byte*.
//!
//! Preloading (pushing every observation before the pool spawns) pins
//! the drain-batch boundaries, so even the trace bytes are a pure
//! function of the workload and the comparison is exact.

use rejuv_core::{
    Decision, DetectorKind, DetectorSnapshot, DetectorSpec, RejuvenationDetector, SnapshotError,
};
use rejuv_monitor::{
    ConsumerPool, EventLog, FleetConfig, SharedBuffer, Supervisor, SupervisorConfig,
};
use std::path::Path;

const FLEET_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/fleet.toml");
const CONSUMER_COUNTS: [usize; 3] = [1, 2, 4];

/// A detector stripped of its batch kernel: every method but
/// `observe_batch` forwards to the wrapped detector, so `observe_batch`
/// is the trait's default per-sample loop.
struct PerSample<D: ?Sized>(Box<D>);

impl<D: RejuvenationDetector + ?Sized> RejuvenationDetector for PerSample<D> {
    fn observe(&mut self, value: f64) -> Decision {
        self.0.observe(value)
    }

    fn observe_at(&mut self, at_secs: f64, value: f64) -> Decision {
        self.0.observe_at(at_secs, value)
    }

    fn reset(&mut self) {
        self.0.reset();
    }

    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn rejuvenation_count(&self) -> u64 {
        self.0.rejuvenation_count()
    }

    fn snapshot(&self) -> Option<DetectorSnapshot> {
        self.0.snapshot()
    }

    fn restore(&mut self, snapshot: &DetectorSnapshot) -> Result<(), SnapshotError> {
        self.0.restore(snapshot)
    }
}

/// Wraps `detector` in [`PerSample`] when `per_sample` is set.
fn kernel(
    detector: Box<dyn RejuvenationDetector>,
    per_sample: bool,
) -> Box<dyn RejuvenationDetector> {
    if per_sample {
        Box::new(PerSample(detector))
    } else {
        detector
    }
}

fn config(consumers: usize) -> SupervisorConfig {
    SupervisorConfig {
        queue_capacity: 2_048,
        drain_batch: 16,
        snapshot_every: Some(100),
        consumers,
    }
}

/// Builds one shard per spec, each detector wrapped in [`PerSample`]
/// when `per_sample` is set.
fn supervisor(consumers: usize, specs: &[DetectorSpec], per_sample: bool) -> Supervisor {
    Supervisor::with_specs_wrapped(config(consumers), specs, |d| kernel(d, per_sample))
        .expect("specs build")
}

/// SRAA with n = 2, K = 5, D = 3 at the SLA baseline.
fn sraa() -> DetectorSpec {
    DetectorSpec::new(DetectorKind::Sraa)
}

/// Deterministic workload: mostly-healthy values with sustained spike
/// windows so detectors fire. Purely a function of `(shard, i)`.
fn value_at(shard: u64, i: u64) -> f64 {
    if ((i + shard * 11) / 31) % 7 == 6 {
        50.0 + (i % 5) as f64
    } else {
        3.0 + ((i + shard * 3) % 6) as f64 * 0.7
    }
}

/// Everything a run leaves behind that must be byte-stable.
struct Artifacts {
    trace: Vec<u8>,
    report: String,
    checkpoint: String,
    digests: Vec<String>,
}

/// Preloads the full workload, drains it through a consumer pool, and
/// collects the run's artefacts.
fn pool_run(mut sup: Supervisor, per_shard: u64) -> Artifacts {
    let buffer = SharedBuffer::new();
    sup.set_log(EventLog::new(Box::new(buffer.clone())));
    for shard in 0..sup.shard_count() {
        let sender = sup.sender(shard);
        for i in 0..per_shard {
            assert!(
                sender.send(value_at(shard as u64, i)),
                "workload must fit the queue capacity (preloaded run)"
            );
        }
    }
    let joined = ConsumerPool::spawn(sup)
        .join()
        .expect("pool drains cleanly");
    let mut sup = joined
        .supervisor
        .expect("owned pool returns the supervisor");
    sup.take_log()
        .expect("log attached")
        .flush()
        .expect("flush");
    let report = sup.report();
    let snapshot = sup.snapshot();
    Artifacts {
        trace: buffer.contents(),
        report: serde_json::to_string_pretty(&report).expect("render report"),
        checkpoint: serde_json::to_string_pretty(&snapshot).expect("render checkpoint"),
        digests: report.shards.iter().map(|s| s.digest.clone()).collect(),
    }
}

/// Runs every consumer count twice — batch kernels and [`PerSample`]
/// wrapped detectors — and requires the pairs to agree byte for byte.
/// `build(consumers, per_sample)` assembles the fleet.
fn kernel_ab_is_byte_identical(build: impl Fn(usize, bool) -> Supervisor, per_shard: u64) {
    for consumers in CONSUMER_COUNTS {
        let batch = pool_run(build(consumers, false), per_shard);
        let per_sample = pool_run(build(consumers, true), per_shard);
        assert_eq!(
            batch.digests, per_sample.digests,
            "x{consumers}: batch kernel and per-sample digests diverged"
        );
        assert_eq!(
            batch.trace, per_sample.trace,
            "x{consumers}: trace bytes diverged between kernels"
        );
        assert_eq!(
            batch.report, per_sample.report,
            "x{consumers}: report bytes diverged between kernels"
        );
        assert_eq!(
            batch.checkpoint, per_sample.checkpoint,
            "x{consumers}: checkpoint bytes diverged between kernels"
        );
        assert!(
            !batch.trace.is_empty(),
            "the workload must actually record events"
        );
    }
}

#[test]
fn homogeneous_fleet_batch_and_per_sample_agree() {
    kernel_ab_is_byte_identical(
        |consumers, per_sample| supervisor(consumers, &[sraa(); 5], per_sample),
        600,
    );
}

#[test]
fn mixed_fleet_batch_and_per_sample_agree() {
    let fleet = FleetConfig::load(Path::new(FLEET_PATH)).expect("example fleet parses");
    let specs = fleet.specs();
    assert!(
        specs.len() >= 4,
        "the example fleet mixes four detector kinds"
    );
    kernel_ab_is_byte_identical(
        |consumers, per_sample| supervisor(consumers, specs, per_sample),
        500,
    );
}

/// The synchronous ingest/poll path (no pool, no threads) must also be
/// kernel-agnostic: `process_sync` drains through the same
/// `drain_shard`, so swapping in per-sample detectors may not move a
/// single digest bit or decision.
#[test]
fn sync_path_batch_and_per_sample_agree() {
    let run = |per_sample: bool| {
        let mut sup = supervisor(1, &[sraa(); 3], per_sample);
        let mut fired = Vec::new();
        for i in 0..2_000u64 {
            for shard in 0..3 {
                // Healthy traffic for the first three quarters, then a
                // sustained degradation so the chains definitely walk to
                // a trigger — the A/B must agree on *firing* runs too.
                let value = if i < 1_500 {
                    value_at(shard as u64, i)
                } else {
                    55.0 + (i % 7) as f64
                };
                let decision = sup.process_sync(shard, value).expect("no log attached");
                if decision.is_rejuvenate() {
                    fired.push((shard, i));
                }
            }
        }
        let report = sup.report();
        (
            fired,
            serde_json::to_string_pretty(&report).expect("render report"),
        )
    };
    let (batch_fired, batch_report) = run(false);
    let (per_sample_fired, per_sample_report) = run(true);
    assert_eq!(batch_fired, per_sample_fired, "sync decisions diverged");
    assert_eq!(
        batch_report, per_sample_report,
        "sync report bytes diverged"
    );
    assert!(
        !batch_fired.is_empty(),
        "workload must trigger rejuvenations"
    );
}
