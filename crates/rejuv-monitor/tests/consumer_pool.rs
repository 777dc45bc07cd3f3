//! Cross-consumer-count determinism suite.
//!
//! Consumer count is an execution-strategy knob, never a semantic one:
//! for the same workload, the drain plane must produce byte-identical
//! artefacts no matter how many worker threads drained the shards.
//! These tests run the `{1, 2, 4, 8}` consumer grid over a preloaded deterministic workload — once for a homogeneous
//! SRAA fleet and once for the 4-kind example fleet — and require the
//! event-log trace, the final report JSON, the final checkpoint JSON
//! and every per-shard decision digest to match the serial reference
//! bit for bit.
//!
//! Preloading (pushing every observation before the pool spawns) pins
//! the drain-batch boundaries, which is what makes even the *trace*
//! bytes comparable: each shard's event stream is then a pure function
//! of the workload, and the pool flushes buffered events shard-major at
//! join.
//!
//! The grid also runs a concurrent input: one blocking batch producer
//! thread per shard pushes into a small queue while the pool drains.
//! Batch boundaries then follow the scheduler, so only what is a pure
//! function of each shard's observation sequence is compared: the
//! per-shard decision digests, against the same serial reference.

use rejuv_core::{DetectorKind, DetectorSpec};
use rejuv_monitor::{
    ConsumerPool, EventLog, FleetConfig, SharedBuffer, Supervisor, SupervisorConfig, UNTIMED,
};
use std::path::Path;

const FLEET_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/fleet.toml");
const CONSUMER_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn config(consumers: usize) -> SupervisorConfig {
    SupervisorConfig {
        queue_capacity: 2_048,
        drain_batch: 16,
        snapshot_every: Some(100),
        consumers,
    }
}

/// Deterministic workload: mostly-healthy values with sustained spike
/// windows so every detector kind fires. Purely a function of
/// `(shard, i)`.
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
fn pool_run<F>(build: F, shards: usize, per_shard: u64) -> Artifacts
where
    F: FnOnce() -> Supervisor,
{
    let mut sup = build();
    let buffer = SharedBuffer::new();
    sup.set_log(EventLog::new(Box::new(buffer.clone())));
    for shard in 0..shards {
        let sender = sup.sender(shard);
        for i in 0..per_shard {
            assert_eq!(
                sender.send_batch([(value_at(shard as u64, i), UNTIMED)]),
                1,
                "workload must fit the queue capacity (preloaded run)"
            );
        }
    }
    let pool = ConsumerPool::spawn(sup);
    let joined = pool.join().expect("pool drains cleanly");
    let mut sup = joined
        .supervisor
        .expect("owned pool returns the supervisor");
    assert_eq!(
        joined.stats.per_thread_drains.iter().sum::<u64>(),
        per_shard * shards as u64,
        "every observation was drained by some worker"
    );
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

/// Per-shard digests of a concurrent run: one producer thread per
/// shard pushes the workload in blocking batches of `PRODUCER_BATCH`
/// into a queue small enough that producers park, while the pool
/// drains.
fn concurrent_digests<F>(build: F, shards: usize, per_shard: u64) -> Vec<String>
where
    F: FnOnce() -> Supervisor,
{
    const PRODUCER_BATCH: u64 = 7;
    let sup = build();
    let senders: Vec<_> = (0..shards).map(|s| sup.sender(s)).collect();
    let pool = ConsumerPool::spawn(sup);
    std::thread::scope(|scope| {
        for (shard, sender) in senders.iter().enumerate() {
            scope.spawn(move || {
                let mut i = 0;
                while i < per_shard {
                    let n = PRODUCER_BATCH.min(per_shard - i);
                    let batch =
                        (0..n as usize).map(|k| (value_at(shard as u64, i + k as u64), f64::NAN));
                    assert_eq!(sender.send_batch_blocking(batch), n as usize);
                    i += n;
                }
            });
        }
    });
    let sup = pool
        .join()
        .expect("pool drains cleanly")
        .supervisor
        .expect("owned pool returns the supervisor");
    let report = sup.report();
    assert_eq!(report.total_processed, per_shard * shards as u64);
    assert_eq!(report.total_dropped, 0, "blocking producers never drop");
    report.shards.iter().map(|s| s.digest.clone()).collect()
}

/// Serial reference: identical preload drained by the caller-owned poll
/// loop, no pool, no threads. Its report and digests are ground truth.
fn serial_reference<F>(build: F, shards: usize, per_shard: u64) -> (String, Vec<String>)
where
    F: FnOnce() -> Supervisor,
{
    let mut sup = build();
    for shard in 0..shards {
        let sender = sup.sender(shard);
        for i in 0..per_shard {
            assert_eq!(sender.send_batch([(value_at(shard as u64, i), UNTIMED)]), 1);
        }
    }
    while sup.poll_all().expect("no log attached") > 0 {}
    let report = sup.report();
    (
        serde_json::to_string_pretty(&report).expect("render report"),
        report.shards.iter().map(|s| s.digest.clone()).collect(),
    )
}

/// Runs the full consumer-count grid for one fleet shape and
/// checks every artefact against both the serial reference and the
/// first grid cell, and the concurrent input's digests against the
/// serial reference.
fn grid_is_byte_identical<F>(build: F, shards: usize, per_shard: u64)
where
    F: Fn(SupervisorConfig) -> Supervisor,
{
    let (serial_report, serial_digests) = serial_reference(|| build(config(1)), shards, per_shard);

    let mut baseline: Option<Artifacts> = None;
    for consumers in CONSUMER_COUNTS {
        let small_queue = SupervisorConfig {
            queue_capacity: 8,
            ..config(consumers)
        };
        assert_eq!(
            concurrent_digests(|| build(small_queue), shards, per_shard),
            serial_digests,
            "x{consumers}: concurrent producers' digests diverged from the serial reference"
        );
        let artifacts = pool_run(|| build(config(consumers)), shards, per_shard);
        assert_eq!(
            artifacts.digests, serial_digests,
            "x{consumers}: digests diverged from the serial reference"
        );
        assert_eq!(
            artifacts.report, serial_report,
            "x{consumers}: report diverged from the serial reference"
        );
        match &baseline {
            None => baseline = Some(artifacts),
            Some(first) => {
                assert_eq!(
                    artifacts.trace, first.trace,
                    "x{consumers}: trace bytes diverged from x1"
                );
                assert_eq!(
                    artifacts.report, first.report,
                    "x{consumers}: report bytes diverged from x1"
                );
                assert_eq!(
                    artifacts.checkpoint, first.checkpoint,
                    "x{consumers}: checkpoint bytes diverged from x1"
                );
            }
        }
    }
    let baseline = baseline.expect("grid is non-empty");
    assert!(
        !baseline.trace.is_empty(),
        "the workload must actually record events"
    );
}

#[test]
fn homogeneous_fleet_artifacts_are_identical_across_consumer_counts() {
    grid_is_byte_identical(
        // SRAA with n = 2, K = 5, D = 3 at the SLA baseline.
        |config| {
            Supervisor::with_specs(config, &[DetectorSpec::new(DetectorKind::Sraa); 5]).unwrap()
        },
        5,
        600,
    );
}

#[test]
fn mixed_fleet_artifacts_are_identical_across_consumer_counts() {
    let fleet = FleetConfig::load(Path::new(FLEET_PATH)).expect("example fleet parses");
    let shards = fleet.shard_count();
    assert!(shards >= 4, "the example fleet mixes four detector kinds");
    grid_is_byte_identical(
        move |config| Supervisor::with_specs(config, fleet.specs()).expect("fleet builds"),
        shards,
        500,
    );
}
