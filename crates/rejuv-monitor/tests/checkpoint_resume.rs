//! End-to-end checkpoint/resume: a run that checkpoints mid-stream to a
//! file must be continuable by a *fresh* supervisor built from that file
//! — same decisions, same digests, same serialised report as the
//! uninterrupted run.

use rejuv_core::{DetectorKind, DetectorSpec};
use rejuv_monitor::{
    load_snapshot, read_events, replay_fleet_events, save_snapshot, EventLog, MonitorEvent,
    SharedBuffer, Supervisor, SupervisorConfig,
};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

/// SARAA with initial n = 4, K = 5, D = 3 on both shards.
fn specs() -> [DetectorSpec; 2] {
    [DetectorSpec::new(DetectorKind::Saraa); 2]
}

fn config() -> SupervisorConfig {
    SupervisorConfig {
        queue_capacity: 512,
        drain_batch: 32,
        ..SupervisorConfig::default()
    }
}

/// The deterministic workload: shard 1 degrades towards the end.
fn sample(i: u64) -> (usize, f64, f64) {
    let shard = (i % 2) as usize;
    let value = if shard == 1 && i > 600 {
        55.0
    } else {
        3.0 + (i % 6) as f64
    };
    (shard, value, i as f64 * 0.25)
}

fn scratch_file(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rejuv-ckpt-it-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// Feeds the full workload through a supervisor that records a trace
/// and persists checkpoints to `ckpt` every 100 observations; returns
/// it with the trace buffer.
fn full_run(ckpt: PathBuf) -> (Supervisor, SharedBuffer) {
    let buffer = SharedBuffer::new();
    let mut supervisor = Supervisor::with_specs(config(), &specs()).unwrap();
    let mut log = EventLog::new(Box::new(buffer.clone()));
    log.record(&MonitorEvent::Start {
        shards: 2,
        detector: "SARAA".to_owned(),
        queue_capacity: config().queue_capacity as u64,
        drain_batch: config().drain_batch as u64,
        snapshot_every: None,
    })
    .unwrap();
    supervisor.set_log(log);
    supervisor.set_checkpoint(100, Box::new(move |snap| save_snapshot(&ckpt, snap)));

    for i in 0..1_000u64 {
        let (shard, value, at) = sample(i);
        supervisor.sender(shard).send_batch([(value, at)]);
        if i % 11 == 0 {
            supervisor.poll_all().unwrap();
        }
        if i == 700 {
            // Stop checkpointing here so the file keeps a genuinely
            // *mid-run* snapshot (the simulated crash point).
            while supervisor.poll_all().unwrap() > 0 {}
            let _ = supervisor.take_checkpoint();
        }
    }
    while supervisor.poll_all().unwrap() > 0 {}
    supervisor.take_log().unwrap().flush().unwrap();
    (supervisor, buffer)
}

#[test]
fn resuming_from_a_mid_run_checkpoint_file_continues_the_digests() {
    let ckpt = scratch_file("mid_run.json");
    let (live, buffer) = full_run(ckpt.clone());
    let live_report = live.report();
    assert!(
        live_report.total_rejuvenations > 0,
        "the degraded shard must fire"
    );

    // The file holds the *last cadence* checkpoint — strictly mid-run.
    let snapshot = load_snapshot(&ckpt).unwrap();
    let covered: u64 = snapshot.shards.iter().map(|s| s.processed).sum();
    assert!(
        (100..1_000).contains(&covered),
        "checkpoint must be mid-run, covered {covered}"
    );

    // A fresh supervisor resumed from the file and fed the recorded
    // suffix reproduces the uninterrupted run's report byte-for-byte.
    let events = read_events(std::io::Cursor::new(buffer.contents())).unwrap();
    let resumed = replay_fleet_events(&events, config(), &specs(), Some(&snapshot)).unwrap();
    let resumed_report = resumed.report();
    assert_eq!(live_report, resumed_report);
    assert_eq!(
        serde_json::to_string(&live_report).unwrap(),
        serde_json::to_string(&resumed_report).unwrap(),
        "digests, counters and histograms must continue the original run"
    );

    let _ = std::fs::remove_file(&ckpt);
}

#[test]
fn direct_restore_continues_the_stream_without_a_trace() {
    // Uninterrupted reference.
    let mut reference = Supervisor::with_specs(config(), &specs()).unwrap();
    for i in 0..1_000u64 {
        let (shard, value, at) = sample(i);
        reference.process_sync(shard, value, at).unwrap();
    }

    // Interrupted run: checkpoint into memory at observation 500, build
    // a brand-new supervisor from the snapshot, feed only the suffix.
    let mut first_half = Supervisor::with_specs(config(), &specs()).unwrap();
    for i in 0..500u64 {
        let (shard, value, at) = sample(i);
        first_half.process_sync(shard, value, at).unwrap();
    }
    let captured = Arc::new(Mutex::new(None));
    let slot = Arc::clone(&captured);
    first_half.set_checkpoint(
        1,
        Box::new(move |snap| {
            *slot.lock().unwrap() = Some(snap.clone());
            Ok(())
        }),
    );
    first_half.checkpoint_now().unwrap();
    let snapshot = captured.lock().unwrap().take().unwrap();
    drop(first_half);

    let mut second_half = Supervisor::with_specs(config(), &specs()).unwrap();
    second_half.restore(&snapshot).unwrap();
    for i in 500..1_000u64 {
        let (shard, value, at) = sample(i);
        second_half.process_sync(shard, value, at).unwrap();
    }

    let expected = reference.report();
    let continued = second_half.report();
    assert_eq!(
        expected
            .shards
            .iter()
            .map(|s| &s.digest)
            .collect::<Vec<_>>(),
        continued
            .shards
            .iter()
            .map(|s| &s.digest)
            .collect::<Vec<_>>(),
        "decision digests must prove the resumed run continues the original"
    );
    assert_eq!(expected, continued, "the full reports match too");
}
