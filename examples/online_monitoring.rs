//! Online monitoring runtime end to end: supervise a 4-host fleet with
//! SRAA detectors, checkpoint a detector mid-epidemic, record a JSONL
//! event log, and replay it to prove the run is exactly reproducible.
//!
//! Run with: `cargo run --release --example online_monitoring`

use software_rejuvenation::detectors::{DetectorKind, DetectorSpec};
use software_rejuvenation::monitor::{
    read_events, replay_fleet_events, EventLog, MonitorEvent, SharedBuffer, Supervisor,
    SupervisorConfig,
};

/// Host 2's stream degrades halfway through; the others stay healthy.
fn response_time(host: usize, i: u64) -> f64 {
    if host == 2 && i >= 500 {
        35.0 + (i % 5) as f64
    } else {
        3.0 + (i % 6) as f64 * 0.6
    }
}

fn main() {
    let config = SupervisorConfig {
        snapshot_every: Some(400),
        ..SupervisorConfig::default()
    };
    // Every host runs SRAA at the SLA baseline (n = 2, K = 5, D = 3).
    let specs = [DetectorSpec::new(DetectorKind::Sraa); 4];
    let hosts = specs.len();
    let log_buffer = SharedBuffer::new();

    let mut supervisor = Supervisor::with_specs(config, &specs).expect("valid specs");
    supervisor.set_log(EventLog::new(Box::new(log_buffer.clone())));

    // Producers push through cloneable senders; a real deployment would
    // do this from the request path of each host.
    let senders: Vec<_> = (0..hosts).map(|h| supervisor.sender(h)).collect();
    for i in 0..1_500u64 {
        for (host, sender) in senders.iter().enumerate() {
            sender.send(response_time(host, i));
        }
        // Drain periodically, as a monitoring loop would.
        if i % 64 == 0 {
            supervisor.poll_all().expect("drain");
        }
    }
    while supervisor.poll_all().expect("drain") > 0 {}

    let report = supervisor.report();
    println!(
        "live: {} observations across {} hosts, {} rejuvenations",
        report.total_processed, hosts, report.total_rejuvenations
    );
    for shard in &report.shards {
        println!(
            "  host {}: {} processed, {} rejuvenations, digest {}",
            shard.shard, shard.processed, shard.rejuvenations, shard.digest
        );
    }
    assert!(report.shards[2].rejuvenations > 0, "host 2 degraded");

    // Checkpoint: the complete supervisor state (detector internals,
    // counters, metrics) serialises to JSON and restores into a fresh
    // supervisor that continues behaviour-identically.
    let checkpoint = supervisor.snapshot();
    let as_json = serde_json::to_string(&checkpoint).expect("serialise checkpoint");
    println!("checkpoint: {} bytes of JSON", as_json.len());
    let mut resumed = Supervisor::with_specs(config, &specs).expect("valid specs");
    resumed
        .restore(&serde_json::from_str(&as_json).expect("parse checkpoint"))
        .expect("restore checkpoint");
    assert_eq!(resumed.report(), supervisor.report());

    // Replay: the recorded event log re-ingested through fresh
    // detectors reproduces every decision and the full report.
    supervisor
        .take_log()
        .expect("log attached")
        .flush()
        .expect("flush");
    let events = read_events(std::io::Cursor::new(log_buffer.contents())).expect("parse log");
    let batches = events
        .iter()
        .filter(|e| matches!(e, MonitorEvent::Batch { .. }))
        .count();
    let replayed = replay_fleet_events(&events, config, &specs, None).expect("replay");
    assert_eq!(replayed.report(), report);
    println!("replayed {batches} recorded batches: report is byte-identical");
}
