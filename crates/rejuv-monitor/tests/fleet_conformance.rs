//! Golden-file conformance suite for mixed-fleet replay.
//!
//! A small recorded trace for the 4-shard example fleet
//! (`examples/fleet.toml`: sraa/saraa/clta/cusum) and its expected
//! report are checked in under `tests/golden/`. The tests pin three
//! byte-level contracts against refactors:
//!
//! 1. *recording*: re-running the deterministic workload produces the
//!    checked-in trace byte-for-byte (event-log format stability),
//! 2. *replay*: replaying the checked-in trace produces the checked-in
//!    report byte-for-byte (decision + digest stability),
//! 3. *resume*: replaying from the checked-in mid-run checkpoint
//!    produces the same report bytes (checkpoint semantics stability).
//!
//! A second, timed trace (`fleet_trace_timed.jsonl`) pins the bytes of
//! `TimedBatch` records, including `null` for untimed samples. Both
//! traces must also survive a decode/re-encode round trip
//! (`read_events` then `EventLog::record`) byte-for-byte.
//!
//! To regenerate after an *intentional* format or digest change:
//!
//! ```text
//! REJUV_REGEN_GOLDEN=1 cargo test -p rejuv-monitor --test fleet_conformance
//! ```

use rejuv_monitor::{
    read_events, replay_fleet_events, EventLog, FleetConfig, MonitorEvent, SharedBuffer,
    Supervisor, SupervisorConfig, SupervisorSnapshot, UNTIMED,
};
use std::path::Path;

const FLEET_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/fleet.toml");
const TRACE_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/fleet_trace.jsonl"
);
const REPORT_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/fleet_report.json"
);
const TIMED_TRACE_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/fleet_trace_timed.jsonl"
);
const CHECKPOINT_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/fleet_checkpoint.json"
);

fn config() -> SupervisorConfig {
    SupervisorConfig {
        queue_capacity: 256,
        drain_batch: 16,
        snapshot_every: Some(200),
        ..SupervisorConfig::default()
    }
}

/// The deterministic workload: a pure function of the observation
/// index, mostly-healthy values with periodic sustained spikes so every
/// detector kind does real work.
fn value_at(i: u64) -> f64 {
    if (i / 37) % 9 == 8 {
        55.0 + (i % 5) as f64
    } else {
        3.0 + (i % 6) as f64 * 0.7
    }
}

/// Simulation timestamp of observation `i` for the timed workload, or
/// `None` for the samples that arrive untimed (serialised `null`).
fn time_at(i: u64) -> Option<f64> {
    (i % 7 != 3).then_some(i as f64 * 0.37 + (i % 11) as f64 * 1e-3)
}

/// A supervisor for the example fleet with a `FleetStart` header
/// already written to an in-memory log.
fn fleet_supervisor(fleet: &FleetConfig) -> (Supervisor, SharedBuffer) {
    let config = config();
    let mut sup = Supervisor::with_specs(config, fleet.specs()).expect("example fleet builds");
    let buffer = SharedBuffer::new();
    let mut log = EventLog::new(Box::new(buffer.clone()));
    log.record(&MonitorEvent::FleetStart {
        shards: fleet.shard_count() as u32,
        specs: fleet.specs().to_vec(),
        queue_capacity: config.queue_capacity as u64,
        drain_batch: config.drain_batch as u64,
        snapshot_every: config.snapshot_every,
    })
    .expect("write run header");
    sup.set_log(log);
    (sup, buffer)
}

/// Runs the recorded workload live: returns the trace bytes, the first
/// mid-run checkpoint, and the final report.
fn record_live(fleet: &FleetConfig) -> (Vec<u8>, SupervisorSnapshot, rejuv_monitor::MonitorReport) {
    let (mut sup, buffer) = fleet_supervisor(fleet);

    let shards = fleet.shard_count() as u64;
    let mut checkpoint = None;
    for i in 0..1600u64 {
        assert_eq!(
            sup.sender((i % shards) as usize)
                .send_batch([(value_at(i), UNTIMED)]),
            1
        );
        if i % 23 == 0 {
            sup.poll_all().unwrap();
        }
        if i == 799 {
            // Mid-run checkpoint at a fully drained point, exactly as a
            // quiescent live daemon would persist one: every queue
            // empty, every shard on a drain-batch boundary.
            while sup.poll_all().unwrap() > 0 {}
            checkpoint = Some(sup.snapshot());
        }
    }
    while sup.poll_all().unwrap() > 0 {}
    sup.take_log().unwrap().flush().unwrap();

    let checkpoint = checkpoint.expect("the run passes observation 799");
    (buffer.contents(), checkpoint, sup.report())
}

/// Runs the timed workload live: 400 observations, most stamped with a
/// simulation time, so the trace is mostly `TimedBatch` records.
fn record_live_timed(fleet: &FleetConfig) -> (Vec<u8>, rejuv_monitor::MonitorReport) {
    let (mut sup, buffer) = fleet_supervisor(fleet);
    let shards = fleet.shard_count() as u64;
    for i in 0..400u64 {
        let shard = (i % shards) as usize;
        let at = time_at(i).unwrap_or(UNTIMED);
        assert_eq!(sup.sender(shard).send_batch([(value_at(i), at)]), 1);
        if i % 19 == 0 {
            sup.poll_all().unwrap();
        }
    }
    while sup.poll_all().unwrap() > 0 {}
    sup.take_log().unwrap().flush().unwrap();
    (buffer.contents(), sup.report())
}

/// Decodes a trace and re-encodes every event through a fresh
/// `EventLog`.
fn reencode(trace: &[u8]) -> Vec<u8> {
    let events = read_events(std::io::Cursor::new(trace)).expect("parse trace");
    let buffer = SharedBuffer::new();
    let mut log = EventLog::new(Box::new(buffer.clone()));
    for event in &events {
        log.record(event).expect("re-encode event");
    }
    log.flush().unwrap();
    buffer.contents()
}

fn render_report(report: &rejuv_monitor::MonitorReport) -> String {
    serde_json::to_string_pretty(report).expect("render report") + "\n"
}

fn render_checkpoint(snapshot: &SupervisorSnapshot) -> String {
    serde_json::to_string_pretty(snapshot).expect("render checkpoint") + "\n"
}

fn regen_requested() -> bool {
    std::env::var_os("REJUV_REGEN_GOLDEN").is_some()
}

fn read_golden(path: &str) -> Vec<u8> {
    std::fs::read(path).unwrap_or_else(|e| {
        panic!(
            "cannot read golden file {path}: {e}\n\
             (regenerate with REJUV_REGEN_GOLDEN=1)"
        )
    })
}

#[test]
fn golden_files_stay_byte_identical() {
    let fleet = FleetConfig::load(Path::new(FLEET_PATH)).expect("example fleet parses");
    assert!(
        fleet
            .specs()
            .iter()
            .map(|s| s.kind)
            .collect::<std::collections::BTreeSet<_>>()
            .len()
            >= 3,
        "the golden fleet must mix at least three detector kinds"
    );

    let (trace, checkpoint, live_report) = record_live(&fleet);

    if regen_requested() {
        std::fs::write(TRACE_PATH, &trace).expect("write golden trace");
        std::fs::write(REPORT_PATH, render_report(&live_report)).expect("write golden report");
        std::fs::write(CHECKPOINT_PATH, render_checkpoint(&checkpoint))
            .expect("write golden checkpoint");
        println!("regenerated golden files under tests/golden/");
        return;
    }

    // 1. Recording stability: the live run reproduces the checked-in
    //    trace bytes exactly.
    assert_eq!(
        trace,
        read_golden(TRACE_PATH),
        "live recording diverged from the golden trace \
         (REJUV_REGEN_GOLDEN=1 to accept an intentional change)"
    );

    // 2. Replay stability: replaying the checked-in trace reproduces
    //    the checked-in report bytes exactly.
    let events = read_events(std::io::Cursor::new(read_golden(TRACE_PATH))).expect("parse trace");
    let MonitorEvent::FleetStart { specs, .. } = &events[0] else {
        panic!("golden trace must begin with a FleetStart header");
    };
    assert_eq!(specs.as_slice(), fleet.specs(), "header matches the fleet");
    let replayed = replay_fleet_events(&events, config(), specs, None).expect("replay");
    let report_bytes = render_report(&replayed.report()).into_bytes();
    assert_eq!(
        report_bytes,
        read_golden(REPORT_PATH),
        "replay report diverged from the golden report"
    );

    // The golden run is a real mixed-fleet workout, not a trivial one.
    let report = replayed.report();
    assert!(report.by_detector.len() >= 3);
    assert!(report.total_rejuvenations > 0);

    // 3. Resume stability: replaying from the checked-in mid-run
    //    checkpoint yields the same report bytes as the full replay.
    let checkpoint_text = String::from_utf8(read_golden(CHECKPOINT_PATH)).unwrap();
    let snapshot: SupervisorSnapshot =
        serde_json::from_str(&checkpoint_text).expect("parse golden checkpoint");
    let resumed = replay_fleet_events(&events, config(), specs, Some(&snapshot)).expect("resume");
    assert_eq!(
        render_report(&resumed.report()).into_bytes(),
        read_golden(REPORT_PATH),
        "resumed replay diverged from the golden report"
    );
}

#[test]
fn timed_golden_replays_live_and_round_trips_byte_identically() {
    let fleet = FleetConfig::load(Path::new(FLEET_PATH)).expect("example fleet parses");
    let (trace, live_report) = record_live_timed(&fleet);

    if regen_requested() {
        std::fs::write(TIMED_TRACE_PATH, &trace).expect("write golden timed trace");
        println!("regenerated tests/golden/fleet_trace_timed.jsonl");
        return;
    }

    let golden = read_golden(TIMED_TRACE_PATH);
    assert_eq!(
        trace, golden,
        "live timed recording diverged from the golden timed trace \
         (REJUV_REGEN_GOLDEN=1 to accept an intentional change)"
    );
    let text = String::from_utf8(golden.clone()).unwrap();
    assert!(text.contains("{\"TimedBatch\":"), "the trace is timed");
    assert!(text.contains("null"), "some samples are untimed");

    // Replay of the golden trace reproduces the live report.
    let events = read_events(std::io::Cursor::new(&golden)).expect("parse timed trace");
    let MonitorEvent::FleetStart { specs, .. } = &events[0] else {
        panic!("golden timed trace must begin with a FleetStart header");
    };
    let replayed = replay_fleet_events(&events, config(), specs, None).expect("replay");
    assert_eq!(
        render_report(&replayed.report()),
        render_report(&live_report),
        "replay of the timed trace diverged from the live run"
    );

    // Decode then re-encode: both goldens come back byte-for-byte.
    assert_eq!(reencode(&golden), golden, "timed trace round trip");
    let untimed = read_golden(TRACE_PATH);
    assert_eq!(reencode(&untimed), untimed, "untimed trace round trip");
}
