//! Scrapes are read-only: a monitored run must end up byte-identical
//! whether or not anything ever looked at it.
//!
//! Property tests interleave exposition snapshots (the exact capture +
//! render path `/metrics` serves) at arbitrary points of an arbitrary
//! ingest/drain schedule, across 1/2/4 configured consumers, and
//! require the run's every artifact — event
//! log, final report, decision digests, checkpoint — to match a twin
//! run that never scraped, byte for byte. A threaded test then covers
//! what single-threaded determinism cannot: a real `MetricsServer`
//! hammered by an HTTP scraper thread while blocking producers and a
//! shared-mode drain plane are running, against a listener-free twin.

use proptest::prelude::*;
use rejuv_core::{DetectorKind, DetectorSpec};
use rejuv_monitor::expo::render;
use rejuv_monitor::{
    ConsumerPool, EventLog, ExpoSnapshot, MetricsServer, MonitorEvent, SharedBuffer,
    SharedSupervisor, Supervisor, SupervisorConfig,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

const CONSUMERS: [usize; 3] = [1, 2, 4];
const SHARDS: usize = 3;

/// SRAA with n = 2, K = 4, D = 2 on every shard.
fn specs() -> [DetectorSpec; SHARDS] {
    let sraa = DetectorSpec {
        sample_size: 2,
        buckets: 4,
        depth: 2,
        ..DetectorSpec::new(DetectorKind::Sraa)
    };
    [sraa; SHARDS]
}

/// One step of the schedule under test.
#[derive(Debug, Clone)]
enum Op {
    /// Ingest one observation into a shard's queue.
    Ingest(usize, f64),
    /// Drain one round through every shard.
    Poll,
    /// Capture + render an exposition snapshot — the `/metrics` path.
    /// Applied only to the scraped twin.
    Scrape,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0usize..SHARDS, 0.0f64..60.0).prop_map(|(s, v)| Op::Ingest(s, v)),
        Just(Op::Poll),
        Just(Op::Scrape),
    ]
}

/// Every artifact a run leaves behind, rendered to bytes.
#[derive(Debug, Clone, PartialEq)]
struct Artifacts {
    trace: Vec<u8>,
    report: String,
    digests: Vec<String>,
    checkpoint: String,
}

/// Runs a schedule, scraping at the marked points only when `scrape`
/// is set, and collects the artifacts.
fn run_schedule(consumers: usize, ops: &[Op], scrape: bool) -> Artifacts {
    let config = SupervisorConfig {
        queue_capacity: 64,
        drain_batch: 8,
        snapshot_every: Some(50),
        consumers,
    };
    let mut sup = Supervisor::with_specs(config, &specs()).unwrap();
    let buffer = SharedBuffer::new();
    let mut log = EventLog::new(Box::new(buffer.clone()));
    log.record(&MonitorEvent::Start {
        shards: SHARDS as u32,
        detector: "SRAA".to_owned(),
        queue_capacity: config.queue_capacity as u64,
        drain_batch: config.drain_batch as u64,
        snapshot_every: config.snapshot_every,
    })
    .expect("write run header");
    sup.set_log(log);

    for op in ops {
        match op {
            Op::Ingest(shard, value) => {
                // The 64-slot queue can fill between polls; relieve it
                // the same way in both twins so acceptance is identical.
                if !sup.ingest(*shard, *value) {
                    sup.poll_all().unwrap();
                    sup.ingest(*shard, *value);
                }
            }
            Op::Poll => {
                sup.poll_all().unwrap();
            }
            Op::Scrape => {
                if scrape {
                    let body = render(&ExpoSnapshot::capture(&sup));
                    assert!(body.starts_with("# HELP"));
                }
            }
        }
    }
    while sup.poll_all().unwrap() > 0 {}
    if scrape {
        let _ = render(&ExpoSnapshot::capture(&sup));
    }
    let checkpoint = serde_json::to_string_pretty(&sup.snapshot()).unwrap();
    sup.take_log().unwrap().flush().unwrap();
    let report = sup.report();
    Artifacts {
        trace: buffer.contents(),
        report: serde_json::to_string_pretty(&report).unwrap(),
        digests: report.shards.iter().map(|s| s.digest.clone()).collect(),
        checkpoint,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Interleaving scrapes anywhere in an arbitrary ingest/drain
    /// schedule changes no artifact, at any configured consumer count.
    #[test]
    fn scrapes_change_no_artifact(
        consumers_pick in 0usize..CONSUMERS.len(),
        ops in proptest::collection::vec(op_strategy(), 1..120),
    ) {
        let consumers = CONSUMERS[consumers_pick];
        let scraped = run_schedule(consumers, &ops, true);
        let quiet = run_schedule(consumers, &ops, false);
        prop_assert_eq!(&scraped.trace, &quiet.trace, "event log diverged");
        prop_assert_eq!(&scraped.report, &quiet.report, "report diverged");
        prop_assert_eq!(&scraped.digests, &quiet.digests, "digests diverged");
        prop_assert_eq!(&scraped.checkpoint, &quiet.checkpoint, "checkpoint diverged");
    }
}

/// The deterministic per-shard workload of the threaded test.
fn synthetic(shard: u64, i: u64) -> f64 {
    3.0 + ((i * 5 + shard * 11) % 19) as f64 * 0.7 + if i.is_multiple_of(211) { 42.0 } else { 0.0 }
}

/// Runs a shared-mode supervisor workload — blocking batched producers,
/// shared consumer-pool drain plane — optionally with a live HTTP responder
/// scraped continuously, and returns `(report, digests)`. The queue is
/// wide enough to hold a full shard stream, so `producer_waits` stays
/// deterministically zero and reports are byte-comparable.
fn threaded_run(listen: bool) -> (String, Vec<String>) {
    const PER_SHARD: u64 = 10_000;
    let config = SupervisorConfig {
        queue_capacity: PER_SHARD as usize,
        drain_batch: 32,
        snapshot_every: None,
        consumers: 2,
    };
    let shared = SharedSupervisor::new(Supervisor::with_specs(config, &specs()).unwrap());
    let consumer = ConsumerPool::spawn_shared(&shared);
    let server = listen.then(|| {
        MetricsServer::bind(
            "127.0.0.1:0".parse().unwrap(),
            shared.clone(),
            Some(consumer.stats_handle()),
        )
        .expect("bind an ephemeral port")
    });
    let stop = Arc::new(AtomicBool::new(false));
    let scraper = server.as_ref().map(|server| {
        let addr = server.local_addr();
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            use std::io::{Read, Write};
            let mut served = 0u32;
            while !stop.load(Ordering::SeqCst) {
                if let Ok(mut stream) = std::net::TcpStream::connect(addr) {
                    stream
                        .write_all(b"GET /metrics HTTP/1.1\r\nConnection: close\r\n\r\n")
                        .unwrap();
                    let mut reply = String::new();
                    stream.read_to_string(&mut reply).unwrap();
                    assert!(reply.contains("rejuv_exposition_scrapes_total"));
                    served += 1;
                }
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            served
        })
    });

    let senders: Vec<_> = (0..SHARDS)
        .map(|s| shared.with(|sup| sup.sender(s)))
        .collect();
    std::thread::scope(|scope| {
        for (shard, sender) in senders.iter().enumerate() {
            scope.spawn(move || {
                let mut batch = Vec::with_capacity(37);
                let mut i = 0u64;
                while i < PER_SHARD {
                    let n = 37.min(PER_SHARD - i);
                    batch.clear();
                    batch.extend((i..i + n).map(|k| (synthetic(shard as u64, k), f64::NAN)));
                    sender.send_batch_blocking(batch.iter().copied());
                    i += n;
                }
            });
        }
    });
    consumer.join().expect("no log attached");
    stop.store(true, Ordering::SeqCst);
    if let Some(handle) = scraper {
        let served = handle.join().expect("scraper never panics");
        assert!(served > 0, "the scraper thread never got a scrape in");
    }
    if let Some(server) = server {
        server.shutdown();
    }
    let sup = shared
        .try_into_inner()
        .expect("drain plane and responder released their handles");
    let report = sup.report();
    assert_eq!(report.total_processed, SHARDS as u64 * PER_SHARD);
    (
        comparable_report(&report),
        report.shards.iter().map(|s| s.digest.clone()).collect(),
    )
}

/// Renders a report for cross-run comparison, dropping the one piece of
/// telemetry that is thread-scheduling noise rather than a function of
/// the observation stream: the `drain_batch_size` histogram differs
/// between any two threaded runs, scraper or not. Everything else —
/// counters, gauges, value histograms, per-shard accounting, digests —
/// must still match byte for byte.
fn comparable_report(report: &rejuv_monitor::MonitorReport) -> String {
    use serde_json::Value;
    let mut value = serde_json::to_value(report).unwrap();
    if let Value::Object(root) = &mut value {
        if let Some(Value::Object(metrics)) = root.get_mut("metrics") {
            if let Some(Value::Object(histograms)) = metrics.get_mut("histograms") {
                histograms.remove("drain_batch_size");
            }
        }
    }
    serde_json::to_string_pretty(&value).unwrap()
}

/// A live responder under real concurrent scraping leaves the run's
/// report and digests byte-identical to a listener-free twin.
#[test]
fn http_scraper_under_load_changes_nothing() {
    let (scraped_report, scraped_digests) = threaded_run(true);
    let (quiet_report, quiet_digests) = threaded_run(false);
    assert_eq!(
        scraped_digests, quiet_digests,
        "digests diverged under live scraping"
    );
    assert_eq!(
        scraped_report, quiet_report,
        "report diverged under live scraping"
    );
}
