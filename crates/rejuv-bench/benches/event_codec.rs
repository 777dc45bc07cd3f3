//! Micro-benchmarks of the JSONL event-log codec: encoding one drained
//! batch with [`EventLog::record`] and decoding it with [`read_events`].
//!
//! Two records cover the log's hot path, each 512 samples (one drain
//! batch): a `TimedBatch` (values plus timestamps, what a timed run
//! writes) and an untimed `Batch`. Encoding writes to `io::sink()`, so
//! the numbers are the codec's, not the file system's. A round-trip
//! check runs before anything is timed.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use rejuv_monitor::{read_events, EventLog, MonitorEvent, SharedBuffer};
use std::hint::black_box;
use std::io;

const SAMPLES: usize = 512;

/// Deterministic exponential response times (mean 5) and increasing
/// timestamps, from an LCG; no RNG dependency.
fn samples() -> (Vec<f64>, Vec<f64>) {
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut at = 1_000.0;
    (0..SAMPLES)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let u = ((state >> 11) as f64 + 0.5) / (1u64 << 53) as f64;
            let value = -5.0 * u.ln();
            at += value / 16.0;
            (value, at)
        })
        .unzip()
}

/// The event encoded as one log line.
fn encode(event: &MonitorEvent) -> Vec<u8> {
    let buffer = SharedBuffer::new();
    let mut log = EventLog::new(Box::new(buffer.clone()));
    log.record(event).expect("encode");
    buffer.contents()
}

fn bench_event_codec(c: &mut Criterion) {
    let (values, times) = samples();
    let cases = [
        (
            "timed_batch",
            MonitorEvent::TimedBatch {
                shard: 3,
                seq: 1 << 20,
                values: values.clone(),
                times,
            },
        ),
        (
            "batch",
            MonitorEvent::Batch {
                shard: 3,
                seq: 1 << 20,
                values,
            },
        ),
    ];

    let mut group = c.benchmark_group("event_codec");
    group.sample_size(200);
    group.throughput(Throughput::Elements(SAMPLES as u64));
    for (name, event) in &cases {
        let line = encode(event);
        let back = read_events(io::Cursor::new(&line)).expect("decode");
        assert_eq!(back.as_slice(), std::slice::from_ref(event), "round trip");

        let mut log = EventLog::new(Box::new(io::sink()));
        group.bench_function(format!("encode_{name}"), |b| {
            b.iter(|| log.record(black_box(event)).expect("encode"));
        });
        group.bench_function(format!("decode_{name}"), |b| {
            b.iter(|| read_events(io::Cursor::new(black_box(&line))).expect("decode"));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_event_codec);
criterion_main!(benches);
