//! Micro-benchmarks of the JSONL event-log codec: encoding one drained
//! batch with [`EventLog::record`] and decoding it with [`read_events`].
//!
//! Two records cover the log's hot path, each 512 samples (one drain
//! batch): a `TimedBatch` (values plus timestamps, what a timed run
//! writes) and an untimed `Batch`. Encoding writes to `io::sink()`, so
//! the numbers are the codec's, not the file system's. A round-trip
//! check runs before anything is timed.
//!
//! Two more groups split the codec into its parts, on the `TimedBatch`
//! record's 1024 floats:
//!
//! - `float_format`: float text alone, std's `{}` against
//!   [`serde_json::float::write_plain`] (which must give the same
//!   bytes; checked before timing);
//! - `decode_parts`: float reading alone over the record's float
//!   tokens, cut out of the encoded line beforehand: std's
//!   `str::parse::<f64>` against [`serde_json::float::read_json`], the
//!   reader the decoder uses (which must give the same bits; checked
//!   before timing). The gap between `read_json_timed_batch` and
//!   `decode_timed_batch` is line reading, the key prefixes and `Vec`
//!   building.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use rejuv_monitor::{read_events, EventLog, MonitorEvent, SharedBuffer};
use std::hint::black_box;
use std::io::{self, Write};

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

/// The float tokens of an encoded batch line: everything between its
/// array brackets, split at commas.
fn float_tokens(line: &str) -> Vec<&str> {
    line.split(['[', ']'])
        .skip(1)
        .step_by(2)
        .flat_map(|array| array.split(','))
        .collect()
}

fn bench_codec_parts(c: &mut Criterion) {
    let (values, times) = samples();
    let floats: Vec<f64> = times.iter().chain(&values).copied().collect();
    let event = MonitorEvent::TimedBatch {
        shard: 3,
        seq: 1 << 20,
        values,
        times,
    };

    let mut std_text = Vec::new();
    let mut ours = Vec::new();
    for &v in &floats {
        write!(std_text, "{v},").expect("write to a Vec");
        serde_json::float::write_plain(&mut ours, v);
        ours.push(b',');
    }
    assert_eq!(std_text, ours, "write_plain matches std's {{}}");

    let mut group = c.benchmark_group("float_format");
    group.sample_size(200);
    group.throughput(Throughput::Elements(floats.len() as u64));
    let mut out = Vec::with_capacity(std_text.len());
    group.bench_function("std_display", |b| {
        b.iter(|| {
            out.clear();
            for &v in black_box(&floats) {
                write!(out, "{v}").expect("write to a Vec");
            }
            black_box(out.len())
        });
    });
    group.bench_function("write_plain", |b| {
        b.iter(|| {
            out.clear();
            for &v in black_box(&floats) {
                serde_json::float::write_plain(&mut out, v);
            }
            black_box(out.len())
        });
    });
    group.finish();

    let line = String::from_utf8(encode(&event)).expect("ASCII line");
    let tokens = float_tokens(&line);
    let parsed: Vec<f64> = tokens.iter().map(|t| t.parse().expect("float")).collect();
    assert_eq!(parsed, floats, "tokens are the record's floats");

    let mut group = c.benchmark_group("decode_parts");
    group.sample_size(200);
    group.throughput(Throughput::Elements(SAMPLES as u64));
    group.bench_function("str_parse_timed_batch", |b| {
        b.iter(|| {
            black_box(&tokens)
                .iter()
                .map(|t| t.parse::<f64>().expect("float"))
                .sum::<f64>()
        });
    });
    let read = |t: &str| serde_json::float::read_json(t.as_bytes()).expect("float token");
    for (token, want) in tokens.iter().zip(&parsed) {
        let (value, len) = read(token);
        assert_eq!(
            value.to_bits(),
            want.to_bits(),
            "read_json matches str::parse"
        );
        assert_eq!(len, token.len(), "read_json reads the whole token");
    }
    group.bench_function("read_json_timed_batch", |b| {
        b.iter(|| black_box(&tokens).iter().map(|t| read(t).0).sum::<f64>());
    });
    group.finish();
}

criterion_group!(benches, bench_event_codec, bench_codec_parts);
criterion_main!(benches);
