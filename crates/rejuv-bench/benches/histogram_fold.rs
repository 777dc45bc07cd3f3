//! Micro-benchmarks of the value-histogram fold: one drained batch of
//! 512 samples recorded into the monitor's `observation_value` bounds
//! with the bulk [`Histogram::record_slice`] (branch-free bucket index)
//! and with a per-value [`Histogram::record`] loop (first-match search).
//!
//! Two inputs show why the bulk path counts instead of searching:
//!
//! * `exponential` — response times with mean 5, the paper's healthy
//!   baseline. They land in buckets 0–3 at random, so a first-match
//!   search mispredicts its exit on most samples;
//! * `period7` — a synthetic stream that cycles through seven values
//!   and so lets the branch predictor learn every exit.
//!
//! Each iteration records the next 512-sample batch of a 64-batch pool,
//! so the predictor cannot memorise one repeated batch either. Both
//! paths are checked to leave the same histogram before anything is
//! timed.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use rejuv_monitor::Histogram;
use std::hint::black_box;

const SAMPLES: usize = 512;
/// Batches in each input pool.
const BATCHES: usize = 64;
/// `observation_value`'s bounds in `rejuv-monitor`'s supervisor.
const VALUE_BOUNDS: [f64; 7] = [1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0];

/// Deterministic exponential response times (mean 5) from an LCG; no
/// RNG dependency.
fn exponential() -> Vec<f64> {
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    (0..SAMPLES * BATCHES)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let u = ((state >> 11) as f64 + 0.5) / (1u64 << 53) as f64;
            -5.0 * u.ln()
        })
        .collect()
}

/// A synthetic shard-0 stream: a period-7 ramp with a spike every 997
/// samples.
fn period7() -> Vec<f64> {
    (0..(SAMPLES * BATCHES) as u64)
        .map(|i| {
            let spike = if i.is_multiple_of(997) { 45.0 } else { 0.0 };
            3.0 + (i % 7) as f64 * 0.5 + (i / 10_000) as f64 * 0.05 + spike
        })
        .collect()
}

fn bench_histogram_fold(c: &mut Criterion) {
    let mut group = c.benchmark_group("histogram_fold");
    group.sample_size(200);
    group.throughput(Throughput::Elements(SAMPLES as u64));
    for (name, values) in [("exponential", exponential()), ("period7", period7())] {
        let mut bulk = Histogram::new(&VALUE_BOUNDS);
        bulk.record_slice(&values);
        let mut per_value = Histogram::new(&VALUE_BOUNDS);
        for &value in &values {
            per_value.record(value);
        }
        assert_eq!(bulk, per_value, "{name}: record_slice ≡ record loop");

        let mut batches = values.chunks_exact(SAMPLES).cycle();
        let mut h = Histogram::new(&VALUE_BOUNDS);
        group.bench_function(format!("record_slice_{name}"), |b| {
            let batch = batches.next().unwrap();
            b.iter(|| h.record_slice(black_box(batch)));
        });
        let mut h = Histogram::new(&VALUE_BOUNDS);
        group.bench_function(format!("record_{name}"), |b| {
            let batch = batches.next().unwrap();
            b.iter(|| {
                for &value in black_box(batch) {
                    h.record(value);
                }
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_histogram_fold);
criterion_main!(benches);
