//! Micro-benchmarks that split the drain plane's residue — what
//! `Supervisor::poll_shard` spends outside the detector kernel and the
//! value histogram — into its parts, on one 512-sample timed batch:
//!
//! * `pop_copy_*` — getting a batch out of the queue into the slices
//!   the kernel reads. `pairs` is the shape of a queue of
//!   `(value, at)` pairs: pop the pairs into a pair buffer under the
//!   lock, then copy the values out into a value buffer. `soa` is
//!   [`ObsQueue::drain_into`]: two slice copies per ring, straight into
//!   the value and timestamp buffers. Each iteration pushes the batch
//!   back first, so both rows include one batched push under the lock;
//! * `digest_fold_*` — the decision digest (one word-at-a-time FNV
//!   step per sample) and the inter-observation latency diffs, reading
//!   the timestamp as `pairs[i].1` or as `times[i]`;
//! * `poll_shard` — the whole drain of one batch through an SRAA shard
//!   (push, pop, kernel, folds, dispatch), next to `observe_batch` (the
//!   kernel alone, in the drain's 32-sample chunks) and `record_slice`
//!   (the value histogram alone). Dispatch — the chunk loop, the fired
//!   list, the counters and the bus and log checks — is what
//!   `poll_shard` leaves after `pop_copy_soa`, `digest_fold_soa`,
//!   `record_slice` and `observe_batch`.
//!
//! The input is a pool of 64 batches of exponential response times
//! (mean 5, the paper's healthy baseline) with increasing timestamps;
//! each iteration takes the next batch.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use rejuv_core::{DetectorKind, DetectorSpec};
use rejuv_monitor::{Histogram, ObsQueue, Supervisor, SupervisorConfig};
use std::collections::VecDeque;
use std::hint::black_box;
use std::sync::Mutex;

const SAMPLES: usize = 512;
/// Batches in the input pool.
const BATCHES: usize = 64;
/// The supervisor's detector chunk.
const DRAIN_CHUNK: usize = 32;
/// `observation_value`'s bounds in `rejuv-monitor`'s supervisor.
const VALUE_BOUNDS: [f64; 7] = [1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0];
/// `inter_observation_latency`'s bounds in `rejuv-monitor`'s supervisor.
const LATENCY_BOUNDS: [f64; 6] = [0.01, 0.05, 0.25, 1.0, 5.0, 25.0];
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Deterministic exponential response times (mean 5), each stamped
/// 0.01 s after the previous one; an LCG, no RNG dependency.
fn samples() -> Vec<(f64, f64)> {
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    (0..SAMPLES * BATCHES)
        .map(|i| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let u = ((state >> 11) as f64 + 0.5) / (1u64 << 53) as f64;
            (-5.0 * u.ln(), i as f64 * 0.01)
        })
        .collect()
}

/// The drain fold without the value histogram: digest step per sample,
/// latency diff per timed sample, timestamps read through `at`.
fn digest_fold(
    values: &[f64],
    at: impl Fn(usize) -> f64,
    digest: &mut u64,
    last_at: &mut Option<f64>,
    latency: &mut Histogram,
) {
    for (i, &value) in values.iter().enumerate() {
        *digest = ((*digest ^ value.to_bits()).wrapping_mul(FNV_PRIME)).wrapping_mul(FNV_PRIME);
        let at = at(i);
        if at.is_finite() {
            if let Some(prev) = *last_at {
                latency.record(at - prev);
            }
            *last_at = Some(at);
        }
    }
}

fn bench_drain_residue(c: &mut Criterion) {
    let pool = samples();
    let mut group = c.benchmark_group("drain_residue");
    group.sample_size(200);
    group.throughput(Throughput::Elements(SAMPLES as u64));

    // Both queue shapes drain the same batches.
    let pairs_queue = Mutex::new(VecDeque::with_capacity(SAMPLES));
    let soa_queue = ObsQueue::bounded(SAMPLES);
    let mut pairs = Vec::with_capacity(SAMPLES);
    let (mut values, mut times) = (Vec::with_capacity(SAMPLES), Vec::with_capacity(SAMPLES));
    for batch in pool.chunks_exact(SAMPLES) {
        pairs_queue.lock().unwrap().extend(batch.iter().copied());
        pairs.clear();
        pairs.extend(pairs_queue.lock().unwrap().drain(..));
        soa_queue.push_batch(batch.iter().copied());
        values.clear();
        times.clear();
        soa_queue.drain_into(&mut values, &mut times, SAMPLES);
        let rezipped: Vec<(f64, f64)> = values.iter().copied().zip(times.iter().copied()).collect();
        assert_eq!(pairs, rezipped, "both shapes drain the same samples");
    }

    let mut batches = pool.chunks_exact(SAMPLES).cycle();
    group.bench_function("pop_copy_pairs", |b| {
        b.iter(|| {
            let batch = batches.next().unwrap();
            pairs_queue.lock().unwrap().extend(batch.iter().copied());
            pairs.clear();
            pairs.extend(pairs_queue.lock().unwrap().drain(..SAMPLES));
            values.clear();
            values.extend(pairs.iter().map(|&(v, _)| v));
            black_box((&pairs, &values));
        });
    });
    group.bench_function("pop_copy_soa", |b| {
        b.iter(|| {
            let batch = batches.next().unwrap();
            soa_queue.push_batch(batch.iter().copied());
            values.clear();
            times.clear();
            soa_queue.drain_into(&mut values, &mut times, SAMPLES);
            black_box((&values, &times));
        });
    });

    let split: Vec<(Vec<f64>, Vec<f64>)> = pool
        .chunks_exact(SAMPLES)
        .map(|batch| batch.iter().copied().unzip())
        .collect();
    let (mut digest, mut last_at) = (0u64, None);
    let mut latency = Histogram::new(&LATENCY_BOUNDS);
    let mut paired = pool.chunks_exact(SAMPLES).zip(&split).cycle();
    group.bench_function("digest_fold_pairs", |b| {
        b.iter(|| {
            let (pairs, (values, _)) = paired.next().unwrap();
            digest_fold(
                values,
                |i| pairs[i].1,
                &mut digest,
                &mut last_at,
                &mut latency,
            );
        });
    });
    group.bench_function("digest_fold_soa", |b| {
        b.iter(|| {
            let (_, (values, times)) = paired.next().unwrap();
            digest_fold(
                values,
                |i| times[i],
                &mut digest,
                &mut last_at,
                &mut latency,
            );
        });
    });
    black_box((digest, &latency));

    let spec = DetectorSpec::new(DetectorKind::Sraa);
    let config = SupervisorConfig {
        queue_capacity: SAMPLES,
        drain_batch: SAMPLES,
        ..SupervisorConfig::default()
    };
    let mut supervisor = Supervisor::with_specs(config, &[spec]).unwrap();
    let sender = supervisor.sender(0);
    group.bench_function("poll_shard", |b| {
        b.iter(|| {
            let batch = batches.next().unwrap();
            sender.send_batch(batch.iter().copied());
            supervisor.poll_shard(0).unwrap()
        });
    });
    let mut detector = spec.build().unwrap();
    let mut fired = Vec::new();
    let mut seq = 0;
    let mut values_only = split.iter().map(|(values, _)| values).cycle();
    group.bench_function("observe_batch", |b| {
        b.iter(|| {
            fired.clear();
            for chunk in values_only.next().unwrap().chunks(DRAIN_CHUNK) {
                detector.observe_batch(chunk, &mut fired, seq);
                seq += chunk.len() as u64;
            }
        });
    });
    let mut histogram = Histogram::new(&VALUE_BOUNDS);
    group.bench_function("record_slice", |b| {
        b.iter(|| histogram.record_slice(values_only.next().unwrap()));
    });
    black_box(&histogram);
    group.finish();
}

criterion_group!(benches, bench_drain_residue);
criterion_main!(benches);
