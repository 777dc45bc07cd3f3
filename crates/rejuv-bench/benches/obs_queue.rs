//! Micro-benchmarks of the [`rejuv_monitor::ObsQueue`] ingestion hot
//! path.
//!
//! Three shapes cover the queue's life under a monitoring workload:
//!
//! * `ping_pong` — single-thread push-then-drain of one sample at a
//!   time: the per-observation latency floor (no batching to hide
//!   behind, both cursors bounce through the same core's cache).
//! * `batched_throughput` — `push_batch` / `drain_into` in
//!   supervisor-sized batches: the steady-state fast path, where one
//!   lock acquisition is amortised over the whole batch.
//! * `blocking_backpressure` — a producer thread pushing losslessly
//!   against a consumer thread draining a deliberately small queue:
//!   real cross-thread traffic through the spin-then-park slow path.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use rejuv_monitor::ObsQueue;
use std::hint::black_box;

/// Deterministic pseudo-random observation values (an LCG; no RNG
/// dependency).
fn values(len: usize) -> Vec<f64> {
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64 * 50.0
        })
        .collect()
}

fn bench_obs_queue(c: &mut Criterion) {
    const N: usize = 10_000;
    let vs = values(N);

    let mut group = c.benchmark_group("obs_queue");
    group.throughput(Throughput::Elements(N as u64));

    // One sample in, one sample out: per-observation cost with no
    // batching. The drain buffer is reused, so the numbers measure the
    // queue, not the allocator.
    group.bench_function("ping_pong", |b| {
        let q = ObsQueue::bounded(64);
        let (mut out, mut times) = (Vec::with_capacity(1), Vec::with_capacity(1));
        b.iter(|| {
            let mut acc = 0.0f64;
            for &v in &vs {
                q.push(v);
                out.clear();
                times.clear();
                q.drain_into(&mut out, &mut times, 1);
                acc += out[0];
            }
            black_box(acc)
        });
    });

    // Supervisor-shaped batches: 256-sample pushes against 512-sample
    // drains, the defaults' steady state.
    group.bench_function("batched_throughput", |b| {
        let q = ObsQueue::bounded(8_192);
        let (mut out, mut times) = (Vec::with_capacity(512), Vec::with_capacity(512));
        b.iter(|| {
            let mut drained = 0usize;
            for chunk in vs.chunks(256) {
                q.push_batch(chunk.iter().map(|&v| (v, f64::NAN)));
                out.clear();
                times.clear();
                drained += q.drain_into(&mut out, &mut times, 512);
            }
            out.clear();
            times.clear();
            drained += q.drain_into(&mut out, &mut times, usize::MAX);
            black_box(drained)
        });
    });

    // Cross-thread with a queue small enough that the producer keeps
    // hitting back-pressure: measures the whole loop including the
    // spin-then-park slow path, not just the happy case.
    group.bench_function("blocking_backpressure", |b| {
        b.iter(|| {
            let q = ObsQueue::bounded(128);
            let producer = q.clone();
            let vs = &vs;
            std::thread::scope(|scope| {
                scope.spawn(move || {
                    for chunk in vs.chunks(64) {
                        producer.push_batch_blocking(chunk.iter().map(|&v| (v, f64::NAN)));
                    }
                });
                let (mut out, mut times) = (Vec::with_capacity(64), Vec::with_capacity(64));
                let mut seen = 0usize;
                while seen < N {
                    out.clear();
                    times.clear();
                    let n = q.drain_into(&mut out, &mut times, 64);
                    seen += n;
                    if n == 0 {
                        std::thread::yield_now();
                    }
                }
                black_box(seen)
            })
        });
    });

    group.finish();
}

criterion_group!(benches, bench_obs_queue);
criterion_main!(benches);
