//! Drain-plane microprobe: the drain loop alone, nothing else on the
//! core.
//!
//! Preloads one shard's queue with a synthetic load stream and times
//! *only* the drain loop (`poll_shard` until empty), so the measured
//! quantity is the per-observation cost of the drain plane itself —
//! queue pop, detector step, decision digest, histograms — with no
//! producer thread sharing the core, unlike `bench_monitor`'s threaded
//! cells. The best of several rounds wins, which keeps slow machine
//! drift out of the figure.
//!
//! The input is branch-predictable: a slowly drifting period-7 ramp, so
//! the same few histogram buckets recur in the same order and the
//! predictor learns every bucket-search exit. That is why this probe
//! never showed the cost of a first-match bucket search on the healthy
//! exponential response times the paper's baseline produces
//! (`benches/histogram_fold.rs` times both inputs side by side).
//!
//! Run with: `cargo run --release -p rejuv-bench --example drain_probe`

use rejuv_core::{DetectorKind, DetectorSpec};
use rejuv_monitor::{Supervisor, SupervisorConfig};
use std::time::Instant;

const N: usize = 1_000_000;
const ROUNDS: usize = 11;

/// Mostly-healthy load with slow drift and sparse spikes — enough
/// texture to exercise every histogram bucket and the occasional
/// detector chain walk, cheap enough that generation stays out of the
/// timed region (the queue is preloaded).
fn synthetic(shard: u64, i: u64) -> f64 {
    let base = 3.0 + (i % 7) as f64 * 0.5;
    let drift = (i / 10_000) as f64 * 0.05;
    let spike = if (i + shard * 13).is_multiple_of(997) {
        45.0
    } else {
        0.0
    };
    base + drift + spike
}

/// One preload-then-drain pass; returns the drain wall time in seconds.
fn timed_drain() -> f64 {
    let config = SupervisorConfig {
        queue_capacity: N,
        drain_batch: 512,
        snapshot_every: None,
        consumers: 1,
    };
    // SRAA with n = 2, K = 5, D = 3 at the SLA baseline.
    let sraa = DetectorSpec::new(DetectorKind::Sraa);
    let mut sup = Supervisor::with_specs(config, &[sraa]).unwrap();
    let sender = sup.sender(0);
    let mut buf = Vec::with_capacity(256);
    let mut i = 0u64;
    while (i as usize) < N {
        let n = 256.min(N as u64 - i);
        buf.clear();
        buf.extend((i..i + n).map(|k| (synthetic(0, k), f64::NAN)));
        sender.send_batch_blocking(buf.iter().copied());
        i += n;
    }
    let start = Instant::now();
    while sup.poll_shard(0).unwrap() > 0 {}
    start.elapsed().as_secs_f64()
}

fn main() {
    let best = (0..ROUNDS).map(|_| timed_drain()).fold(f64::MAX, f64::min);
    println!("drain: best {:.1} M obs/s", N as f64 / best / 1e6);
}
