//! Model conformance for [`ObsQueue`]: the queue must behave exactly
//! like a bounded `VecDeque` of the same logical capacity.
//!
//! Property tests drive the queue and the reference model through the
//! same arbitrary sequence of push / batch-push / blocking-push / drain
//! operations and require the same accepted prefixes, drained
//! `(value, at)` sequences, accept/drop/wait counts and lengths at
//! every step. Threaded tests then cover what single-threaded
//! determinism cannot: loss-free shutdown drains through a parked
//! consumer pool and per-shard supervisor digests equal to a serial
//! reference under real producer/consumer concurrency.

use proptest::prelude::*;
use rejuv_core::{DetectorKind, DetectorSpec};
use rejuv_monitor::{ConsumerPool, ObsQueue, Supervisor, SupervisorConfig, WorkNotifier, UNTIMED};
use std::collections::VecDeque;
use std::sync::Arc;

/// One step of the deterministic interleaving.
#[derive(Debug, Clone)]
enum Op {
    /// A one-sample timed `push_batch` — may drop when full.
    Push(f64, f64),
    /// `push_batch` — accepts a prefix, drops the rest.
    PushBatch(Vec<f64>),
    /// A one-sample `push_batch_blocking`, with the single-threaded convention that a
    /// full queue is first relieved by draining one sample (applied
    /// identically to queue and model, so blocking never deadlocks the
    /// test and the op still exercises the blocking entry point).
    PushBlocking(f64, f64),
    /// `drain_into` with the given batch limit.
    Drain(usize),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0.0f64..100.0, 0.0f64..50.0).prop_map(|(v, at)| Op::Push(v, at)),
        proptest::collection::vec(0.0f64..100.0, 0..12).prop_map(Op::PushBatch),
        (0.0f64..100.0, 0.0f64..50.0).prop_map(|(v, at)| Op::PushBlocking(v, at)),
        (1usize..8).prop_map(Op::Drain),
    ]
}

/// The reference: a bounded FIFO with the queue's accounting.
struct Model {
    buf: VecDeque<(f64, f64)>,
    capacity: usize,
    accepted: u64,
    dropped: u64,
}

impl Model {
    fn new(capacity: usize) -> Self {
        Model {
            buf: VecDeque::new(),
            capacity,
            accepted: 0,
            dropped: 0,
        }
    }

    /// Accepts the leading samples that fit; counts the rest as drops.
    fn push_batch(&mut self, samples: &[(f64, f64)]) -> usize {
        let take = samples.len().min(self.capacity - self.buf.len());
        self.buf.extend(&samples[..take]);
        self.accepted += take as u64;
        self.dropped += (samples.len() - take) as u64;
        take
    }

    fn drain_into(&mut self, out: &mut Vec<(f64, f64)>, max: usize) {
        let take = self.buf.len().min(max);
        out.extend(self.buf.drain(..take));
    }
}

/// [`ObsQueue::drain_into`], re-zipped into `(value, at)` pairs
/// appended to `out`; returns how many were drained.
fn drain(q: &ObsQueue, out: &mut Vec<(f64, f64)>, max: usize) -> usize {
    let (mut values, mut times) = (Vec::new(), Vec::new());
    let n = q.drain_into(&mut values, &mut times, max);
    assert_eq!(
        (values.len(), times.len()),
        (n, n),
        "parallel drain buffers"
    );
    out.extend(values.into_iter().zip(times));
    n
}

/// Applies one op to the queue and the model, returning how many
/// samples each accepted.
fn apply(
    q: &ObsQueue,
    model: &mut Model,
    op: &Op,
    out_q: &mut Vec<(f64, f64)>,
    out_m: &mut Vec<(f64, f64)>,
) -> (usize, usize) {
    match op {
        Op::Push(v, at) => (q.push_batch([(*v, *at)]), model.push_batch(&[(*v, *at)])),
        Op::PushBatch(values) => {
            let samples: Vec<(f64, f64)> = values.iter().map(|&v| (v, v * 0.5)).collect();
            (
                q.push_batch(samples.iter().copied()),
                model.push_batch(&samples),
            )
        }
        Op::PushBlocking(v, at) => {
            if q.len() == q.capacity() {
                drain(q, out_q, 1);
            }
            if model.buf.len() == model.capacity {
                model.drain_into(out_m, 1);
            }
            (
                q.push_batch_blocking([(*v, *at)]),
                model.push_batch(&[(*v, *at)]),
            )
        }
        Op::Drain(max) => {
            drain(q, out_q, *max);
            model.drain_into(out_m, *max);
            (0, 0)
        }
    }
}

/// Bitwise view, so NaN timestamps compare equal too.
fn bits(s: &[(f64, f64)]) -> Vec<(u64, u64)> {
    s.iter()
        .map(|&(v, at)| (v.to_bits(), at.to_bits()))
        .collect()
}

proptest! {
    /// Any single-threaded interleaving of pushes, batch pushes,
    /// blocking pushes and drains leaves queue and model in agreement:
    /// same accepted prefix per op, same occupancy after every step,
    /// same drained samples (values *and* timestamps, bit-for-bit) and
    /// same accept/drop/wait accounting.
    #[test]
    fn queue_matches_model_on_arbitrary_interleavings(
        capacity in 1usize..10,
        ops in proptest::collection::vec(op_strategy(), 0..60),
    ) {
        let q = ObsQueue::bounded(capacity);
        let mut model = Model::new(capacity);
        let (mut out_q, mut out_m) = (Vec::new(), Vec::new());
        for op in &ops {
            let (took_q, took_m) = apply(&q, &mut model, op, &mut out_q, &mut out_m);
            prop_assert_eq!(took_q, took_m, "accepted prefix of {:?}", op);
            prop_assert_eq!(q.len(), model.buf.len());
        }
        // Final drain: a shutdown must lose nothing.
        drain(&q, &mut out_q, usize::MAX);
        model.drain_into(&mut out_m, usize::MAX);
        prop_assert!(q.is_empty());
        prop_assert_eq!(bits(&out_q), bits(&out_m));
        prop_assert_eq!(q.accepted(), model.accepted);
        prop_assert_eq!(q.dropped(), model.dropped);
        prop_assert_eq!(q.waits(), 0, "a queue relieved before blocking never parks");
        prop_assert_eq!(
            out_q.len() as u64,
            q.accepted(),
            "every accepted sample was drained exactly once"
        );
    }

    /// `push_batch` on a partly filled queue accepts exactly the
    /// model's prefix, counts exactly the model's drops, and drains
    /// prefill-then-batch in order.
    #[test]
    fn batch_push_matches_model(
        capacity in 1usize..10,
        prefill in 0usize..10,
        values in proptest::collection::vec(0.0f64..100.0, 0..20),
    ) {
        let q = ObsQueue::bounded(capacity);
        let mut model = Model::new(capacity);
        for i in 0..prefill.min(capacity) {
            q.push_batch([(i as f64, UNTIMED)]);
            model.push_batch(&[(i as f64, f64::NAN)]);
        }
        let samples: Vec<(f64, f64)> = values.iter().map(|&v| (v, v + 0.25)).collect();
        prop_assert_eq!(q.push_batch(samples.iter().copied()), model.push_batch(&samples));
        prop_assert_eq!(q.accepted(), model.accepted);
        prop_assert_eq!(q.dropped(), model.dropped);
        let (mut out_q, mut out_m) = (Vec::new(), Vec::new());
        drain(&q, &mut out_q, usize::MAX);
        model.drain_into(&mut out_m, usize::MAX);
        prop_assert_eq!(bits(&out_q), bits(&out_m));
    }
}

/// SRAA with n = 2, K = 5, D = 3 at the SLA baseline, on every shard.
fn specs() -> [DetectorSpec; SHARDS] {
    [DetectorSpec::new(DetectorKind::Sraa); SHARDS]
}

/// The deterministic per-shard workload of the threaded tests.
fn synthetic(shard: u64, i: u64) -> f64 {
    3.0 + ((i * 7 + shard * 13) % 23) as f64 * 0.6 + if i.is_multiple_of(311) { 40.0 } else { 0.0 }
}

const SHARDS: usize = 3;
const PER_SHARD: u64 = 20_000;

/// Under real concurrency — a parked consumer pool, batched blocking
/// producers, shutdown drain — every sample is processed and each
/// shard lands on the decision digest of a serial, single-threaded
/// feed of the same sequence.
#[test]
fn threaded_stress_is_loss_free_and_matches_serial_digests() {
    let config = SupervisorConfig {
        queue_capacity: 64,
        drain_batch: 16,
        ..SupervisorConfig::default()
    };
    let supervisor = Supervisor::with_specs(config, &specs()).unwrap();
    let senders: Vec<_> = (0..SHARDS).map(|s| supervisor.sender(s)).collect();
    let pool = ConsumerPool::spawn(supervisor);
    std::thread::scope(|scope| {
        for (shard, sender) in senders.iter().enumerate() {
            scope.spawn(move || {
                let mut i = 0u64;
                let mut batch = Vec::with_capacity(29);
                while i < PER_SHARD {
                    let n = 29.min(PER_SHARD - i);
                    batch.clear();
                    batch.extend((i..i + n).map(|k| (synthetic(shard as u64, k), f64::NAN)));
                    sender.send_batch_blocking(batch.iter().copied());
                    i += n;
                }
            });
        }
    });
    let report = pool
        .join()
        .expect("no log attached")
        .supervisor
        .expect("owned pool returns the supervisor")
        .report();
    assert_eq!(
        report.total_processed,
        SHARDS as u64 * PER_SHARD,
        "shutdown drain is loss-free"
    );
    assert_eq!(report.total_dropped, 0, "blocking producers never drop");

    let mut serial = Supervisor::with_specs(config, &specs()).unwrap();
    for shard in 0..SHARDS {
        for i in 0..PER_SHARD {
            serial
                .process_sync(shard, synthetic(shard as u64, i), UNTIMED)
                .expect("no log attached");
        }
    }
    let digests = |r: &rejuv_monitor::MonitorReport| -> Vec<String> {
        r.shards.iter().map(|s| s.digest.clone()).collect()
    };
    assert_eq!(digests(&report), digests(&serial.report()));
}

/// A consumer blocked on the notifier still sees a loss-free shutdown:
/// samples pushed before `shutdown()` are drained, in FIFO order.
#[test]
fn shutdown_drain_is_loss_free() {
    let queue = ObsQueue::bounded(32);
    let notifier = Arc::new(WorkNotifier::new());
    queue.attach_notifier(Arc::clone(&notifier));
    let consumer_q = queue.clone();
    let consumer_n = Arc::clone(&notifier);
    let consumer = std::thread::spawn(move || {
        let mut out = Vec::new();
        loop {
            while drain(&consumer_q, &mut out, 8) > 0 {}
            if consumer_n.wait() == rejuv_monitor::Wakeup::Shutdown {
                break;
            }
        }
        // Final drain after the shutdown signal.
        while drain(&consumer_q, &mut out, 8) > 0 {}
        out
    });
    for i in 0..500u64 {
        queue.push_batch_blocking([(i as f64, UNTIMED)]);
    }
    notifier.shutdown();
    let out = consumer.join().unwrap();
    assert_eq!(out.len(), 500, "shutdown lost samples");
    assert!(
        out.iter().enumerate().all(|(i, &(v, _))| v == i as f64),
        "FIFO order violated"
    );
}
