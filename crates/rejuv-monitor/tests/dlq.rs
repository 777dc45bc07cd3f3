//! Dead-letter-queue conformance: with `--dlq` semantics enabled, the
//! ingestion plane must never *silently* lose an observation, and a
//! saturated-then-replayed run must be indistinguishable — report,
//! digests, histograms — from a run that never saturated at all.
//!
//! Two suites:
//!
//! 1. A property test drives lossy concurrent producers against a
//!    {1, 2, 4} consumer pool and checks the closed
//!    accounting identity per shard:
//!    `accepted + dead_lettered + dlq_overflow == offered` (with the
//!    silent-drop counter pinned at zero).
//! 2. A determinism suite preloads a workload far past the queue
//!    capacity — so most of it dead-letters — lets the pool drain and
//!    replay it, and requires the final report to be byte-identical to
//!    an undropped serial reference, at every consumer count. Replay at drain-batch boundaries in capture order is what
//!    makes this hold.

use proptest::prelude::*;
use rejuv_core::{DetectorKind, DetectorSpec};
use rejuv_monitor::{ConsumerPool, Supervisor, SupervisorConfig};

const CONSUMER_COUNTS: [usize; 3] = [1, 2, 4];

fn supervisor(consumers: usize, queue_capacity: usize, shards: usize) -> Supervisor {
    let specs: Vec<DetectorSpec> = (0..shards)
        .map(|i| {
            DetectorSpec::new(if i % 2 == 0 {
                DetectorKind::Sraa
            } else {
                DetectorKind::Clta
            })
        })
        .collect();
    Supervisor::with_specs(
        SupervisorConfig {
            queue_capacity,
            drain_batch: 8,
            consumers,
            ..SupervisorConfig::default()
        },
        &specs,
    )
    .expect("default specs build")
}

/// Deterministic workload value, a pure function of `(shard, i)`.
fn value_at(shard: u64, i: u64) -> f64 {
    if (i + shard * 17).is_multiple_of(29) {
        55.0 + (i % 7) as f64
    } else {
        3.0 + ((i + shard * 5) % 9) as f64 * 0.5
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Lossy producers hammering a tiny queue from another thread while
    /// the pool drains: whatever interleaving the scheduler picks, every
    /// offered sample is accounted for — accepted into the queue,
    /// pending in the DLQ, or counted as DLQ overflow. Nothing is
    /// silently dropped, at any consumer count.
    #[test]
    fn accounting_identity_closes_under_lossy_concurrency(
        per_shard in 200u64..600,
        queue_capacity in 8usize..33,
        dlq_capacity in 4usize..65,
    ) {
        const SHARDS: usize = 2;
        for consumers in CONSUMER_COUNTS {
            let mut sup = supervisor(consumers, queue_capacity, SHARDS);
            sup.enable_dlq(dlq_capacity);
            let senders: Vec<_> = (0..SHARDS).map(|s| sup.sender(s)).collect();
            let pool = ConsumerPool::spawn(sup);
            std::thread::scope(|scope| {
                for (shard, sender) in senders.iter().enumerate() {
                    scope.spawn(move || {
                        for i in 0..per_shard {
                            // Lossy send: the return value is
                            // deliberately ignored — the identity
                            // below must hold regardless.
                            let _ = sender.send(value_at(shard as u64, i));
                        }
                    });
                }
            });
            let sup = pool
                .join()
                .expect("pool drains cleanly")
                .supervisor
                .expect("owned pool returns the supervisor");
            let report = sup.report();
            prop_assert_eq!(
                report.total_dropped, 0,
                "x{}: a DLQ means zero silent drops", consumers
            );
            for shard in 0..SHARDS {
                let stats = sup.dlq_stats(shard).expect("DLQ attached");
                prop_assert_eq!(
                    report.shards[shard].accepted
                        + stats.pending as u64
                        + stats.overflow,
                    per_shard,
                    "x{} shard {}: accounting identity violated ({:?})",
                    consumers, shard, stats
                );
                prop_assert_eq!(
                    stats.pending as u64,
                    stats.captured - stats.replayed,
                    "x{} shard {}: dead-lettered != captured - replayed",
                    consumers, shard
                );
            }
        }
    }
}

/// Serial ground truth: the same workload through a queue big enough to
/// never saturate, drained by the caller's poll loop.
fn undropped_reference(shards: usize, per_shard: u64) -> String {
    let mut sup = supervisor(1, (per_shard as usize * shards).max(64), shards);
    for shard in 0..shards {
        let sender = sup.sender(shard);
        for i in 0..per_shard {
            assert!(
                sender.send(value_at(shard as u64, i)),
                "must never saturate"
            );
        }
    }
    while sup.poll_all().expect("no log attached") > 0 {}
    serde_json::to_string_pretty(&sup.report()).expect("render report")
}

/// A saturated run drains + replays to the same report bytes as the
/// undropped reference: preload 100x the queue capacity (so ~99% of the
/// workload dead-letters), then let the pool replay it at drain-batch
/// boundaries in capture order.
#[test]
fn replayed_saturated_runs_report_identically_to_undropped_runs() {
    const SHARDS: usize = 2;
    const PER_SHARD: u64 = 800;
    const QUEUE_CAPACITY: usize = 8;
    let reference = undropped_reference(SHARDS, PER_SHARD);
    for consumers in CONSUMER_COUNTS {
        let mut sup = supervisor(consumers, QUEUE_CAPACITY, SHARDS);
        sup.enable_dlq(PER_SHARD as usize);
        // Preload lossily *before* the pool spawns: the queue holds
        // 8, the dead-letter queue the other 792 — guaranteed
        // saturation, deterministic capture order.
        for shard in 0..SHARDS {
            let sender = sup.sender(shard);
            for i in 0..PER_SHARD {
                assert!(
                    sender.send(value_at(shard as u64, i)),
                    "DLQ absorbs the overflow"
                );
            }
        }
        assert!(
            sup.dlq_totals().pending > 0,
            "x{consumers}: the preload must actually saturate"
        );
        let pool = ConsumerPool::spawn(sup);
        let sup = pool
            .join()
            .expect("pool drains cleanly")
            .supervisor
            .expect("owned pool returns the supervisor");
        let totals = sup.dlq_totals();
        assert_eq!(totals.overflow, 0, "x{consumers}");
        assert_eq!(totals.pending, 0, "x{consumers}: replay drained");
        assert_eq!(totals.captured, totals.replayed, "x{consumers}");
        assert!(totals.captured > 0, "x{consumers}");
        let report = serde_json::to_string_pretty(&sup.report()).expect("render report");
        assert_eq!(
            report, reference,
            "x{consumers}: a replayed run must be \
             indistinguishable from one that never saturated"
        );
    }
}
