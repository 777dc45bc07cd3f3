//! The sharded detector supervisor.
//!
//! A [`Supervisor`] owns N independent monitored streams (*shards* — one
//! per cluster host, service instance, …). Each shard couples a bounded
//! ingestion queue ([`ObsQueue`]) to a boxed
//! [`RejuvenationDetector`]: producers push raw observations through a
//! [`ShardSender`] (possibly from another thread), the supervisor drains
//! them in batches through the detector and accounts for every sample —
//! processed, or dropped to back-pressure. All decisions, counters and
//! the per-shard FNV-1a decision digest are pure functions of each
//! shard's observation sequence, which is what makes a recorded run
//! exactly replayable.
//!
//! Observations may carry simulation timestamps ([`Supervisor::ingest_at`],
//! [`ShardSender::send_at`]): timed samples feed a per-run
//! `inter_observation_latency` histogram and are recorded as
//! [`MonitorEvent::TimedBatch`] so replay reproduces the histogram
//! bit-for-bit. Timestamps never enter the decision digest — a timed and
//! an untimed run over the same values agree on every decision digest.
//!
//! A supervisor can also stream *checkpoints*: a [`CheckpointSink`]
//! receives a full [`SupervisorSnapshot`] every `checkpoint_every`
//! processed observations ([`Supervisor::set_checkpoint`]) or every
//! `secs` seconds of an injectable [`CheckpointClock`]
//! ([`Supervisor::set_checkpoint_timer`]); the event log, if any, is
//! flushed first so the persisted log always covers the checkpoint.
//! [`Supervisor::restore`] rebuilds from a snapshot, rejecting mismatched
//! shard counts, detector kinds or specs, histogram shapes and snapshot
//! versions with a typed [`RestoreError`] instead of silently
//! misapplying state.
//!
//! Every shard is built from a [`DetectorSpec`]
//! ([`Supervisor::with_specs`], see [`crate::fleet::FleetConfig`]) and
//! keeps it: checkpoints carry it, restore rejects drift from it, and
//! hot reload diffs against it. Fleets need not be homogeneous: each
//! shard's digest is seeded with its detector kind name, and reports
//! carry a per-kind [`DetectorKindReport`] rollup.

use crate::assurance::failpoints::fp;
use crate::bus::{EventBus, OpEvent};
use crate::dlq::{DeadLetterQueue, DlqStats};
use crate::event::{encode_batch, encode_line, EventLog, MonitorEvent};
use crate::metrics::{Histogram, HistogramProblem, MetricsReport};
use crate::queue::{ObsQueue, UNTIMED};
use rejuv_core::{ConfigError, Decision, DetectorSnapshot, DetectorSpec, RejuvenationDetector};
use rejuv_sim::{Observation, ObservationSink};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;
use std::io;
use std::sync::Arc;

/// Histogram bounds for observation values (seconds; the paper's SLA
/// puts µX at 5 s).
pub(crate) const VALUE_BOUNDS: [f64; 7] = [1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0];
/// Histogram bounds for drain batch sizes.
pub(crate) const BATCH_BOUNDS: [f64; 5] = [1.0, 8.0, 64.0, 512.0, 4096.0];
/// Histogram bounds for inter-observation latency, seconds of
/// simulation time between consecutive timed samples of one shard.
pub(crate) const LATENCY_BOUNDS: [f64; 6] = [0.01, 0.05, 0.25, 1.0, 5.0, 25.0];

/// Version tag of [`SupervisorSnapshot`]'s serialised format; bumped on
/// incompatible layout changes so a stale checkpoint file is rejected
/// with a typed error instead of misapplied. Version 2 added the
/// per-shard [`DetectorSpec`] carried for heterogeneous fleets;
/// version 3 moved histogram and counter accumulation into each shard
/// ([`ShardSnapshot`] now carries the per-shard histograms), so a
/// restored run resumes the exact per-shard floating-point state no
/// matter how many consumer threads drained it. Version 4
/// ([`SNAPSHOT_VERSION_DLQ`]) adds the per-shard dead-letter queue
/// contents and counters; it is written only when a DLQ is attached
/// ([`Supervisor::enable_dlq`]), so default runs keep emitting v3
/// byte-identically.
pub const SNAPSHOT_VERSION: u32 = 3;

/// Version tag written when any shard has a dead-letter queue attached:
/// the snapshot additionally carries [`SupervisorSnapshot::dlq`], so no
/// accepted-or-dead-lettered sample is lost across a crash.
pub const SNAPSHOT_VERSION_DLQ: u32 = 4;

/// Tuning knobs of a [`Supervisor`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SupervisorConfig {
    /// Capacity of each shard's ingestion queue; pushes beyond it are
    /// dropped and counted.
    pub queue_capacity: usize,
    /// Maximum observations processed per shard per poll.
    pub drain_batch: usize,
    /// Checkpoint cadence: emit a [`MonitorEvent::Snapshot`] every this
    /// many processed observations per shard (`None` disables).
    pub snapshot_every: Option<u64>,
    /// How many consumer threads a [`crate::ConsumerPool`] spawns to
    /// drain the shards. A pure execution-strategy knob: whole-shard
    /// ownership keeps per-shard FIFO order, so digests, traces and
    /// checkpoints are bitwise identical across consumer counts.
    /// Default 1.
    pub consumers: usize,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            queue_capacity: 8_192,
            drain_batch: 512,
            snapshot_every: None,
            consumers: 1,
        }
    }
}

/// Receives full supervisor checkpoints (see
/// [`Supervisor::set_checkpoint`]); typically persists them atomically
/// via [`crate::checkpoint::save_snapshot`].
pub type CheckpointSink = Box<dyn FnMut(&SupervisorSnapshot) -> io::Result<()> + Send>;

/// A monotonic seconds source for timer-based checkpoints (see
/// [`Supervisor::set_checkpoint_timer`]). Injected rather than read
/// from `std::time` so the cadence is unit-testable with synthetic
/// clock ticks.
pub type CheckpointClock = Box<dyn FnMut() -> f64 + Send>;

/// When the configured checkpoint stream emits.
enum CheckpointCadence {
    /// Every `n` *total* processed observations (across shards).
    Every(u64),
    /// Whenever at least `secs` elapsed on `clock` since the last
    /// checkpoint, evaluated on drain-batch boundaries.
    Timer {
        secs: f64,
        clock: CheckpointClock,
        last_tick: f64,
    },
}

/// The configured checkpoint stream. Crate-visible so the consumer
/// pool can drive the same cadence/emit protocol without owning a
/// `&mut Supervisor`.
pub(crate) struct CheckpointStream {
    cadence: CheckpointCadence,
    /// Total processed observations at the last emitted checkpoint.
    last_total: u64,
    sink: CheckpointSink,
}

impl CheckpointStream {
    /// Whether a checkpoint is due at `total` processed observations.
    /// Timer cadences read their clock exactly once per evaluation.
    pub(crate) fn due(&mut self, total: u64) -> bool {
        match &mut self.cadence {
            CheckpointCadence::Every(every) => total / *every > self.last_total / *every,
            CheckpointCadence::Timer {
                secs,
                clock,
                last_tick,
            } => clock() - *last_tick >= *secs,
        }
    }

    /// Hands `snapshot` to the sink and restarts the cadence window at
    /// `total` (timer cadences re-read their clock).
    pub(crate) fn emit(&mut self, snapshot: &SupervisorSnapshot, total: u64) -> io::Result<()> {
        (self.sink)(snapshot)?;
        self.last_total = total;
        if let CheckpointCadence::Timer {
            clock, last_tick, ..
        } = &mut self.cadence
        {
            *last_tick = clock();
        }
        Ok(())
    }
}

/// One monitored stream: a bounded ingestion queue, a boxed detector,
/// and *all* run accounting for that stream — counters, digest, and the
/// three per-shard histograms. Keeping the histograms per shard (rather
/// than in one shared instrument) is what makes reports and checkpoints
/// byte-identical no matter how many consumer threads drained the fleet
/// or in what interleaving: each shard's floating-point accumulation
/// order is fixed by its own observation sequence, and the supervisor
/// folds shards in index order when it builds the metrics report.
/// Crate-visible so the consumer pool can own shards directly.
pub(crate) struct Shard {
    pub(crate) detector: Box<dyn RejuvenationDetector>,
    /// The declarative spec `detector` was built from (or last rebuilt
    /// from by [`Supervisor::reload_specs`]).
    pub(crate) spec: DetectorSpec,
    pub(crate) queue: ObsQueue,
    /// Observations fed through the detector so far.
    pub(crate) processed: u64,
    /// Rejuvenate decisions returned so far.
    pub(crate) rejuvenations: u64,
    /// FNV-1a over every (value bits, decision) pair, in order.
    pub(crate) digest: u64,
    /// Timestamp of the last *timed* observation, for the
    /// inter-observation latency histogram (`None` before the first).
    pub(crate) last_at: Option<f64>,
    pub(crate) last_decision: Decision,
    /// Per-shard `observation_value` accumulation.
    pub(crate) value_hist: Histogram,
    /// Per-shard `drain_batch_size` accumulation.
    pub(crate) batch_hist: Histogram,
    /// Per-shard `inter_observation_latency` accumulation.
    pub(crate) latency_hist: Histogram,
    /// Detector snapshot events emitted for this shard.
    pub(crate) snapshots: u64,
    /// Synchronous feeds ([`Supervisor::process_sync`]) dropped to
    /// back-pressure.
    pub(crate) sync_drops: u64,
    /// Operational event bus, if one was attached via
    /// [`Supervisor::set_bus`]; the drain path publishes
    /// [`OpEvent::RejuvenationFired`] through it. Purely observational —
    /// never feeds back into decisions or artifacts.
    pub(crate) bus: Option<Arc<EventBus>>,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(mut digest: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        digest ^= u64::from(b);
        digest = digest.wrapping_mul(FNV_PRIME);
    }
    digest
}

/// One digest step of the determinism contract: folds a sample's
/// `(value bits, decision)` pair into the running FNV-1a-style digest
/// *word-at-a-time* — one xor-multiply for the value bits taken as one
/// 64-bit word, one for the decision. Two serial multiplies per sample
/// instead of nine: the digest is an inherently serial dependency
/// chain, and at nine multiplies it *was* the drain plane's critical
/// path, capping both drain kernels well below what the detector and
/// histogram work costs.
#[inline]
fn fold_sample(digest: u64, value_bits: u64, fired: bool) -> u64 {
    let digest = (digest ^ value_bits).wrapping_mul(FNV_PRIME);
    (digest ^ fired as u64).wrapping_mul(FNV_PRIME)
}

impl Shard {
    /// This shard's slice of a [`SupervisorSnapshot`].
    pub(crate) fn snapshot_view(&self) -> ShardSnapshot {
        ShardSnapshot {
            detector: self.detector_state(),
            spec: Some(self.spec),
            processed: self.processed,
            rejuvenations: self.rejuvenations,
            digest: self.digest,
            accepted: self.queue.accepted(),
            dropped: self.queue.dropped(),
            producer_waits: self.queue.waits(),
            last_at: self.last_at,
            value_hist: self.value_hist.clone(),
            batch_hist: self.batch_hist.clone(),
            latency_hist: self.latency_hist.clone(),
            snapshots: self.snapshots,
            sync_drops: self.sync_drops,
        }
    }

    /// The detector's complete state. Every spec-built detector
    /// snapshots, and [`Supervisor::with_specs_wrapped`] checks that a
    /// wrapped one still does.
    fn detector_state(&self) -> DetectorSnapshot {
        self.detector
            .snapshot()
            .expect("spec-built detectors always snapshot")
    }

    /// This shard's slice of a [`MonitorReport`].
    pub(crate) fn report_view(&self, index: usize) -> ShardReport {
        ShardReport {
            shard: index as u32,
            detector: self.detector.name().to_owned(),
            processed: self.processed,
            accepted: self.queue.accepted(),
            dropped: self.queue.dropped(),
            producer_waits: self.queue.waits(),
            rejuvenations: self.rejuvenations,
            detector_triggers: self.detector.rejuvenation_count(),
            digest: format!("{:016x}", self.digest),
        }
    }
}

/// Reusable buffers for one drain path (the supervisor owns one, each
/// pool worker owns one): the drained values, which the detector's
/// batch kernel reads as a slice, their timestamps, and the fired
/// sequence numbers the kernel returns. One allocation set per drain
/// plane, reused across every drained batch.
#[derive(Default)]
pub(crate) struct DrainScratch {
    values: Vec<f64>,
    times: Vec<f64>,
    fired: Vec<u64>,
}

impl DrainScratch {
    pub(crate) fn with_capacity(drain_batch: usize) -> Self {
        DrainScratch {
            values: Vec::with_capacity(drain_batch),
            times: Vec::with_capacity(drain_batch),
            fired: Vec::new(),
        }
    }
}

/// Drains up to `config.drain_batch` pending observations of one shard
/// through its detector, accumulating all metric state *inside the
/// shard* and appending the encoded log lines (batch, rejuvenations,
/// detector snapshot — in that order) to `log` when one is given.
/// Shared verbatim by [`Supervisor::poll_shard`] (which writes the
/// lines through immediately) and the consumer pool's workers (which
/// buffer them per shard and flush shard-major at checkpoint/join), so
/// both paths process, count and hash identically by construction.
/// Returns how many observations were processed.
///
/// The hot path is the **batch kernel**: one virtual
/// [`RejuvenationDetector::observe_batch`] call per drained batch, the
/// decision digest folded from the returned fire list inside the value
/// histogram's bulk pass (`Histogram::record_slice_with`, branch-free
/// bucket index), which also carries the timestamp diffs into the
/// latency histogram. A detector without a batch kernel
/// inherits the default per-sample `observe_batch` loop and yields the
/// same shard state bit for bit (`tests/batch_scalar_equivalence.rs`).
///
/// # Errors
///
/// Encoding failures of a rejuvenation or snapshot line; the shard
/// state has already advanced past the drained batch.
pub(crate) fn drain_shard(
    index: usize,
    shard: &mut Shard,
    config: &SupervisorConfig,
    scratch: &mut DrainScratch,
    mut log: Option<&mut Vec<u8>>,
) -> io::Result<usize> {
    let DrainScratch {
        values: all_values,
        times,
        fired,
    } = scratch;
    all_values.clear();
    times.clear();
    // Top up the main queue from the dead-letter queue (capture order)
    // before popping: the logical stream is `main queue ++ DLQ`, and
    // refilling first keeps every drained batch identical to the batch
    // an undropped run would have drained. No-op without a DLQ.
    shard.queue.replay_dead_letters();
    let n = shard
        .queue
        .drain_into(all_values, times, config.drain_batch);
    if n == 0 {
        return Ok(0);
    }
    let seq_start = shard.processed;
    if let Some(out) = log.as_deref_mut() {
        let timed = times.iter().any(|at| at.is_finite());
        encode_batch(
            index as u32,
            seq_start,
            all_values,
            timed.then_some(&times[..]),
            out,
        );
    }
    fired.clear();
    // Batch kernel: one virtual call per drained sub-chunk instead
    // of one per sample. The detector contract (`observe_batch` ≡
    // per-sample `observe`, bitwise) lets every per-sample artifact
    // be reconstructed from the fire list: the digest folds (value
    // bits, decision byte) pairs by walking the ascending fired
    // sequence numbers, and the counters/last-decision derive from
    // its length and tail.
    // The batch is processed in small sub-chunks, each one kernel
    // call followed by one fused digest/histogram/latency pass:
    //
    // * the FNV digest is a serial multiply-xor dependency chain,
    //   so the (independent) bucket searches and timestamp diffs
    //   run *inside* the same loop, filling the multiplier's
    //   latency bubbles — a separate digest loop measurably costs
    //   the batch path its whole win;
    // * chunking keeps each kernel call and each fold short enough
    //   that the out-of-order window can overlap chunk `k`'s fold
    //   (latency-bound) with chunk `k+1`'s detector work
    //   (throughput-bound), instead of serialising two long loops.
    //
    // Byte-for-byte the same digest, histograms and fire list as a
    // per-sample `observe` loop: same fold order, same accumulation
    // order, same subtraction per timed pair.
    const DRAIN_CHUNK: usize = 32;
    let mut digest = shard.digest;
    let mut next_fired = 0;
    let mut last_at = shard.last_at;
    let latency_hist = &mut shard.latency_hist;
    let value_hist = &mut shard.value_hist;
    let times = &times[..];
    let mut start = 0;
    while start < n {
        let end = (start + DRAIN_CHUNK).min(n);
        let values = &all_values[start..end];
        shard
            .detector
            .observe_batch(values, fired, seq_start + start as u64);
        // Each chunk's kernel appends only sequence numbers inside
        // that chunk, and each chunk's fold consumes exactly those
        // — so `next_fired == fired.len()` on entry means this
        // chunk fired nothing, and the fold can drop the per-sample
        // fired compare and sequence arithmetic. Rejuvenations are
        // rare, so this is the overwhelmingly common shape. Measured
        // with the branch-free bucket index (perfbench `ingest_inline`,
        // 2-core Xeon, alternating runs): keeping this specialisation
        // gave 82–85 M obs/s against 74–79 M with only the fired
        // closure, and 32.5–36.1 M against 30.2–32.2 M in a second
        // measurement on the box under heavier load.
        if next_fired == fired.len() {
            value_hist.record_slice_with(values, |i, value| {
                digest = fold_sample(digest, value.to_bits(), false);
                // Untimed producers (`at = NaN`) cost one
                // predictable branch here.
                let at = times[start + i];
                if at.is_finite() {
                    if let Some(prev) = last_at {
                        latency_hist.record(at - prev);
                    }
                    last_at = Some(at);
                }
            });
        } else {
            let fired_slice = &fired[..];
            value_hist.record_slice_with(values, |i, value| {
                let seq = seq_start + (start + i) as u64;
                let fired_here = next_fired < fired_slice.len() && fired_slice[next_fired] == seq;
                next_fired += fired_here as usize;
                digest = fold_sample(digest, value.to_bits(), fired_here);
                let at = times[start + i];
                if at.is_finite() {
                    if let Some(prev) = last_at {
                        latency_hist.record(at - prev);
                    }
                    last_at = Some(at);
                }
            });
        }
        start = end;
    }
    shard.digest = digest;
    shard.last_at = last_at;
    shard.processed += n as u64;
    shard.rejuvenations += fired.len() as u64;
    shard.last_decision = if fired.last() == Some(&(shard.processed - 1)) {
        Decision::Rejuvenate
    } else {
        Decision::Continue
    };
    shard.batch_hist.record(n as f64);
    fp!("supervisor.drain-applied");
    if let Some(bus) = shard.bus.as_ref() {
        for &seq in fired.iter() {
            bus.publish(OpEvent::RejuvenationFired {
                shard: index as u32,
                seq,
            });
        }
    }
    if let Some(out) = log.as_deref_mut() {
        for &seq in fired.iter() {
            let event = MonitorEvent::Rejuvenated {
                shard: index as u32,
                seq,
            };
            encode_line(&event, out)?;
        }
    }
    if let Some(every) = config.snapshot_every {
        let crossed = (shard.processed / every) > (seq_start / every);
        if crossed {
            shard.snapshots += 1;
            if let Some(out) = log {
                let event = MonitorEvent::Snapshot {
                    shard: index as u32,
                    seq: shard.processed - 1,
                    state: shard.detector_state(),
                };
                encode_line(&event, out)?;
            }
        }
    }
    Ok(n)
}

/// Folds per-shard metric state into the [`MetricsReport`], in
/// whatever order shards are [`MetricsFold::add`]ed — callers add in
/// shard-index order, which is what pins the merged floating-point sums
/// regardless of drain interleaving. Every report instrument derives
/// from shard state, so the report needs nothing else. Crate-visible so
/// the consumer pool can fold shards it holds behind per-shard locks.
pub(crate) struct MetricsFold {
    value: Histogram,
    batch: Histogram,
    latency: Histogram,
    shards: u64,
    processed: u64,
    rejuvenations: u64,
    snapshots: u64,
    sync_drops: u64,
    /// Per detector kind: (shards, rejuvenations).
    by_kind: BTreeMap<&'static str, (u64, u64)>,
}

impl MetricsFold {
    pub(crate) fn new() -> Self {
        MetricsFold {
            value: Histogram::new(&VALUE_BOUNDS),
            batch: Histogram::new(&BATCH_BOUNDS),
            latency: Histogram::new(&LATENCY_BOUNDS),
            shards: 0,
            processed: 0,
            rejuvenations: 0,
            snapshots: 0,
            sync_drops: 0,
            by_kind: BTreeMap::new(),
        }
    }

    /// Folds one shard in; call in shard-index order.
    pub(crate) fn add(&mut self, shard: &Shard) {
        self.value.merge(&shard.value_hist);
        self.batch.merge(&shard.batch_hist);
        self.latency.merge(&shard.latency_hist);
        self.shards += 1;
        self.processed += shard.processed;
        self.rejuvenations += shard.rejuvenations;
        self.snapshots += shard.snapshots;
        self.sync_drops += shard.sync_drops;
        let kind = self.by_kind.entry(shard.spec.kind.name()).or_insert((0, 0));
        kind.0 += 1;
        kind.1 += shard.rejuvenations;
    }

    /// Builds the report. The `shards` and `shards_{kind}` gauges
    /// count the current topology. `observations_processed` and
    /// `rejuvenations` exist once anything was processed,
    /// `snapshots`/`observations_dropped` once nonzero, and
    /// `rejuvenations_{kind}` for every kind present, fired or not.
    pub(crate) fn report(self) -> MetricsReport {
        let mut counters = BTreeMap::new();
        let mut gauges = BTreeMap::from([("shards".to_owned(), self.shards as f64)]);
        if self.processed > 0 {
            counters.insert("observations_processed".to_owned(), self.processed);
            counters.insert("rejuvenations".to_owned(), self.rejuvenations);
        }
        if self.snapshots > 0 {
            counters.insert("snapshots".to_owned(), self.snapshots);
        }
        if self.sync_drops > 0 {
            counters.insert("observations_dropped".to_owned(), self.sync_drops);
        }
        for (kind, (shards, fired)) in self.by_kind {
            counters.insert(format!("rejuvenations_{kind}"), fired);
            gauges.insert(format!("shards_{kind}"), shards as f64);
        }
        let histograms = BTreeMap::from([
            ("observation_value".to_owned(), self.value),
            ("drain_batch_size".to_owned(), self.batch),
            ("inter_observation_latency".to_owned(), self.latency),
        ]);
        MetricsReport {
            counters,
            gauges,
            histograms,
        }
    }
}

/// A producer handle for one shard's ingestion queue.
///
/// Cheap to clone, safe to move to another thread, and usable as a
/// [`rejuv_sim::ObservationSink`], so an engine-driven model can feed a
/// supervisor without depending on this crate's types.
#[derive(Debug, Clone)]
pub struct ShardSender {
    shard: u32,
    queue: ObsQueue,
}

impl ShardSender {
    /// The shard this handle feeds.
    pub fn shard(&self) -> u32 {
        self.shard
    }

    /// Offers one untimed observation; `false` means it was dropped to
    /// back-pressure (and counted).
    pub fn send(&self, value: f64) -> bool {
        self.queue.push(value)
    }

    /// Offers one observation stamped at `at` seconds of simulation
    /// time; `false` means dropped to back-pressure (and counted).
    pub fn send_at(&self, value: f64, at: f64) -> bool {
        self.queue.push_at(value, at)
    }

    /// Sends, waiting until queue space frees up (lossless producers).
    /// Bounded spin, then a condvar park — never an unbounded busy
    /// loop. Returns `false` only when the queue was shut down while
    /// this producer waited (the sample was not enqueued).
    pub fn send_blocking(&self, value: f64) -> bool {
        self.queue.push_blocking(value)
    }

    /// Offers a batch of `(value, at)` samples under one queue lock
    /// acquisition, returning how many were accepted; the rest are
    /// counted as drops.
    pub fn send_batch<I>(&self, samples: I) -> usize
    where
        I: IntoIterator<Item = (f64, f64)>,
        I::IntoIter: ExactSizeIterator,
    {
        self.queue.push_batch(samples)
    }

    /// Sends a whole batch losslessly, parking between refills whenever
    /// the queue is full — the batched flavour of
    /// [`ShardSender::send_blocking`]. Returns how many samples were
    /// enqueued: short only when the queue was shut down while this
    /// producer waited.
    pub fn send_batch_blocking<I>(&self, samples: I) -> usize
    where
        I: IntoIterator<Item = (f64, f64)>,
        I::IntoIter: ExactSizeIterator,
    {
        self.queue.push_batch_blocking(samples)
    }

    /// Pending (sent, not yet drained) observations in this shard's
    /// queue.
    ///
    /// **Approximate under concurrent drain**: relaxed atomic loads, no
    /// locking — a concurrent consumer can make the value momentarily
    /// stale by up to one drain batch. Exact whenever no drain is in
    /// flight. The consumer pool reads the same hint as its
    /// work-stealing heat signal.
    pub fn backlog(&self) -> usize {
        self.queue.backlog_hint()
    }
}

impl ObservationSink for ShardSender {
    fn push(&mut self, observation: Observation) -> bool {
        self.queue
            .push_at(observation.value, observation.at.as_secs())
    }

    fn push_batch(&mut self, observations: &[Observation]) -> usize {
        self.queue
            .push_batch(observations.iter().map(|o| (o.value, o.at.as_secs())))
    }
}

/// Per-shard slice of a [`MonitorReport`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardReport {
    /// Shard index.
    pub shard: u32,
    /// Detector kind supervising the shard.
    pub detector: String,
    /// Observations fed through the detector.
    pub processed: u64,
    /// Observations accepted into the queue over its lifetime.
    pub accepted: u64,
    /// Observations dropped to back-pressure.
    pub dropped: u64,
    /// Times a lossless (blocking) producer parked on back-pressure.
    pub producer_waits: u64,
    /// Rejuvenate decisions returned.
    pub rejuvenations: u64,
    /// Lifetime trigger count reported by the detector itself (survives
    /// snapshot/restore; equals `rejuvenations` for a fresh supervisor).
    pub detector_triggers: u64,
    /// FNV-1a digest over the (value, decision) sequence, hex-encoded.
    pub digest: String,
}

/// Per-detector-kind rollup inside a [`MonitorReport`]: in a mixed
/// fleet, how much work each algorithm family did.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DetectorKindReport {
    /// Detector kind name ([`RejuvenationDetector::name`]).
    pub detector: String,
    /// Shards running this kind.
    pub shards: u64,
    /// Observations processed by those shards.
    pub processed: u64,
    /// Rejuvenate decisions returned by those shards.
    pub rejuvenations: u64,
}

/// The final metrics report of a monitoring run.
///
/// Serialising this is byte-stable: a replayed run that processed the
/// same per-shard observation sequences produces an identical report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MonitorReport {
    /// Per-shard accounting.
    pub shards: Vec<ShardReport>,
    /// Per-detector-kind rollup, sorted by kind name (one entry per
    /// kind present in the fleet).
    pub by_detector: Vec<DetectorKindReport>,
    /// Sum of `processed` over all shards.
    pub total_processed: u64,
    /// Sum of `dropped` over all shards.
    pub total_dropped: u64,
    /// Sum of `rejuvenations` over all shards.
    pub total_rejuvenations: u64,
    /// Counters, gauges and histograms folded from every shard.
    pub metrics: MetricsReport,
}

/// A complete supervisor checkpoint: every shard's detector state plus
/// the run accounting, restorable via [`Supervisor::restore`].
///
/// Serialisation is hand-written (not derived) so the `dlq` field is
/// *omitted* when empty: a supervisor without dead-letter queues keeps
/// producing checkpoints byte-identical to the v3 derived layout.
#[derive(Debug, Clone, PartialEq)]
pub struct SupervisorSnapshot {
    /// Serialised-format version; see [`SNAPSHOT_VERSION`] and
    /// [`SNAPSHOT_VERSION_DLQ`].
    pub version: u32,
    /// Per-shard detector snapshots and counters, by shard index.
    pub shards: Vec<ShardSnapshot>,
    /// The metrics report at checkpoint time. Written for readers of
    /// the file; [`Supervisor::restore`] rebuilds it from the shards.
    pub metrics: MetricsReport,
    /// Dead-letter state of every shard with a DLQ attached (empty for
    /// v3 checkpoints). Entries are present even when no samples are
    /// pending, so lifetime capture/replay/overflow counters survive a
    /// crash too.
    pub dlq: Vec<DlqSnapshot>,
}

impl SupervisorSnapshot {
    /// Assembles a checkpoint from shard views and their metrics fold,
    /// both taken in shard-index order, plus every shard's queue. One
    /// dead-letter entry per DLQ-attached shard, pending or not, so
    /// lifetime counters survive a crash; the format version says v4
    /// exactly when any entry exists, keeping default (no-DLQ)
    /// checkpoints byte-identical v3.
    pub(crate) fn assemble<'a>(
        shards: Vec<ShardSnapshot>,
        fold: MetricsFold,
        queues: impl IntoIterator<Item = &'a ObsQueue>,
    ) -> SupervisorSnapshot {
        let mut dlq = Vec::new();
        for (i, queue) in queues.into_iter().enumerate() {
            if let Some(d) = queue.dlq() {
                let stats = d.stats();
                dlq.push(DlqSnapshot {
                    shard: i as u32,
                    samples: d.contents(),
                    captured: stats.captured,
                    replayed: stats.replayed,
                    overflow: stats.overflow,
                });
            }
        }
        SupervisorSnapshot {
            version: if dlq.is_empty() {
                SNAPSHOT_VERSION
            } else {
                SNAPSHOT_VERSION_DLQ
            },
            shards,
            metrics: fold.report(),
            dlq,
        }
    }
}

impl Serialize for SupervisorSnapshot {
    fn to_value(&self) -> serde::Value {
        let mut map = BTreeMap::new();
        if !self.dlq.is_empty() {
            map.insert("dlq".to_owned(), self.dlq.to_value());
        }
        map.insert("metrics".to_owned(), self.metrics.to_value());
        map.insert("shards".to_owned(), self.shards.to_value());
        map.insert("version".to_owned(), self.version.to_value());
        serde::Value::Object(map)
    }
}

impl Deserialize for SupervisorSnapshot {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        let field = |name: &str| {
            value.get(name).ok_or_else(|| {
                serde::Error::custom(format!("missing field `{name}` for SupervisorSnapshot"))
            })
        };
        Ok(SupervisorSnapshot {
            version: Deserialize::from_value(field("version")?)?,
            shards: Deserialize::from_value(field("shards")?)?,
            metrics: Deserialize::from_value(field("metrics")?)?,
            // Absent in v3 checkpoints: default to no dead-letter state.
            dlq: match value.get("dlq") {
                Some(dlq) => Deserialize::from_value(dlq)?,
                None => Vec::new(),
            },
        })
    }
}

/// One shard's dead-letter state inside a [`SupervisorSnapshot`]
/// (format v4, see [`SNAPSHOT_VERSION_DLQ`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DlqSnapshot {
    /// The shard this dead-letter queue serves.
    pub shard: u32,
    /// Pending `(value, at)` samples, oldest first — exactly what
    /// replay would re-ingest next.
    pub samples: Vec<(f64, f64)>,
    /// Lifetime samples captured when the checkpoint was taken.
    pub captured: u64,
    /// Lifetime samples replayed when the checkpoint was taken.
    pub replayed: u64,
    /// Lifetime samples lost to DLQ overflow when the checkpoint was
    /// taken.
    pub overflow: u64,
}

/// One shard's slice of a [`SupervisorSnapshot`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardSnapshot {
    /// The detector's complete state.
    pub detector: DetectorSnapshot,
    /// The declarative spec the shard was configured from. Every
    /// checkpoint this build writes carries it; [`None`] parses so a
    /// checkpoint from an older build that ran opaque detectors still
    /// loads. [`Supervisor::restore`] refuses a `Some` spec that
    /// disagrees with the configured shard's (same-kind knob drift
    /// included) and keeps the configured spec either way.
    pub spec: Option<DetectorSpec>,
    /// Observations processed when the checkpoint was taken.
    pub processed: u64,
    /// Rejuvenate decisions returned when the checkpoint was taken.
    pub rejuvenations: u64,
    /// Decision digest when the checkpoint was taken.
    pub digest: u64,
    /// Queue-lifetime accepted count when the checkpoint was taken.
    pub accepted: u64,
    /// Queue-lifetime dropped count when the checkpoint was taken.
    pub dropped: u64,
    /// Queue-lifetime blocking-producer parks when the checkpoint was
    /// taken.
    pub producer_waits: u64,
    /// Timestamp of the last timed observation, if any, so the
    /// inter-observation latency histogram resumes seamlessly.
    pub last_at: Option<f64>,
    /// Per-shard `observation_value` histogram at checkpoint time.
    /// Carried per shard (not only merged into
    /// [`SupervisorSnapshot::metrics`]) because floating-point sums are
    /// order-sensitive: a resume must restart each shard's own
    /// accumulation exactly where it stopped, or the resumed run's
    /// merged report would re-associate the sums and drift from the
    /// uninterrupted run's bytes.
    pub value_hist: Histogram,
    /// Per-shard `drain_batch_size` histogram at checkpoint time.
    pub batch_hist: Histogram,
    /// Per-shard `inter_observation_latency` histogram at checkpoint
    /// time.
    pub latency_hist: Histogram,
    /// Detector snapshot events emitted by this shard when the
    /// checkpoint was taken.
    pub snapshots: u64,
    /// Synchronous feeds dropped to back-pressure when the checkpoint
    /// was taken.
    pub sync_drops: u64,
}

/// Why [`Supervisor::restore`] refused a checkpoint.
#[derive(Debug, Clone, PartialEq)]
pub enum RestoreError {
    /// The checkpoint's serialised format is from a different code
    /// generation.
    VersionMismatch {
        /// Version this build writes and understands.
        expected: u32,
        /// Version found in the checkpoint.
        found: u32,
    },
    /// The checkpoint was taken from a supervisor with a different
    /// number of shards.
    ShardCountMismatch {
        /// Shards in this supervisor.
        expected: usize,
        /// Shards in the checkpoint.
        found: usize,
    },
    /// A shard's detector rejected its snapshot (wrong kind or
    /// unsupported).
    Detector {
        /// The offending shard.
        shard: usize,
        /// The underlying error.
        source: rejuv_core::SnapshotError,
    },
    /// The checkpoint's per-shard spec disagrees with the configured
    /// shard's — same kind, different knobs (a kind mismatch surfaces
    /// as [`RestoreError::Detector`] first).
    SpecMismatch {
        /// The offending shard.
        shard: usize,
        /// Spec configured for this supervisor's shard (boxed to keep
        /// the error type small on the happy path).
        expected: Box<DetectorSpec>,
        /// Spec recorded in the checkpoint.
        found: Box<DetectorSpec>,
    },
    /// A v4 checkpoint carries dead-letter state for a shard that has
    /// no dead-letter queue attached (or names a shard out of range);
    /// call [`Supervisor::enable_dlq`] before restoring.
    DlqMismatch {
        /// Shard index recorded in the checkpoint's dead-letter entry.
        shard: u32,
    },
    /// A shard's histogram does not fit the instrument it would
    /// restore: the checkpoint was edited or written by a build with
    /// different bucket bounds. Restoring it would panic at the next
    /// report's merge or silently drop bucket counts.
    HistogramMismatch {
        /// The offending shard.
        shard: usize,
        /// Metric name of the histogram (`observation_value`,
        /// `drain_batch_size` or `inter_observation_latency`).
        histogram: &'static str,
        /// What does not fit.
        problem: HistogramProblem,
    },
}

impl fmt::Display for RestoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RestoreError::VersionMismatch { expected, found } => write!(
                f,
                "checkpoint format v{found} is not the supported v{expected}"
            ),
            RestoreError::ShardCountMismatch { expected, found } => write!(
                f,
                "checkpoint has {found} shards but the supervisor has {expected}"
            ),
            RestoreError::Detector { shard, source } => {
                write!(f, "shard {shard}: {source}")
            }
            RestoreError::SpecMismatch {
                shard,
                expected,
                found,
            } => write!(
                f,
                "shard {shard}: checkpoint spec {found} does not match configured {expected}"
            ),
            RestoreError::DlqMismatch { shard } => write!(
                f,
                "checkpoint carries dead-letter state for shard {shard}, \
                 which has no dead-letter queue attached"
            ),
            RestoreError::HistogramMismatch {
                shard,
                histogram,
                problem,
            } => write!(f, "shard {shard}: histogram {histogram}: {problem}"),
        }
    }
}

impl std::error::Error for RestoreError {}

/// Why [`Supervisor::reload_specs`] refused a fleet hot-reload. The
/// supervisor is never mutated on error: validation of *every* spec
/// happens before any shard is rebuilt.
#[derive(Debug, Clone, PartialEq)]
pub enum ReloadError {
    /// The new fleet has a different number of shards — hot-reload can
    /// rebuild detectors in place but cannot resize the fleet.
    ShardCountMismatch {
        /// Shards in this supervisor.
        expected: usize,
        /// Specs in the proposed fleet.
        found: usize,
    },
    /// A proposed spec failed detector validation.
    Spec {
        /// The offending shard.
        shard: usize,
        /// The underlying validation error.
        source: ConfigError,
    },
}

impl fmt::Display for ReloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReloadError::ShardCountMismatch { expected, found } => write!(
                f,
                "fleet has {found} shards but the supervisor has {expected}"
            ),
            ReloadError::Spec { shard, source } => {
                write!(f, "shard {shard}: {source}")
            }
        }
    }
}

impl std::error::Error for ReloadError {}

/// The sharded online monitoring runtime.
pub struct Supervisor {
    config: SupervisorConfig,
    shards: Vec<Shard>,
    log: Option<EventLog>,
    scratch: DrainScratch,
    /// The log lines of the batch being drained, written through after
    /// each drain.
    lines: Vec<u8>,
    checkpoint: Option<CheckpointStream>,
    /// Operational event bus, if attached ([`Supervisor::set_bus`]).
    bus: Option<Arc<EventBus>>,
}

impl fmt::Debug for Supervisor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Supervisor")
            .field("config", &self.config)
            .field("shards", &self.shards.len())
            .field("logging", &self.log.is_some())
            .field("checkpointing", &self.checkpoint.is_some())
            .finish_non_exhaustive()
    }
}

impl Supervisor {
    /// A (possibly heterogeneous) supervisor with one shard per spec,
    /// in order — the one way a supervisor comes to exist. Each shard
    /// keeps its spec, so checkpoints carry the full fleet topology,
    /// [`Supervisor::restore`] can reject spec drift per shard, and
    /// [`Supervisor::reload_specs`] diffs a new fleet against it.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::ZeroCount`] if `config.drain_batch`,
    /// `config.queue_capacity` or `config.consumers` is zero,
    /// [`ConfigError::InvalidValue`] if the allocator refuses a shard's
    /// `queue_capacity`, and otherwise the error of the first invalid
    /// spec. A replayed log's header supplies `config`, so none of
    /// these may panic.
    pub fn with_specs(
        config: SupervisorConfig,
        specs: &[DetectorSpec],
    ) -> Result<Self, ConfigError> {
        Supervisor::with_specs_wrapped(config, specs, |detector| detector)
    }

    /// [`Supervisor::with_specs`] with every spec-built detector passed
    /// through `wrap` before it is installed: the seam the batch versus
    /// per-sample equivalence suite uses to strip detectors of their
    /// batch kernels. Not meant for other callers.
    ///
    /// # Errors
    ///
    /// As [`Supervisor::with_specs`].
    ///
    /// # Panics
    ///
    /// If a wrapped detector's name differs from its spec's kind or it
    /// cannot snapshot: a shard's detector is always the one its spec
    /// describes.
    #[doc(hidden)]
    pub fn with_specs_wrapped(
        config: SupervisorConfig,
        specs: &[DetectorSpec],
        mut wrap: impl FnMut(Box<dyn RejuvenationDetector>) -> Box<dyn RejuvenationDetector>,
    ) -> Result<Self, ConfigError> {
        for (name, count) in [
            ("drain_batch", config.drain_batch),
            ("queue_capacity", config.queue_capacity),
            ("consumers", config.consumers),
        ] {
            if count == 0 {
                return Err(ConfigError::ZeroCount { name });
            }
        }
        let mut shards = Vec::with_capacity(specs.len());
        for &spec in specs {
            let queue = ObsQueue::try_bounded(config.queue_capacity).map_err(|_| {
                ConfigError::InvalidValue {
                    name: "queue_capacity",
                    value: config.queue_capacity as f64,
                    expected: "a capacity the allocator can reserve",
                }
            })?;
            let detector = wrap(spec.build()?);
            assert_eq!(detector.name(), spec.kind.name(), "wrap kept the kind");
            assert!(detector.snapshot().is_some(), "wrap kept snapshots");
            shards.push(Shard {
                // Seed the decision digest with the detector kind so a
                // digest certifies *which algorithm* decided, not just
                // what it decided — two kinds that happen to agree on a
                // stream still produce distinct digests.
                digest: fnv1a(FNV_OFFSET, detector.name().as_bytes()),
                detector,
                spec,
                queue,
                processed: 0,
                rejuvenations: 0,
                last_at: None,
                last_decision: Decision::Continue,
                value_hist: Histogram::new(&VALUE_BOUNDS),
                batch_hist: Histogram::new(&BATCH_BOUNDS),
                latency_hist: Histogram::new(&LATENCY_BOUNDS),
                snapshots: 0,
                sync_drops: 0,
                bus: None,
            });
        }
        Ok(Supervisor {
            scratch: DrainScratch::with_capacity(config.drain_batch),
            config,
            shards,
            log: None,
            lines: Vec::new(),
            checkpoint: None,
            bus: None,
        })
    }

    /// The declarative spec `shard` runs.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn spec(&self, shard: usize) -> &DetectorSpec {
        &self.shards[shard].spec
    }

    /// Number of monitored streams.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The configuration in force.
    pub fn config(&self) -> &SupervisorConfig {
        &self.config
    }

    /// Attaches a JSONL event log; subsequent drains append to it.
    pub fn set_log(&mut self, log: EventLog) {
        self.log = Some(log);
    }

    /// Detaches and returns the event log, if any.
    pub fn take_log(&mut self) -> Option<EventLog> {
        self.log.take()
    }

    /// Streams checkpoints to `sink`: after every `every` *total*
    /// processed observations (across shards), the event log is flushed
    /// and a full [`SupervisorSnapshot`] is handed to the sink.
    ///
    /// Checkpoints always land on drain-batch boundaries, so a resumed
    /// run (see [`crate::replay_fleet_events`]) reproduces the
    /// uninterrupted run's report byte-for-byte. Checkpointing leaves no
    /// trace in metrics or digests: a run with checkpoints enabled
    /// reports identically to one without.
    ///
    /// # Panics
    ///
    /// Panics if `every == 0`.
    pub fn set_checkpoint(&mut self, every: u64, sink: CheckpointSink) {
        assert!(every > 0, "checkpoint cadence must be positive");
        self.checkpoint = Some(CheckpointStream {
            cadence: CheckpointCadence::Every(every),
            last_total: self.total_processed(),
            sink,
        });
    }

    /// Streams checkpoints to `sink` on a *timer*: whenever at least
    /// `secs` have elapsed on `clock` since the last checkpoint, the
    /// next drain that processed observations emits one. The cadence is
    /// still evaluated on drain-batch boundaries, so resumed replays
    /// stay byte-identical exactly as with [`Supervisor::set_checkpoint`].
    ///
    /// `clock` is any monotonic seconds source — wall time in
    /// production (`Instant::elapsed`), injected ticks in tests, which
    /// is what keeps the cadence deterministic under test.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is not positive and finite.
    pub fn set_checkpoint_timer(
        &mut self,
        secs: f64,
        mut clock: CheckpointClock,
        sink: CheckpointSink,
    ) {
        assert!(
            secs.is_finite() && secs > 0.0,
            "checkpoint timer must be positive"
        );
        let last_tick = clock();
        self.checkpoint = Some(CheckpointStream {
            cadence: CheckpointCadence::Timer {
                secs,
                clock,
                last_tick,
            },
            last_total: self.total_processed(),
            sink,
        });
    }

    /// Stops streaming checkpoints and returns the sink, if any.
    pub fn take_checkpoint(&mut self) -> Option<CheckpointSink> {
        self.checkpoint.take().map(|stream| stream.sink)
    }

    /// Attaches a bounded [`DeadLetterQueue`] (holding up to `capacity`
    /// samples) to every shard: lossy pushes that find a queue full
    /// *capture* the `(value, at)` sample instead of dropping it, and
    /// each drain replays captured samples back in FIFO order before
    /// popping — so under saturation `dropped` stays 0 and the decision
    /// digests match a run that never saturated. Checkpoints switch to
    /// format v4 ([`SNAPSHOT_VERSION_DLQ`]), carrying the DLQ contents.
    ///
    /// Call before [`Supervisor::set_bus`] (an already-attached bus is
    /// propagated here too) and before producers start.
    ///
    /// # Panics
    ///
    /// If `capacity` is zero, or a shard already has a DLQ attached.
    pub fn enable_dlq(&mut self, capacity: usize) {
        for (i, shard) in self.shards.iter().enumerate() {
            let dlq = Arc::new(DeadLetterQueue::new(i as u32, capacity));
            if let Some(bus) = self.bus.as_ref() {
                dlq.set_bus(Arc::clone(bus));
            }
            shard.queue.attach_dlq(dlq);
        }
    }

    /// Attaches an operational [`EventBus`]: the runtime publishes
    /// [`OpEvent`]s (rejuvenation fired, checkpoint written, queue
    /// saturated, samples dead-lettered/replayed/overflowed, shard
    /// rebuilt) through it. Purely observational — attaching a bus
    /// changes no report, trace, digest, or checkpoint byte.
    pub fn set_bus(&mut self, bus: Arc<EventBus>) {
        for shard in &mut self.shards {
            shard.bus = Some(Arc::clone(&bus));
            if let Some(dlq) = shard.queue.dlq() {
                dlq.set_bus(Arc::clone(&bus));
            }
        }
        self.bus = Some(bus);
    }

    /// The attached operational event bus, if any.
    pub fn bus(&self) -> Option<&Arc<EventBus>> {
        self.bus.as_ref()
    }

    /// Whether any shard has a dead-letter queue attached.
    pub fn dlq_enabled(&self) -> bool {
        self.shards.iter().any(|s| s.queue.dlq().is_some())
    }

    /// Dead-letter accounting for `shard`, or [`None`] when it has no
    /// DLQ attached.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn dlq_stats(&self, shard: usize) -> Option<DlqStats> {
        self.shards[shard].queue.dlq().map(|d| d.stats())
    }

    /// Dead-letter accounting summed over every shard with a DLQ
    /// attached (all zeros when none is).
    pub fn dlq_totals(&self) -> DlqStats {
        let mut totals = DlqStats::default();
        for shard in &self.shards {
            if let Some(stats) = shard.queue.dlq().map(|d| d.stats()) {
                totals.pending += stats.pending;
                totals.captured += stats.captured;
                totals.replayed += stats.replayed;
                totals.overflow += stats.overflow;
            }
        }
        totals
    }

    /// Hot-reloads the fleet from `specs`, rebuilding **exactly the
    /// drifted shards** (spec differs from the one in force) in place:
    /// a fresh detector is built from the new spec, while the shard's
    /// processed/rejuvenation counters, histograms, and queue (pending
    /// samples included) are kept. The new detector kind is folded into
    /// the shard's running digest, so the digest records the algorithm
    /// switch the same way construction seeds record the initial kind.
    /// Publishes [`OpEvent::ShardRebuilt`] per rebuilt shard when a bus
    /// is attached, and returns the rebuilt shard indices (empty when
    /// nothing drifted).
    ///
    /// Validation is all-or-nothing: every spec is checked (count,
    /// detector validation) before any shard is mutated, mirroring
    /// [`Supervisor::restore`]'s contract.
    ///
    /// # Errors
    ///
    /// [`ReloadError`] with the supervisor untouched.
    pub fn reload_specs(&mut self, specs: &[DetectorSpec]) -> Result<Vec<usize>, ReloadError> {
        if specs.len() != self.shards.len() {
            return Err(ReloadError::ShardCountMismatch {
                expected: self.shards.len(),
                found: specs.len(),
            });
        }
        let mut rebuilt: Vec<(usize, Box<dyn RejuvenationDetector>)> = Vec::new();
        for (i, (spec, shard)) in specs.iter().zip(&self.shards).enumerate() {
            if *spec == shard.spec {
                continue;
            }
            let detector = spec
                .build()
                .map_err(|source| ReloadError::Spec { shard: i, source })?;
            rebuilt.push((i, detector));
        }
        let mut indices = Vec::with_capacity(rebuilt.len());
        for (i, detector) in rebuilt {
            let shard = &mut self.shards[i];
            let from = shard.detector.name().to_owned();
            let to = detector.name().to_owned();
            shard.detector = detector;
            shard.spec = specs[i];
            // Fold the new kind into the *running* digest (same scheme
            // as the construction seed): decisions after the rebuild
            // are certified as the new algorithm's.
            shard.digest = fnv1a(shard.digest, to.as_bytes());
            shard.last_decision = Decision::Continue;
            if let Some(bus) = shard.bus.as_ref() {
                bus.publish(OpEvent::ShardRebuilt {
                    shard: i as u32,
                    from,
                    to,
                });
            }
            indices.push(i);
        }
        Ok(indices)
    }

    /// Sum of processed observations over all shards.
    pub fn total_processed(&self) -> u64 {
        self.shards.iter().map(|s| s.processed).sum()
    }

    /// A cloneable producer handle for `shard`'s ingestion queue.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn sender(&self, shard: usize) -> ShardSender {
        ShardSender {
            shard: shard as u32,
            queue: self.shards[shard].queue.clone(),
        }
    }

    /// The shard's ingestion queue (consumer threads attach their
    /// wakeup notifier through it).
    pub(crate) fn queue(&self, shard: usize) -> &ObsQueue {
        &self.shards[shard].queue
    }

    /// Offers one untimed observation to `shard`'s queue without
    /// draining; `false` means dropped to back-pressure.
    pub fn ingest(&self, shard: usize, value: f64) -> bool {
        self.shards[shard].queue.push(value)
    }

    /// Offers one observation stamped at `at` seconds of simulation
    /// time; `false` means dropped to back-pressure.
    pub fn ingest_at(&self, shard: usize, value: f64, at: f64) -> bool {
        self.shards[shard].queue.push_at(value, at)
    }

    /// Drains up to `drain_batch` pending observations of one shard
    /// through its detector, logging the batch and any rejuvenations.
    /// Returns how many observations were processed.
    ///
    /// # Errors
    ///
    /// Propagates event-log and checkpoint-sink write failures; the
    /// shard state has already advanced past the processed observations.
    pub fn poll_shard(&mut self, shard: usize) -> io::Result<usize> {
        let mut scratch = std::mem::take(&mut self.scratch);
        let result = self.drain_one(shard, &mut scratch);
        self.scratch = scratch;
        if matches!(result, Ok(n) if n > 0) {
            self.maybe_checkpoint()?;
        }
        result
    }

    fn drain_one(&mut self, shard: usize, scratch: &mut DrainScratch) -> io::Result<usize> {
        let Some(log) = self.log.as_mut() else {
            return drain_shard(shard, &mut self.shards[shard], &self.config, scratch, None);
        };
        self.lines.clear();
        let n = drain_shard(
            shard,
            &mut self.shards[shard],
            &self.config,
            scratch,
            Some(&mut self.lines),
        )?;
        log.write_encoded(&self.lines)?;
        Ok(n)
    }

    /// Emits a checkpoint to the configured sink if the cadence was
    /// crossed since the last one. The event log is flushed first so a
    /// persisted log always covers (at least) the checkpointed prefix —
    /// the invariant crash recovery relies on.
    fn maybe_checkpoint(&mut self) -> io::Result<()> {
        // Without a sink there is no cadence to check, and no reason to
        // sum the shards on every poll.
        let Some(stream) = self.checkpoint.as_mut() else {
            return Ok(());
        };
        let total = self.shards.iter().map(|s| s.processed).sum();
        if !stream.due(total) {
            return Ok(());
        }
        self.checkpoint_now()
    }

    /// Immediately emits a checkpoint to the configured sink (no-op
    /// without one).
    ///
    /// # Errors
    ///
    /// Propagates log-flush and sink failures.
    pub fn checkpoint_now(&mut self) -> io::Result<()> {
        if self.checkpoint.is_none() {
            return Ok(());
        }
        fp!("supervisor.checkpoint-flush");
        if let Some(log) = self.log.as_mut() {
            log.flush()?;
        }
        let snapshot = self.snapshot();
        fp!("supervisor.checkpoint-emit");
        let total = self.total_processed();
        if let Some(stream) = self.checkpoint.as_mut() {
            stream.emit(&snapshot, total)?;
        }
        if let Some(bus) = self.bus.as_ref() {
            bus.publish(OpEvent::CheckpointWritten {
                total_processed: total,
            });
        }
        Ok(())
    }

    /// Polls every shard once, round-robin; returns total observations
    /// processed.
    ///
    /// # Errors
    ///
    /// Propagates event-log write failures.
    pub fn poll_all(&mut self) -> io::Result<usize> {
        let mut total = 0;
        for shard in 0..self.shards.len() {
            total += self.poll_shard(shard)?;
        }
        Ok(total)
    }

    /// Synchronously feeds one untimed observation: ingest, then drain
    /// the shard until its queue is empty, returning the decision for
    /// the *last* processed observation (i.e. this one, when the queue
    /// was empty).
    ///
    /// This is the live-attachment path: a model that needs a decision
    /// per observation degenerates the batched drain to batch size 1,
    /// while decoupled producers keep the full batching.
    ///
    /// # Errors
    ///
    /// Propagates event-log write failures.
    pub fn process_sync(&mut self, shard: usize, value: f64) -> io::Result<Decision> {
        self.process_sync_sample(shard, value, UNTIMED)
    }

    /// [`Supervisor::process_sync`] with a simulation timestamp, feeding
    /// the inter-observation latency histogram.
    ///
    /// # Errors
    ///
    /// Propagates event-log write failures.
    pub fn process_sync_at(&mut self, shard: usize, value: f64, at: f64) -> io::Result<Decision> {
        self.process_sync_sample(shard, value, at)
    }

    fn process_sync_sample(&mut self, shard: usize, value: f64, at: f64) -> io::Result<Decision> {
        if !self.shards[shard].queue.push_at(value, at) {
            self.shards[shard].sync_drops += 1;
        }
        while self.poll_shard(shard)? > 0 {}
        Ok(self.shards[shard].last_decision)
    }

    /// Observations processed by `shard` so far.
    pub fn processed(&self, shard: usize) -> u64 {
        self.shards[shard].processed
    }

    /// Rejuvenate decisions returned by `shard` so far.
    pub fn rejuvenations(&self, shard: usize) -> u64 {
        self.shards[shard].rejuvenations
    }

    /// Pending (ingested, not yet drained) observations of `shard`.
    ///
    /// **Approximate under concurrent drain**: the count is read with
    /// relaxed atomics and never takes the queue lock, so while a
    /// consumer thread is mid-drain it may lag or lead the true
    /// occupancy by up to one batch. That is exactly what the consumer
    /// pool wants from its work-stealing heat signal — a cheap,
    /// contention-free hint — and callers needing an exact figure should
    /// quiesce the consumers first (the count is exact when nobody is
    /// draining).
    pub fn backlog(&self, shard: usize) -> usize {
        self.shards[shard].queue.backlog_hint()
    }

    /// Every shard's metric state folded in shard-index order — the
    /// order pin that keeps merged floating-point sums byte-stable
    /// across drain interleavings.
    fn fold(&self) -> MetricsFold {
        let mut fold = MetricsFold::new();
        for shard in &self.shards {
            fold.add(shard);
        }
        fold
    }

    /// Exports the final report: per-shard accounting plus the metrics
    /// folded from it.
    pub fn report(&self) -> MonitorReport {
        let shards: Vec<ShardReport> = self
            .shards
            .iter()
            .enumerate()
            .map(|(i, s)| s.report_view(i))
            .collect();
        let mut by_kind: std::collections::BTreeMap<&str, DetectorKindReport> =
            std::collections::BTreeMap::new();
        for s in &shards {
            let entry = by_kind
                .entry(s.detector.as_str())
                .or_insert_with(|| DetectorKindReport {
                    detector: s.detector.clone(),
                    shards: 0,
                    processed: 0,
                    rejuvenations: 0,
                });
            entry.shards += 1;
            entry.processed += s.processed;
            entry.rejuvenations += s.rejuvenations;
        }
        MonitorReport {
            total_processed: shards.iter().map(|s| s.processed).sum(),
            total_dropped: shards.iter().map(|s| s.dropped).sum(),
            total_rejuvenations: shards.iter().map(|s| s.rejuvenations).sum(),
            by_detector: by_kind.into_values().collect(),
            shards,
            metrics: self.fold().report(),
        }
    }

    /// Checkpoints every shard's detector state and the run accounting.
    pub fn snapshot(&self) -> SupervisorSnapshot {
        SupervisorSnapshot::assemble(
            self.shards.iter().map(Shard::snapshot_view).collect(),
            self.fold(),
            self.shards.iter().map(|s| &s.queue),
        )
    }

    /// Restores a checkpoint taken by [`Supervisor::snapshot`]:
    /// detectors resume mid-epidemic, counters and per-shard histograms
    /// resume their totals. Pending queue contents are untouched. The
    /// configured specs stay in force, and the checkpoint's `metrics`
    /// section is not read: the report is rebuilt from shard state.
    ///
    /// # Errors
    ///
    /// [`RestoreError`] if the snapshot version is unknown, the shard
    /// counts differ, a shard's snapshot belongs to a different
    /// detector kind than the one configured for that shard, a shard's
    /// recorded spec differs from the configured one, or a shard's
    /// histogram does not fit its configured instrument; the
    /// supervisor is unchanged on error.
    pub fn restore(&mut self, snapshot: &SupervisorSnapshot) -> Result<(), RestoreError> {
        if snapshot.version != SNAPSHOT_VERSION && snapshot.version != SNAPSHOT_VERSION_DLQ {
            return Err(RestoreError::VersionMismatch {
                expected: SNAPSHOT_VERSION,
                found: snapshot.version,
            });
        }
        // Dead-letter entries must land on shards that have a DLQ
        // attached — validated up front, like everything else.
        for entry in &snapshot.dlq {
            let attached = self
                .shards
                .get(entry.shard as usize)
                .is_some_and(|s| s.queue.dlq().is_some());
            if !attached {
                return Err(RestoreError::DlqMismatch { shard: entry.shard });
            }
        }
        if snapshot.shards.len() != self.shards.len() {
            return Err(RestoreError::ShardCountMismatch {
                expected: self.shards.len(),
                found: snapshot.shards.len(),
            });
        }
        // Validate every shard before mutating any: a snapshot whose
        // detector kind disagrees with the configured topology must not
        // silently swap the fleet's algorithms mid-run.
        let mut detectors = Vec::with_capacity(snapshot.shards.len());
        for (i, (shard, state)) in snapshot.shards.iter().zip(&self.shards).enumerate() {
            let expected = state.detector.name();
            let found = shard.detector.kind();
            if expected != found {
                return Err(RestoreError::Detector {
                    shard: i,
                    source: rejuv_core::SnapshotError::KindMismatch {
                        detector: expected,
                        snapshot: found,
                    },
                });
            }
            // A checkpoint without a spec comes from an older build that
            // ran opaque detectors: the kind check above is all it can
            // offer, and the configured spec stays in force.
            if let Some(found) = shard.spec.filter(|found| *found != state.spec) {
                return Err(RestoreError::SpecMismatch {
                    shard: i,
                    expected: Box::new(state.spec),
                    found: Box::new(found),
                });
            }
            // The bulk bucket index assumes the configured (strictly
            // ascending) bounds and one count per bucket; a histogram
            // that breaks either would panic at the next merge or drop
            // bucket counts.
            for (histogram, hist, bounds) in [
                ("observation_value", &shard.value_hist, &VALUE_BOUNDS[..]),
                ("drain_batch_size", &shard.batch_hist, &BATCH_BOUNDS[..]),
                (
                    "inter_observation_latency",
                    &shard.latency_hist,
                    &LATENCY_BOUNDS[..],
                ),
            ] {
                hist.check_shape(bounds)
                    .map_err(|problem| RestoreError::HistogramMismatch {
                        shard: i,
                        histogram,
                        problem,
                    })?;
            }
            detectors.push(shard.detector.clone().into_detector());
        }
        for (state, (shard, detector)) in self
            .shards
            .iter_mut()
            .zip(snapshot.shards.iter().zip(detectors))
        {
            state.detector = detector;
            state.processed = shard.processed;
            state.rejuvenations = shard.rejuvenations;
            state.digest = shard.digest;
            state
                .queue
                .resume_counters(shard.accepted, shard.dropped, shard.producer_waits);
            state.last_at = shard.last_at;
            state.last_decision = Decision::Continue;
            state.value_hist = shard.value_hist.clone();
            state.batch_hist = shard.batch_hist.clone();
            state.latency_hist = shard.latency_hist.clone();
            state.snapshots = shard.snapshots;
            state.sync_drops = shard.sync_drops;
        }
        // The checkpoint is authoritative for dead-letter state too: a
        // v3 checkpoint (no entries) resets any attached DLQ, a v4 one
        // reinstates pending samples and lifetime counters wholesale.
        for shard in &self.shards {
            if let Some(dlq) = shard.queue.dlq() {
                dlq.reset();
            }
        }
        for entry in &snapshot.dlq {
            if let Some(dlq) = self.shards[entry.shard as usize].queue.dlq() {
                dlq.restore(
                    &entry.samples,
                    entry.captured,
                    entry.replayed,
                    entry.overflow,
                );
            }
        }
        if let Some(stream) = self.checkpoint.as_mut() {
            stream.last_total = snapshot.shards.iter().map(|s| s.processed).sum();
        }
        Ok(())
    }

    /// Decomposes the supervisor into the pieces the consumer pool
    /// distributes across threads (shards behind per-shard locks, the
    /// log and checkpoint stream behind a control lock);
    /// [`Supervisor::from_parts`] reassembles after the pool joins.
    pub(crate) fn into_parts(self) -> SupervisorParts {
        SupervisorParts {
            config: self.config,
            shards: self.shards,
            log: self.log,
            checkpoint: self.checkpoint,
            bus: self.bus,
        }
    }

    /// Reassembles a supervisor from the pieces a consumer pool took
    /// apart; the inverse of [`Supervisor::into_parts`].
    pub(crate) fn from_parts(parts: SupervisorParts) -> Self {
        Supervisor {
            scratch: DrainScratch::with_capacity(parts.config.drain_batch),
            config: parts.config,
            shards: parts.shards,
            log: parts.log,
            lines: Vec::new(),
            checkpoint: parts.checkpoint,
            bus: parts.bus,
        }
    }
}

/// A dismantled [`Supervisor`]: everything a [`crate::ConsumerPool`]
/// needs to drain shards from several threads and hand the supervisor
/// back intact at join.
pub(crate) struct SupervisorParts {
    pub(crate) config: SupervisorConfig,
    pub(crate) shards: Vec<Shard>,
    pub(crate) log: Option<EventLog>,
    pub(crate) checkpoint: Option<CheckpointStream>,
    pub(crate) bus: Option<Arc<EventBus>>,
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use rejuv_core::{DetectorKind, SnapshotError};
    use std::sync::{Arc, Mutex};

    /// SRAA with n = 2, K = 2, D = 1: quick to fire on a degraded
    /// stream. The unit tests' default shard.
    pub(crate) fn sraa() -> DetectorSpec {
        DetectorSpec {
            sample_size: 2,
            buckets: 2,
            depth: 1,
            ..DetectorSpec::new(DetectorKind::Sraa)
        }
    }

    fn small() -> Supervisor {
        let config = SupervisorConfig {
            queue_capacity: 64,
            drain_batch: 8,
            ..SupervisorConfig::default()
        };
        Supervisor::with_specs(config, &[sraa(); 2]).unwrap()
    }

    #[test]
    fn batched_drain_processes_in_fifo_order() {
        let mut sup = small();
        for i in 0..20 {
            assert!(sup.ingest(0, i as f64));
        }
        assert_eq!(sup.poll_shard(0).unwrap(), 8, "caps at drain_batch");
        assert_eq!(sup.poll_shard(0).unwrap(), 8);
        assert_eq!(sup.poll_shard(0).unwrap(), 4);
        assert_eq!(sup.poll_shard(0).unwrap(), 0);
        assert_eq!(sup.processed(0), 20);
        assert_eq!(sup.processed(1), 0, "shards are independent");
    }

    #[test]
    fn back_pressure_drops_are_counted_not_blocking() {
        let config = SupervisorConfig {
            queue_capacity: 4,
            drain_batch: 8,
            ..SupervisorConfig::default()
        };
        let sup = Supervisor::with_specs(config, &[sraa()]).unwrap();
        let sender = sup.sender(0);
        let mut accepted = 0;
        for i in 0..10 {
            if sender.send(i as f64) {
                accepted += 1;
            }
        }
        assert_eq!(accepted, 4);
        let report = sup.report();
        assert_eq!(report.shards[0].accepted, 4);
        assert_eq!(report.shards[0].dropped, 6);
        assert_eq!(report.total_dropped, 6);
    }

    #[test]
    fn process_sync_matches_a_bare_detector() {
        let mut sup = small();
        let mut reference = sraa().build().unwrap();
        let values: Vec<f64> = (0..500)
            .map(|i| {
                if i % 7 == 0 {
                    60.0
                } else {
                    4.0 + (i % 5) as f64
                }
            })
            .collect();
        for &v in &values {
            let expected = reference.observe(v);
            assert_eq!(sup.process_sync(0, v).unwrap(), expected);
        }
        assert_eq!(sup.rejuvenations(0), reference.rejuvenation_count());
    }

    #[test]
    fn digest_is_sensitive_to_decisions_and_values() {
        let mut a = small();
        let mut b = small();
        for v in [1.0, 2.0, 3.0] {
            a.process_sync(0, v).unwrap();
            b.process_sync(0, v).unwrap();
        }
        assert_eq!(a.report().shards[0].digest, b.report().shards[0].digest);
        b.process_sync(0, 4.0).unwrap();
        assert_ne!(a.report().shards[0].digest, b.report().shards[0].digest);
    }

    #[test]
    fn timestamps_feed_latency_histogram_but_not_digests() {
        let mut timed = small();
        let mut untimed = small();
        for i in 0..40 {
            let v = 4.0 + (i % 3) as f64;
            timed.process_sync_at(0, v, i as f64 * 0.5).unwrap();
            untimed.process_sync(0, v).unwrap();
        }
        // Identical values → identical digests, timestamps or not.
        assert_eq!(
            timed.report().shards[0].digest,
            untimed.report().shards[0].digest
        );
        let timed_report = timed.report();
        let hist = &timed_report.metrics.histograms["inter_observation_latency"];
        assert_eq!(hist.count(), 39, "one delta per consecutive timed pair");
        assert!((hist.mean() - 0.5).abs() < 1e-12);
        let untimed_report = untimed.report();
        let empty = &untimed_report.metrics.histograms["inter_observation_latency"];
        assert_eq!(empty.count(), 0, "untimed samples record no latency");
    }

    #[test]
    fn snapshot_restore_resumes_identically() {
        let mut live = small();
        for i in 0..137 {
            live.process_sync(i % 2, 50.0 + (i % 3) as f64).unwrap();
        }
        let checkpoint = live.snapshot();

        // A fresh supervisor restored from the checkpoint must agree
        // with the uninterrupted one on every subsequent decision.
        let mut resumed = small();
        resumed.restore(&checkpoint).unwrap();
        for i in 0..300 {
            let shard = (i % 2) as usize;
            let v = 45.0 + (i % 4) as f64;
            assert_eq!(
                live.process_sync(shard, v).unwrap(),
                resumed.process_sync(shard, v).unwrap()
            );
        }
        assert_eq!(live.report(), resumed.report());
    }

    #[test]
    fn restore_rejects_wrong_shard_count() {
        let live = small();
        let checkpoint = live.snapshot();
        let mut other = Supervisor::with_specs(SupervisorConfig::default(), &[sraa(); 3]).unwrap();
        assert_eq!(
            other.restore(&checkpoint),
            Err(RestoreError::ShardCountMismatch {
                expected: 3,
                found: 2,
            })
        );
    }

    #[test]
    fn restore_rejects_wrong_detector_kind() {
        let clta = DetectorSpec::new(DetectorKind::Clta);
        let clta_sup = Supervisor::with_specs(SupervisorConfig::default(), &[clta; 2]).unwrap();
        let checkpoint = clta_sup.snapshot();
        let mut sraa_sup = small();
        let before = sraa_sup.report();
        assert_eq!(
            sraa_sup.restore(&checkpoint),
            Err(RestoreError::Detector {
                shard: 0,
                source: SnapshotError::KindMismatch {
                    detector: "SRAA",
                    snapshot: "CLTA",
                },
            })
        );
        assert_eq!(sraa_sup.report(), before, "failed restore leaves no trace");
    }

    #[test]
    fn restore_rejects_unknown_version() {
        let live = small();
        let mut checkpoint = live.snapshot();
        checkpoint.version = 99;
        let mut other = small();
        assert_eq!(
            other.restore(&checkpoint),
            Err(RestoreError::VersionMismatch {
                expected: SNAPSHOT_VERSION,
                found: 99,
            })
        );
    }

    #[test]
    fn checkpoint_sink_fires_on_cadence_and_respects_batch_boundaries() {
        let mut sup = small();
        let seen: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
        let sink_seen = Arc::clone(&seen);
        sup.set_checkpoint(
            10,
            Box::new(move |snap| {
                let total: u64 = snap.shards.iter().map(|s| s.processed).sum();
                sink_seen.lock().unwrap().push(total);
                Ok(())
            }),
        );
        for i in 0..35 {
            sup.process_sync(i % 2, 5.0).unwrap();
        }
        let seen = seen.lock().unwrap();
        assert_eq!(&*seen, &[10, 20, 30], "one checkpoint per crossed decade");
    }

    #[test]
    fn timer_checkpoints_follow_injected_clock_ticks() {
        let specs = [
            DetectorSpec::new(DetectorKind::Sraa),
            DetectorSpec::new(DetectorKind::Clta),
        ];
        let mut sup = Supervisor::with_specs(
            SupervisorConfig {
                queue_capacity: 64,
                drain_batch: 8,
                ..SupervisorConfig::default()
            },
            &specs,
        )
        .unwrap();
        // A synthetic clock advancing 1 s per reading: checkpoints are
        // due once >= 3 s elapsed since the last emit, evaluated only
        // on drains that processed observations.
        let now = Arc::new(Mutex::new(0.0_f64));
        let clock_now = Arc::clone(&now);
        let seen: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
        let sink_seen = Arc::clone(&seen);
        sup.set_checkpoint_timer(
            3.0,
            Box::new(move || {
                let mut t = clock_now.lock().unwrap();
                *t += 1.0;
                *t
            }),
            Box::new(move |snap| {
                let total: u64 = snap.shards.iter().map(|s| s.processed).sum();
                sink_seen.lock().unwrap().push(total);
                Ok(())
            }),
        );
        for i in 0..12 {
            sup.process_sync(i % 2, 5.0).unwrap();
        }
        // Construction reads the clock once (t=1). Each processed drain
        // reads it once more; every third drain crosses the 3 s budget
        // and emits (which re-reads the clock to restart the window).
        let seen = seen.lock().unwrap();
        assert_eq!(&*seen, &[3, 6, 9, 12], "deterministic timer cadence");
    }

    #[test]
    fn restore_rejects_spec_drift_without_mutating_state() {
        let config = SupervisorConfig::default();
        let spec = DetectorSpec::new(DetectorKind::Sraa);
        let mut drifted = spec;
        drifted.buckets = 9;
        let mut donor = Supervisor::with_specs(config, &[drifted]).unwrap();
        for _ in 0..10 {
            donor.process_sync(0, 60.0).unwrap();
        }
        let checkpoint = donor.snapshot();
        let mut sup = Supervisor::with_specs(config, &[spec]).unwrap();
        sup.process_sync(0, 4.0).unwrap();
        let before = sup.report();
        assert_eq!(
            sup.restore(&checkpoint),
            Err(RestoreError::SpecMismatch {
                shard: 0,
                expected: Box::new(spec),
                found: Box::new(drifted),
            })
        );
        assert_eq!(sup.report(), before, "failed restore leaves no trace");
    }

    #[test]
    fn digests_are_seeded_with_the_detector_kind() {
        // Two kinds that agree on every decision for a tame stream must
        // still disagree on the digest: it certifies the algorithm too.
        let config = SupervisorConfig::default();
        let mut a =
            Supervisor::with_specs(config, &[DetectorSpec::new(DetectorKind::Sraa)]).unwrap();
        let mut b =
            Supervisor::with_specs(config, &[DetectorSpec::new(DetectorKind::Clta)]).unwrap();
        for _ in 0..50 {
            a.process_sync(0, 4.0).unwrap();
            b.process_sync(0, 4.0).unwrap();
        }
        let (ra, rb) = (a.report(), b.report());
        assert_eq!(ra.shards[0].rejuvenations, 0);
        assert_eq!(rb.shards[0].rejuvenations, 0);
        assert_ne!(ra.shards[0].digest, rb.shards[0].digest);
    }

    #[test]
    fn report_rolls_up_rejuvenations_per_detector_kind() {
        let specs = [
            DetectorSpec::new(DetectorKind::Sraa),
            DetectorSpec::new(DetectorKind::Clta),
            DetectorSpec::new(DetectorKind::Sraa),
        ];
        let mut sup = Supervisor::with_specs(SupervisorConfig::default(), &specs).unwrap();
        for shard in 0..3 {
            for _ in 0..200 {
                sup.process_sync(shard, 80.0).unwrap();
            }
        }
        let report = sup.report();
        assert_eq!(report.by_detector.len(), 2, "one rollup entry per kind");
        let clta = &report.by_detector[0];
        let sraa = &report.by_detector[1];
        assert_eq!((clta.detector.as_str(), clta.shards), ("CLTA", 1));
        assert_eq!((sraa.detector.as_str(), sraa.shards), ("SRAA", 2));
        assert_eq!(clta.processed, 200);
        assert_eq!(sraa.processed, 400);
        assert_eq!(
            clta.rejuvenations + sraa.rejuvenations,
            report.total_rejuvenations
        );
        assert!(sraa.rejuvenations > 0, "sustained 80 s fires SRAA");
        // The per-kind metrics counters agree with the rollup.
        assert_eq!(
            report.metrics.counters["rejuvenations_SRAA"],
            sraa.rejuvenations
        );
        assert_eq!(
            report.metrics.counters["rejuvenations_CLTA"],
            clta.rejuvenations
        );
    }

    #[test]
    fn supervisor_snapshot_round_trips_through_json() {
        let mut sup = small();
        for i in 0..9 {
            sup.process_sync_at(0, 30.0, i as f64).unwrap();
        }
        let snap = sup.snapshot();
        assert_eq!(snap.version, SNAPSHOT_VERSION);
        let text = serde_json::to_string(&snap).unwrap();
        let back: SupervisorSnapshot = serde_json::from_str(&text).unwrap();
        assert_eq!(snap, back);
    }

    #[test]
    fn sender_works_as_observation_sink() {
        use rejuv_sim::Observation;
        let mut sup = small();
        let mut sink: Box<dyn ObservationSink> = Box::new(sup.sender(1));
        assert!(sink.push(Observation::at_secs(0.5, 42.0)));
        assert_eq!(sup.poll_shard(1).unwrap(), 1);
        assert_eq!(sup.processed(1), 1);
    }

    /// One spec-built SRAA shard with a deliberately tiny queue, so
    /// lossy sends saturate it.
    fn tiny_specced(queue_capacity: usize) -> Supervisor {
        Supervisor::with_specs(
            SupervisorConfig {
                queue_capacity,
                drain_batch: 8,
                ..SupervisorConfig::default()
            },
            &[DetectorSpec::new(DetectorKind::Sraa)],
        )
        .unwrap()
    }

    #[test]
    fn dlq_saturated_run_reports_identically_to_an_undropped_run() {
        // Saturated: capacity 8 (>= drain_batch, the replay-determinism
        // condition), so most of the burst dead-letters; replay at the
        // drain boundary must reconstruct the exact logical stream.
        let mut saturated = tiny_specced(8);
        saturated.enable_dlq(256);
        let mut roomy = tiny_specced(256);
        let values: Vec<f64> = (0..120)
            .map(|i| {
                if i % 9 == 0 {
                    75.0
                } else {
                    4.0 + (i % 5) as f64
                }
            })
            .collect();
        for &v in &values {
            assert!(saturated.ingest(0, v), "DLQ absorbs the overflow");
            assert!(roomy.ingest(0, v));
        }
        while saturated.poll_shard(0).unwrap() > 0 {}
        while roomy.poll_shard(0).unwrap() > 0 {}
        let totals = saturated.dlq_totals();
        assert!(totals.captured > 0, "the run must actually saturate");
        assert_eq!(totals.pending, 0);
        assert_eq!(totals.overflow, 0);
        assert_eq!(totals.captured, totals.replayed);
        // Same decisions, same digests, same counters: the DLQ made
        // back-pressure invisible to the report.
        assert_eq!(saturated.report(), roomy.report());
    }

    #[test]
    fn dlq_snapshot_round_trips_as_v4_and_restores_dead_letters() {
        let mut sup = tiny_specced(8);
        sup.enable_dlq(16);
        for i in 0..12 {
            // Timestamped samples: NaN (untimed) timestamps would defeat
            // the `assert_eq!` below, NaN never comparing equal.
            assert!(sup.ingest_at(0, 40.0 + i as f64, i as f64));
        }
        let snap = sup.snapshot();
        assert_eq!(snap.version, SNAPSHOT_VERSION_DLQ);
        assert_eq!(snap.dlq.len(), 1);
        assert_eq!(snap.dlq[0].shard, 0);
        assert_eq!(snap.dlq[0].samples.len(), 4, "12 offered, 8 queued");
        assert_eq!(snap.dlq[0].captured, 4);
        let text = serde_json::to_string(&snap).unwrap();
        let back: SupervisorSnapshot = serde_json::from_str(&text).unwrap();
        assert_eq!(snap, back);

        let mut resumed = tiny_specced(8);
        resumed.enable_dlq(16);
        resumed.restore(&snap).unwrap();
        let stats = resumed.dlq_stats(0).unwrap();
        assert_eq!((stats.pending, stats.captured), (4, 4));
        // The reinstated dead letters replay on the next drain: the
        // queue itself was empty (pending queue contents are never
        // checkpointed), so exactly the 4 captured samples process.
        assert_eq!(resumed.poll_shard(0).unwrap(), 4);
        assert_eq!(resumed.dlq_stats(0).unwrap().pending, 0);
    }

    #[test]
    fn v4_checkpoint_into_a_dlq_less_supervisor_is_rejected() {
        let mut donor = tiny_specced(8);
        donor.enable_dlq(16);
        for i in 0..12 {
            donor.ingest(0, 40.0 + i as f64);
        }
        let snap = donor.snapshot();
        assert_eq!(snap.version, SNAPSHOT_VERSION_DLQ);
        let mut target = tiny_specced(8);
        let before = target.report();
        assert_eq!(
            target.restore(&snap),
            Err(RestoreError::DlqMismatch { shard: 0 })
        );
        assert_eq!(target.report(), before, "failed restore leaves no trace");
    }

    #[test]
    fn v3_checkpoint_resets_dead_letter_state_on_restore() {
        let donor = small();
        let snap = donor.snapshot();
        assert_eq!(snap.version, SNAPSHOT_VERSION, "no DLQ stays v3");
        let config = SupervisorConfig {
            queue_capacity: 2,
            drain_batch: 8,
            ..SupervisorConfig::default()
        };
        let mut target = Supervisor::with_specs(config, &[sraa(); 2]).unwrap();
        target.enable_dlq(8);
        for i in 0..5 {
            target.ingest(0, i as f64);
        }
        assert!(target.dlq_stats(0).unwrap().pending > 0);
        target.restore(&snap).unwrap();
        // The checkpoint is authoritative: it predates the dead
        // letters, so they are gone.
        assert_eq!(target.dlq_totals(), DlqStats::default());
    }

    #[test]
    fn reload_rebuilds_only_drifted_shards_and_folds_the_digest() {
        let specs = [
            DetectorSpec::new(DetectorKind::Sraa),
            DetectorSpec::new(DetectorKind::Clta),
        ];
        let mut sup = Supervisor::with_specs(SupervisorConfig::default(), &specs).unwrap();
        for shard in 0..2 {
            for _ in 0..30 {
                sup.process_sync(shard, 5.0).unwrap();
            }
        }
        let before = sup.report();
        let mut next = specs;
        next[1] = DetectorSpec::new(DetectorKind::Cusum);
        assert_eq!(sup.reload_specs(&next).unwrap(), vec![1]);
        // The untouched shard is bit-for-bit untouched; the rebuilt one
        // keeps its counters and folds the new kind into its digest.
        let after = sup.report();
        assert_eq!(after.shards[0], before.shards[0]);
        assert_eq!(after.shards[1].processed, 30);
        let before_digest = u64::from_str_radix(&before.shards[1].digest, 16).unwrap();
        assert_eq!(
            after.shards[1].digest,
            format!("{:016x}", fnv1a(before_digest, b"CUSUM"))
        );
        assert_eq!(sup.spec(1), &next[1]);
        // Topology gauges follow the current fleet: no CLTA shard is
        // left, so no CLTA gauge either.
        assert!(!after.metrics.gauges.contains_key("shards_CLTA"));
        assert_eq!(after.metrics.gauges["shards_CUSUM"], 1.0);
        assert_eq!(after.metrics.gauges["shards_SRAA"], 1.0);
        // Reloading the now-current fleet is a no-op.
        assert_eq!(sup.reload_specs(&next).unwrap(), Vec::<usize>::new());
    }

    #[test]
    fn reload_rejects_bad_fleets_without_mutating_any_shard() {
        let specs = [
            DetectorSpec::new(DetectorKind::Sraa),
            DetectorSpec::new(DetectorKind::Clta),
        ];
        let mut sup = Supervisor::with_specs(SupervisorConfig::default(), &specs).unwrap();
        for _ in 0..10 {
            sup.process_sync(0, 5.0).unwrap();
        }
        let before = sup.report();

        // Wrong shard count.
        assert!(matches!(
            sup.reload_specs(&specs[..1]),
            Err(ReloadError::ShardCountMismatch {
                expected: 2,
                found: 1,
            })
        ));
        // Shard 0 drifts to a *valid* spec, shard 1 to an invalid one:
        // validate-all-then-mutate means shard 0 must stay untouched.
        let mut bad = specs;
        bad[0] = DetectorSpec::new(DetectorKind::Cusum);
        bad[1].sample_size = 0;
        assert!(matches!(
            sup.reload_specs(&bad),
            Err(ReloadError::Spec { shard: 1, .. })
        ));
        assert_eq!(sup.report(), before, "failed reloads leave no trace");
        assert_eq!(sup.spec(0), &specs[0]);
    }

    #[test]
    fn bus_publishes_the_operational_event_stream() {
        let mut sup = Supervisor::with_specs(
            SupervisorConfig {
                queue_capacity: 4,
                drain_batch: 8,
                ..SupervisorConfig::default()
            },
            &[DetectorSpec::new(DetectorKind::Sraa)],
        )
        .unwrap();
        sup.enable_dlq(4);
        let bus = Arc::new(EventBus::new());
        sup.set_bus(Arc::clone(&bus));
        let sub = bus.subscribe(256);
        sup.set_checkpoint(8, Box::new(|_| Ok(())));

        // 4 queued, 4 dead-lettered, 2 overflowed.
        for i in 0..10 {
            sup.ingest(0, 60.0 + i as f64);
        }
        // Drain everything (replaying the dead letters), then push the
        // detector over its threshold so a rejuvenation fires.
        while sup.poll_shard(0).unwrap() > 0 {}
        while sup.rejuvenations(0) == 0 {
            sup.process_sync(0, 90.0).unwrap();
        }
        let events = sub.drain();
        let has = |pred: &dyn Fn(&OpEvent) -> bool| events.iter().any(pred);
        assert!(has(&|e| matches!(e, OpEvent::QueueSaturated { shard: 0 })));
        assert!(has(
            &|e| matches!(e, OpEvent::SamplesDeadLettered { shard: 0, count } if *count > 0)
        ));
        assert!(has(
            &|e| matches!(e, OpEvent::DlqOverflow { shard: 0, count } if *count > 0)
        ));
        assert!(has(
            &|e| matches!(e, OpEvent::DlqReplayed { shard: 0, count } if *count > 0)
        ));
        assert!(has(&|e| matches!(
            e,
            OpEvent::RejuvenationFired { shard: 0, .. }
        )));
        assert!(has(&|e| matches!(
            e,
            OpEvent::CheckpointWritten { total_processed } if *total_processed >= 8
        )));
        // Reload publishes the rebuild.
        let next = [DetectorSpec::new(DetectorKind::Clta)];
        sup.reload_specs(&next).unwrap();
        let events = sub.drain();
        assert!(events.iter().any(|e| matches!(
            e,
            OpEvent::ShardRebuilt { shard: 0, from, to } if from == "SRAA" && to == "CLTA"
        )));
        assert_eq!(sub.overflow(), 0);
    }
}
