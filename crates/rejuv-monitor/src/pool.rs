//! The multi-consumer drain plane: a [`ConsumerPool`] of N worker
//! threads draining one supervisor's shards concurrently.
//!
//! # Ownership and stealing
//!
//! Shards are partitioned round-robin at spawn: shard `i` starts owned
//! by worker `i % N`, recorded in a *claim table* of per-shard
//! `AtomicU32` owner slots. A worker drains only shards the table says
//! it owns. When its owned set runs dry it *steals*: it scans the table
//! for a shard it does not own whose backlog hint is at least the drain
//! batch and CASes the owner slot to itself. Stealing transfers *whole
//! shards* — never interleaved batches — so each shard's observation
//! sequence is applied by exactly one drain at a time (a per-shard lock
//! enforces it even across a mid-drain steal) and per-shard FIFO order,
//! digests, and counters are byte-identical across 1/2/4/8 consumers.
//!
//! After a wakeup that still finds the owned set dry, the steal
//! threshold drops to one pending sample: queue wakeups are routed to
//! the shard's owner *at attach time*, so after a steal a push can wake
//! a stale owner — that worker simply steals the work back instead of
//! re-parking over a non-empty queue.
//!
//! # Events, checkpoints, shutdown
//!
//! Workers encode log lines as they drain and buffer the bytes per
//! shard (in drain order), flushing them shard-major — shard 0's lines,
//! then shard 1's, … — at checkpoint time and at join. The buffer holds
//! what the log file will (about 37 bytes per timed observation) for
//! every batch since the last checkpoint. Per-shard event order is what
//! replay consumes, so
//! a flushed trace replays byte-identically no matter which workers
//! drained; with a fixed preloaded workload the trace *bytes* are also
//! identical across consumer counts, because batch boundaries and the
//! shard-major flush order are both deterministic.
//!
//! Checkpoints are emitted under a gate lock: the emitting worker walks
//! the shards in index order, capturing each shard's snapshot and
//! buffered lines at a drain-batch boundary (the per-shard lock
//! excludes mid-batch state), flushes the lines, then hands the
//! assembled [`SupervisorSnapshot`] to the sink. Shards are *not*
//! stopped globally — per-shard batch-boundary consistency is exactly
//! what [`crate::replay_fleet_events`] needs, since it skips each
//! shard's covered prefix independently.
//!
//! Shutdown is a drain barrier: every worker sweeps *every* shard
//! (ownership ignored) until it observes a clean pass. Producers must
//! stop pushing before [`ConsumerPool::join`]; then a clean pass proves
//! the queues are empty for good, so the final drain is loss-free.

use crate::assurance::failpoints::fp;
use crate::bridge::SharedSupervisor;
use crate::bus::{EventBus, OpEvent};
use crate::queue::{ObsQueue, Wakeup, WorkNotifier};
use crate::supervisor::{
    drain_shard, CheckpointStream, DrainScratch, MetricsFold, Shard, Supervisor, SupervisorConfig,
    SupervisorParts, SupervisorSnapshot,
};
use crate::EventLog;
use std::io;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// One shard plus its buffered (not yet flushed) log lines. The lock
/// serialises drains, so a shard's observation sequence stays FIFO even
/// when a steal lands mid-drain.
struct ShardCell {
    shard: Shard,
    /// Encoded log lines since the last flush, in drain order.
    lines: Vec<u8>,
}

struct ShardSlot {
    /// A clone of the shard's queue handle, reachable without the cell
    /// lock — backlog hints for stealing, notifier re-routing.
    queue: ObsQueue,
    cell: Mutex<ShardCell>,
}

/// Serialised supervisor-global state: the event log and the
/// checkpoint stream.
struct PoolControl {
    log: Option<EventLog>,
    checkpoint: Option<CheckpointStream>,
}

struct PoolShared {
    config: SupervisorConfig,
    slots: Vec<ShardSlot>,
    /// The claim table: `owner[s]` is the worker index owning shard `s`.
    owner: Vec<AtomicU32>,
    control: Mutex<PoolControl>,
    /// Serialises checkpoint emission across workers.
    gate: Mutex<()>,
    /// One notifier per worker; shard queues signal their owner's (as
    /// routed at attach time — possibly stale after a steal, which the
    /// desperate-steal rule recovers from).
    notifiers: Vec<Arc<WorkNotifier>>,
    logging: bool,
    checkpointing: bool,
    /// Total observations processed, updated at drain-batch granularity
    /// (drives the checkpoint cadence).
    total: AtomicU64,
    steals: AtomicU64,
    /// Observations drained per worker.
    drains: Vec<AtomicU64>,
    /// Operational event bus, if the supervisor had one attached
    /// (checkpoints emitted by workers publish through it too).
    bus: Option<Arc<EventBus>>,
}

impl PoolShared {
    /// Partitions a dismantled supervisor across `consumers` workers.
    fn build(parts: SupervisorParts, consumers: usize) -> Arc<PoolShared> {
        assert!(consumers > 0, "consumer count must be positive");
        let notifiers: Vec<_> = (0..consumers)
            .map(|_| Arc::new(WorkNotifier::new()))
            .collect();
        let initial: u64 = parts.shards.iter().map(|s| s.processed).sum();
        let mut slots = Vec::with_capacity(parts.shards.len());
        let mut owner = Vec::with_capacity(parts.shards.len());
        for (i, shard) in parts.shards.into_iter().enumerate() {
            let queue = shard.queue.clone();
            // A previous drain plane over these queues may have left the
            // producer-facing shutdown latch set; this pool is now the
            // live consumer, so blocking producers may park again.
            queue.clear_shutdown();
            queue.attach_notifier(Arc::clone(&notifiers[i % consumers]));
            owner.push(AtomicU32::new((i % consumers) as u32));
            slots.push(ShardSlot {
                queue,
                cell: Mutex::new(ShardCell {
                    shard,
                    lines: Vec::new(),
                }),
            });
        }
        Arc::new(PoolShared {
            logging: parts.log.is_some(),
            checkpointing: parts.checkpoint.is_some(),
            config: parts.config,
            slots,
            owner,
            control: Mutex::new(PoolControl {
                log: parts.log,
                checkpoint: parts.checkpoint,
            }),
            gate: Mutex::new(()),
            notifiers,
            total: AtomicU64::new(initial),
            steals: AtomicU64::new(0),
            drains: (0..consumers).map(|_| AtomicU64::new(0)).collect(),
            bus: parts.bus,
        })
    }

    /// Drains one batch from shard `index` under its cell lock,
    /// buffering any log lines; returns observations processed.
    fn drain_slot(
        &self,
        index: usize,
        worker: usize,
        scratch: &mut DrainScratch,
    ) -> io::Result<usize> {
        fp!("pool.drain-slot");
        let mut guard = self.slots[index].cell.lock().expect("shard cell poisoned");
        let cell = &mut *guard;
        let lines = self.logging.then_some(&mut cell.lines);
        let n = drain_shard(index, &mut cell.shard, &self.config, scratch, lines);
        drop(guard);
        let n = n?;
        if n > 0 {
            self.total.fetch_add(n as u64, Ordering::Relaxed);
            self.drains[worker].fetch_add(n as u64, Ordering::Relaxed);
        }
        Ok(n)
    }

    /// Tries to claim one shard with backlog `>= threshold` away from
    /// its current owner (ring scan starting after `worker`, so workers
    /// spread over different victims). Returns whether a steal landed.
    fn try_steal(&self, worker: usize, threshold: usize) -> bool {
        let n = self.slots.len();
        let me = worker as u32;
        for step in 1..=n {
            let s = (worker + step) % n;
            let current = self.owner[s].load(Ordering::Acquire);
            if current == me {
                continue;
            }
            if self.slots[s].queue.backlog_hint() < threshold.max(1) {
                continue;
            }
            if self.owner[s]
                .compare_exchange(current, me, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                self.steals.fetch_add(1, Ordering::Relaxed);
                fp!("pool.steal-claimed");
                // Route future empty→non-empty wakeups to the new owner.
                self.slots[s]
                    .queue
                    .attach_notifier(Arc::clone(&self.notifiers[worker]));
                return true;
            }
        }
        false
    }

    /// Emits a checkpoint if the cadence is due; no-op otherwise.
    fn maybe_checkpoint(&self) -> io::Result<()> {
        if !self.checkpointing {
            return Ok(());
        }
        let _gate = self.gate.lock().expect("pool gate poisoned");
        {
            let mut control = self.control.lock().expect("pool control poisoned");
            let Some(stream) = control.checkpoint.as_mut() else {
                return Ok(());
            };
            if !stream.due(self.total.load(Ordering::Relaxed)) {
                return Ok(());
            }
        }
        self.checkpoint_gated()
    }

    /// Captures and emits one checkpoint; the caller holds the gate.
    fn checkpoint_gated(&self) -> io::Result<()> {
        fp!("pool.checkpoint-gate");
        let mut views = Vec::with_capacity(self.slots.len());
        let mut fold = MetricsFold::new();
        let mut flushes: Vec<Vec<u8>> = Vec::with_capacity(self.slots.len());
        for slot in &self.slots {
            let mut cell = slot.cell.lock().expect("shard cell poisoned");
            views.push(cell.shard.snapshot_view());
            fold.add(&cell.shard);
            flushes.push(std::mem::take(&mut cell.lines));
        }
        let mut control = self.control.lock().expect("pool control poisoned");
        let control = &mut *control;
        if let Some(log) = control.log.as_mut() {
            for lines in &flushes {
                log.write_encoded(lines)?;
            }
            log.flush()?;
        }
        let snapshot =
            SupervisorSnapshot::assemble(views, fold, self.slots.iter().map(|s| &s.queue));
        let total: u64 = snapshot.shards.iter().map(|s| s.processed).sum();
        if let Some(stream) = control.checkpoint.as_mut() {
            stream.emit(&snapshot, total)?;
        }
        if let Some(bus) = self.bus.as_ref() {
            bus.publish(OpEvent::CheckpointWritten {
                total_processed: total,
            });
        }
        Ok(())
    }

    fn stats(&self) -> PoolStats {
        PoolStats {
            consumers: self.notifiers.len(),
            steals: self.steals.load(Ordering::Relaxed),
            parks: self.notifiers.iter().map(|n| n.parks()).sum(),
            per_thread_drains: self
                .drains
                .iter()
                .map(|d| d.load(Ordering::Relaxed))
                .collect(),
        }
    }
}

/// Joins every worker, then reports the first panic (re-raised with
/// its payload) or else the first error. Joining them all first means
/// a worker that panicked never leaves the others running detached,
/// still writing the log and checkpoints behind the caller's back.
fn join_workers(handles: Vec<JoinHandle<io::Result<()>>>) -> io::Result<()> {
    let mut result = Ok(());
    let mut panicked = None;
    for handle in handles {
        match handle.join() {
            Ok(joined) => {
                if result.is_ok() {
                    result = joined;
                }
            }
            Err(payload) => {
                panicked.get_or_insert(payload);
            }
        }
    }
    if let Some(payload) = panicked {
        std::panic::resume_unwind(payload);
    }
    result
}

/// The drain loop of one pooled worker.
fn worker_loop(shared: &PoolShared, worker: usize) -> io::Result<()> {
    let me = worker as u32;
    let mut batch = DrainScratch::with_capacity(shared.config.drain_batch);
    let steal_threshold = shared.config.drain_batch;
    // Set after a wakeup that found the owned set dry: the push that
    // woke us may live in a shard we no longer (or never) owned, so
    // steal anything non-empty instead of re-parking over it.
    let mut desperate = false;
    loop {
        let mut drained = 0;
        for s in 0..shared.slots.len() {
            if shared.owner[s].load(Ordering::Acquire) != me {
                continue;
            }
            drained += shared.drain_slot(s, worker, &mut batch)?;
        }
        if drained > 0 {
            desperate = false;
            shared.maybe_checkpoint()?;
            continue;
        }
        let threshold = if desperate { 1 } else { steal_threshold };
        if shared.try_steal(worker, threshold) {
            desperate = false;
            continue;
        }
        match shared.notifiers[worker].wait() {
            Wakeup::Work => desperate = true,
            Wakeup::Shutdown => break,
        }
    }
    // Shutdown drain barrier: sweep every shard, ownership ignored,
    // until a clean pass. Producers stopped before join, so a clean
    // pass proves the queues this worker can see are empty for good.
    loop {
        fp!("pool.shutdown-sweep");
        let mut drained = 0;
        for s in 0..shared.slots.len() {
            drained += shared.drain_slot(s, worker, &mut batch)?;
        }
        if drained == 0 {
            break;
        }
    }
    Ok(())
}

/// How the pool reaches the supervisor.
enum Mode {
    /// The pool owns the dismantled supervisor outright; `join` hands
    /// it back reassembled.
    Owned {
        shared: Arc<PoolShared>,
        handles: Vec<JoinHandle<io::Result<()>>>,
    },
    /// The pool coexists with synchronous bridges: workers contend for
    /// the [`SharedSupervisor`] lock and drain through `poll_all`.
    Shared {
        notifier: Arc<WorkNotifier>,
        drains: Arc<Vec<AtomicU64>>,
        handles: Vec<JoinHandle<io::Result<()>>>,
        /// Queue handles cloned at spawn so `join` can latch the
        /// producer-facing shutdown flag without re-locking the
        /// supervisor.
        queues: Vec<ObsQueue>,
    },
}

/// A cheap, cloneable handle reading a pool's drain-plane telemetry
/// without borrowing the pool — what a metrics scraper thread holds
/// while the daemon keeps the [`ConsumerPool`] itself joinable.
///
/// Owned pools are referenced weakly so [`ConsumerPool::join`] can
/// still reclaim the supervisor; [`PoolStatsHandle::stats`] returns
/// `None` once the pool has joined.
#[derive(Clone)]
pub struct PoolStatsHandle {
    mode: StatsHandleMode,
}

#[derive(Clone)]
enum StatsHandleMode {
    Owned(std::sync::Weak<PoolShared>),
    Shared {
        notifier: Arc<WorkNotifier>,
        drains: Arc<Vec<AtomicU64>>,
    },
}

impl std::fmt::Debug for PoolStatsHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PoolStatsHandle")
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

impl PoolStatsHandle {
    /// Current drain-plane telemetry (relaxed atomics: approximate
    /// while workers run). `None` once an owned pool has joined.
    pub fn stats(&self) -> Option<PoolStats> {
        match &self.mode {
            StatsHandleMode::Owned(weak) => weak.upgrade().map(|shared| shared.stats()),
            StatsHandleMode::Shared { notifier, drains } => Some(PoolStats {
                consumers: drains.len(),
                steals: 0,
                parks: notifier.parks(),
                per_thread_drains: drains.iter().map(|d| d.load(Ordering::Relaxed)).collect(),
            }),
        }
    }
}

/// N parked consumer threads draining one supervisor's shards with
/// whole-shard ownership and bounded work-stealing (see the module
/// docs). `consumers: 1` reproduces the single-consumer runtime's
/// digests, reports, traces and checkpoints byte-for-byte — consumer
/// count is a pure execution-strategy knob.
pub struct ConsumerPool {
    mode: Mode,
}

impl std::fmt::Debug for ConsumerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("ConsumerPool")
            .field("consumers", &stats.consumers)
            .field("steals", &stats.steals)
            .field("parks", &stats.parks)
            .finish_non_exhaustive()
    }
}

/// Drain-plane telemetry of a [`ConsumerPool`]. All counters are read
/// with relaxed atomics: exact once the pool has joined, approximate
/// while workers are live.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolStats {
    /// Worker threads in the pool.
    pub consumers: usize,
    /// Whole-shard ownership transfers (work-stealing events).
    pub steals: u64,
    /// Times a worker actually went to sleep waiting for work, summed
    /// over all workers.
    pub parks: u64,
    /// Observations drained per worker, by worker index.
    pub per_thread_drains: Vec<u64>,
}

/// What [`ConsumerPool::join`] hands back.
#[derive(Debug)]
pub struct PoolJoin {
    /// The reassembled supervisor, when the pool owned one
    /// ([`ConsumerPool::spawn`]); `None` for the shared flavour.
    pub supervisor: Option<Supervisor>,
    /// Final drain-plane telemetry.
    pub stats: PoolStats,
}

impl ConsumerPool {
    /// Spawns `supervisor.config().consumers` workers owning the
    /// supervisor outright. Clone shard senders *before* calling this;
    /// [`ConsumerPool::join`] hands the supervisor back.
    pub fn spawn(supervisor: Supervisor) -> Self {
        let consumers = supervisor.config().consumers;
        let shared = PoolShared::build(supervisor.into_parts(), consumers);
        let handles = (0..consumers)
            .map(|w| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("rejuv-consumer-{w}"))
                    .spawn(move || worker_loop(&shared, w))
                    .expect("spawn consumer worker")
            })
            .collect();
        ConsumerPool {
            mode: Mode::Owned { shared, handles },
        }
    }

    /// Spawns workers over a [`SharedSupervisor`], coexisting with
    /// synchronous [`crate::MonitorBridge`]s. All workers share one
    /// notifier and contend for the supervisor lock; `join` returns
    /// `None` for the supervisor.
    pub fn spawn_shared(supervisor: &SharedSupervisor) -> Self {
        let parts = supervisor.with(|s| {
            let n = s.config().consumers;
            let notifier = Arc::new(WorkNotifier::new());
            let mut queues = Vec::with_capacity(s.shard_count());
            for shard in 0..s.shard_count() {
                let queue = s.queue(shard);
                queue.clear_shutdown();
                queue.attach_notifier(Arc::clone(&notifier));
                queues.push(queue.clone());
            }
            (n, notifier, queues)
        });
        let (consumers, notifier, queues) = parts;
        let drains: Arc<Vec<AtomicU64>> =
            Arc::new((0..consumers).map(|_| AtomicU64::new(0)).collect());
        let handles = (0..consumers)
            .map(|w| {
                let shared = supervisor.clone();
                let notifier = Arc::clone(&notifier);
                let drains = Arc::clone(&drains);
                std::thread::Builder::new()
                    .name(format!("rejuv-consumer-{w}"))
                    .spawn(move || shared_worker_loop(&shared, &notifier, &drains[w]))
                    .expect("spawn consumer worker")
            })
            .collect();
        ConsumerPool {
            mode: Mode::Shared {
                notifier,
                drains,
                handles,
                queues,
            },
        }
    }

    /// Current drain-plane telemetry (approximate while workers run).
    pub fn stats(&self) -> PoolStats {
        match &self.mode {
            Mode::Owned { shared, .. } => shared.stats(),
            Mode::Shared {
                notifier, drains, ..
            } => PoolStats {
                consumers: drains.len(),
                steals: 0,
                parks: notifier.parks(),
                per_thread_drains: drains.iter().map(|d| d.load(Ordering::Relaxed)).collect(),
            },
        }
    }

    /// Times a worker actually went to sleep, summed over the pool.
    pub fn parks(&self) -> u64 {
        self.stats().parks
    }

    /// A cloneable telemetry handle that outlives borrows of the pool
    /// (but not, for owned pools, [`ConsumerPool::join`] — stats read
    /// `None` after the supervisor is reclaimed).
    pub fn stats_handle(&self) -> PoolStatsHandle {
        let mode = match &self.mode {
            Mode::Owned { shared, .. } => StatsHandleMode::Owned(Arc::downgrade(shared)),
            Mode::Shared {
                notifier, drains, ..
            } => StatsHandleMode::Shared {
                notifier: Arc::clone(notifier),
                drains: Arc::clone(drains),
            },
        };
        PoolStatsHandle { mode }
    }

    /// Signals shutdown, waits for the loss-free drain barrier, flushes
    /// remaining buffered log lines shard-major, and hands back the
    /// reassembled supervisor (owned flavour) plus final telemetry.
    ///
    /// # Errors
    ///
    /// Propagates the first event-log / checkpoint-sink failure any
    /// worker hit.
    ///
    /// # Panics
    ///
    /// Panics if a worker thread itself panicked.
    pub fn join(self) -> io::Result<PoolJoin> {
        fp!("consumer.join");
        match self.mode {
            Mode::Owned { shared, handles } => {
                for notifier in &shared.notifiers {
                    notifier.shutdown();
                }
                join_workers(handles)?;
                // With the drain plane gone, latch every queue's
                // shutdown flag so a blocking producer that is (or
                // gets) parked on a full queue wakes and returns short
                // instead of sleeping forever with no consumer left.
                for slot in &shared.slots {
                    slot.queue.shutdown();
                }
                let stats = shared.stats();
                let shared = Arc::try_unwrap(shared)
                    .map_err(|_| ())
                    .expect("all workers joined");
                let PoolShared {
                    config,
                    slots,
                    control,
                    bus,
                    ..
                } = shared;
                let mut control = control.into_inner().expect("pool control poisoned");
                let mut shards = Vec::with_capacity(slots.len());
                for slot in slots {
                    let cell = slot.cell.into_inner().expect("shard cell poisoned");
                    if let Some(log) = control.log.as_mut() {
                        log.write_encoded(&cell.lines)?;
                    }
                    shards.push(cell.shard);
                }
                let supervisor = Supervisor::from_parts(SupervisorParts {
                    config,
                    shards,
                    log: control.log,
                    checkpoint: control.checkpoint,
                    bus,
                });
                Ok(PoolJoin {
                    supervisor: Some(supervisor),
                    stats,
                })
            }
            Mode::Shared {
                notifier,
                drains,
                handles,
                queues,
            } => {
                notifier.shutdown();
                join_workers(handles)?;
                for queue in &queues {
                    queue.shutdown();
                }
                Ok(PoolJoin {
                    supervisor: None,
                    stats: PoolStats {
                        consumers: drains.len(),
                        steals: 0,
                        parks: notifier.parks(),
                        per_thread_drains: drains
                            .iter()
                            .map(|d| d.load(Ordering::Relaxed))
                            .collect(),
                    },
                })
            }
        }
    }
}

/// The drain loop of one shared-mode worker: contend for the
/// supervisor lock, drain everything, park.
fn shared_worker_loop(
    shared: &SharedSupervisor,
    notifier: &WorkNotifier,
    drained_count: &AtomicU64,
) -> io::Result<()> {
    loop {
        let n = shared.with(|s| s.poll_all())?;
        if n > 0 {
            drained_count.fetch_add(n as u64, Ordering::Relaxed);
            continue;
        }
        match notifier.wait() {
            Wakeup::Work => continue,
            Wakeup::Shutdown => break,
        }
    }
    loop {
        let n = shared.with(|s| s.poll_all())?;
        if n == 0 {
            break;
        }
        drained_count.fetch_add(n as u64, Ordering::Relaxed);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::UNTIMED;
    use crate::supervisor::tests::sraa;
    use crate::supervisor::SupervisorConfig;
    use proptest::prelude::*;
    use rejuv_core::RejuvenationDetector;

    #[test]
    fn join_workers_stops_every_worker_before_reraising_a_panic() {
        let finished = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let crashed = std::thread::spawn(|| -> io::Result<()> {
            std::panic::resume_unwind(Box::new("worker crash"))
        });
        let survivor = {
            let finished = Arc::clone(&finished);
            std::thread::spawn(move || -> io::Result<()> {
                finished.store(true, Ordering::SeqCst);
                Ok(())
            })
        };
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            join_workers(vec![crashed, survivor])
        }));
        let payload = outcome.expect_err("the crash is re-raised");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"worker crash"));
        assert!(
            finished.load(Ordering::SeqCst),
            "the surviving worker was joined, not left running detached"
        );
    }

    /// A deterministic per-shard workload with occasional spikes.
    fn synthetic(shard: u64, i: u64) -> f64 {
        let spike = if i.is_multiple_of(97) { 40.0 } else { 0.0 };
        3.0 + ((i * 7 + shard * 13) % 23) as f64 * 0.6 + spike
    }

    fn preloaded(shards: usize, per_shard: usize, consumers: usize) -> Supervisor {
        let sup = Supervisor::with_specs(
            SupervisorConfig {
                queue_capacity: shards * per_shard + 1,
                drain_batch: 16,
                consumers,
                ..SupervisorConfig::default()
            },
            &vec![sraa(); shards],
        )
        .unwrap();
        for s in 0..shards {
            for i in 0..per_shard {
                assert_eq!(
                    sup.sender(s)
                        .send_batch([(synthetic(s as u64, i as u64), UNTIMED)]),
                    1
                );
            }
        }
        sup
    }

    #[test]
    fn reports_identical_across_consumer_counts() {
        let reference = {
            let pool = ConsumerPool::spawn(preloaded(5, 3_000, 1));
            let joined = pool.join().unwrap();
            joined.supervisor.unwrap().report()
        };
        for consumers in [2usize, 4, 8] {
            let pool = ConsumerPool::spawn(preloaded(5, 3_000, consumers));
            let joined = pool.join().unwrap();
            assert_eq!(joined.stats.consumers, consumers);
            assert_eq!(
                joined.stats.per_thread_drains.iter().sum::<u64>(),
                15_000,
                "every observation drained exactly once at {consumers} consumers"
            );
            let report = joined.supervisor.unwrap().report();
            assert_eq!(
                serde_json::to_string(&reference).unwrap(),
                serde_json::to_string(&report).unwrap(),
                "report bytes diverged at {consumers} consumers"
            );
        }
    }

    #[test]
    fn live_blocking_producers_are_loss_free_across_counts() {
        for consumers in [1usize, 2, 4] {
            let sup = Supervisor::with_specs(
                SupervisorConfig {
                    queue_capacity: 64,
                    drain_batch: 16,
                    consumers,
                    ..SupervisorConfig::default()
                },
                &[sraa(); 3],
            )
            .unwrap();
            let senders: Vec<_> = (0..3).map(|s| sup.sender(s)).collect();
            let pool = ConsumerPool::spawn(sup);
            std::thread::scope(|scope| {
                for (shard, sender) in senders.iter().enumerate() {
                    scope.spawn(move || {
                        for i in 0..10_000u64 {
                            sender.send_batch_blocking([(synthetic(shard as u64, i), UNTIMED)]);
                        }
                    });
                }
            });
            let joined = pool.join().unwrap();
            let report = joined.supervisor.unwrap().report();
            assert_eq!(report.total_processed, 30_000, "{consumers} consumers");
            assert_eq!(report.total_dropped, 0);
        }
    }

    #[test]
    fn claim_table_steal_transfers_whole_shard_ownership() {
        let sup = preloaded(2, 100, 2);
        let shared = PoolShared::build(sup.into_parts(), 2);
        assert_eq!(shared.owner[0].load(Ordering::Relaxed), 0);
        assert_eq!(shared.owner[1].load(Ordering::Relaxed), 1);
        // Worker 0 steals shard 1 (backlog 100 >= threshold).
        assert!(shared.try_steal(0, 16));
        assert_eq!(shared.owner[1].load(Ordering::Relaxed), 0);
        assert_eq!(shared.stats().steals, 1);
        // Nothing left for worker 1 to steal above the backlog bar once
        // the queues are drained.
        let mut batch = DrainScratch::default();
        while shared.drain_slot(0, 0, &mut batch).unwrap() > 0 {}
        while shared.drain_slot(1, 0, &mut batch).unwrap() > 0 {}
        assert!(!shared.try_steal(1, 1), "empty shards are never stolen");
        assert_eq!(shared.owner[1].load(Ordering::Relaxed), 0);
    }

    #[test]
    fn pool_workers_park_while_idle() {
        let sup = Supervisor::with_specs(
            SupervisorConfig {
                consumers: 3,
                ..SupervisorConfig::default()
            },
            &[sraa(); 3],
        )
        .unwrap();
        let sender = sup.sender(1);
        let pool = ConsumerPool::spawn(sup);
        std::thread::sleep(std::time::Duration::from_millis(50));
        assert!(pool.parks() >= 3, "all idle workers parked");
        sender.send_batch([(42.0, UNTIMED)]);
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while sender.backlog() > 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        assert_eq!(sender.backlog(), 0, "the wakeup drained the push");
        let joined = pool.join().unwrap();
        assert_eq!(joined.supervisor.unwrap().processed(1), 1);
    }

    #[test]
    fn shared_pool_coexists_with_bridges() {
        let supervisor = Supervisor::with_specs(SupervisorConfig::default(), &[sraa(); 2]).unwrap();
        let shared = SharedSupervisor::new(supervisor);
        let pool = ConsumerPool::spawn_shared(&shared);
        let mut bridge = shared.bridge(0);
        let sender = shared.with(|s| s.sender(1));
        for i in 0..200 {
            bridge.observe(4.0 + (i % 3) as f64);
            sender.send_batch([(5.0, UNTIMED)]);
        }
        assert!(pool.join().unwrap().supervisor.is_none(), "shared flavour");
        let report = shared.report();
        assert_eq!(report.shards[0].processed, 200, "bridge path");
        assert_eq!(report.shards[1].processed, 200, "sender path drained");
    }

    #[test]
    fn pool_checkpoints_are_restorable_mid_run() {
        use std::sync::Mutex as StdMutex;
        let mut sup = preloaded(3, 2_000, 4);
        let seen: Arc<StdMutex<Vec<SupervisorSnapshot>>> = Arc::new(StdMutex::new(Vec::new()));
        let sink_seen = Arc::clone(&seen);
        sup.set_checkpoint(
            500,
            Box::new(move |snap| {
                sink_seen.lock().unwrap().push(snap.clone());
                Ok(())
            }),
        );
        let pool = ConsumerPool::spawn(sup);
        let supervisor = pool.join().unwrap().supervisor.unwrap();
        assert_eq!(supervisor.total_processed(), 6_000);
        let seen = seen.lock().unwrap();
        assert!(!seen.is_empty(), "the cadence fired at least once");
        for snap in seen.iter() {
            let mut resumed = Supervisor::with_specs(
                SupervisorConfig {
                    consumers: 4,
                    ..SupervisorConfig::default()
                },
                &[sraa(); 3],
            )
            .unwrap();
            resumed.restore(snap).expect("pool checkpoints restore");
            // Every per-shard prefix lands on a drain-batch boundary
            // (or the end of the preload), which is what resumed
            // replay relies on.
            for shard in &snap.shards {
                assert!(shard.processed == 2_000 || shard.processed % 16 == 0);
            }
        }
    }

    /// One schedule step of the steal-interleaving property test.
    #[derive(Debug, Clone)]
    enum Step {
        /// `worker` drains one batch from every shard it owns.
        DrainOwned(usize),
        /// `worker` attempts a steal with the given backlog threshold.
        Steal(usize, usize),
        /// Push `count` more samples into `shard` (drops allowed).
        Push(usize, u8),
    }

    fn step_strategy(workers: usize, shards: usize) -> impl Strategy<Value = Step> {
        prop_oneof![
            (0..workers).prop_map(Step::DrainOwned),
            (0..workers, 1usize..32).prop_map(|(w, t)| Step::Steal(w, t)),
            (0..shards, 1u8..20).prop_map(|(s, n)| Step::Push(s, n)),
        ]
    }

    proptest! {
        /// Any single-threaded interleaving of drains, steals and
        /// pushes preserves per-shard FIFO order (digest equality with
        /// a serial reference) and exact drop accounting.
        #[test]
        fn arbitrary_steal_interleavings_preserve_order_and_accounting(
            steps in proptest::collection::vec(step_strategy(3, 4), 0..120),
        ) {
            const SHARDS: usize = 4;
            let sup = Supervisor::with_specs(SupervisorConfig {
                    queue_capacity: 8,
                    drain_batch: 4,
                    consumers: 3,
                    ..SupervisorConfig::default()
                }, &[sraa(); SHARDS]).unwrap();
            let shared = PoolShared::build(sup.into_parts(), 3);
            let mut sent: Vec<u64> = vec![0; SHARDS];
            let mut accepted_values: Vec<Vec<f64>> = vec![Vec::new(); SHARDS];
            let mut batch = DrainScratch::default();
            for step in &steps {
                match step {
                    Step::DrainOwned(worker) => {
                        for s in 0..SHARDS {
                            if shared.owner[s].load(Ordering::Relaxed) == *worker as u32 {
                                shared.drain_slot(s, *worker, &mut batch).unwrap();
                            }
                        }
                    }
                    Step::Steal(worker, threshold) => {
                        shared.try_steal(*worker, *threshold);
                    }
                    Step::Push(shard, count) => {
                        for _ in 0..*count {
                            let value = synthetic(*shard as u64, sent[*shard]);
                            sent[*shard] += 1;
                            if shared.slots[*shard].queue.push_batch([(value, UNTIMED)]) == 1 {
                                accepted_values[*shard].push(value);
                            }
                        }
                    }
                }
            }
            // Shutdown barrier: every worker sweeps everything.
            for worker in 0..3 {
                loop {
                    let mut n = 0;
                    for s in 0..SHARDS {
                        n += shared.drain_slot(s, worker, &mut batch).unwrap();
                    }
                    if n == 0 {
                        break;
                    }
                }
            }
            for s in 0..SHARDS {
                let cell = shared.slots[s].cell.lock().unwrap();
                // Exact accounting: accepted + dropped == sent, and
                // everything accepted was processed exactly once.
                prop_assert_eq!(
                    cell.shard.queue.accepted() + cell.shard.queue.dropped(),
                    sent[s]
                );
                prop_assert_eq!(cell.shard.processed, accepted_values[s].len() as u64);
                // FIFO order: the digest matches a serial reference fed
                // the accepted values in push order.
                let mut reference = sraa().build().unwrap();
                let mut digest = {
                    let mut d = 0xcbf2_9ce4_8422_2325u64;
                    for &b in reference.name().as_bytes() {
                        d ^= u64::from(b);
                        d = d.wrapping_mul(0x0000_0100_0000_01b3);
                    }
                    d
                };
                for &value in &accepted_values[s] {
                    let decision = reference.observe(value);
                    // Word-at-a-time fold, mirroring the supervisor's
                    // `fold_sample`: one xor-multiply for the value
                    // bits, one for the decision.
                    digest = (digest ^ value.to_bits()).wrapping_mul(0x0000_0100_0000_01b3);
                    digest = (digest ^ u64::from(decision.is_rejuvenate()))
                        .wrapping_mul(0x0000_0100_0000_01b3);
                }
                prop_assert_eq!(cell.shard.digest, digest, "shard {} order drifted", s);
            }
        }
    }
}
