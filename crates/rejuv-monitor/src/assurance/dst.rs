//! Deterministic crash-simulation harness (requires `failpoints`).
//!
//! For each registered failpoint × seeded schedule, [`run`]:
//!
//! 1. **Calibrates** — executes a deterministic workload with the
//!    failpoint session counting hits per site (no arming), and checks
//!    the clean run's artifacts against the guarantee oracles.
//! 2. **Crashes** — re-runs the workload with one site armed to panic
//!    on a seeded hit index, catching the unwind (the simulated crash
//!    plus any poisoned-lock cascades it causes in worker threads).
//! 3. **Tears the trace** — truncates the JSONL event log to a seeded
//!    length between the last *flushed* byte and the last *written*
//!    byte, modelling the page-cache data a real crash destroys (the
//!    cut can land mid-line, torn-final-line recovery included).
//! 4. **Resumes and judges** — loads whatever checkpoint survived,
//!    replays the surviving trace fresh and resumed, runs a real
//!    continuation workload from the restored state, and feeds it all
//!    to the four oracles in [`crate::assurance::oracle`].
//!
//! Three workload shapes cover the whole [`CATALOG`]: a synchronous
//! single-consumer run (checkpoint pipeline, push/drain/unpark sites),
//! a multi-consumer work-stealing pool run (notify, park, steal, gated
//! checkpoint, shutdown sweep, join), and a back-pressure run (producer
//! park sites, via a full queue with a blocking producer).
//!
//! Everything is derived from the trace's seed — no wall clock, no
//! process entropy — so a failing `(scenario, site, seed)` triple
//! replays exactly. Failpoint state is process-global, so [`run`]
//! serialises itself behind one lock.

use crate::assurance::failpoints::{self, CATALOG};
use crate::assurance::oracle::{
    check_g1_checkpoint_integrity, check_g2_replay_convergence, check_g3_no_loss,
    check_g4_rejection_is_pure, Violation,
};
use crate::checkpoint::save_snapshot;
use crate::event::{read_events_tolerant, EventLog, MonitorEvent};
use crate::pool::ConsumerPool;
use crate::queue::{ObsQueue, UNTIMED};
use crate::supervisor::{MonitorReport, Supervisor, SupervisorConfig, SupervisorSnapshot};
use rand::Rng;
use rejuv_core::{DetectorKind, DetectorSpec};
use rejuv_sim::RngStreams;
use std::collections::{BTreeMap, BTreeSet};
use std::fs::{File, OpenOptions};
use std::io::{self, BufReader, Write};
use std::panic::{self, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, Once};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------
// Crash-fidelity trace sink
// ---------------------------------------------------------------------

/// A `Write` sink over a real file that tracks how many bytes were
/// written versus explicitly flushed. A panic-based "crash" is kinder
/// than a real one — buffered writers flush on drop during unwind — so
/// the harness writes the trace through this sink and, after catching
/// the crash, truncates the file to a seeded length in
/// `[flushed, written]`: everything since the last flush is fair game
/// for the page cache to have lost.
#[derive(Debug, Clone)]
struct TrackedWriter {
    inner: Arc<Mutex<TrackedInner>>,
}

#[derive(Debug)]
struct TrackedInner {
    file: File,
    written: u64,
    flushed: u64,
}

impl TrackedWriter {
    fn create(path: &Path) -> io::Result<TrackedWriter> {
        Ok(TrackedWriter {
            inner: Arc::new(Mutex::new(TrackedInner {
                file: File::create(path)?,
                written: 0,
                flushed: 0,
            })),
        })
    }

    /// `(written, flushed)` byte counts, robust to a poisoning crash.
    fn lens(&self) -> (u64, u64) {
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        (inner.written, inner.flushed)
    }
}

impl Write for TrackedWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.file.write_all(buf)?;
        inner.written += buf.len() as u64;
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.file.flush()?;
        inner.flushed = inner.written;
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Scenarios
// ---------------------------------------------------------------------

/// Parking slot for the pool scenario's consumer handle: the driver
/// thread may crash mid-run, and whoever catches the unwind must still
/// be able to shut the worker threads down instead of leaking them.
type ConsumerSlot = Arc<Mutex<Option<ConsumerPool>>>;

/// One deterministic workload shape; between them the three shapes hit
/// every site in the [`CATALOG`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Scenario {
    /// Synchronous ingest/poll fleet. Every checkpoint is quiescent,
    /// so G2 is checked at byte identity.
    Single,
    /// Multi-consumer work-stealing pool with preloaded backlogs (for
    /// deterministic steals) and lossy-but-loss-free producers.
    Pool,
    /// A short `Single`-style run for artifacts, then a full queue with
    /// a blocking producer to reach the producer park sites.
    Backpressure,
}

const SCENARIOS: &[Scenario] = &[Scenario::Single, Scenario::Pool, Scenario::Backpressure];

impl Scenario {
    fn name(self) -> &'static str {
        match self {
            Scenario::Single => "single",
            Scenario::Pool => "pool",
            Scenario::Backpressure => "backpressure",
        }
    }

    /// Shard specs; shards 0 and 1 always differ in kind so the G4
    /// state-swap corruption is guaranteed to be rejectable.
    fn specs(self) -> Vec<DetectorSpec> {
        match self {
            Scenario::Single => vec![
                DetectorSpec::with_baseline(DetectorKind::Sraa, 5.0, 5.0),
                DetectorSpec::with_baseline(DetectorKind::Cusum, 5.0, 5.0),
                DetectorSpec::with_baseline(DetectorKind::Saraa, 5.0, 5.0),
            ],
            Scenario::Pool => vec![
                DetectorSpec::with_baseline(DetectorKind::Sraa, 5.0, 5.0),
                DetectorSpec::with_baseline(DetectorKind::Cusum, 5.0, 5.0),
                DetectorSpec::with_baseline(DetectorKind::Saraa, 5.0, 5.0),
                DetectorSpec::with_baseline(DetectorKind::Sraa, 6.0, 4.0),
            ],
            Scenario::Backpressure => vec![
                DetectorSpec::with_baseline(DetectorKind::Sraa, 5.0, 5.0),
                DetectorSpec::with_baseline(DetectorKind::Cusum, 5.0, 5.0),
            ],
        }
    }

    fn config(self) -> SupervisorConfig {
        match self {
            Scenario::Single | Scenario::Backpressure => SupervisorConfig {
                queue_capacity: 64,
                drain_batch: 8,
                snapshot_every: Some(40),
                consumers: 1,
            },
            Scenario::Pool => SupervisorConfig {
                queue_capacity: 4_096,
                drain_batch: 32,
                snapshot_every: None,
                consumers: 2,
            },
        }
    }

    /// Checkpoint cadence (total processed observations).
    fn checkpoint_every(self) -> u64 {
        match self {
            Scenario::Single => 50,
            Scenario::Pool => 500,
            Scenario::Backpressure => 60,
        }
    }

    fn steps(self) -> u64 {
        match self {
            Scenario::Single => 1_200,
            Scenario::Pool => 0, // producer-driven, see run_pool
            Scenario::Backpressure => 300,
        }
    }

    /// Runs the workload to completion, writing the trace through
    /// `writer` and checkpoints to `<dir>/ckpt.json`. An armed
    /// failpoint aborts it with a [`failpoints::FailpointCrash`] panic
    /// (possibly cascaded); the caller catches that.
    fn run(
        self,
        dir: &Path,
        seed: u64,
        writer: TrackedWriter,
        slot: &ConsumerSlot,
    ) -> io::Result<MonitorReport> {
        match self {
            Scenario::Single => self.run_sync(seed, dir, writer),
            Scenario::Pool => self.run_pool(seed, dir, writer, slot),
            Scenario::Backpressure => {
                let report = self.run_sync(seed, dir, writer)?;
                run_backpressure_probe();
                Ok(report)
            }
        }
    }

    /// Builds the supervisor with log + checkpoint sink wired up.
    fn build_supervisor(self, dir: &Path, writer: TrackedWriter) -> io::Result<Supervisor> {
        let specs = self.specs();
        let config = self.config();
        let mut sup = Supervisor::with_specs(config, &specs)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        let ckpt = dir.join("ckpt.json");
        sup.set_checkpoint(
            self.checkpoint_every(),
            Box::new(move |snap| save_snapshot(&ckpt, snap)),
        );
        let mut log = EventLog::new(Box::new(writer));
        log.record(&MonitorEvent::FleetStart {
            shards: specs.len() as u32,
            specs,
            queue_capacity: config.queue_capacity as u64,
            drain_batch: config.drain_batch as u64,
            snapshot_every: config.snapshot_every,
        })?;
        sup.set_log(log);
        Ok(sup)
    }

    /// The synchronous ingest-then-drain workload: the queue of the
    /// fed shard is emptied before the next step, so every checkpoint
    /// is quiescent and G2 holds at byte identity.
    fn run_sync(self, seed: u64, dir: &Path, writer: TrackedWriter) -> io::Result<MonitorReport> {
        let mut sup = self.build_supervisor(dir, writer)?;
        let shards = sup.shard_count();
        let mut rng = RngStreams::new(seed).stream(label(&format!("dst-{}", self.name())));
        for step in 0..self.steps() {
            let shard = (step % shards as u64) as usize;
            let burst = if step % 7 == 0 { 4 } else { 1 };
            for _ in 0..burst {
                let value = if rng.random::<f64>() < 0.02 {
                    60.0 + rng.random::<f64>() * 5.0
                } else {
                    3.0 + rng.random::<f64>() * 4.0
                };
                let accepted = sup.sender(shard).send_batch([(value, UNTIMED)]) == 1;
                debug_assert!(accepted, "sync workload never fills its queue");
            }
            while sup.poll_shard(shard)? > 0 {}
        }
        while sup.poll_all()? > 0 {}
        sup.checkpoint_now()?;
        Ok(sup.report())
    }

    /// The work-stealing pool workload. Odd shards are preloaded far
    /// beyond the steal threshold before the workers spawn, so worker 0
    /// reliably steals; total load per shard stays under the queue
    /// capacity, so plain `send_batch` is loss-free even if a worker crashes
    /// and nothing ever drains.
    fn run_pool(
        self,
        seed: u64,
        dir: &Path,
        writer: TrackedWriter,
        slot: &ConsumerSlot,
    ) -> io::Result<MonitorReport> {
        let sup = self.build_supervisor(dir, writer)?;
        let shards = sup.shard_count();
        let senders: Vec<_> = (0..shards).map(|s| sup.sender(s)).collect();
        let streams = RngStreams::new(seed);
        let values: Vec<Vec<f64>> = (0..shards)
            .map(|s| {
                let mut rng = streams.stream(label(&format!("dst-pool-shard-{s}")));
                let n = if s % 2 == 1 { 2_000 } else { 50 };
                (0..n)
                    .map(|_| {
                        if rng.random::<f64>() < 0.02 {
                            60.0
                        } else {
                            3.0 + rng.random::<f64>() * 4.0
                        }
                    })
                    .collect()
            })
            .collect();
        // Preload the heavy shards before any worker exists: their
        // owner (worker 1) starts buried while worker 0 idles, which
        // makes the first steal deterministic in practice.
        for (s, vals) in values.iter().enumerate() {
            for &v in vals {
                let accepted = senders[s].send_batch([(v, UNTIMED)]) == 1;
                debug_assert!(accepted, "pool workload stays under capacity");
            }
        }
        let consumer = ConsumerPool::spawn(sup);
        *slot.lock().unwrap_or_else(|e| e.into_inner()) = Some(consumer);
        // A second, concurrent wave from real producer threads (1000
        // more per shard, still under capacity even unconsumed).
        std::thread::scope(|scope| {
            for (s, sender) in senders.iter().enumerate() {
                let mut rng = streams.stream(label(&format!("dst-pool-wave-{s}")));
                scope.spawn(move || {
                    for _ in 0..1_000 {
                        let v = 3.0 + rng.random::<f64>() * 4.0;
                        sender.send_batch([(v, UNTIMED)]);
                    }
                });
            }
        });
        // Wait until the backlog is drained and a worker has actually
        // parked (covers queue.wait-park), bailing early on a crash.
        let settle = || {
            let deadline = Instant::now() + Duration::from_secs(10);
            loop {
                let backlog: usize = senders.iter().map(|s| s.backlog()).sum();
                let parks = slot
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .as_ref()
                    .map(|c| c.parks())
                    .unwrap_or(0);
                if (backlog == 0 && parks >= 1)
                    || failpoints::fired().is_some()
                    || Instant::now() > deadline
                {
                    break;
                }
                std::thread::sleep(Duration::from_millis(2));
            }
        };
        settle();
        // The wave may have landed entirely on non-empty queues (a busy
        // box can run the producers before any worker drains). With
        // every queue now empty and a worker parked, one more sample is
        // an empty→non-empty push, so `queue.notify-work` is reached on
        // every run whatever the interleaving above.
        if failpoints::fired().is_none() {
            senders[0].send_batch([(5.0, UNTIMED)]);
            settle();
        }
        let consumer = slot
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take()
            .expect("consumer parked in the slot above");
        let mut sup = consumer
            .join()?
            .supervisor
            .expect("owned pool returns its supervisor");
        sup.checkpoint_now()?;
        Ok(sup.report())
    }
}

/// Fills a standalone queue to capacity and parks a producer on it:
/// the only way to reach the `queue.mutex.park` site. The consumer side
/// (this thread) then drains, waking the producer through the space
/// condvar.
fn run_backpressure_probe() {
    let queue = Arc::new(ObsQueue::bounded(4));
    for i in 0..4 {
        let accepted = queue.push_batch([(5.0 + f64::from(i), UNTIMED)]);
        debug_assert_eq!(accepted, 1, "fill fits exactly");
    }
    let producer = {
        let queue = Arc::clone(&queue);
        std::thread::spawn(move || queue.push_batch_blocking([(9.0, UNTIMED)]))
    };
    let deadline = Instant::now() + Duration::from_secs(5);
    while queue.waits() == 0 && failpoints::fired().is_none() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    // Give the producer a moment to actually sleep inside the park.
    std::thread::sleep(Duration::from_millis(5));
    let (mut values, mut times) = (Vec::new(), Vec::new());
    queue.drain_into(&mut values, &mut times, 8);
    if let Err(payload) = producer.join() {
        // The armed site fired in the producer thread; surface it to
        // the harness's catch_unwind like any driver-side crash.
        panic::resume_unwind(payload);
    }
    queue.drain_into(&mut values, &mut times, 8);
}

// ---------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------

/// Knobs of one [`run`] sweep.
#[derive(Debug, Clone)]
pub struct DstOptions {
    /// Scratch directory for traces and checkpoints (created if
    /// missing; one subdirectory per trace).
    pub dir: PathBuf,
    /// How many master seeds to sweep; each seed re-runs every
    /// scenario × armed-site combination with fresh schedules.
    pub seeds: u64,
    /// Base master seed (`REJUV_DST_SEED` in `monitord`); seed *i* of
    /// the sweep is a splitmix-style mix of this and *i*.
    pub base_seed: u64,
    /// Only arm sites named here (`None` = the whole catalog). Site
    /// coverage is enforced only for full-catalog sweeps.
    pub sites: Option<Vec<String>>,
}

impl Default for DstOptions {
    fn default() -> Self {
        DstOptions {
            dir: std::env::temp_dir().join(format!("rejuv-dst-{}", std::process::id())),
            seeds: 2,
            base_seed: 0xD57,
            sites: None,
        }
    }
}

/// What one [`run`] sweep did and found.
#[derive(Debug, Clone, Default)]
pub struct DstSummary {
    /// Crash traces executed (a trace = one armed run + resume leg).
    pub traces: u64,
    /// Traces whose armed site actually fired a simulated crash.
    pub crashes: u64,
    /// Oracle checks that passed, per guarantee ("G1" … "G4").
    pub checks: BTreeMap<&'static str, u64>,
    /// Guarantee violations, each prefixed with its trace context.
    pub violations: Vec<String>,
    /// Sites that fired at least one simulated crash.
    pub covered: BTreeSet<&'static str>,
    /// Catalog sites that never fired (empty unless the sweep was
    /// filtered or a workload regressed).
    pub uncovered: Vec<&'static str>,
}

impl DstSummary {
    /// Whether the sweep proves what it set out to prove: no guarantee
    /// violated and (for full-catalog sweeps) every site crashed at
    /// least once.
    pub fn is_ok(&self) -> bool {
        self.violations.is_empty() && self.uncovered.is_empty()
    }

    /// Human-readable sweep report, one line per entry.
    pub fn lines(&self) -> Vec<String> {
        let mut lines = vec![format!(
            "dst: {} traces, {} crashes, {}/{} sites covered",
            self.traces,
            self.crashes,
            self.covered.len(),
            CATALOG.len()
        )];
        for (guarantee, passed) in &self.checks {
            lines.push(format!("dst: {guarantee}: {passed} checks passed"));
        }
        for site in &self.uncovered {
            lines.push(format!("dst: UNCOVERED site {site}"));
        }
        for violation in &self.violations {
            lines.push(format!("dst: VIOLATION {violation}"));
        }
        lines
    }
}

/// Silences panic output while a failpoint session (or the sweep that
/// drives it) is active: the simulated crash and its poisoned-lock
/// cascades are *expected* there, and hundreds of backtraces would
/// drown the sweep's real output. The sweep-level flag covers worker
/// threads still unwinding in the gap between one trace's
/// `session_end` and the next trace's `session_begin`. Installed once
/// per process, delegating to the previous hook otherwise.
static SWEEPS_ACTIVE: AtomicUsize = AtomicUsize::new(0);

fn install_quiet_panic_hook() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let previous = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !failpoints::session_active() && SWEEPS_ACTIVE.load(Ordering::Relaxed) == 0 {
                previous(info);
            }
        }));
    });
}

/// RAII marker for [`SWEEPS_ACTIVE`], so an early `?` return in the
/// sweep still re-enables panic output.
struct SweepQuiet;

impl SweepQuiet {
    fn enter() -> Self {
        SWEEPS_ACTIVE.fetch_add(1, Ordering::Relaxed);
        SweepQuiet
    }
}

impl Drop for SweepQuiet {
    fn drop(&mut self) {
        SWEEPS_ACTIVE.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Stable text → stream-label hash (FNV-1a), so each harness purpose
/// ("workload", "cut", …) draws from its own independent RNG stream.
fn label(tag: &str) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in tag.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn mix_seed(base: u64, index: u64) -> u64 {
    // splitmix64 finalizer over the pair: decorrelates consecutive
    // sweep indices without pulling in an RNG for one number.
    let mut z = base
        .wrapping_add(index.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Runs the full deterministic crash sweep and returns what it found.
/// This is the engine behind `monitord --dst` and the `dst_harness`
/// integration test.
///
/// # Errors
///
/// Propagates genuine I/O failures (scratch-dir creation, un-caught
/// workload errors). Guarantee violations are *not* errors — they come
/// back in [`DstSummary::violations`].
///
/// # Panics
///
/// Panics if a calibration (unarmed) run crashes — the workloads must
/// be clean when nothing is armed.
pub fn run(opts: &DstOptions) -> io::Result<DstSummary> {
    // Failpoint arming is process-global state: one sweep at a time.
    static GATE: Mutex<()> = Mutex::new(());
    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    install_quiet_panic_hook();
    let _quiet = SweepQuiet::enter();
    std::fs::create_dir_all(&opts.dir)?;

    let mut summary = DstSummary::default();
    for index in 0..opts.seeds {
        let seed = mix_seed(opts.base_seed, index);
        for &scenario in SCENARIOS {
            let counts = calibrate(scenario, seed, opts, &mut summary)?;
            for (site, count) in counts {
                if count == 0 || !site_selected(opts, site) {
                    continue;
                }
                let schedule = RngStreams::new(seed);
                let mut rng = schedule.stream(label(&format!("nth-{}-{site}", scenario.name())));
                let nth = 1 + (rng.random::<f64>() * count as f64) as u64;
                let nth = nth.clamp(1, count);
                let fired = crash_trace(scenario, seed, site, nth, opts, &mut summary)?;
                if !fired && nth > 1 {
                    // Concurrent scenarios may undershoot the
                    // calibrated count; the first hit always exists.
                    crash_trace(scenario, seed, site, 1, opts, &mut summary)?;
                }
            }
        }
    }
    if opts.sites.is_none() {
        summary.uncovered = CATALOG
            .iter()
            .copied()
            .filter(|site| !summary.covered.contains(site))
            .collect();
    }
    Ok(summary)
}

fn site_selected(opts: &DstOptions, site: &str) -> bool {
    match &opts.sites {
        Some(sites) => sites.iter().any(|s| s == site),
        None => true,
    }
}

/// Unarmed counting run; also feeds the clean artifacts through the
/// oracles (a sweep that only ever checks crashed runs would miss a
/// guarantee broken in the happy path).
fn calibrate(
    scenario: Scenario,
    seed: u64,
    opts: &DstOptions,
    summary: &mut DstSummary,
) -> io::Result<Vec<(&'static str, u64)>> {
    let dir = opts
        .dir
        .join(format!("seed{seed:016x}"))
        .join(scenario.name())
        .join("calibration");
    std::fs::create_dir_all(&dir)?;
    let writer = TrackedWriter::create(&dir.join("trace.jsonl"))?;
    let slot: ConsumerSlot = Arc::new(Mutex::new(None));
    failpoints::session_begin();
    let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
        scenario.run(&dir, seed, writer.clone(), &slot)
    }));
    cleanup_consumer(&slot);
    let counts = failpoints::session_end();
    let report =
        outcome.unwrap_or_else(|_| panic!("unarmed {} run must not crash", scenario.name()))?;
    let context = format!("{}/calibration seed={seed:#x}", scenario.name());
    judge_artifacts(scenario, &dir, seed, Some(&report), &context, summary);
    Ok(counts)
}

/// One armed kill/resume trace. Returns whether the site fired.
fn crash_trace(
    scenario: Scenario,
    seed: u64,
    site: &'static str,
    nth: u64,
    opts: &DstOptions,
    summary: &mut DstSummary,
) -> io::Result<bool> {
    let dir = opts
        .dir
        .join(format!("seed{seed:016x}"))
        .join(scenario.name())
        .join(site.replace('/', "_"))
        .join(format!("nth{nth}"));
    std::fs::create_dir_all(&dir)?;
    let trace = dir.join("trace.jsonl");
    let writer = TrackedWriter::create(&trace)?;
    let slot: ConsumerSlot = Arc::new(Mutex::new(None));
    failpoints::session_begin();
    failpoints::arm(site, nth);
    let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
        scenario.run(&dir, seed, writer.clone(), &slot)
    }));
    let fired = failpoints::fired().is_some();
    failpoints::disarm();
    // Shut leftover pool workers down while the quiet panic hook still
    // applies; a cascade here (poisoned locks) is expected.
    cleanup_consumer(&slot);
    failpoints::session_end();
    summary.traces += 1;
    let context = format!("{}/{site} nth={nth} seed={seed:#x}", scenario.name());
    let report = match outcome {
        Ok(Ok(report)) => Some(report),
        Ok(Err(e)) => return Err(e), // workload I/O error: a harness bug
        Err(_) if fired => None,
        Err(_) => {
            summary
                .violations
                .push(format!("{context}: panicked without an armed crash"));
            return Ok(false);
        }
    };
    if fired {
        summary.crashes += 1;
        summary.covered.insert(site);
        // Tear the trace: a seeded cut anywhere in the unflushed tail.
        let (written, flushed) = writer.lens();
        let mut rng =
            RngStreams::new(seed).stream(label(&format!("cut-{}-{site}", scenario.name())));
        let cut = flushed + (rng.random::<f64>() * (written - flushed + 1) as f64) as u64;
        OpenOptions::new()
            .write(true)
            .open(&trace)?
            .set_len(cut.min(written))?;
    }
    judge_artifacts(scenario, &dir, seed, report.as_ref(), &context, summary);
    Ok(fired)
}

/// Joins a pool consumer the crashed driver left behind, swallowing
/// the cascade panics its dead workers cause.
fn cleanup_consumer(slot: &ConsumerSlot) {
    if let Some(consumer) = slot.lock().unwrap_or_else(|e| e.into_inner()).take() {
        let _ = panic::catch_unwind(AssertUnwindSafe(move || consumer.join()));
    }
}

/// The resume leg: all four oracles over whatever the (possibly
/// crashed) run left on disk. `live_report` is the completed run's
/// report when it ran to completion (calibration, or an armed run
/// whose site never fired).
fn judge_artifacts(
    scenario: Scenario,
    dir: &Path,
    seed: u64,
    live_report: Option<&MonitorReport>,
    context: &str,
    summary: &mut DstSummary,
) {
    let specs = scenario.specs();
    let config = scenario.config();
    // G1: whatever checkpoint is published must be whole.
    let snapshot = match check_g1_checkpoint_integrity(&dir.join("ckpt.json"), specs.len()) {
        Ok(snapshot) => {
            *summary.checks.entry("G1").or_insert(0) += 1;
            snapshot
        }
        Err(v) => {
            summary_push(summary, context, v);
            None
        }
    };

    // G2: the surviving trace replays to the same decisions, resumed
    // or fresh.
    let events = File::open(dir.join("trace.jsonl"))
        .ok()
        .and_then(|f| read_events_tolerant(BufReader::new(f)).ok())
        .map(|(events, _torn)| events)
        .unwrap_or_default();
    match check_g2_replay_convergence(&events, config, &specs, snapshot.as_ref()) {
        Ok(_) => *summary.checks.entry("G2").or_insert(0) += 1,
        Err(v) => summary_push(summary, context, v),
    }

    // G3 on the live run itself, when it completed (baseline zero).
    if let Some(report) = live_report {
        match check_g3_no_loss(report, None, true) {
            Ok(()) => *summary.checks.entry("G3").or_insert(0) += 1,
            Err(v) => summary_push(summary, &format!("{context} (live run)"), v),
        }
    }

    // G3 on a real continuation: restore the surviving checkpoint into
    // a fresh supervisor and run more load through real queues.
    let mut continuation = match Supervisor::with_specs(config, &specs) {
        Ok(sup) => sup,
        Err(e) => {
            summary
                .violations
                .push(format!("{context}: cannot rebuild fleet: {e}"));
            return;
        }
    };
    if let Some(snap) = &snapshot {
        if let Err(e) = continuation.restore(snap) {
            summary_push(
                summary,
                context,
                Violation {
                    guarantee: "G1",
                    detail: format!("intact checkpoint refused by restore: {e}"),
                },
            );
            return;
        }
    }
    if let Err(e) = run_continuation(&mut continuation, seed) {
        summary
            .violations
            .push(format!("{context}: continuation failed: {e}"));
        return;
    }
    match check_g3_no_loss(&continuation.report(), snapshot.as_ref(), true) {
        Ok(()) => *summary.checks.entry("G3").or_insert(0) += 1,
        Err(v) => summary_push(summary, &format!("{context} (continuation)"), v),
    }

    // G4: a seeded corruption of the surviving state must be rejected
    // without leaving a mark on the continuation supervisor.
    let base = snapshot.unwrap_or_else(|| continuation.snapshot());
    let mut rng = RngStreams::new(seed).stream(label(&format!("corrupt-{context}")));
    let bad = corrupt_snapshot(base, (rng.random::<f64>() * 4.0) as u64);
    match check_g4_rejection_is_pure(&mut continuation, &bad) {
        Ok(()) => *summary.checks.entry("G4").or_insert(0) += 1,
        Err(v) => summary_push(summary, context, v),
    }
}

fn summary_push(summary: &mut DstSummary, context: &str, violation: Violation) {
    summary.violations.push(format!("{context}: {violation}"));
}

/// Deterministic post-restore load: enough to cross several checkpoint
/// cadences, strictly lossless (every ingest drained before the next).
fn run_continuation(sup: &mut Supervisor, seed: u64) -> io::Result<()> {
    let shards = sup.shard_count();
    let mut rng = RngStreams::new(seed).stream(label("dst-continuation"));
    for step in 0..300u64 {
        let shard = (step % shards as u64) as usize;
        let value = 3.0 + rng.random::<f64>() * 4.0;
        let accepted = sup.sender(shard).send_batch([(value, UNTIMED)]) == 1;
        debug_assert!(accepted, "continuation never fills its queue");
        while sup.poll_shard(shard)? > 0 {}
    }
    while sup.poll_all()? > 0 {}
    Ok(())
}

/// One of four seeded ways to break a snapshot, all of which restore
/// is contractually required to reject: format drift, topology drift,
/// detector-kind drift, and spec-knob drift.
fn corrupt_snapshot(mut snap: SupervisorSnapshot, mode: u64) -> SupervisorSnapshot {
    match mode % 4 {
        0 => snap.version = snap.version.wrapping_add(7),
        1 => {
            snap.shards.pop();
        }
        2 => {
            // Shards 0 and 1 carry different detector kinds in every
            // scenario, so swapping them is a guaranteed kind mismatch.
            snap.shards.swap(0, 1);
        }
        _ => {
            let spec = snap.shards[0].spec.as_mut();
            spec.expect("this build's checkpoints carry specs").mu += 1.5;
        }
    }
    snap
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_mixing_is_stable_and_spread() {
        assert_eq!(mix_seed(1, 0), mix_seed(1, 0));
        assert_ne!(mix_seed(1, 0), mix_seed(1, 1));
        assert_ne!(mix_seed(1, 0), mix_seed(2, 0));
    }

    #[test]
    fn corruptions_are_rejected_by_restore() {
        let scenario = Scenario::Single;
        let mut sup = Supervisor::with_specs(scenario.config(), &scenario.specs()).unwrap();
        for i in 0..120u64 {
            sup.process_sync((i % 3) as usize, 4.0, UNTIMED).unwrap();
        }
        let snap = sup.snapshot();
        for mode in 0..4 {
            let bad = corrupt_snapshot(snap.clone(), mode);
            assert!(
                sup.restore(&bad).is_err(),
                "corruption mode {mode} must be rejected"
            );
        }
        sup.restore(&snap).expect("the pristine snapshot restores");
    }
}
