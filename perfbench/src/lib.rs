//! The repository's end-to-end benchmark.
//!
//! Four workloads, each run by one command, time how fast observations
//! become rejuvenation decisions, durable records and regenerated
//! figures. Every layer is timed from outside, around the benchmark's
//! own calls into the public functions of `rejuv-monitor`,
//! `rejuv-core`, `rejuv-ecommerce` and `rejuv-sim`; see `README.md` for
//! why each workload exists and which end-to-end metric each layer
//! metric should move.

pub mod cpu;
pub mod des;
pub mod durable;
pub mod gen;
pub mod inline;
pub mod monitor;
pub mod paced;
pub mod stats;
pub mod trace;

use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = [
    "ingest_inline",
    "durable_replay",
    "paced_fleet",
    "des_fig09",
];

/// End-to-end metrics every workload reports with tracing off.
pub const END_TO_END: [(&str, &str); 6] = [
    ("throughput_per_s", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p90_us", "us"),
    ("replay_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics every workload reports with tracing on. A layer a
/// workload does not exercise, or that runs where the benchmark cannot
/// time it from outside, reports 0.
pub const PER_LAYER: [(&str, &str); 37] = [
    ("queue.push_ns_per_obs", "ns"),
    ("queue.backlog_max", "count"),
    ("queue.dropped", "count"),
    ("supervisor.poll_ns_per_obs", "ns"),
    ("core.observe_batch_ns_per_obs.sraa", "ns"),
    ("core.observe_batch_ns_per_obs.saraa", "ns"),
    ("core.observe_batch_ns_per_obs.clta", "ns"),
    ("core.observe_batch_ns_per_obs.static", "ns"),
    ("core.observe_batch_ns_per_obs.cusum", "ns"),
    ("core.observe_batch_ns_per_obs.ewma", "ns"),
    ("core.fires_per_mobs", "count"),
    ("metrics.record_slice_ns_per_obs", "ns"),
    ("drain.residue_ns_per_obs", "ns"),
    ("event.encode_ns_per_obs", "ns"),
    ("event.bytes_per_obs", "bytes"),
    ("event.decode_ns_per_obs", "ns"),
    ("replay.apply_ns_per_obs", "ns"),
    ("checkpoint.serialize_us", "us"),
    ("checkpoint.save_us_p50", "us"),
    ("checkpoint.save_us_max", "us"),
    ("checkpoint.bytes", "bytes"),
    ("pool.parks_per_tick", "count"),
    ("pool.drains", "count"),
    ("pool.spawn_us", "us"),
    ("bus.published", "count"),
    ("bus.overflow", "count"),
    ("expo.lock_wait_us_p50", "us"),
    ("expo.capture_us_p50", "us"),
    ("expo.render_us_p50", "us"),
    ("expo.body_bytes", "bytes"),
    ("loadgen.late_us_p90", "us"),
    ("loadgen.late_us_max", "us"),
    ("ecommerce.txn_per_s", "1/s"),
    ("ecommerce.gc_per_cell", "count"),
    ("ecommerce.rejuvenations_per_cell", "count"),
    ("setup.cold_s", "s"),
    ("trace.overhead_pct", "%"),
];

/// A deliberate corruption of one workload's output, so the self-test
/// can show that the gates report it as failed operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// No corruption.
    None,
    /// `ingest_inline`: one shard's reported rejuvenation count is off
    /// by one.
    MiscountFire,
    /// `durable_replay`: one byte of the replay report is flipped.
    FlipReplayByte,
    /// `paced_fleet`: one bus fire is swallowed before it is counted.
    SwallowFire,
    /// `des_fig09`: one timed cell's result is perturbed.
    PerturbCell,
}

/// What one run is asked to do.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Seed for every generated input.
    pub seed: u64,
    /// Measured seconds; a traced run splits them between an untraced
    /// and a traced leg.
    pub seconds: f64,
    /// Record spans and report the per-layer metrics.
    pub trace: bool,
    /// Small inputs and few repetitions, for the self-test.
    pub quick: bool,
    /// Output corruption to inject.
    pub fault: Fault,
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// The result of one run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Operations attempted (observations or cells, plus one per
    /// correctness check).
    pub attempted: u64,
    /// Operations that failed (dropped or unprocessed observations,
    /// failed checks).
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// The traced run's per-workload time budget, one line each.
    pub budget: Vec<String>,
}

impl Outcome {
    /// Renders the result line: `correct`, `attempted`, `failed`,
    /// `metrics`.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Operation and check accounting for one run.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
}

impl Tally {
    /// Counts `attempted` operations of which `failed` failed.
    pub fn ops(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Counts one correctness check, reporting it on stderr when it
    /// fails.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.ops(1, u64::from(!ok));
        if !ok {
            eprintln!("perfbench: check failed: {what}");
        }
    }
}

/// Named values a workload measured, turned into the reported list.
#[derive(Debug, Default)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    /// Sets `name` to `value`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.retain(|(n, _)| *n != name);
        self.0.push((name, value));
    }

    fn get(&self, name: &str) -> f64 {
        self.0
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    }

    /// Every metric of `list`, in its order; names not set report 0.
    ///
    /// # Panics
    ///
    /// If a set name is missing from `list` (a benchmark bug).
    pub fn report(&self, list: &[(&'static str, &'static str)]) -> Vec<Metric> {
        for (name, _) in &self.0 {
            assert!(
                list.iter().any(|(n, _)| n == name),
                "metric {name} is not declared"
            );
        }
        list.iter()
            .map(|&(name, unit)| Metric {
                name,
                value: self.get(name),
                unit,
            })
            .collect()
    }
}

/// Set-ups timed together as one sample, unless a workload asks for
/// fewer.
pub const SETUP_BLOCK: usize = 10;
/// How long one set-up phase times blocks back to back.
const SETUP_PHASE: Duration = Duration::from_millis(200);
/// A leg pauses for a set-up phase this often.
pub const SETUP_EVERY: Duration = Duration::from_secs(4);

/// Set-up times, taken in short phases spread over a whole run.
///
/// A set-up is allocation-heavy, and on a shared machine set-ups take
/// up to 40 % longer than the fastest in stretches of half a second to
/// several seconds. A median of set-ups, or of the fastest set-up in
/// each of a few phases, reads fast or slow depending on how many of
/// them such stretches covered. Workloads therefore pause their legs
/// every few seconds for a phase that times blocks of set-ups back to
/// back, and `setup_s` is the fastest block of the run: the code's cost
/// whenever one phase ran outside a slow stretch. Set-ups timed one
/// block at a time inside a leg, on caches the leg had just used, were
/// slower and more scattered (see `STEADINESS.md`). The cold first
/// set-up is reported apart, as `setup.cold_s`.
#[derive(Debug)]
pub struct Setups {
    block: usize,
    phase: Duration,
    last: Instant,
    /// The fastest block mean so far, seconds per set-up.
    fastest: f64,
    /// Seconds spent in set-up phases, for legs that take them out of
    /// their wall time.
    pub spent_s: f64,
}

impl Setups {
    /// A sampler for one run, timing blocks of `block` set-ups; runs one
    /// untimed block, so the allocator has adapted to the set-up's
    /// allocation sizes, then one phase.
    ///
    /// # Errors
    ///
    /// The first error of `setup` or `teardown`.
    pub fn new<T>(
        quick: bool,
        block: usize,
        mut setup: impl FnMut() -> io::Result<T>,
        mut teardown: impl FnMut(T) -> io::Result<()>,
    ) -> io::Result<Self> {
        let mut setups = Setups {
            block: block.max(1),
            phase: if quick {
                Duration::from_millis(5)
            } else {
                SETUP_PHASE
            },
            last: Instant::now(),
            fastest: f64::INFINITY,
            spent_s: 0.0,
        };
        setups.block(&mut setup, &mut teardown)?;
        setups.phase(setup, teardown)?;
        Ok(setups)
    }

    /// Runs a phase if the last one ended `SETUP_EVERY` ago.
    ///
    /// # Errors
    ///
    /// The first error of `setup` or `teardown`.
    pub fn poll<T>(
        &mut self,
        setup: impl FnMut() -> io::Result<T>,
        teardown: impl FnMut(T) -> io::Result<()>,
    ) -> io::Result<()> {
        if self.last.elapsed() < SETUP_EVERY {
            return Ok(());
        }
        self.phase(setup, teardown)
    }

    /// Times blocks back to back for one phase (at least one block).
    ///
    /// # Errors
    ///
    /// The first error of `setup` or `teardown`.
    pub fn phase<T>(
        &mut self,
        mut setup: impl FnMut() -> io::Result<T>,
        mut teardown: impl FnMut(T) -> io::Result<()>,
    ) -> io::Result<()> {
        let start = Instant::now();
        loop {
            let mean = self.block(&mut setup, &mut teardown)?;
            self.fastest = self.fastest.min(mean);
            if start.elapsed() >= self.phase {
                break;
            }
        }
        self.last = Instant::now();
        self.spent_s += self.last.duration_since(start).as_secs_f64();
        Ok(())
    }

    /// Times one block of set-ups back to back, tears the block's
    /// products down untimed, and returns the block mean in seconds per
    /// set-up.
    fn block<T>(
        &mut self,
        mut setup: impl FnMut() -> io::Result<T>,
        teardown: impl FnMut(T) -> io::Result<()>,
    ) -> io::Result<f64> {
        let start = Instant::now();
        let products = (0..self.block)
            .map(|_| setup())
            .collect::<io::Result<Vec<T>>>()?;
        let mean = start.elapsed().as_secs_f64() / self.block as f64;
        products.into_iter().try_for_each(teardown)?;
        Ok(mean)
    }

    /// The fastest block mean of the run, seconds per set-up.
    pub fn best(&self) -> f64 {
        self.fastest
    }
}

/// Drops a set-up product: the teardown of set-ups that need no more.
///
/// # Errors
///
/// None; the signature is that of a teardown.
pub fn discard<T>(product: T) -> io::Result<()> {
    drop(product);
    Ok(())
}

/// An `InvalidData` error carrying `e`'s message.
pub fn invalid(e: impl std::fmt::Display) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e.to_string())
}

/// Where runs write spans and scratch files: under the build directory,
/// which the repository ignores.
pub fn out_dir() -> io::Result<PathBuf> {
    let base = match std::env::var_os("CARGO_TARGET_DIR") {
        Some(dir) => PathBuf::from(dir),
        None => PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/target")),
    };
    let dir = base.join("perfbench-out");
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// A file name unique to this process and call, for scratch files.
pub fn unique_name(stem: &str, ext: &str) -> String {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    format!("{stem}-{}-{n}.{ext}", std::process::id())
}

extern "C" {
    fn mallopt(param: i32, value: i32) -> i32;
}

/// Fixes the C allocator's mapping threshold at 32 MiB and its trimming
/// threshold at 64 MiB, the values a long-running process reaches.
///
/// Left to itself the allocator starts low and raises both thresholds
/// as it frees large blocks; until then it hands freed memory back to
/// the kernel and maps it afresh. On a virtual machine that reports
/// freed memory to its host, taking memory back costs a fault on the
/// host per page, so how long an operation took depended on what the
/// process had allocated and freed before: `paced_fleet`'s set-up, with
/// its 1 MiB queues, took 8.5 µs in some phases and 22–33 µs in others.
/// With the thresholds fixed, freed memory stays in the process.
fn fix_allocator() {
    const M_TRIM_THRESHOLD: i32 = -1;
    const M_MMAP_THRESHOLD: i32 = -3;
    // SAFETY: `mallopt` takes two integers and changes only allocator
    // parameters; a failure (0) leaves them as they were, which costs
    // only steadiness, so the results are ignored.
    unsafe {
        mallopt(M_MMAP_THRESHOLD, 32 << 20);
        mallopt(M_TRIM_THRESHOLD, 64 << 20);
    }
}

/// Runs `workload`.
///
/// # Errors
///
/// An unknown workload name, or an I/O failure the run cannot continue
/// past.
pub fn run(workload: &str, params: &Params) -> io::Result<Outcome> {
    fix_allocator();
    match workload {
        "ingest_inline" => inline::run(params),
        "durable_replay" => durable::run(params),
        "paced_fleet" => paced::run(params),
        "des_fig09" => des::run(params),
        other => Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("unknown workload {other:?}; expected one of {WORKLOADS:?}"),
        )),
    }
}

/// The untraced metrics plus, on a traced run, the per-layer ones:
/// the shared tail of every workload.
pub fn finish(
    params: &Params,
    tally: Tally,
    e2e: Values,
    layers: Values,
    budget: Vec<String>,
    tracer: &trace::Tracer,
    workload: &str,
) -> io::Result<Outcome> {
    let metrics = if params.trace {
        let path = out_dir()?.join(format!("spans-{workload}-{}.jsonl", params.seed));
        tracer.write(&path)?;
        eprintln!("perfbench: spans written to {}", path.display());
        layers.report(&PER_LAYER)
    } else {
        e2e.report(&END_TO_END)
    };
    Ok(Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        budget,
    })
}

/// Percentage by which `traced` is worse than `untraced`, where
/// `higher_is_better` says which way is worse.
pub fn overhead_pct(untraced: f64, traced: f64, higher_is_better: bool) -> f64 {
    if untraced == 0.0 {
        return 0.0;
    }
    let worse = if higher_is_better {
        untraced - traced
    } else {
        traced - untraced
    };
    100.0 * worse / untraced
}
