//! `monitord` — the online monitoring runtime attached to simulated
//! live traffic, plus deterministic replay of a recorded run.
//!
//! In **live** mode the daemon turns `--detector`, `--mu` and `--sigma`
//! into one `DetectorSpec` (rejecting an invalid baseline as a usage
//! error), builds a sharded [`Supervisor`] with one shard of that spec
//! per host, wires each shard into the traffic source through a
//! `MonitorBridge`, and drives either the single-host §3 e-commerce
//! model (`--hosts 1`) or the load-balanced cluster. Every response time
//! flows through the shard's ingestion queue and detector; the run ends
//! with a serialised [`MonitorReport`].
//!
//! In **replay** mode (`--replay FILE`) the daemon reads a monitor event
//! log recorded by a live run, rebuilds an identical supervisor from the
//! header — a `Start` header's detector name plus `--mu`/`--sigma` give
//! every shard's spec, a `FleetStart` header carries one spec per
//! shard — and re-ingests every observation batch. Decisions are
//! recomputed, not trusted from the log — and the resulting report must
//! be byte-identical to the live run's (`cmp live.json replay.json`),
//! which CI checks.
//!
//! In **fleet** mode (`--fleet FILE`) the shards are heterogeneous: the
//! fleet config file assigns each shard its own detector kind and
//! baseline (see `rejuv_monitor::fleet`), the event log begins with a
//! self-contained `FleetStart` header, and the report breaks
//! rejuvenations out per detector kind.
//!
//! In **dst** mode (`--dst`, requires a build with
//! `--features failpoints`) the daemon runs the deterministic
//! crash-simulation sweep instead of live traffic: for every registered
//! failpoint site and master seed it runs a workload, crashes it at the
//! site, resumes from whatever checkpoint/trace survived, and judges the
//! four no-loss guarantees (see `rejuv_monitor::assurance`). The master
//! seed comes from `REJUV_DST_SEED` (default `0xD57`).
//!
//! ```text
//! cargo run --release -p rejuv-bench --bin monitord -- [options]
//!
//! options:
//!   --hosts N            monitored hosts/shards (default 1, at most
//!                        65536; >1 runs the cluster with least-active
//!                        routing)
//!   --load L             per-host offered load in CPUs of GC work
//!                        (default 8.0, the paper's moderate-load point)
//!   --transactions T     total transactions to simulate (default 20000)
//!   --detector NAME      sraa|saraa|clta|static|cusum|ewma (default sraa)
//!   --mu M, --sigma S    detector baseline (default 5.0 / 5.0, the SLA)
//!   --fleet FILE         per-shard detector specs from a fleet config
//!                        file; replaces --detector/--mu/--sigma and
//!                        implies --hosts <shard count>. With --replay,
//!                        cross-checks the log's FleetStart header
//!                        against FILE instead
//!   --seed S             master seed (default 2006)
//!   --downtime D         cluster host downtime after rejuvenation,
//!                        seconds (default 30)
//!   --snapshot-every K   checkpoint each shard's detector state every K
//!                        observations (default off)
//!   --trace FILE         write the monitor event log (JSONL)
//!   --system-trace FILE  write the model's system-event trace (JSONL).
//!                        Single-host runs write raw events; cluster
//!                        runs write a host-tagged document: one header
//!                        line per host, then every event tagged with
//!                        its host, merged by simulation time (ties
//!                        break by host index). Byte-identical at any
//!                        --consumers count
//!   --listen ADDR        serve a live scrape endpoint on ADDR
//!                        (IP:PORT; port 0 picks a free port, printed
//!                        at startup): GET /metrics is the Prometheus
//!                        text exposition, /healthz a liveness probe,
//!                        /report the current report JSON. Scrapes are
//!                        read-only — reports, traces, digests and
//!                        checkpoints stay byte-identical to a run
//!                        without a listener (live mode only)
//!   --report FILE        write the final report JSON (default stdout)
//!   --replay FILE        replay a recorded monitor event log instead of
//!                        running live (detector baseline flags must
//!                        match the recording invocation)
//!   --checkpoint FILE    persist a full supervisor checkpoint to FILE
//!                        (atomically: write-temp-then-rename) on a
//!                        cadence, plus once at clean completion
//!   --checkpoint-every N checkpoint cadence in total processed
//!                        observations (default 10000)
//!   --checkpoint-secs S  wall-clock checkpoint cadence in seconds
//!                        (mutually exclusive with --checkpoint-every)
//!   --resume FILE        restore supervisor state from a checkpoint
//!                        before running; with --replay, observations
//!                        the checkpoint already covers are skipped and
//!                        the final report is byte-identical to an
//!                        uninterrupted replay of the same log
//!   --consumers N        drain-plane worker threads (default 1).
//!                        Execution strategy only: reports, traces and
//!                        checkpoints are byte-identical across
//!                        consumer counts
//!   --dlq                attach a per-shard dead-letter queue: lossy
//!                        sends that find the ingestion queue full are
//!                        captured (value and timestamp) instead of
//!                        dropped, and replayed into the shard in
//!                        capture order once back-pressure clears.
//!                        Checkpoints written with --dlq carry the
//!                        dead-letter state (format v4); without the
//!                        flag every artifact stays byte-identical to
//!                        previous releases (live mode only)
//!   --dlq-cap N          per-shard dead-letter capacity (default 4096;
//!                        requires --dlq). Samples past the cap count
//!                        as dlq_overflow — never a silent drop
//!   --fleet-watch        poll the --fleet file for changes and
//!                        hot-reload it when it is rewritten, as if a
//!                        SIGHUP had arrived (live fleet mode only)
//!   --dst                run the deterministic crash-simulation sweep
//!                        (failpoints build only; seed via REJUV_DST_SEED)
//!   --dst-seeds N        master seeds per sweep (default 2; the full CI
//!                        sweep uses 8+)
//!   --dst-sites LIST     comma-separated failpoint sites to arm, or
//!                        `all` (default all — coverage is enforced)
//!   --dst-dir DIR        scratch directory for sweep artifacts
//!                        (default a fresh directory under $TMPDIR)
//! ```
//!
//! **Fleet hot-reload:** in live fleet mode the daemon installs a
//! SIGHUP handler. `kill -HUP <pid>` (or rewriting the fleet file under
//! `--fleet-watch`) re-reads the fleet config and rebuilds **exactly
//! the drifted shards** in place: each one gets a fresh detector built
//! from its new spec while its counters, histograms and queued samples
//! are kept, and the new detector kind is folded into the shard's
//! decision digest. An invalid or mismatched config is rejected with a
//! one-line `monitord: fleet hot-reload rejected: ...` diagnostic and
//! **no shard is mutated**; the run continues on the old fleet.
//!
//! Exit status: `0` on success, `1` on a runtime failure (unreadable or
//! torn input file, I/O error, guarantee violation in `--dst`), `2` on a
//! usage error. Failures print a one-line `monitord: ...` diagnostic on
//! stderr — never a panic backtrace.
//!
//! Crash safety: a SIGKILL mid-run leaves (at worst) a torn final line
//! in the trace — replay tolerates exactly that — and either the old or
//! the new checkpoint file, never a torn one. The event log is flushed
//! before every checkpoint, so the persisted trace always covers the
//! checkpointed prefix. The `--dst` sweep (and the `REJUV_FP=site[:nth]`
//! environment knob on a failpoints build) exists to prove exactly that,
//! at every site, on every run.

use rejuv_core::{DetectorKind, DetectorSpec};
use rejuv_ecommerce::cluster::{ClusterSystem, RoutingPolicy};
use rejuv_ecommerce::{EcommerceSystem, SystemConfig};
use rejuv_monitor::{
    load_snapshot, read_events_tolerant, replay_fleet_events, save_snapshot, ConsumerPool,
    EventBus, EventLog, FleetConfig, MonitorEvent, MonitorReport, PoolStats, SharedSupervisor,
    Supervisor, SupervisorConfig, SupervisorSnapshot, MAX_SHARDS,
};
use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

struct Options {
    hosts: usize,
    hosts_set: bool,
    load: f64,
    transactions: u64,
    /// The per-shard detector of a homogeneous run, from `--detector`,
    /// `--mu` and `--sigma`; validated while parsing.
    spec: DetectorSpec,
    detector_set: bool,
    baseline_set: bool,
    fleet: Option<PathBuf>,
    seed: u64,
    downtime: f64,
    snapshot_every: Option<u64>,
    trace: Option<PathBuf>,
    system_trace: Option<PathBuf>,
    report: Option<PathBuf>,
    replay: Option<PathBuf>,
    checkpoint: Option<PathBuf>,
    checkpoint_every: u64,
    checkpoint_every_set: bool,
    checkpoint_secs: Option<f64>,
    resume: Option<PathBuf>,
    consumers: usize,
    dlq: bool,
    dlq_cap: usize,
    dlq_cap_set: bool,
    fleet_watch: bool,
    listen: Option<std::net::SocketAddr>,
    dst: bool,
    dst_seeds: u64,
    dst_sites: Option<Vec<String>>,
    dst_dir: Option<PathBuf>,
}

/// Parses one typed flag value, turning parse failures into a one-line
/// usage diagnostic instead of a panic.
fn parsed<T: std::str::FromStr>(name: &str, value: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    value
        .parse()
        .map_err(|e| format!("invalid value {value:?} for {name}: {e}"))
}

fn parse_args(cli: impl IntoIterator<Item = String>) -> Result<Options, String> {
    let mut opts = Options {
        hosts: 1,
        hosts_set: false,
        load: 8.0,
        transactions: 20_000,
        spec: DetectorSpec::new(DetectorKind::Sraa),
        detector_set: false,
        baseline_set: false,
        fleet: None,
        seed: 2006,
        downtime: 30.0,
        snapshot_every: None,
        trace: None,
        system_trace: None,
        report: None,
        replay: None,
        checkpoint: None,
        checkpoint_every: 10_000,
        checkpoint_every_set: false,
        checkpoint_secs: None,
        resume: None,
        consumers: 1,
        dlq: false,
        dlq_cap: 4096,
        dlq_cap_set: false,
        fleet_watch: false,
        listen: None,
        dst: false,
        dst_seeds: 2,
        dst_sites: None,
        dst_dir: None,
    };
    let mut dst_flag_seen: Option<&'static str> = None;
    let mut detector = opts.spec.kind.cli_name().to_owned();
    let mut args = cli.into_iter();
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .ok_or_else(|| format!("missing value for {name}"))
        };
        match arg.as_str() {
            "--hosts" => {
                opts.hosts = parsed("--hosts", &value("--hosts")?)?;
                opts.hosts_set = true;
            }
            "--load" => opts.load = parsed("--load", &value("--load")?)?,
            "--transactions" => {
                opts.transactions = parsed("--transactions", &value("--transactions")?)?;
            }
            "--detector" => {
                detector = value("--detector")?.to_lowercase();
                opts.detector_set = true;
            }
            "--mu" => {
                opts.spec.mu = parsed("--mu", &value("--mu")?)?;
                opts.baseline_set = true;
            }
            "--sigma" => {
                opts.spec.sigma = parsed("--sigma", &value("--sigma")?)?;
                opts.baseline_set = true;
            }
            "--fleet" => opts.fleet = Some(PathBuf::from(value("--fleet")?)),
            "--seed" => opts.seed = parsed("--seed", &value("--seed")?)?,
            "--downtime" => opts.downtime = parsed("--downtime", &value("--downtime")?)?,
            "--snapshot-every" => {
                opts.snapshot_every =
                    Some(parsed("--snapshot-every", &value("--snapshot-every")?)?);
            }
            "--trace" => opts.trace = Some(PathBuf::from(value("--trace")?)),
            "--system-trace" => opts.system_trace = Some(PathBuf::from(value("--system-trace")?)),
            "--report" => opts.report = Some(PathBuf::from(value("--report")?)),
            "--replay" => opts.replay = Some(PathBuf::from(value("--replay")?)),
            "--checkpoint" => opts.checkpoint = Some(PathBuf::from(value("--checkpoint")?)),
            "--checkpoint-every" => {
                opts.checkpoint_every =
                    parsed("--checkpoint-every", &value("--checkpoint-every")?)?;
                opts.checkpoint_every_set = true;
            }
            "--checkpoint-secs" => {
                opts.checkpoint_secs =
                    Some(parsed("--checkpoint-secs", &value("--checkpoint-secs")?)?);
            }
            "--resume" => opts.resume = Some(PathBuf::from(value("--resume")?)),
            "--consumers" => opts.consumers = parsed("--consumers", &value("--consumers")?)?,
            "--dlq" => opts.dlq = true,
            "--dlq-cap" => {
                opts.dlq_cap = parsed("--dlq-cap", &value("--dlq-cap")?)?;
                opts.dlq_cap_set = true;
            }
            "--fleet-watch" => opts.fleet_watch = true,
            "--listen" => opts.listen = Some(parsed("--listen", &value("--listen")?)?),
            "--dst" => opts.dst = true,
            "--dst-seeds" => {
                opts.dst_seeds = parsed("--dst-seeds", &value("--dst-seeds")?)?;
                dst_flag_seen = Some("--dst-seeds");
            }
            "--dst-sites" => {
                let list = value("--dst-sites")?;
                opts.dst_sites = if list == "all" {
                    None
                } else {
                    Some(
                        list.split(',')
                            .map(|s| s.trim().to_owned())
                            .filter(|s| !s.is_empty())
                            .collect(),
                    )
                };
                dst_flag_seen = Some("--dst-sites");
            }
            "--dst-dir" => {
                opts.dst_dir = Some(PathBuf::from(value("--dst-dir")?));
                dst_flag_seen = Some("--dst-dir");
            }
            other => return Err(format!("unknown option {other}")),
        }
    }
    if opts.hosts == 0 {
        return Err("--hosts must be positive".to_owned());
    }
    if opts.hosts > MAX_SHARDS {
        return Err(format!("--hosts must be at most {MAX_SHARDS}"));
    }
    if opts.consumers == 0 {
        return Err("--consumers must be positive".to_owned());
    }
    if opts.checkpoint_every == 0 {
        return Err("--checkpoint-every must be positive".to_owned());
    }
    if let Some(secs) = opts.checkpoint_secs {
        if !(secs.is_finite() && secs > 0.0) {
            return Err("--checkpoint-secs must be positive".to_owned());
        }
        if opts.checkpoint_every_set {
            return Err(
                "--checkpoint-secs and --checkpoint-every are mutually exclusive".to_owned(),
            );
        }
    }
    if opts.dlq_cap_set && !opts.dlq {
        return Err("--dlq-cap only makes sense together with --dlq".to_owned());
    }
    if opts.dlq && opts.dlq_cap == 0 {
        return Err("--dlq-cap must be positive".to_owned());
    }
    if opts.dlq && opts.replay.is_some() {
        return Err("--dlq captures live back-pressure; replay drains \
             synchronously and cannot be combined with it"
            .to_owned());
    }
    if opts.dlq && opts.dst {
        return Err("--dlq and --dst are mutually exclusive".to_owned());
    }
    if opts.fleet_watch && opts.fleet.is_none() {
        return Err("--fleet-watch requires --fleet".to_owned());
    }
    if opts.fleet_watch && (opts.replay.is_some() || opts.dst) {
        return Err("--fleet-watch only makes sense for a live run".to_owned());
    }
    if opts.listen.is_some() && (opts.replay.is_some() || opts.dst) {
        return Err("--listen only makes sense for a live run".to_owned());
    }
    if opts.fleet.is_some() && (opts.detector_set || opts.baseline_set) {
        return Err("--fleet carries per-shard detectors and baselines; \
             it cannot be combined with --detector/--mu/--sigma"
            .to_owned());
    }
    opts.spec = DetectorSpec::with_baseline(
        DetectorKind::parse(&detector).ok_or_else(|| unknown_detector(&detector))?,
        opts.spec.mu,
        opts.spec.sigma,
    );
    opts.spec
        .validate()
        .map_err(|e| format!("--mu/--sigma: {e}"))?;
    if !opts.dst {
        if let Some(flag) = dst_flag_seen {
            return Err(format!("{flag} only makes sense together with --dst"));
        }
    }
    if opts.dst && opts.replay.is_some() {
        return Err("--dst and --replay are mutually exclusive".to_owned());
    }
    if opts.dst && opts.dst_seeds == 0 {
        return Err("--dst-seeds must be positive".to_owned());
    }
    if let Some(sites) = &opts.dst_sites {
        if sites.is_empty() {
            return Err("--dst-sites requires at least one site (or `all`)".to_owned());
        }
    }
    Ok(opts)
}

/// Loads the fleet config named by `--fleet`, if any.
fn load_fleet(opts: &Options) -> Result<Option<FleetConfig>, String> {
    let Some(path) = opts.fleet.as_ref() else {
        return Ok(None);
    };
    let fleet = FleetConfig::load(path)
        .map_err(|e| format!("cannot load fleet config {}: {e}", path.display()))?;
    if opts.hosts_set && opts.hosts != fleet.shard_count() {
        return Err(format!(
            "--hosts {} disagrees with the fleet config's {} shard(s)",
            opts.hosts,
            fleet.shard_count()
        ));
    }
    Ok(Some(fleet))
}

/// Loads the checkpoint named by `--resume`, if any. An unreadable or
/// torn checkpoint file is a clean one-line failure: the atomic
/// write-temp-then-rename pipeline never publishes a torn checkpoint, so
/// a torn `--resume` input means the operator pointed at the wrong file
/// (e.g. a leftover staging file) and deserves a diagnostic, not a
/// backtrace.
fn load_resume(opts: &Options) -> Result<Option<SupervisorSnapshot>, String> {
    let Some(path) = opts.resume.as_ref() else {
        return Ok(None);
    };
    let snapshot = load_snapshot(path)
        .map_err(|e| format!("cannot load checkpoint {}: {e}", path.display()))?;
    println!(
        "resuming from {}: {} shards, {} observations already processed",
        path.display(),
        snapshot.shards.len(),
        snapshot.shards.iter().map(|s| s.processed).sum::<u64>()
    );
    Ok(Some(snapshot))
}

fn unknown_detector(name: &str) -> String {
    format!("unknown detector {name} (sraa|saraa|clta|static|cusum|ewma)")
}

fn write_report(report: &MonitorReport, path: Option<&PathBuf>) -> Result<(), String> {
    let text = serde_json::to_string_pretty(report).expect("reports always serialize") + "\n";
    match path {
        Some(path) => {
            std::fs::write(path, text)
                .map_err(|e| format!("cannot write report {}: {e}", path.display()))?;
            println!("wrote report {}", path.display());
        }
        None => print!("{text}"),
    }
    Ok(())
}

/// Prints the end-of-run accounting. `stats` carries the drain-plane
/// telemetry from [`ConsumerPool::join`] when the run had a consumer
/// pool (live mode); replay drains synchronously and passes `None`.
/// Telemetry goes to stdout only — the report JSON stays
/// byte-identical across consumer counts, which CI checks
/// with `cmp`.
fn summarize(report: &MonitorReport, stats: Option<&PoolStats>) {
    println!(
        "processed {} observations over {} shards, {} rejuvenations, {} dropped",
        report.total_processed,
        report.shards.len(),
        report.total_rejuvenations,
        report.total_dropped
    );
    if let Some(stats) = stats {
        let drains: Vec<String> = stats.per_thread_drains.iter().map(u64::to_string).collect();
        println!(
            "  drain plane: {} consumer(s), {} steal(s), {} park(s), drains per worker [{}]",
            stats.consumers,
            stats.steals,
            stats.parks,
            drains.join(", ")
        );
    }
    if report.by_detector.len() > 1 {
        for kind in &report.by_detector {
            println!(
                "  detector {}: {} shard(s), {} processed, {} rejuvenations",
                kind.detector, kind.shards, kind.processed, kind.rejuvenations
            );
        }
    }
    for shard in &report.shards {
        println!(
            "  shard {} [{}]: {} processed, {} rejuvenations, {} dropped, digest {}",
            shard.shard,
            shard.detector,
            shard.processed,
            shard.rejuvenations,
            shard.dropped,
            shard.digest
        );
    }
}

fn run_replay(opts: &Options, log_path: &PathBuf) -> Result<(), String> {
    let file =
        File::open(log_path).map_err(|e| format!("cannot open {}: {e}", log_path.display()))?;
    let (events, torn) = read_events_tolerant(BufReader::new(file))
        .map_err(|e| format!("cannot parse event log {}: {e}", log_path.display()))?;
    if let Some(line) = torn {
        println!(
            "dropped a torn final line ({} bytes) — the recording run was killed mid-write",
            line.len()
        );
    }
    let header = events
        .first()
        .ok_or_else(|| format!("event log {} is empty", log_path.display()))?;
    let snapshot = load_resume(opts)?;
    let supervisor = match header {
        MonitorEvent::Start {
            shards,
            detector,
            queue_capacity,
            drain_batch,
            snapshot_every,
        } => {
            if opts.fleet.is_some() {
                return Err(format!(
                    "--fleet cross-checks a FleetStart header, but this log was \
                     recorded homogeneous (Start header, detector {detector})"
                ));
            }
            let kind = DetectorKind::parse(detector)
                .ok_or_else(|| format!("event log header names {}", unknown_detector(detector)))?;
            let spec = DetectorSpec::with_baseline(kind, opts.spec.mu, opts.spec.sigma);
            let config = SupervisorConfig {
                queue_capacity: *queue_capacity as usize,
                drain_batch: *drain_batch as usize,
                snapshot_every: *snapshot_every,
                consumers: opts.consumers,
            };
            println!(
                "replaying {}: {} shards, detector {}, {} events",
                log_path.display(),
                shards,
                detector,
                events.len()
            );
            let fleet = FleetConfig::homogeneous(spec, *shards as usize)
                .map_err(|e| format!("event log {} header: {e}", log_path.display()))?;
            replay_fleet_events(&events, config, fleet.specs(), snapshot.as_ref())
                .map_err(|e| format!("replay of {} failed: {e}", log_path.display()))?
        }
        MonitorEvent::FleetStart {
            shards,
            specs,
            queue_capacity,
            drain_batch,
            snapshot_every,
        } => {
            // The header is self-contained; a --fleet file here only
            // cross-checks that the log matches the config on disk.
            if let Some(fleet) = load_fleet(opts)? {
                if fleet.specs() != specs.as_slice() {
                    return Err(format!(
                        "fleet config {} does not match the log's FleetStart header",
                        opts.fleet.as_ref().expect("fleet was loaded").display()
                    ));
                }
            }
            let config = SupervisorConfig {
                queue_capacity: *queue_capacity as usize,
                drain_batch: *drain_batch as usize,
                snapshot_every: *snapshot_every,
                consumers: opts.consumers,
            };
            println!(
                "replaying {}: {} shards ({}), {} events",
                log_path.display(),
                shards,
                FleetConfig::new(specs.clone())
                    .map(|f| f.summary())
                    .unwrap_or_else(|_| "invalid fleet".to_owned()),
                events.len()
            );
            replay_fleet_events(&events, config, specs, snapshot.as_ref())
                .map_err(|e| format!("replay of {} failed: {e}", log_path.display()))?
        }
        _ => {
            return Err(format!(
                "event log {} does not begin with a Start or FleetStart header",
                log_path.display()
            ))
        }
    };
    let report = supervisor.report();
    summarize(&report, None);
    write_report(&report, opts.report.as_ref())
}

fn run_live(opts: &Options) -> Result<(), String> {
    let config = SupervisorConfig {
        snapshot_every: opts.snapshot_every,
        consumers: opts.consumers,
        ..SupervisorConfig::default()
    };
    let fleet = load_fleet(opts)?;
    let specs = match &fleet {
        Some(fleet) => fleet.specs().to_vec(),
        None => vec![opts.spec; opts.hosts],
    };
    let hosts = specs.len();
    let mut supervisor =
        Supervisor::with_specs(config, &specs).expect("flags and fleet file were validated");
    let detector_name = match &fleet {
        Some(fleet) => fleet.summary(),
        None => opts.spec.kind.name().to_owned(),
    };

    if opts.dlq {
        supervisor.enable_dlq(opts.dlq_cap);
    }
    // The operational event bus is observational only — attached (with
    // one stdout-summary subscriber) exactly when an opt-in feature
    // wants it, so default runs carry zero extra machinery.
    let bus_events = (opts.dlq || opts.fleet_watch).then(|| {
        let bus = Arc::new(EventBus::new());
        let sub = bus.subscribe(8192);
        supervisor.set_bus(bus);
        sub
    });

    if let Some(snapshot) = load_resume(opts)? {
        supervisor
            .restore(&snapshot)
            .map_err(|e| format!("checkpoint does not fit this invocation: {e}"))?;
    }

    if let Some(path) = &opts.checkpoint {
        let path = path.clone();
        let sink: rejuv_monitor::CheckpointSink =
            Box::new(move |snapshot| save_snapshot(&path, snapshot));
        match opts.checkpoint_secs {
            Some(secs) => {
                let start = std::time::Instant::now();
                supervisor.set_checkpoint_timer(
                    secs,
                    Box::new(move || start.elapsed().as_secs_f64()),
                    sink,
                );
            }
            None => supervisor.set_checkpoint(opts.checkpoint_every, sink),
        }
    }

    if let Some(path) = &opts.trace {
        let file =
            File::create(path).map_err(|e| format!("cannot create {}: {e}", path.display()))?;
        let mut log = EventLog::new(Box::new(BufWriter::new(file)));
        let header = match &fleet {
            Some(fleet) => MonitorEvent::FleetStart {
                shards: hosts as u32,
                specs: fleet.specs().to_vec(),
                queue_capacity: config.queue_capacity as u64,
                drain_batch: config.drain_batch as u64,
                snapshot_every: config.snapshot_every,
            },
            None => MonitorEvent::Start {
                shards: hosts as u32,
                detector: detector_name.clone(),
                queue_capacity: config.queue_capacity as u64,
                drain_batch: config.drain_batch as u64,
                snapshot_every: config.snapshot_every,
            },
        };
        log.record(&header)
            .map_err(|e| format!("cannot write run header to {}: {e}", path.display()))?;
        supervisor.set_log(log);
    }

    let host_config = SystemConfig::paper_at_load(opts.load).map_err(|e| format!("--load: {e}"))?;
    let shared = SharedSupervisor::new(supervisor);
    // The bridges feed decisions back synchronously; the consumer pool
    // coexists to drain anything pushed through decoupled senders and
    // parks (zero CPU) whenever every queue is empty.
    let consumer = ConsumerPool::spawn_shared(&shared);

    // Live scrape endpoint. The responder thread holds its own handle on
    // the shared supervisor and renders every scrape from pure read-only
    // accessors, so artifacts stay byte-identical to a listener-free run.
    let metrics_server = match opts.listen {
        Some(addr) => {
            let server = rejuv_monitor::MetricsServer::bind(
                addr,
                shared.clone(),
                Some(consumer.stats_handle()),
            )
            .map_err(|e| format!("cannot bind --listen {addr}: {e}"))?;
            println!(
                "metrics: listening on http://{}/metrics (also /healthz, /report)",
                server.local_addr()
            );
            Some(server)
        }
        None => None,
    };

    // Fleet hot-reload: a SIGHUP (or, with --fleet-watch, a rewrite of
    // the fleet file) re-reads the config and rebuilds exactly the
    // drifted shards in place. The watcher owns a supervisor handle, so
    // it must be joined before the run can reclaim the supervisor.
    let reload_stop = Arc::new(AtomicBool::new(false));
    let reloader = opts.fleet.as_ref().map(|path| {
        sighup::install();
        let path = path.clone();
        let watch = opts.fleet_watch;
        let shared = shared.clone();
        let stop = Arc::clone(&reload_stop);
        std::thread::spawn(move || fleet_reload_loop(&path, watch, &shared, &stop))
    });

    println!(
        "live run: {} host(s), load {} CPUs, {} transactions, detector {}, seed {}, \
         {} consumer(s)",
        hosts, opts.load, opts.transactions, detector_name, opts.seed, opts.consumers
    );

    if hosts == 1 {
        let mut system = EcommerceSystem::new(host_config, opts.seed);
        system.attach_detector(Box::new(shared.bridge(0)));
        if opts.system_trace.is_some() {
            system.enable_trace(65_536);
        }
        let metrics = system.run(opts.transactions);
        println!(
            "model: {} completed, {} lost, mean response {:.3}s, {} GCs",
            metrics.completed, metrics.lost, metrics.mean_response_time, metrics.gc_count
        );
        if let Some(path) = &opts.system_trace {
            let trace = system.take_trace().expect("trace was enabled");
            let mut writer = BufWriter::new(
                File::create(path).map_err(|e| format!("cannot create {}: {e}", path.display()))?,
            );
            let lines = trace
                .write_jsonl(&mut writer)
                .and_then(|lines| writer.flush().map(|()| lines))
                .map_err(|e| format!("cannot write system trace {}: {e}", path.display()))?;
            println!("wrote {} system events to {}", lines, path.display());
        }
        drop(system);
    } else {
        let cluster_rate = host_config.arrival_rate() * hosts as f64;
        let mut cluster = ClusterSystem::new(
            host_config,
            hosts,
            cluster_rate,
            RoutingPolicy::LeastActive,
            opts.downtime,
            opts.seed,
        );
        cluster.attach_detectors(|h| Box::new(shared.bridge(h)));
        if opts.system_trace.is_some() {
            cluster.enable_trace(65_536);
        }
        let metrics = cluster.run(opts.transactions);
        println!(
            "cluster: {} completed, {} lost, mean response {:.3}s, {} rejected (no host)",
            metrics.aggregate.completed,
            metrics.aggregate.lost,
            metrics.aggregate.mean_response_time,
            metrics.rejected_no_host
        );
        if let Some(path) = &opts.system_trace {
            let traces = cluster.take_traces().expect("trace was enabled");
            let mut writer = BufWriter::new(
                File::create(path).map_err(|e| format!("cannot create {}: {e}", path.display()))?,
            );
            let lines = rejuv_ecommerce::trace::write_merged_jsonl(&traces, &mut writer)
                .and_then(|lines| writer.flush().map(|()| lines))
                .map_err(|e| format!("cannot write system trace {}: {e}", path.display()))?;
            println!(
                "wrote {} host-tagged system trace line(s) to {}",
                lines,
                path.display()
            );
        }
        drop(cluster);
    }

    reload_stop.store(true, Ordering::SeqCst);
    if let Some(handle) = reloader {
        handle.join().expect("fleet reload watcher never panics");
    }

    // The responder holds a supervisor clone; it must release it before
    // the run can reclaim the supervisor below.
    if let Some(server) = metrics_server {
        let scrapes = server.scrapes();
        server.shutdown();
        println!("metrics: served {scrapes} scrape(s)");
    }

    let stats = consumer
        .join()
        .map_err(|e| format!("consumer drain failed: {e}"))?
        .stats;
    let mut supervisor = shared
        .try_into_inner()
        .expect("all bridges dropped with the system");
    // Clean completion: persist one final checkpoint (flushes the log
    // first), so a later --resume continues from the very end.
    supervisor
        .checkpoint_now()
        .map_err(|e| format!("final checkpoint failed: {e}"))?;
    if let Some(path) = &opts.checkpoint {
        println!("wrote checkpoint {}", path.display());
    }
    if let Some(mut log) = supervisor.take_log() {
        log.flush()
            .map_err(|e| format!("cannot flush event log: {e}"))?;
    }
    let report = supervisor.report();
    summarize(&report, Some(&stats));
    if opts.dlq {
        let totals = supervisor.dlq_totals();
        println!(
            "dead-letter queue: {} captured, {} replayed, {} overflowed, {} pending",
            totals.captured, totals.replayed, totals.overflow, totals.pending
        );
    }
    if let Some(sub) = &bus_events {
        println!(
            "event bus: {} operational event(s), {} overflowed the summary subscriber",
            sub.drain().len(),
            sub.overflow()
        );
    }
    write_report(&report, opts.report.as_ref())?;
    if let Some(path) = &opts.trace {
        println!("wrote event log {}", path.display());
    }
    Ok(())
}

/// Polls every 25 ms for a pending SIGHUP (and, under `--fleet-watch`,
/// for a fleet-file mtime change), hot-reloading the fleet when either
/// fires. Only drifted shards are rebuilt; a config that fails to load
/// or validate is rejected with a one-line diagnostic and the running
/// fleet is left untouched.
fn fleet_reload_loop(path: &Path, watch: bool, shared: &SharedSupervisor, stop: &AtomicBool) {
    let mtime = |path: &Path| std::fs::metadata(path).and_then(|m| m.modified()).ok();
    let mut last = mtime(path);
    while !stop.load(Ordering::SeqCst) {
        std::thread::sleep(std::time::Duration::from_millis(25));
        let mut due = sighup::take();
        if watch {
            let now = mtime(path);
            if now != last {
                last = now;
                due = true;
            }
        }
        if !due {
            continue;
        }
        match FleetConfig::load(path) {
            Ok(fleet) => {
                match shared.with(|s| s.reload_specs(fleet.specs())) {
                    Ok(rebuilt) if rebuilt.is_empty() => {
                        println!("fleet hot-reload: config matches the running fleet, nothing to rebuild");
                    }
                    Ok(rebuilt) => {
                        println!(
                            "fleet hot-reload: rebuilt shard(s) {rebuilt:?} ({})",
                            fleet.summary()
                        );
                    }
                    Err(e) => eprintln!("monitord: fleet hot-reload rejected: {e}"),
                }
            }
            Err(e) => eprintln!(
                "monitord: fleet hot-reload rejected: cannot load {}: {e}",
                path.display()
            ),
        }
    }
}

/// A minimal SIGHUP latch: no signal-handling dependency, just the
/// `signal(2)` symbol every unix target already links. The handler only
/// stores a flag (async-signal-safe); the watcher thread does the work.
#[cfg(unix)]
mod sighup {
    use std::sync::atomic::{AtomicBool, Ordering};

    static PENDING: AtomicBool = AtomicBool::new(false);

    extern "C" fn on_sighup(_signum: i32) {
        PENDING.store(true, Ordering::SeqCst);
    }

    pub fn install() {
        const SIGHUP: i32 = 1;
        extern "C" {
            fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
        }
        unsafe {
            signal(SIGHUP, on_sighup);
        }
    }

    /// Returns (and clears) the pending-reload latch.
    pub fn take() -> bool {
        PENDING.swap(false, Ordering::SeqCst)
    }
}

#[cfg(not(unix))]
mod sighup {
    pub fn install() {}

    pub fn take() -> bool {
        false
    }
}

/// Runs the deterministic crash-simulation sweep (`--dst`). One trace =
/// run a workload, crash it at an armed failpoint, resume from the
/// surviving artifacts, judge the four guarantees; the sweep covers
/// every catalog site under every master seed.
#[cfg(feature = "failpoints")]
fn run_dst(opts: &Options) -> i32 {
    use rejuv_monitor::assurance::dst::{run, DstOptions};
    let mut dst = DstOptions {
        seeds: opts.dst_seeds,
        sites: opts.dst_sites.clone(),
        ..DstOptions::default()
    };
    if let Some(dir) = &opts.dst_dir {
        dst.dir = dir.clone();
    }
    if let Ok(seed) = std::env::var("REJUV_DST_SEED") {
        match seed.parse() {
            Ok(seed) => dst.base_seed = seed,
            Err(_) => {
                eprintln!("monitord: REJUV_DST_SEED {seed:?} is not an unsigned integer");
                return 2;
            }
        }
    }
    println!(
        "dst sweep: {} seed(s) from base {:#x}, sites {}",
        dst.seeds,
        dst.base_seed,
        match &dst.sites {
            Some(sites) => sites.join(","),
            None => "all".to_owned(),
        }
    );
    match run(&dst) {
        Ok(summary) => {
            for line in summary.lines() {
                println!("{line}");
            }
            if summary.is_ok() {
                0
            } else {
                for violation in &summary.violations {
                    eprintln!("monitord: guarantee violation: {violation}");
                }
                for site in &summary.uncovered {
                    eprintln!("monitord: failpoint never crashed a trace: {site}");
                }
                1
            }
        }
        Err(e) => {
            eprintln!("monitord: dst sweep failed: {e}");
            1
        }
    }
}

#[cfg(not(feature = "failpoints"))]
fn run_dst(_opts: &Options) -> i32 {
    eprintln!(
        "monitord: --dst requires a failpoints build \
         (cargo run -p rejuv-bench --features failpoints --bin monitord -- --dst)"
    );
    2
}

fn real_main() -> i32 {
    let opts = match parse_args(std::env::args().skip(1)) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("monitord: {e}");
            return 2;
        }
    };
    if opts.dst {
        return run_dst(&opts);
    }
    // On a failpoints build, REJUV_FP=site[:nth] arms a single failpoint
    // so operators can crash a real live run at a named durability site
    // and practice the --resume path by hand.
    #[cfg(feature = "failpoints")]
    if rejuv_monitor::assurance::failpoints::arm_from_env() {
        println!("armed failpoint from REJUV_FP");
    }
    let result = match &opts.replay {
        Some(path) => run_replay(&opts, path),
        None => run_live(&opts),
    };
    match result {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("monitord: {e}");
            1
        }
    }
}

fn main() {
    std::process::exit(real_main());
}
