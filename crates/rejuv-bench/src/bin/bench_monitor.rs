//! Throughput benchmark of the sharded monitoring runtime.
//!
//! Spawns one lossless producer thread per shard, each pushing a
//! deterministic synthetic observation stream through its
//! `ShardSender` (in batches, amortising one queue operation over
//! `--producer-batch` samples), while a [`ConsumerPool`] of
//! `--consumers` worker threads drains the shards (static round-robin
//! shard ownership plus bounded work-stealing; workers park, not spin,
//! whenever the producers outrun them). Runs one cell per consumer
//! count — each cell the best of three passes, so machine drift on a
//! shared box doesn't masquerade as a consumer-count difference —
//! reports sustained observations per second plus steal/park/wait
//! counters, verifies every pass is deterministic (per-shard decision
//! digests match one serial reference at every consumer count) and
//! writes the numbers to `BENCH_monitor.json`.
//!
//! ```text
//! cargo run --release -p rejuv-bench --bin bench_monitor -- [options]
//!
//! options:
//!   --out FILE           output path (default BENCH_monitor.json)
//!   --shards N           producer threads / monitored streams (default 4)
//!   --fleet FILE         per-shard detector specs from a fleet config
//!                        (heterogeneous benchmark; overrides --shards
//!                        with the fleet's shard count)
//!   --observations N     observations per shard (default 1000000)
//!   --queue-capacity N   per-shard queue capacity (default 8192)
//!   --drain-batch N      max observations per drain (default 512)
//!   --producer-batch N   samples per producer push (default 256;
//!                        1 pushes one sample at a time)
//!   --consumers LIST     comma-separated consumer-thread counts to
//!                        sweep (default 1,2,4)
//!   --lossy              producers push without blocking: a full queue
//!                        drops (or dead-letters, with --dlq) instead
//!                        of parking the producer
//!   --dlq                attach a per-shard dead-letter queue (requires
//!                        --lossy): saturation captures samples instead
//!                        of dropping them, replay restores the exact
//!                        stream, and the run asserts zero silent drops
//!                        plus the accounting identity
//!                        accepted + dead_lettered + overflow == offered
//!   --dlq-cap N          per-shard dead-letter capacity (default 65536;
//!                        requires --dlq)
//!   --listen ADDR        run one extra scrape-under-load cell: a
//!                        shared-mode pass with a live /metrics
//!                        responder on ADDR (port 0 picks a free port)
//!                        scraped continuously while producers run,
//!                        plus a scrape-free twin. Asserts the scraped
//!                        run's digests still match the serial
//!                        reference and its report matches the twin's
//!                        (modulo the scheduling-noise drain-batching
//!                        histogram), and reports obs/s for both
//!   --quick              small run for CI smoke (25000 obs/shard)
//! ```
//!
//! Exit status: `0` on success, `1` when `--listen` cannot bind its
//! address, `2` on a usage error (one-line `bench_monitor: ...`
//! diagnostic on stderr).

use rejuv_core::{DetectorKind, DetectorSpec};
use rejuv_monitor::{
    ConsumerPool, DlqStats, FleetConfig, MetricsServer, SharedSupervisor, Supervisor,
    SupervisorConfig,
};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

struct Options {
    out: PathBuf,
    shards: usize,
    fleet: Option<FleetConfig>,
    observations: u64,
    queue_capacity: usize,
    drain_batch: usize,
    producer_batch: usize,
    consumers: Vec<usize>,
    lossy: bool,
    dlq: bool,
    dlq_cap: usize,
    listen: Option<SocketAddr>,
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
        out: PathBuf::from("BENCH_monitor.json"),
        shards: 4,
        fleet: None,
        observations: 1_000_000,
        queue_capacity: 8_192,
        drain_batch: 512,
        producer_batch: 256,
        consumers: vec![1, 2, 4],
        lossy: false,
        dlq: false,
        dlq_cap: 65_536,
        listen: None,
    };
    let mut quick = false;
    let mut observations_set = false;
    let mut dlq_cap_set = false;
    let mut args = cli.into_iter();
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .ok_or_else(|| format!("missing value for {name}"))
        };
        match arg.as_str() {
            "--out" => opts.out = PathBuf::from(value("--out")?),
            "--shards" => opts.shards = parsed("--shards", &value("--shards")?)?,
            "--fleet" => {
                let path = PathBuf::from(value("--fleet")?);
                let fleet = FleetConfig::load(&path)
                    .map_err(|e| format!("cannot load fleet config {}: {e}", path.display()))?;
                opts.fleet = Some(fleet);
            }
            "--observations" => {
                opts.observations = parsed("--observations", &value("--observations")?)?;
                observations_set = true;
            }
            "--queue-capacity" => {
                opts.queue_capacity = parsed("--queue-capacity", &value("--queue-capacity")?)?;
            }
            "--drain-batch" => {
                opts.drain_batch = parsed("--drain-batch", &value("--drain-batch")?)?;
            }
            "--producer-batch" => {
                opts.producer_batch = parsed("--producer-batch", &value("--producer-batch")?)?;
            }
            "--consumers" => {
                let list = value("--consumers")?;
                opts.consumers = list
                    .split(',')
                    .map(|n| parsed("--consumers", n.trim()))
                    .collect::<Result<_, _>>()?;
            }
            "--lossy" => opts.lossy = true,
            "--dlq" => opts.dlq = true,
            "--dlq-cap" => {
                opts.dlq_cap = parsed("--dlq-cap", &value("--dlq-cap")?)?;
                dlq_cap_set = true;
            }
            "--listen" => opts.listen = Some(parsed("--listen", &value("--listen")?)?),
            "--quick" => quick = true,
            other => return Err(format!("unknown option {other}")),
        }
    }
    if quick && !observations_set {
        opts.observations = 25_000;
    }
    if let Some(fleet) = &opts.fleet {
        opts.shards = fleet.shard_count();
    }
    if opts.shards == 0 {
        return Err("--shards must be positive".to_owned());
    }
    if opts.producer_batch == 0 {
        return Err("--producer-batch must be positive".to_owned());
    }
    if opts.consumers.is_empty() {
        return Err("--consumers must name at least one count".to_owned());
    }
    if opts.consumers.contains(&0) {
        return Err("--consumers counts must be positive".to_owned());
    }
    if opts.dlq && !opts.lossy {
        return Err("--dlq only makes sense together with --lossy \
             (blocking producers never drop)"
            .to_owned());
    }
    if dlq_cap_set && !opts.dlq {
        return Err("--dlq-cap only makes sense together with --dlq".to_owned());
    }
    if opts.dlq && opts.dlq_cap == 0 {
        return Err("--dlq-cap must be positive".to_owned());
    }
    if opts.listen.is_some() && opts.lossy {
        return Err("--listen asserts the scraped run reproduces the serial \
             reference; it cannot be combined with --lossy"
            .to_owned());
    }
    Ok(opts)
}

/// The supervisor under benchmark: a homogeneous SRAA fleet by default,
/// or the heterogeneous fleet named by `--fleet`.
fn build_supervisor(opts: &Options, config: SupervisorConfig) -> Supervisor {
    let specs = match &opts.fleet {
        Some(fleet) => fleet.specs().to_vec(),
        None => vec![DetectorSpec::new(DetectorKind::Sraa); opts.shards],
    };
    Supervisor::with_specs(config, &specs).expect("the fleet file was validated at load")
}

/// The synthetic stream for one shard: mostly healthy values with a
/// slow upward drift so detectors do real bucket work, plus periodic
/// spikes. Purely a function of `(shard, i)` — every run sees the same
/// stream.
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

fn config_for(opts: &Options, consumers: usize) -> SupervisorConfig {
    SupervisorConfig {
        queue_capacity: opts.queue_capacity,
        drain_batch: opts.drain_batch,
        snapshot_every: None,
        consumers,
    }
}

/// One threaded benchmark pass's outcome.
struct RunStats {
    elapsed: f64,
    digests: Vec<String>,
    /// Worker threads in the consumer pool.
    consumer_threads: usize,
    /// Times a pool worker parked waiting for work.
    consumer_parks: u64,
    /// Shard ownership transfers between pool workers.
    steals: u64,
    /// Observations drained by each pool worker.
    per_thread_drains: Vec<u64>,
    /// Times a blocking producer parked waiting for queue space.
    producer_waits: u64,
    /// Observations dropped to back-pressure (lossy runs without a
    /// dead-letter queue; always 0 otherwise).
    dropped: u64,
    /// Aggregated dead-letter accounting (`--dlq` runs only).
    dlq: Option<DlqStats>,
}

/// Runs the workload with threaded producers and a consumer pool (no
/// spin loop anywhere: producers park on back-pressure, pool workers
/// park when their queues are empty).
fn timed_run(opts: &Options, consumers: usize) -> RunStats {
    let mut supervisor = build_supervisor(opts, config_for(opts, consumers));
    if opts.dlq {
        supervisor.enable_dlq(opts.dlq_cap);
    }
    let senders: Vec<_> = (0..opts.shards).map(|s| supervisor.sender(s)).collect();
    let per_shard = opts.observations;
    let total = per_shard * opts.shards as u64;
    let batch = opts.producer_batch as u64;
    let lossy = opts.lossy;

    let start = Instant::now();
    let pool = ConsumerPool::spawn(supervisor);
    std::thread::scope(|scope| {
        for (shard, sender) in senders.iter().enumerate() {
            scope.spawn(move || {
                if batch == 1 {
                    for i in 0..per_shard {
                        let v = synthetic(shard as u64, i);
                        if lossy {
                            // The return value is deliberately dropped:
                            // the post-run accounting has to balance
                            // regardless.
                            let _ = sender.send(v);
                        } else {
                            sender.send_blocking(v);
                        }
                    }
                } else {
                    let mut buf = Vec::with_capacity(batch as usize);
                    let mut i = 0;
                    while i < per_shard {
                        let n = batch.min(per_shard - i);
                        buf.clear();
                        buf.extend((i..i + n).map(|k| (synthetic(shard as u64, k), f64::NAN)));
                        if lossy {
                            let _ = sender.send_batch(buf.iter().copied());
                        } else {
                            sender.send_batch_blocking(buf.iter().copied());
                        }
                        i += n;
                    }
                }
            });
        }
    });
    // Producers are done; join performs the final loss-free drain
    // (replaying any dead letters) and hands back both the supervisor
    // and the pool telemetry.
    let joined = pool.join().expect("no log attached");
    let elapsed = start.elapsed().as_secs_f64();
    let stats = joined.stats;
    let supervisor = joined
        .supervisor
        .expect("owned pool returns the supervisor");

    let report = supervisor.report();
    if opts.dlq {
        assert_eq!(
            report.total_dropped, 0,
            "a dead-letter queue means zero silent drops"
        );
        for shard in 0..opts.shards {
            let stats = supervisor.dlq_stats(shard).expect("DLQ attached");
            assert_eq!(
                report.shards[shard].accepted + stats.pending as u64 + stats.overflow,
                per_shard,
                "shard {shard}: accounting identity violated ({stats:?})"
            );
        }
    } else if !opts.lossy {
        assert_eq!(report.total_processed, total);
        assert_eq!(report.total_dropped, 0, "blocking producers never drop");
    }
    let dlq = opts.dlq.then(|| supervisor.dlq_totals());
    RunStats {
        elapsed,
        digests: report.shards.iter().map(|s| s.digest.clone()).collect(),
        consumer_threads: stats.consumers,
        consumer_parks: stats.parks,
        steals: stats.steals,
        per_thread_drains: stats.per_thread_drains,
        producer_waits: report.shards.iter().map(|s| s.producer_waits).sum(),
        dropped: report.total_dropped,
        dlq,
    }
}

/// Serial reference: same streams fed synchronously, no threads. Its
/// digests are the ground truth every threaded run — at every consumer
/// count — must reproduce.
fn reference_digests(opts: &Options) -> Vec<String> {
    let mut supervisor = build_supervisor(opts, config_for(opts, 1));
    for shard in 0..opts.shards {
        for i in 0..opts.observations {
            supervisor
                .process_sync(shard, synthetic(shard as u64, i))
                .expect("no log attached");
        }
    }
    supervisor
        .report()
        .shards
        .iter()
        .map(|s| s.digest.clone())
        .collect()
}

/// One blocking GET against the responder, draining the reply. Returns
/// whether a well-formed exposition body came back; failures are
/// tolerated (the server's own scrape counter is authoritative).
fn scrape_once(addr: SocketAddr) -> bool {
    let Ok(mut stream) = TcpStream::connect(addr) else {
        return false;
    };
    if stream
        .write_all(b"GET /metrics HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n")
        .is_err()
    {
        return false;
    }
    let mut reply = String::new();
    stream.read_to_string(&mut reply).is_ok() && reply.contains("rejuv_exposition_scrapes_total")
}

/// The scrape cell's outcome: wall time, the final report rendered as
/// JSON, per-shard digests and the number of scrapes served.
struct ScrapedRun {
    elapsed: f64,
    report_json: String,
    digests: Vec<String>,
    scrapes: u64,
}

/// One shared-mode pass (supervisor behind a mutex, shared consumer
/// pool as the drain plane), optionally with a live `/metrics` responder scraped
/// every 50 ms while the producers run. The queue capacity is widened
/// to hold a full shard stream so blocking producers never park —
/// `producer_waits` stays deterministically zero and the final report
/// is byte-comparable across runs.
fn scraped_run(opts: &Options, listen: Option<SocketAddr>) -> ScrapedRun {
    let consumers = *opts.consumers.last().expect("at least one count");
    let mut config = config_for(opts, consumers);
    config.queue_capacity = config.queue_capacity.max(opts.observations as usize);
    let shared = SharedSupervisor::new(build_supervisor(opts, config));
    let consumer = ConsumerPool::spawn_shared(&shared);
    let server = listen.map(|addr| {
        MetricsServer::bind(addr, shared.clone(), Some(consumer.stats_handle())).unwrap_or_else(
            |e| {
                eprintln!("bench_monitor: cannot bind --listen {addr}: {e}");
                std::process::exit(1);
            },
        )
    });
    let stop = Arc::new(AtomicBool::new(false));
    let scraper = server.as_ref().map(|server| {
        let addr = server.local_addr();
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            while !stop.load(Ordering::SeqCst) {
                let _ = scrape_once(addr);
                std::thread::sleep(std::time::Duration::from_millis(50));
            }
        })
    });

    let senders: Vec<_> = (0..opts.shards)
        .map(|s| shared.with(|sup| sup.sender(s)))
        .collect();
    let per_shard = opts.observations;
    let batch = opts.producer_batch as u64;
    let start = Instant::now();
    std::thread::scope(|scope| {
        for (shard, sender) in senders.iter().enumerate() {
            scope.spawn(move || {
                let mut buf = Vec::with_capacity(batch as usize);
                let mut i = 0;
                while i < per_shard {
                    let n = batch.min(per_shard - i);
                    buf.clear();
                    buf.extend((i..i + n).map(|k| (synthetic(shard as u64, k), f64::NAN)));
                    sender.send_batch_blocking(buf.iter().copied());
                    i += n;
                }
            });
        }
    });
    consumer.join().expect("no log attached");
    let elapsed = start.elapsed().as_secs_f64();

    stop.store(true, Ordering::SeqCst);
    if let Some(handle) = scraper {
        handle.join().expect("scraper never panics");
    }
    let scrapes = server.as_ref().map_or(0, MetricsServer::scrapes);
    if let Some(server) = server {
        // The responder holds a supervisor clone; release it before the
        // run can reclaim the supervisor below.
        server.shutdown();
    }
    let supervisor = shared
        .try_into_inner()
        .expect("drain plane and responder released their handles");
    let report = supervisor.report();
    ScrapedRun {
        elapsed,
        report_json: comparable_report(&report),
        digests: report.shards.iter().map(|s| s.digest.clone()).collect(),
        scrapes,
    }
}

/// Renders a report for cross-run comparison, dropping the one piece of
/// telemetry that is thread-scheduling noise rather than a function of
/// the observation stream: the `drain_batch_size` histogram differs
/// between any two threaded runs, scraper or not.
fn comparable_report(report: &rejuv_monitor::MonitorReport) -> String {
    use serde_json::Value;
    let mut value = serde_json::to_value(report).expect("render report json");
    if let Value::Object(root) = &mut value {
        if let Some(Value::Object(metrics)) = root.get_mut("metrics") {
            if let Some(Value::Object(histograms)) = metrics.get_mut("histograms") {
                histograms.remove("drain_batch_size");
            }
        }
    }
    serde_json::to_string_pretty(&value).expect("render report json")
}

fn main() {
    let opts = match parse_args(std::env::args().skip(1)) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("bench_monitor: {e}");
            std::process::exit(2);
        }
    };
    let total = opts.observations * opts.shards as u64;
    let available_cores = std::thread::available_parallelism().map_or(1, usize::from);
    println!(
        "monitor throughput: {} shards x {} observations = {} total, \
         producer batch {}{}, {} cores available",
        opts.shards,
        opts.observations,
        total,
        opts.producer_batch,
        match (opts.lossy, opts.dlq) {
            (true, true) => " (lossy producers, dead-letter queue)",
            (true, false) => " (lossy producers)",
            _ => "",
        },
        available_cores
    );

    println!("serial reference for digest checks...");
    let reference = reference_digests(&opts);

    // Warm-up pass to page in code and touch the allocator.
    let warmup = Options {
        observations: 50_000.min(opts.observations),
        out: opts.out.clone(),
        fleet: opts.fleet.clone(),
        consumers: opts.consumers.clone(),
        ..opts
    };
    let _ = timed_run(&warmup, *opts.consumers.last().unwrap());

    let mut runs = Vec::new();
    for &consumers in &opts.consumers {
        // Best of three passes per cell: each pass is ~0.1 s, well
        // under the duration of a noisy-neighbour episode on a shared
        // box, so a single-pass grid confounds consumer-count
        // differences with machine drift. Every pass still has its
        // digests checked below.
        let mut stats = timed_run(&opts, consumers);
        for _ in 0..2 {
            let again = timed_run(&opts, consumers);
            // Lossy passes drop timing-dependent sample sets, so their
            // digests legitimately differ run to run; every lossless
            // pass must agree with the first.
            if !opts.lossy {
                assert_eq!(
                    again.digests, stats.digests,
                    "x{consumers}: repeat passes must agree"
                );
            }
            if again.elapsed < stats.elapsed {
                stats = again;
            }
        }
        let throughput = total as f64 / stats.elapsed;
        println!(
            "  x{consumers}: {:.2} s, {:.2} M obs/s \
             ({} steals, {} parks, {} producer waits, {} dropped)",
            stats.elapsed,
            throughput / 1e6,
            stats.steals,
            stats.consumer_parks,
            stats.producer_waits,
            stats.dropped
        );
        if let Some(dlq) = &stats.dlq {
            println!(
                "    dead-letter queue: {} captured, {} replayed, {} overflowed, {} pending",
                dlq.captured, dlq.replayed, dlq.overflow, dlq.pending
            );
        }
        // A lossy run without a DLQ loses samples, so its digests
        // legitimately diverge; a DLQ run whose dead-letter queue itself
        // overflowed lost the overflowed samples (counted, never
        // silent). Every other run must reproduce the serial reference
        // bit for bit — including saturated --dlq runs, whose replay
        // restores the exact stream.
        let replay_exact = stats.dlq.as_ref().is_none_or(|d| d.overflow == 0);
        let deterministic = stats.digests == reference;
        if !opts.lossy || (opts.dlq && replay_exact) {
            assert!(
                deterministic,
                "x{consumers} threaded run diverged from the serial reference"
            );
        }
        runs.push((stats, throughput, deterministic));
    }
    if opts.lossy && !opts.dlq {
        println!("lossy run without --dlq: digest checks skipped (samples were dropped)");
    } else {
        println!("digests match serial reference at every consumer count: true");
    }

    let scrape_cell = opts.listen.map(|addr| {
        println!("scrape-under-load cell (50 ms scrape interval)...");
        let scraped = scraped_run(&opts, Some(addr));
        let quiet = scraped_run(&opts, None);
        assert_eq!(
            scraped.digests, reference,
            "scraped shared-mode run diverged from the serial reference"
        );
        assert_eq!(
            quiet.digests, reference,
            "scrape-free shared-mode run diverged from the serial reference"
        );
        assert_eq!(
            scraped.report_json, quiet.report_json,
            "scrapes must be read-only: reports diverged beyond drain batching"
        );
        let scraped_rate = total as f64 / scraped.elapsed;
        let quiet_rate = total as f64 / quiet.elapsed;
        println!(
            "  scraped: {:.2} M obs/s over {} scrape(s); scrape-free: {:.2} M obs/s; \
             reports identical: true",
            scraped_rate / 1e6,
            scraped.scrapes,
            quiet_rate / 1e6
        );
        serde_json::json!({
            "scrapes": scraped.scrapes,
            "scraped_observations_per_sec": scraped_rate,
            "scrape_free_observations_per_sec": quiet_rate,
            "reports_identical": true,
        })
    });

    let json = serde_json::json!({
        "benchmark": "monitor_throughput",
        "available_cores": available_cores,
        "protocol": {
            "shards": opts.shards,
            "observations_per_shard": opts.observations,
            "total_observations": total,
            "queue_capacity": opts.queue_capacity,
            "drain_batch": opts.drain_batch,
            "producer_batch": opts.producer_batch,
            "consumer_counts": opts.consumers.clone(),
            "detector": opts.fleet.as_ref().map_or("SRAA".to_owned(), |f| f.summary()),
            "lossy_producers": opts.lossy,
            "dead_letter_queue": opts.dlq,
        },
        "runs": runs
            .iter()
            .map(|(stats, throughput, deterministic)| {
                let dlq = stats.dlq.as_ref();
                serde_json::json!({
                    "consumer_threads": stats.consumer_threads,
                    "wall_secs": stats.elapsed,
                    "observations_per_sec": throughput,
                    "steals": stats.steals,
                    "per_thread_drains": stats.per_thread_drains.clone(),
                    "consumer_parks": stats.consumer_parks,
                    "producer_waits": stats.producer_waits,
                    "dropped": stats.dropped,
                    "dead_lettered": dlq.map(|d| d.captured),
                    "dlq_replayed": dlq.map(|d| d.replayed),
                    "dlq_overflow": dlq.map(|d| d.overflow),
                    "deterministic": deterministic,
                })
            })
            .collect::<Vec<_>>(),
        "per_shard_digests": runs.first().map(|(s, _, _)| s.digests.clone()).unwrap_or_default(),
        "scrape_cell": scrape_cell,
    });
    std::fs::write(
        &opts.out,
        serde_json::to_string_pretty(&json).expect("render json") + "\n",
    )
    .expect("write benchmark json");
    println!("wrote {}", opts.out.display());
}
