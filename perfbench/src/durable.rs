//! `durable_replay`: the `ingest_inline` rounds with an `EventLog` to a
//! `BufWriter<File>` and a `save_snapshot` checkpoint sink at a fixed
//! observation cadence, then a replay leg (`read_events` plus
//! `replay_fleet_events`) whose report must equal the live one byte for
//! byte. Runs in cycles, each on a fresh supervisor and log, so the log
//! stays a few MiB. Every cycle rewrites the same log file from its
//! start and cuts it to what the cycle wrote: a fresh file per cycle
//! made the kernel allocate and free a few MiB of page cache per cycle,
//! and on a virtual machine that reports freed memory to its host the
//! cost of taking such pages back swung rounds between about 1.1 and
//! 1.9 ms for seconds at a time (see `STEADINESS.md`).

use crate::cpu::Placement;
use crate::monitor::{self, Feed, Fleet, Rounds, BATCH};
use crate::stats::{max, median, peak_rss_mb, trimmed_mean, WindowStats, Windows};
use crate::trace::Tracer;
use crate::{
    discard, finish, gen, invalid, out_dir, overhead_pct, unique_name, Fault, Outcome, Params,
    Setups, Tally, Values, SETUP_BLOCK,
};
use rejuv_monitor::{
    load_snapshot, read_events, replay_fleet_events, save_snapshot, EventLog, MonitorEvent,
    SharedBuffer, Supervisor, SupervisorConfig,
};
use std::fs::{File, OpenOptions};
use std::io::{self, BufReader, BufWriter, Seek};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Rounds per cycle: 64 × 6 shards × 512 = 196 608 observations.
const ROUNDS_PER_CYCLE: usize = 64;
/// Observations between checkpoints.
const CHECKPOINT_EVERY: u64 = 65_536;
/// Measurement window, in live time.
const WINDOW_S: f64 = 0.05;

fn config() -> SupervisorConfig {
    monitor::config(BATCH)
}

/// Where a run keeps its log and checkpoint, and the checkpoint save
/// times (µs) its sinks record.
struct Durable {
    log: PathBuf,
    checkpoint: PathBuf,
    saves: Arc<Mutex<Vec<f64>>>,
    placement: Placement,
}

/// What one leg of cycles measured.
#[derive(Default)]
struct Leg {
    rounds: Rounds,
    replay_rates: Vec<f64>,
    replay_s: f64,
    /// Bytes per observation of the last cycle's log.
    log_bytes_per_obs: f64,
}

impl Durable {
    /// The set-up sequence: the fleet, plus the event log and the
    /// checkpoint sink attached to it. The log overwrites its file from
    /// the start; the second handle shares the log's file offset, so
    /// [`cut`] can drop what an earlier, longer cycle left behind.
    fn attach(&self) -> io::Result<(Fleet, File)> {
        let mut fleet = monitor::build_fleet(config())?;
        let file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(false)
            .open(&self.log)?;
        let end = file.try_clone()?;
        let mut log = EventLog::new(Box::new(BufWriter::new(file)));
        log.record(&MonitorEvent::FleetStart {
            shards: fleet.specs.len() as u32,
            specs: fleet.specs.clone(),
            queue_capacity: config().queue_capacity as u64,
            drain_batch: config().drain_batch as u64,
            snapshot_every: None,
        })?;
        fleet.supervisor.set_log(log);
        let (path, saves) = (self.checkpoint.clone(), Arc::clone(&self.saves));
        fleet.supervisor.set_checkpoint(
            CHECKPOINT_EVERY,
            Box::new(move |snapshot| {
                let start = Instant::now();
                save_snapshot(&path, snapshot)?;
                saves
                    .lock()
                    .expect("checkpoint timing lock")
                    .push(start.elapsed().as_secs_f64() * 1e6);
                Ok(())
            }),
        );
        Ok((fleet, end))
    }

    /// Runs cycles for `seconds`: live rounds, final checkpoint and log
    /// flush, then the replay leg and the gates. Between rounds, set-ups
    /// of `probe`, which has files of its own, are sampled into `setups`.
    fn leg(
        &self,
        p: &Params,
        feed: &mut Feed,
        tracer: &mut Tracer,
        seconds: f64,
        tally: &mut Tally,
        (setups, probe): (&mut Setups, &Durable),
    ) -> io::Result<(Leg, WindowStats)> {
        let mut leg = Leg::default();
        let mut windows = Windows::new(&self.placement, WINDOW_S);
        let start = Instant::now();
        let mut cycle = 0;
        while cycle == 0 || start.elapsed().as_secs_f64() < seconds {
            let (mut fleet, end) = self.attach()?;
            let before = leg.rounds.obs;
            leg.rounds
                .run(&mut fleet, feed, tracer, tally, &mut windows, |done| {
                    setups.poll(|| probe.attach(), discard)?;
                    Ok(done == ROUNDS_PER_CYCLE)
                })?;
            // Closing the live leg makes it durable: final checkpoint,
            // log flush. Counted as live time with no observations.
            let close_start = Instant::now();
            let span = tracer.start("checkpoint.close", None);
            let supervisor = &mut fleet.supervisor;
            supervisor.checkpoint_now()?;
            if let Some(mut log) = supervisor.take_log() {
                log.flush()?;
            }
            cut(end)?;
            tracer.end(span);
            leg.rounds.busy_s += close_start.elapsed().as_secs_f64();
            windows.add(leg.rounds.busy_s, 0, None);
            let cycle_obs = leg.rounds.obs - before;
            leg.log_bytes_per_obs = std::fs::metadata(&self.log)?.len() as f64 / cycle_obs as f64;
            let live_report = report_bytes(supervisor)?;

            let replay_start = Instant::now();
            let span = tracer.start("event.decode", None);
            let events = read_events(BufReader::new(File::open(&self.log)?))?;
            tracer.end(span);
            let span = tracer.start("replay.apply", None);
            let replayed = replay_fleet_events(&events, config(), &fleet.specs, None)?;
            tracer.end(span);
            let replay_s = replay_start.elapsed().as_secs_f64();
            leg.replay_s += replay_s;
            leg.replay_rates.push(cycle_obs as f64 / replay_s);

            let mut replay_report = report_bytes(&replayed)?;
            if p.fault == Fault::FlipReplayByte && cycle == 0 {
                replay_report[0] ^= 1;
            }
            tally.check(
                live_report == replay_report,
                "replay report equals the live report",
            );
            let restored = load_snapshot(&self.checkpoint).and_then(|snapshot| {
                let mut fresh = monitor::build_fleet(config())?.supervisor;
                fresh.restore(&snapshot).map_err(invalid)?;
                Ok(fresh.total_processed())
            });
            tally.check(
                matches!(restored, Ok(n) if n == supervisor.total_processed()),
                "final checkpoint loads and restores",
            );
            tally.check(
                supervisor.report().total_dropped == 0,
                "no dropped observations",
            );
            cycle += 1;
        }
        Ok((leg, windows.finish()))
    }
}

/// Cuts the log file at the log's current offset, which `end` shares.
fn cut(mut end: File) -> io::Result<()> {
    let len = end.stream_position()?;
    end.set_len(len)
}

fn report_bytes(supervisor: &Supervisor) -> io::Result<Vec<u8>> {
    serde_json::to_string(&supervisor.report())
        .map(String::into_bytes)
        .map_err(invalid)
}

/// Runs the workload.
///
/// # Errors
///
/// Fleet, log, checkpoint or replay I/O failures.
pub fn run(p: &Params) -> io::Result<Outcome> {
    let dir = out_dir()?;
    let files = |stem: &str| Durable {
        log: dir.join(unique_name(stem, "jsonl")),
        checkpoint: dir.join(unique_name(stem, "ckpt.json")),
        saves: Arc::default(),
        placement: Placement::detect(),
    };
    let (durable, probe) = (files("durable"), files("durable-setup"));
    let result = measure(p, &durable, &probe);
    for d in [&durable, &probe] {
        let _ = std::fs::remove_file(&d.log);
        let _ = std::fs::remove_file(&d.checkpoint);
    }
    result
}

fn measure(p: &Params, durable: &Durable, probe: &Durable) -> io::Result<Outcome> {
    let mut tally = Tally::default();
    let cold_start = Instant::now();
    let specs = durable.attach()?.0.specs;
    let cold_s = cold_start.elapsed().as_secs_f64();
    let mut setups = Setups::new(p.quick, SETUP_BLOCK, || probe.attach(), discard)?;
    let mut feed = Feed::new(gen::fleet_streams(
        p.seed,
        specs.len(),
        monitor::shard_len(p.quick),
    ));
    let mut tracer = Tracer::new(p.trace);
    let saves_so_far = || durable.saves.lock().expect("checkpoint timing lock").len();
    let ((mut untraced, stats), traced) = if p.trace {
        let untraced = durable.leg(
            p,
            &mut feed,
            &mut Tracer::new(false),
            p.seconds / 2.0,
            &mut tally,
            (&mut setups, probe),
        )?;
        let saves_before = saves_so_far();
        let traced = durable.leg(
            p,
            &mut feed,
            &mut tracer,
            p.seconds / 2.0,
            &mut tally,
            (&mut setups, probe),
        )?;
        (untraced, Some((traced, saves_before)))
    } else {
        (
            durable.leg(
                p,
                &mut feed,
                &mut Tracer::new(false),
                p.seconds,
                &mut tally,
                (&mut setups, probe),
            )?,
            None,
        )
    };

    setups.phase(|| probe.attach(), discard)?;
    let peak_rss = peak_rss_mb()?;

    let mut e2e = Values::default();
    e2e.set("throughput_per_s", stats.rate);
    e2e.set("latency_p50_us", stats.p50);
    e2e.set("latency_p90_us", stats.p90);
    e2e.set("replay_per_s", trimmed_mean(&mut untraced.replay_rates));
    e2e.set("setup_s", setups.best());
    e2e.set("peak_rss_mb", peak_rss);

    let mut layers = Values::default();
    let mut budget = Vec::new();
    if let Some(((traced, traced_stats), saves_before)) = traced {
        let iso = monitor::isolation(&specs, &feed.streams, &mut tracer, &mut layers)?;
        let encode = encode_isolation(&feed, &mut tracer)?;
        let live_obs = traced.rounds.obs as f64;
        let per_obs = |name: &str| tracer.total(name).ns as f64 / live_obs;
        let (push, poll, round, close) = (
            per_obs("queue.push"),
            per_obs("supervisor.poll"),
            per_obs("round"),
            per_obs("checkpoint.close"),
        );
        let (decode, apply) = (per_obs("event.decode"), per_obs("replay.apply"));
        let replay = traced.replay_s * 1e9 / live_obs;
        let mut saves =
            durable.saves.lock().expect("checkpoint timing lock")[saves_before..].to_vec();
        let save_ns_per_obs = saves.iter().sum::<f64>() * 1e3 / live_obs;
        let checkpoint = load_snapshot(&durable.checkpoint)?;
        let mut serialize_us: Vec<f64> = (0..20)
            .map(|_| {
                let start = Instant::now();
                let text = serde_json::to_string_pretty(&checkpoint).map_err(invalid)?;
                std::hint::black_box(text);
                Ok(start.elapsed().as_secs_f64() * 1e6)
            })
            .collect::<io::Result<_>>()?;
        let residue = poll - iso.kernel_ns - iso.record_slice_ns - encode;
        layers.set("queue.push_ns_per_obs", push);
        layers.set("supervisor.poll_ns_per_obs", poll);
        layers.set("drain.residue_ns_per_obs", residue);
        layers.set("event.encode_ns_per_obs", encode);
        layers.set("event.bytes_per_obs", traced.log_bytes_per_obs);
        layers.set("event.decode_ns_per_obs", decode);
        layers.set("replay.apply_ns_per_obs", apply);
        layers.set("checkpoint.serialize_us", median(&mut serialize_us));
        layers.set("checkpoint.save_us_p50", median(&mut saves));
        layers.set("checkpoint.save_us_max", max(&saves));
        layers.set(
            "checkpoint.bytes",
            std::fs::metadata(&durable.checkpoint)?.len() as f64,
        );
        layers.set("setup.cold_s", cold_s);
        let overhead = overhead_pct(stats.rate, traced_stats.rate, true);
        layers.set("trace.overhead_pct", overhead);
        budget.push(format!(
            "durable_replay budget, live ns per observation: {:.3} = queue.push {push:.3} \
             + supervisor.poll {poll:.3} + checkpoint.close {close:.3} + residue {:.3} \
             (round loop); checkpoint saves take {save_ns_per_obs:.3} of poll and close",
            round + close,
            round - push - poll
        ));
        budget.push(format!(
            "durable_replay budget, live ns per observation: supervisor.poll {poll:.3} = \
             core.observe_batch {:.3} + metrics.record_slice {:.3} + event.encode {encode:.3} \
             + residue {residue:.3} (log writes, checkpoint saves, queue pop, digest, dispatch)",
            iso.kernel_ns, iso.record_slice_ns,
        ));
        budget.push(format!(
            "durable_replay budget, replay ns per observation: {replay:.3} = event.decode \
             {decode:.3} + replay.apply {apply:.3} + residue {:.3}",
            replay - decode - apply
        ));
        budget.push(format!(
            "durable_replay tracing overhead: {:.0} obs/s untraced, {:.0} obs/s traced \
             ({overhead:.2} %)",
            stats.rate, traced_stats.rate
        ));
    }
    finish(p, tally, e2e, layers, budget, &tracer, "durable_replay")
}

/// `EventLog::record` of one cycle's worth of drain batches into an
/// in-memory sink; returns ns per observation.
fn encode_isolation(feed: &Feed, tracer: &mut Tracer) -> io::Result<f64> {
    let mut log = EventLog::new(Box::new(SharedBuffer::new()));
    let mut obs = 0;
    for (shard, stream) in feed.streams.iter().enumerate() {
        for (i, batch) in stream
            .samples
            .chunks(BATCH)
            .take(ROUNDS_PER_CYCLE)
            .enumerate()
        {
            let event = MonitorEvent::TimedBatch {
                shard: shard as u32,
                seq: (i * BATCH) as u64,
                values: batch.iter().map(|&(v, _)| v).collect(),
                times: batch.iter().map(|&(_, at)| at).collect(),
            };
            let span = tracer.start("event.encode", None);
            log.record(&event)?;
            tracer.end(span);
            obs += batch.len();
        }
    }
    Ok(tracer.total("event.encode").ns as f64 / obs as f64)
}
