//! What the three monitor workloads share: the fleet, the cycled input
//! feed, the per-sample reference and the layer isolation passes.

use crate::gen::ShardStream;
use crate::stats::Windows;
use crate::trace::{Open, Tracer};
use crate::{invalid, Values};
use rejuv_core::{DetectorKind, DetectorSpec};
use rejuv_monitor::{FleetConfig, Histogram, ShardSender, Supervisor, SupervisorConfig};
use std::hint::black_box;
use std::io;
use std::time::Instant;

/// The six-kind fleet file, one shard per detector kind.
pub const FLEET_TOML: &str = include_str!("../fleet.toml");

/// Observations per shard in one producer batch, and the supervisor's
/// drain batch, so one `poll_all` drains a whole round.
pub const BATCH: usize = 512;

/// The supervisor's batch kernel feeds detectors in chunks of this many
/// observations; the isolation passes do the same.
const DRAIN_CHUNK: usize = 32;

/// Bucket bounds of the supervisor's observation-value histogram.
const VALUE_BOUNDS: [f64; 7] = [1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0];

/// Samples per shard buffer: 2^18 pairs of `f64` are 4 MiB, twice the
/// per-core L2 of the reference machine, so cycling the buffer streams
/// from outside L2 as live traffic would.
pub fn shard_len(quick: bool) -> usize {
    if quick {
        1 << 12
    } else {
        1 << 18
    }
}

/// A supervisor configuration with the benchmark's drain batch.
pub fn config(queue_capacity: usize) -> SupervisorConfig {
    SupervisorConfig {
        queue_capacity,
        drain_batch: BATCH,
        ..SupervisorConfig::default()
    }
}

/// A supervisor built from the fleet file, with one sender per shard.
#[derive(Debug)]
pub struct Fleet {
    /// Detector spec per shard.
    pub specs: Vec<DetectorSpec>,
    /// The supervisor.
    pub supervisor: Supervisor,
    /// One producer handle per shard.
    pub senders: Vec<ShardSender>,
}

/// The shared part of every monitor set-up: parse the fleet file,
/// build the supervisor, take the senders.
pub fn build_fleet(config: SupervisorConfig) -> io::Result<Fleet> {
    let fleet = FleetConfig::parse(FLEET_TOML).map_err(invalid)?;
    let supervisor = Supervisor::with_specs(config, fleet.specs()).map_err(invalid)?;
    let senders = (0..supervisor.shard_count())
        .map(|shard| supervisor.sender(shard))
        .collect();
    Ok(Fleet {
        specs: fleet.specs().to_vec(),
        supervisor,
        senders,
    })
}

/// The generated per-shard buffers and the read position in each; the
/// buffers are cycled.
#[derive(Debug)]
pub struct Feed {
    /// One stream per shard.
    pub streams: Vec<ShardStream>,
    pos: Vec<usize>,
    pass: Vec<u64>,
    /// Samples offered per shard so far.
    pub offered: Vec<u64>,
}

impl Feed {
    /// A feed at the start of every stream.
    pub fn new(streams: Vec<ShardStream>) -> Self {
        let shards = streams.len();
        Feed {
            streams,
            pos: vec![0; shards],
            pass: vec![0; shards],
            offered: vec![0; shards],
        }
    }

    /// Observations offered over all shards.
    pub fn total_offered(&self) -> u64 {
        self.offered.iter().sum()
    }

    /// Offers shard `shard`'s next `n` samples through `sender`, one
    /// `send_batch` per contiguous run of the buffer, each in a
    /// `queue.push` span. Returns how many the queue accepted.
    pub fn send(
        &mut self,
        shard: usize,
        n: usize,
        sender: &ShardSender,
        tracer: &mut Tracer,
        parent: Option<&Open>,
    ) -> usize {
        let stream = &self.streams[shard];
        let len = stream.samples.len();
        let mut accepted = 0;
        let mut left = n;
        while left > 0 {
            let (pos, pass) = (self.pos[shard], self.pass[shard]);
            let take = left.min(len - pos);
            let offset = pass as f64 * stream.period;
            let run = &stream.samples[pos..pos + take];
            let span = tracer.start("queue.push", parent);
            accepted += sender.send_batch(run.iter().map(|&(v, at)| (v, at + offset)));
            tracer.end(span);
            left -= take;
            if pos + take == len {
                self.pos[shard] = 0;
                self.pass[shard] += 1;
            } else {
                self.pos[shard] = pos + take;
            }
        }
        self.offered[shard] += n as u64;
        accepted
    }

    /// Each shard's first `offered` samples (cycling) through a fresh
    /// detector's per-sample `observe`, untimed: the rejuvenation count
    /// per shard that the supervisor's batch drain must match.
    pub fn reference_fires(&self, specs: &[DetectorSpec]) -> io::Result<Vec<u64>> {
        specs
            .iter()
            .zip(&self.streams)
            .zip(&self.offered)
            .map(|((spec, stream), &count)| {
                let mut detector = spec.build().map_err(invalid)?;
                Ok(stream
                    .values
                    .iter()
                    .cycle()
                    .take(count as usize)
                    .filter(|&&v| detector.observe(v).is_rejuvenate())
                    .count() as u64)
            })
            .collect()
    }
}

/// One closed-loop round: push one `BATCH` to every shard, then
/// `poll_all` until the round is drained. Returns the observations
/// offered and drained; a shortfall is dropped or unprocessed.
fn round(fleet: &mut Fleet, feed: &mut Feed, tracer: &mut Tracer) -> io::Result<(u64, u64)> {
    let round = tracer.start("round", None);
    let mut accepted = 0;
    for (shard, sender) in fleet.senders.iter().enumerate() {
        accepted += feed.send(shard, BATCH, sender, tracer, round.as_ref());
    }
    let mut drained = 0;
    while drained < accepted {
        let span = tracer.start("supervisor.poll", round.as_ref());
        let n = fleet.supervisor.poll_all()?;
        tracer.end(span);
        if n == 0 {
            break;
        }
        drained += n;
    }
    tracer.end(round);
    Ok(((fleet.senders.len() * BATCH) as u64, drained as u64))
}

/// A timed run of closed-loop rounds.
#[derive(Debug, Default)]
pub struct Rounds {
    /// Observations drained.
    pub obs: u64,
    /// Seconds spent in rounds.
    pub busy_s: f64,
}

impl Rounds {
    /// Runs rounds until `until(rounds done)` says stop, counting
    /// offered and lost observations in `tally` and each round's work
    /// and latency (µs) in `windows`, against the cumulative round time.
    /// Time spent in `until` is not round time.
    pub fn run(
        &mut self,
        fleet: &mut Fleet,
        feed: &mut Feed,
        tracer: &mut Tracer,
        tally: &mut crate::Tally,
        windows: &mut Windows<'_>,
        mut until: impl FnMut(usize) -> io::Result<bool>,
    ) -> io::Result<()> {
        let mut done = 0;
        loop {
            let t0 = Instant::now();
            let (offered, drained) = round(fleet, feed, tracer)?;
            let dt = t0.elapsed().as_secs_f64();
            tally.ops(offered, offered - drained);
            self.obs += drained;
            self.busy_s += dt;
            windows.add(self.busy_s, drained, Some(dt * 1e6));
            done += 1;
            if until(done)? {
                return Ok(());
            }
        }
    }
}

fn kernel_span(kind: DetectorKind) -> &'static str {
    match kind {
        DetectorKind::Sraa => "core.observe_batch_ns_per_obs.sraa",
        DetectorKind::Saraa => "core.observe_batch_ns_per_obs.saraa",
        DetectorKind::Clta => "core.observe_batch_ns_per_obs.clta",
        DetectorKind::Static => "core.observe_batch_ns_per_obs.static",
        DetectorKind::Cusum => "core.observe_batch_ns_per_obs.cusum",
        DetectorKind::Ewma => "core.observe_batch_ns_per_obs.ewma",
    }
}

/// What the isolation passes measured, per observation.
#[derive(Debug, Clone, Copy)]
pub struct Isolation {
    /// Detector kernel time averaged over the shards.
    pub kernel_ns: f64,
    /// Value-histogram time.
    pub record_slice_ns: f64,
}

/// Runs each shard's buffer once through a fresh detector's
/// `observe_batch` and once through `Histogram::record_slice`, in the
/// drain kernel's chunking, recording `core.*` and `metrics.*` values.
pub fn isolation(
    specs: &[DetectorSpec],
    streams: &[ShardStream],
    tracer: &mut Tracer,
    values: &mut Values,
) -> io::Result<Isolation> {
    let mut fires = 0;
    let mut kernel_ns = 0.0;
    let mut observed = 0;
    for (spec, stream) in specs.iter().zip(streams) {
        let mut detector = spec.build().map_err(invalid)?;
        let mut fired = Vec::new();
        let name = kernel_span(spec.kind);
        let mut seq = 0;
        for batch in stream.values.chunks(BATCH) {
            let span = tracer.start(name, None);
            for chunk in batch.chunks(DRAIN_CHUNK) {
                detector.observe_batch(chunk, &mut fired, seq);
                seq += chunk.len() as u64;
            }
            tracer.end(span);
        }
        fires += fired.len();
        observed += stream.values.len();
        let per_obs = tracer.total(name).ns as f64 / stream.values.len() as f64;
        values.set(name, per_obs);
        kernel_ns += per_obs / specs.len() as f64;
    }
    values.set("core.fires_per_mobs", fires as f64 * 1e6 / observed as f64);

    let mut histogram = Histogram::new(&VALUE_BOUNDS);
    for stream in streams {
        for batch in stream.values.chunks(BATCH) {
            let span = tracer.start("metrics.record_slice", None);
            for chunk in batch.chunks(DRAIN_CHUNK) {
                histogram.record_slice(chunk);
            }
            tracer.end(span);
        }
    }
    black_box(&histogram);
    let record_slice_ns = tracer.total("metrics.record_slice").ns as f64 / observed as f64;
    values.set("metrics.record_slice_ns_per_obs", record_slice_ns);
    Ok(Isolation {
        kernel_ns,
        record_slice_ns,
    })
}
