//! `ingest_inline`: a closed loop on one thread. Each round pushes one
//! producer batch to every shard with `ShardSender::send_batch`, then
//! calls `Supervisor::poll_all` until the round is drained. No log,
//! checkpoint, bus or scrape: the queue, the `observe_batch` kernels
//! and the drain fold do nearly all the work.

use crate::cpu::Placement;
use crate::monitor::{self, Feed, Rounds, BATCH};
use crate::stats::{peak_rss_mb, WindowStats, Windows};
use crate::trace::Tracer;
use crate::{
    discard, finish, gen, overhead_pct, Fault, Outcome, Params, Setups, Tally, Values, SETUP_BLOCK,
};
use std::io;
use std::time::Instant;

/// Measurement window.
const WINDOW_S: f64 = 0.05;

/// Runs the workload.
///
/// # Errors
///
/// Fleet or supervisor failures.
pub fn run(p: &Params) -> io::Result<Outcome> {
    let placement = Placement::detect();
    let mut tally = Tally::default();
    let fleet = || monitor::build_fleet(monitor::config(BATCH));
    let cold_start = Instant::now();
    let mut live = fleet()?;
    let cold_s = cold_start.elapsed().as_secs_f64();
    let mut setups = Setups::new(p.quick, SETUP_BLOCK, fleet, discard)?;
    let mut feed = Feed::new(gen::fleet_streams(
        p.seed,
        live.specs.len(),
        monitor::shard_len(p.quick),
    ));
    let mut tracer = Tracer::new(p.trace);
    let mut leg = |tracer: &mut Tracer, seconds: f64, tally: &mut Tally| {
        let mut rounds = Rounds::default();
        let mut windows = Windows::new(&placement, WINDOW_S);
        let start = Instant::now();
        rounds.run(&mut live, &mut feed, tracer, tally, &mut windows, |_| {
            setups.poll(fleet, discard)?;
            Ok(start.elapsed().as_secs_f64() >= seconds)
        })?;
        io::Result::Ok((rounds, windows.finish()))
    };
    let ((_, stats), traced): ((Rounds, WindowStats), _) = if p.trace {
        let untraced = leg(&mut Tracer::new(false), p.seconds / 2.0, &mut tally)?;
        (
            untraced,
            Some(leg(&mut tracer, p.seconds / 2.0, &mut tally)?),
        )
    } else {
        (leg(&mut Tracer::new(false), p.seconds, &mut tally)?, None)
    };
    setups.phase(fleet, discard)?;
    let peak_rss = peak_rss_mb()?;

    // Gates: every offered observation processed, none dropped, and the
    // per-shard rejuvenation counts equal to the per-sample reference.
    let report = live.supervisor.report();
    let expected = feed.reference_fires(&live.specs)?;
    let mut reported: Vec<u64> = report.shards.iter().map(|s| s.rejuvenations).collect();
    if p.fault == Fault::MiscountFire {
        reported[0] += 1;
    }
    for (shard, s) in report.shards.iter().enumerate() {
        tally.check(
            s.processed == feed.offered[shard],
            "every offered observation processed",
        );
        tally.check(s.dropped == 0, "no dropped observations");
        tally.check(
            reported[shard] == expected[shard],
            &format!(
                "shard {shard} ({}) fired {} times, reference {}",
                s.detector, reported[shard], expected[shard]
            ),
        );
    }

    let mut e2e = Values::default();
    e2e.set("throughput_per_s", stats.rate);
    e2e.set("latency_p50_us", stats.p50);
    e2e.set("latency_p90_us", stats.p90);
    // Nothing is replayed here; every workload reports every
    // end-to-end metric of `BENCHMARK.json`, so this is throughput again.
    e2e.set("replay_per_s", stats.rate);
    e2e.set("setup_s", setups.best());
    e2e.set("peak_rss_mb", peak_rss);

    let mut layers = Values::default();
    let mut budget = Vec::new();
    if let Some((traced, traced_stats)) = traced {
        let iso = monitor::isolation(&live.specs, &feed.streams, &mut tracer, &mut layers)?;
        let per_obs = |name: &str| tracer.total(name).ns as f64 / traced.obs as f64;
        let (push, poll, round) = (
            per_obs("queue.push"),
            per_obs("supervisor.poll"),
            per_obs("round"),
        );
        let residue = poll - iso.kernel_ns - iso.record_slice_ns;
        layers.set("queue.push_ns_per_obs", push);
        layers.set("queue.dropped", report.total_dropped as f64);
        layers.set("supervisor.poll_ns_per_obs", poll);
        layers.set("drain.residue_ns_per_obs", residue);
        layers.set("setup.cold_s", cold_s);
        let overhead = overhead_pct(stats.rate, traced_stats.rate, true);
        layers.set("trace.overhead_pct", overhead);
        budget.push(format!(
            "ingest_inline budget, ns per observation: round {round:.3} = queue.push {push:.3} \
             + supervisor.poll {poll:.3} + residue {:.3} (round loop)",
            round - push - poll
        ));
        budget.push(format!(
            "ingest_inline budget, ns per observation: supervisor.poll {poll:.3} = \
             core.observe_batch {:.3} + metrics.record_slice {:.3} + residue {residue:.3} \
             (queue pop, digest fold, dispatch)",
            iso.kernel_ns, iso.record_slice_ns
        ));
        budget.push(format!(
            "ingest_inline tracing overhead: {:.0} obs/s untraced, {:.0} obs/s traced \
             ({overhead:.2} %)",
            stats.rate, traced_stats.rate
        ));
    }
    finish(p, tally, e2e, layers, budget, &tracer, "ingest_inline")
}
