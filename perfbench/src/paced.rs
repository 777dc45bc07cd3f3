//! `paced_fleet`: an open loop at a fixed 1 M observations/s across the
//! fleet in 1 ms ticks, shaped like `monitord`'s live mode: a
//! `SharedSupervisor` drained by `ConsumerPool::spawn_shared` with one
//! worker. The generator thread also subscribes to the `EventBus`,
//! polls for `RejuvenationFired` events while it waits for the next tick,
//! and every 100 ms scrapes the way `MetricsServer` does
//! (`ExpoSnapshot::capture` plus `render` under one `with` lock).

use crate::cpu::Placement;
use crate::monitor::{self, Feed, Fleet};
use crate::stats::{best_time, max, median, peak_rss_mb, quantile};
use crate::trace::Tracer;
use crate::{
    discard, finish, gen, overhead_pct, Fault, Outcome, Params, Setups, Tally, Values, SETUP_EVERY,
};
use rejuv_core::DetectorSpec;
use rejuv_monitor::expo::render;
use rejuv_monitor::{
    BusSubscription, ConsumerPool, EventBus, ExpoSnapshot, OpEvent, ShardSender, SharedSupervisor,
};
use std::io;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Offered observations per second over the whole fleet.
const RATE_PER_S: usize = 1_000_000;
/// Tick length.
const TICK: Duration = Duration::from_millis(1);
/// Fire latency quantiles are taken per window of this many ticks,
/// about 200 fires, and reported as their best decile over the windows
/// (see `stats`). The host preempts the two CPUs in bursts; windows this
/// short leave some that no burst touched in most runs, where 100-tick
/// windows gave a p90 spread of 0.164 against 0.135 over the same fires.
const WINDOW_TICKS: u64 = 20;
/// A scrape every this many ticks (100 ms).
const SCRAPE_EVERY: u64 = 100;
/// Per-shard queue capacity: 64 ms of backlog before a drop.
const QUEUE_CAPACITY: usize = 1 << 16;
/// Bus mailbox capacity.
const BUS_CAPACITY: usize = 1 << 16;
/// How long the end of a leg waits for the consumer to catch up.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(10);
/// Set-ups are timed one at a time: a plane's queues are large, and a
/// block of them alive at once would show in `peak_rss_mb`.
const SETUP_BLOCK: usize = 1;

/// The live mode without its consumer pool: what `setup_s` times.
struct Live {
    specs: Vec<DetectorSpec>,
    senders: Vec<ShardSender>,
    bus: Arc<EventBus>,
    subscription: BusSubscription,
    shared: SharedSupervisor,
}

/// The set-up sequence: fleet, bus, subscription and shared supervisor.
///
/// Each part of a leg spawns its own one-worker pool and joins it at
/// the end, so the set-up phases between parts run while no other
/// thread of the process does. The pool spawn is timed apart, as
/// `pool.spawn_us`.
fn start_live() -> io::Result<Live> {
    let Fleet {
        specs,
        mut supervisor,
        senders,
    } = monitor::build_fleet(monitor::config(QUEUE_CAPACITY))?;
    let bus = Arc::new(EventBus::new());
    supervisor.set_bus(Arc::clone(&bus));
    let subscription = bus.subscribe(BUS_CAPACITY);
    let shared = SharedSupervisor::new(supervisor);
    Ok(Live {
        specs,
        senders,
        bus,
        subscription,
        shared,
    })
}

/// What one leg measured.
#[derive(Default)]
struct Leg {
    ticks: u64,
    offered: u64,
    elapsed_s: f64,
    /// Fire latencies, µs, by window of `WINDOW_TICKS` ticks.
    fire_us: Vec<Vec<f64>>,
    late_us: Vec<f64>,
    backlog_max: usize,
    lock_wait_us: Vec<f64>,
    capture_us: Vec<f64>,
    render_us: Vec<f64>,
    body_bytes: usize,
    fires: u64,
    duplicates: u64,
    drained: bool,
    /// Pool spawn times, µs, one per part.
    spawn_us: Vec<f64>,
    /// Parks and drains of the parts' pools.
    parks: u64,
    drains: u64,
}

impl Leg {
    /// The best decile over windows of each window's `q`-quantile of
    /// fire latency.
    fn fire_quantile(&mut self, q: f64) -> f64 {
        let mut per_window: Vec<f64> = self
            .fire_us
            .iter_mut()
            .filter(|w| !w.is_empty())
            .map(|w| quantile(w, q))
            .collect();
        best_time(&mut per_window)
    }
}

/// Per-leg bookkeeping that maps a fire back to its scheduled send time.
struct Schedule {
    /// When the current part's first tick is due.
    t0: Instant,
    per_tick: Vec<u64>,
    /// Each shard's observations offered before the current part.
    base_seq: Vec<u64>,
    /// Fire windows of the leg's earlier parts.
    window_base: usize,
    last_seq: Vec<Option<u64>>,
    swallow: bool,
}

impl Schedule {
    fn receive(&mut self, event: OpEvent, at: Instant, leg: &mut Leg) {
        let OpEvent::RejuvenationFired { shard, seq } = event else {
            return;
        };
        if std::mem::take(&mut self.swallow) {
            return;
        }
        let shard = shard as usize;
        if self.last_seq[shard].is_some_and(|last| seq <= last) {
            leg.duplicates += 1;
            return;
        }
        self.last_seq[shard] = Some(seq);
        leg.fires += 1;
        // A fire of an earlier part that arrives late counts, but has no
        // scheduled time in this part.
        let Some(offset) = seq.checked_sub(self.base_seq[shard]) else {
            return;
        };
        let tick = offset / self.per_tick[shard];
        let due = self.t0 + TICK * tick as u32;
        let window = self.window_base + (tick / WINDOW_TICKS) as usize;
        if leg.fire_us.len() <= window {
            leg.fire_us.resize_with(window + 1, Vec::new);
        }
        leg.fire_us[window].push(at.saturating_duration_since(due).as_secs_f64() * 1e6);
    }
}

/// One leg of ticks for `seconds`, in parts of at most `SETUP_EVERY`.
/// Each part starts with a set-up phase, then spawns a one-worker pool,
/// and ends once that pool has drained it and been joined.
fn leg(
    live: &Live,
    feed: &mut Feed,
    tracer: &mut Tracer,
    seconds: f64,
    swallow: bool,
    tally: &mut Tally,
    (setups, placement): (&mut Setups, &Placement),
) -> io::Result<Leg> {
    let shards = live.senders.len();
    let per_tick: Vec<u64> = (0..shards)
        .map(|s| (RATE_PER_S / 1000 / shards + usize::from(s < RATE_PER_S / 1000 % shards)) as u64)
        .collect();
    let mut schedule = Schedule {
        t0: Instant::now(),
        base_seq: Vec::new(),
        window_base: 0,
        per_tick,
        last_seq: vec![None; shards],
        swallow,
    };
    let mut leg = Leg {
        ticks: (seconds / TICK.as_secs_f64()).round().max(1.0) as u64,
        ..Leg::default()
    };
    let parts = (seconds / SETUP_EVERY.as_secs_f64()).ceil().max(1.0) as u64;
    for part in 0..parts {
        setups.phase(start_live, discard)?;
        // The consumer runs on the second CPU (it inherits the pin its
        // spawner holds) and the generator on the first, so the handoff
        // always crosses CPUs instead of depending on where the
        // scheduler put the two threads.
        placement.pin(1);
        let spawn_start = Instant::now();
        let pool = ConsumerPool::spawn_shared(&live.shared);
        leg.spawn_us.push(spawn_start.elapsed().as_secs_f64() * 1e6);
        placement.pin(0);
        schedule.t0 = Instant::now() + TICK;
        schedule.base_seq.clone_from(&feed.offered);
        schedule.window_base = leg.fire_us.len();
        let ticks = leg.ticks * (part + 1) / parts - leg.ticks * part / parts;
        for tick in 0..ticks {
            let due = schedule.t0 + TICK * tick as u32;
            // The generator polls the bus until the tick is due instead
            // of sleeping: a sleeping thread's wake-up on a shared
            // machine adds its own, host-dependent delay to both the
            // send time and the receipt of each fire, which is not the
            // monitor's latency. No `pause` hint in the loop: a virtual
            // CPU that spins on `pause` can be descheduled by its host.
            while Instant::now() < due {
                if let Some(event) = live.subscription.try_recv() {
                    schedule.receive(event, Instant::now(), &mut leg);
                }
            }
            leg.late_us
                .push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e6);
            if tracer.on() {
                let backlog = live.senders.iter().map(ShardSender::backlog).max();
                leg.backlog_max = leg.backlog_max.max(backlog.unwrap_or(0));
            }
            let span = tracer.start("tick.push", None);
            for (shard, sender) in live.senders.iter().enumerate() {
                let n = schedule.per_tick[shard] as usize;
                let accepted = feed.send(shard, n, sender, tracer, span.as_ref());
                tally.ops(n as u64, (n - accepted) as u64);
                leg.offered += n as u64;
            }
            tracer.end(span);
            if tick % SCRAPE_EVERY == SCRAPE_EVERY - 1 {
                scrape(live, &pool, &mut leg, tracer);
            }
        }
        // Wait for the consumer to drain everything offered, then
        // collect the fires still in the mailbox.
        let target = feed.total_offered();
        let wait_start = Instant::now();
        while live.shared.with(|s| s.total_processed()) < target {
            if wait_start.elapsed() > DRAIN_TIMEOUT {
                pool.join()?;
                return Ok(leg);
            }
            if let Some(event) = live.subscription.recv_timeout(Duration::from_micros(100)) {
                schedule.receive(event, Instant::now(), &mut leg);
            }
        }
        leg.elapsed_s += schedule.t0.elapsed().as_secs_f64();
        let stats = pool.join()?.stats;
        leg.parks += stats.parks;
        leg.drains += stats.per_thread_drains.iter().sum::<u64>();
        for event in live.subscription.drain() {
            schedule.receive(event, Instant::now(), &mut leg);
        }
    }
    leg.drained = true;
    Ok(leg)
}

fn scrape(live: &Live, pool: &ConsumerPool, leg: &mut Leg, tracer: &mut Tracer) {
    let span = tracer.start("expo.scrape", None);
    let stats = pool.stats();
    let call = Instant::now();
    let (entered, captured, rendered, bytes) = live.shared.with(|s| {
        let entered = Instant::now();
        let snapshot = ExpoSnapshot::capture(s).with_drain(&stats);
        let captured = Instant::now();
        let body = render(&snapshot);
        (entered, captured, Instant::now(), body.len())
    });
    tracer.end(span);
    let us = |from: Instant, to: Instant| to.duration_since(from).as_secs_f64() * 1e6;
    leg.lock_wait_us.push(us(call, entered));
    leg.capture_us.push(us(entered, captured));
    leg.render_us.push(us(captured, rendered));
    leg.body_bytes = bytes;
}

/// Runs the workload.
///
/// # Errors
///
/// Fleet failures, or a consumer pool that fails to join.
pub fn run(p: &Params) -> io::Result<Outcome> {
    let placement = Placement::detect();
    let mut tally = Tally::default();
    placement.pin(0);
    let cold_start = Instant::now();
    let live = start_live()?;
    let cold_s = cold_start.elapsed().as_secs_f64();

    let mut feed = Feed::new(gen::fleet_streams(
        p.seed,
        live.specs.len(),
        monitor::shard_len(p.quick),
    ));
    let mut setups = Setups::new(p.quick, SETUP_BLOCK, start_live, discard)?;
    let mut tracer = Tracer::new(p.trace);
    let swallow = p.fault == Fault::SwallowFire;
    // The untraced leg, and on a traced run the traced leg with the bus
    // counter it started from.
    let (mut untraced, traced) = if p.trace {
        let untraced = leg(
            &live,
            &mut feed,
            &mut Tracer::new(false),
            p.seconds / 2.0,
            swallow,
            &mut tally,
            (&mut setups, &placement),
        )?;
        let published = live.bus.published();
        let traced = leg(
            &live,
            &mut feed,
            &mut tracer,
            p.seconds / 2.0,
            false,
            &mut tally,
            (&mut setups, &placement),
        )?;
        (untraced, Some((traced, published)))
    } else {
        let untraced = leg(
            &live,
            &mut feed,
            &mut Tracer::new(false),
            p.seconds,
            swallow,
            &mut tally,
            (&mut setups, &placement),
        )?;
        (untraced, None)
    };
    setups.phase(start_live, discard)?;
    placement.release();
    let peak_rss = peak_rss_mb()?;
    let Live {
        specs,
        bus,
        subscription,
        shared,
        ..
    } = live;

    // Gates: everything offered processed and nothing dropped, each
    // fire received once, as many as the report counts, no overflow,
    // and per-shard counts equal to the per-sample reference.
    let report = shared.report();
    let expected = feed.reference_fires(&specs)?;
    let received = untraced.fires + traced.as_ref().map_or(0, |(t, _)| t.fires);
    let duplicates = untraced.duplicates + traced.as_ref().map_or(0, |(t, _)| t.duplicates);
    tally.check(
        untraced.drained && traced.as_ref().is_none_or(|(t, _)| t.drained),
        "the consumer drained every offered observation",
    );
    tally.check(duplicates == 0, "each fire received exactly once");
    tally.check(
        received == report.total_rejuvenations,
        &format!(
            "{received} fires received, report counts {}",
            report.total_rejuvenations
        ),
    );
    tally.check(subscription.overflow() == 0, "no bus overflow");
    for (shard, s) in report.shards.iter().enumerate() {
        tally.check(
            s.processed == feed.offered[shard],
            "every offered observation processed",
        );
        tally.check(s.dropped == 0, "no dropped observations");
        tally.check(
            s.rejuvenations == expected[shard],
            &format!(
                "shard {shard} ({}) fired {} times, reference {}",
                s.detector, s.rejuvenations, expected[shard]
            ),
        );
    }

    let mut e2e = Values::default();
    let fire_p50 = untraced.fire_quantile(0.5);
    e2e.set(
        "throughput_per_s",
        untraced.offered as f64 / untraced.elapsed_s,
    );
    e2e.set("latency_p50_us", fire_p50);
    e2e.set("latency_p90_us", untraced.fire_quantile(0.9));
    // Nothing is replayed here; every workload reports every
    // end-to-end metric of `BENCHMARK.json`, so this is throughput again.
    e2e.set("replay_per_s", untraced.offered as f64 / untraced.elapsed_s);
    e2e.set("setup_s", setups.best());
    e2e.set("peak_rss_mb", peak_rss);

    let mut layers = Values::default();
    let mut budget = Vec::new();
    if let Some((mut traced, published_before)) = traced {
        monitor::isolation(&specs, &feed.streams, &mut tracer, &mut layers)?;
        let ticks = traced.ticks as f64;
        let push_us = tracer.total("queue.push").ns as f64 / 1e3 / ticks;
        let scrape_us = tracer.total("expo.scrape").ns as f64 / 1e3 / ticks;
        let traced_p50 = traced.fire_quantile(0.5);
        let late_p50 = median(&mut traced.late_us);
        layers.set(
            "queue.push_ns_per_obs",
            tracer.total("queue.push").ns as f64 / traced.offered as f64,
        );
        layers.set("queue.backlog_max", traced.backlog_max as f64);
        layers.set("queue.dropped", report.total_dropped as f64);
        layers.set("pool.parks_per_tick", traced.parks as f64 / ticks);
        layers.set("pool.drains", traced.drains as f64);
        layers.set("bus.published", (bus.published() - published_before) as f64);
        layers.set("bus.overflow", subscription.overflow() as f64);
        layers.set("expo.lock_wait_us_p50", median(&mut traced.lock_wait_us));
        layers.set("expo.capture_us_p50", median(&mut traced.capture_us));
        layers.set("expo.render_us_p50", median(&mut traced.render_us));
        layers.set("expo.body_bytes", traced.body_bytes as f64);
        layers.set("loadgen.late_us_p90", quantile(&mut traced.late_us, 0.9));
        layers.set("loadgen.late_us_max", max(&traced.late_us));
        layers.set("pool.spawn_us", median(&mut traced.spawn_us));
        layers.set("setup.cold_s", cold_s);
        let overhead = overhead_pct(fire_p50, traced_p50, false);
        layers.set("trace.overhead_pct", overhead);
        budget.push(format!(
            "paced_fleet budget, generator µs per 1000 µs tick: queue.push {push_us:.3} \
             + expo.scrape {scrape_us:.3} + residue {:.3} (waiting for the tick, bus receive)",
            1000.0 - push_us - scrape_us
        ));
        budget.push(format!(
            "paced_fleet budget, fire latency p50 {traced_p50:.3} µs = loadgen lateness p50 \
             {late_p50:.3} + queue.push per tick {push_us:.3} + residue {:.3} (consumer wake, \
             drain, bus delivery; not timed from outside)",
            traced_p50 - late_p50 - push_us
        ));
        budget.push(format!(
            "paced_fleet tracing overhead: fire latency p50 {fire_p50:.3} µs untraced, \
             {traced_p50:.3} µs traced ({overhead:.2} %)"
        ));
    }
    finish(p, tally, e2e, layers, budget, &tracer, "paced_fleet")
}
