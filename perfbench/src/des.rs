//! `des_fig09`: the paper's Fig. 9 SRAA sweep (`FIG9_CONFIGS ×
//! LOAD_GRID`, 5 replications × 10 000 transactions, as
//! `bench_sweeps`) on a one-worker `Executor`, one cell per operation.
//! `rejuv-sim` and `rejuv-ecommerce` do all the work; no monitor layer
//! runs. The sweep is repeated for the measured time, each sweep on the
//! next CPU; every sweep after the first is a rerun checked cell by cell
//! against the first. Each cell counts with its median time over the
//! run's sweeps, the cell-level counterpart of the median windows of
//! the closed-loop workloads.

use crate::cpu::Placement;
use crate::stats::{median, peak_rss_mb, quantile};
use crate::trace::Tracer;
use crate::{
    discard, finish, invalid, overhead_pct, Fault, Outcome, Params, Setups, Tally, Values,
    SETUP_BLOCK,
};
use rejuv_bench::{sraa_response_time_with, SweepSeries, FIG9_CONFIGS, LOAD_GRID};
use rejuv_core::{RejuvenationDetector, Sraa, SraaConfig};
use rejuv_ecommerce::{aggregate_point, LoadPoint, RunMetrics, Runner, SystemConfig};
use rejuv_sim::Executor;
use std::io;
use std::sync::Mutex;
use std::time::Instant;

type Factory = Box<dyn Fn() -> Option<Box<dyn RejuvenationDetector>> + Sync>;

/// The set-up product: the runner, one system configuration per load,
/// one detector factory per series, and the cell list.
struct Sweep {
    runner: Runner,
    configs: Vec<SystemConfig>,
    series: Vec<(String, Factory)>,
    /// `(series, load point, replication)` per cell, in the order
    /// `rejuv_bench` lays a sweep out.
    cells: Vec<(usize, usize, usize)>,
}

fn build(seed: u64, quick: bool) -> io::Result<Sweep> {
    let (replications, transactions) = if quick { (1, 300) } else { (5, 10_000) };
    let runner = Runner::new(replications, transactions, seed);
    let base = SystemConfig::paper_at_load(1.0).map_err(invalid)?;
    let configs = LOAD_GRID
        .iter()
        .map(|&load| base.with_arrival_rate(load * base.service_rate()))
        .collect::<Result<Vec<_>, _>>()
        .map_err(invalid)?;
    let mut series = Vec::with_capacity(FIG9_CONFIGS.len());
    for (n, k, d) in FIG9_CONFIGS {
        let config = SraaConfig::builder(5.0, 5.0)
            .sample_size(n)
            .buckets(k)
            .depth(d)
            .build()
            .map_err(invalid)?;
        let factory: Factory = Box::new(move || Some(Box::new(Sraa::new(config)) as _));
        series.push((format!("SRAA(n={n},K={k},D={d})"), factory));
    }
    let mut cells = Vec::with_capacity(series.len() * configs.len() * replications);
    for s in 0..series.len() {
        for p in 0..configs.len() {
            for r in 0..replications {
                cells.push((s, p, r));
            }
        }
    }
    Ok(Sweep {
        runner,
        configs,
        series,
        cells,
    })
}

/// One timed sweep: each cell's metrics, start and end.
type Timed = Vec<(RunMetrics, Instant, Instant)>;

/// Runs the sweep's cells, sampling set-ups into `setups` between them.
fn timed_sweep(sweep: &Sweep, setups: &Mutex<Setups>, p: &Params) -> io::Result<Timed> {
    Executor::serial()
        .run(sweep.cells.len(), |cell| {
            let (s, point, r) = sweep.cells[cell];
            let start = Instant::now();
            let metrics = sweep.runner.replication_metrics(
                sweep.configs[point],
                r,
                &*sweep.series[s].1,
                false,
            );
            let end = Instant::now();
            setups
                .lock()
                .expect("set-up sampler lock")
                .poll(|| build(p.seed, p.quick), discard)?;
            Ok((metrics, start, end))
        })
        .into_iter()
        .collect()
}

/// The figure's series from one sweep's cell results.
fn series(sweep: &Sweep, metrics: &[RunMetrics]) -> Vec<SweepSeries> {
    let (points, reps) = (sweep.configs.len(), sweep.runner.replications());
    sweep
        .series
        .iter()
        .enumerate()
        .map(|(s, (label, _))| SweepSeries {
            label: label.clone(),
            points: (0..points)
                .map(|p| {
                    let start = (s * points + p) * reps;
                    LoadPoint {
                        load_cpus: LOAD_GRID[p],
                        result: aggregate_point(&sweep.configs[p], &metrics[start..start + reps]),
                    }
                })
                .collect(),
        })
        .collect()
}

/// What one leg measured.
#[derive(Default)]
struct Leg {
    sweeps: usize,
    /// Each cell's times over the leg's sweeps, seconds.
    cell_times: Vec<Vec<f64>>,
    cell_s: f64,
    sweep_s: f64,
    transactions: u64,
}

impl Leg {
    fn add_sweep(&mut self, times: &[f64]) {
        self.cell_times.resize_with(times.len(), Vec::new);
        for (cell, &t) in self.cell_times.iter_mut().zip(times) {
            cell.push(t);
        }
    }

    /// Each cell's median time over the leg's sweeps, seconds.
    fn cell_medians(&mut self) -> Vec<f64> {
        self.cell_times.iter_mut().map(|t| median(t)).collect()
    }

    /// Cells per second at the cells' median times.
    fn throughput(&mut self) -> f64 {
        let medians = self.cell_medians();
        medians.len() as f64 / medians.iter().sum::<f64>()
    }
}

/// Runs sweeps for `seconds` (at least one), each on the next CPU. The
/// first sweep of the run becomes `first`; every other sweep is a rerun
/// checked cell by cell against it. Set-up phases taken between cells
/// do not count as sweep time.
fn leg(
    sweep: &Sweep,
    (placement, setups): (&Placement, &Mutex<Setups>),
    first: &mut Option<Vec<RunMetrics>>,
    tracer: &mut Tracer,
    seconds: f64,
    p: &Params,
    tally: &mut Tally,
) -> io::Result<Leg> {
    let mut leg = Leg::default();
    let sampled_s = || setups.lock().expect("set-up sampler lock").spent_s;
    let start = Instant::now();
    while leg.sweeps == 0 || start.elapsed().as_secs_f64() < seconds {
        placement.pin(leg.sweeps);
        let sweep_span = tracer.start("sweep", None);
        let (sweep_start, sampled_before) = (Instant::now(), sampled_s());
        let timed = timed_sweep(sweep, setups, p)?;
        leg.sweep_s += sweep_start.elapsed().as_secs_f64() - (sampled_s() - sampled_before);
        let mut times = Vec::with_capacity(timed.len());
        let mut metrics = Vec::with_capacity(timed.len());
        for (m, cell_start, cell_end) in timed {
            tracer.record(
                "ecommerce.replication",
                sweep_span.as_ref(),
                cell_start,
                cell_end,
            );
            times.push(cell_end.duration_since(cell_start).as_secs_f64());
            leg.transactions += m.completed + m.lost;
            metrics.push(m);
        }
        tracer.end(sweep_span);
        leg.sweeps += 1;
        leg.cell_s += times.iter().sum::<f64>();
        leg.add_sweep(&times);
        if p.fault == Fault::PerturbCell && first.is_none() {
            metrics[0].mean_response_time += 1e-9;
        }
        match first {
            None => {
                tally.ops(metrics.len() as u64, 0);
                *first = Some(metrics);
            }
            Some(reference) => {
                let differ = metrics
                    .iter()
                    .zip(reference.iter())
                    .filter(|(a, b)| a != b)
                    .count();
                tally.ops(metrics.len() as u64, differ as u64);
                if differ > 0 {
                    eprintln!("perfbench: check failed: {differ} cells differ from their rerun");
                }
            }
        }
    }
    placement.release();
    Ok(leg)
}

/// Runs the workload.
///
/// # Errors
///
/// Invalid paper configurations (a benchmark bug).
pub fn run(p: &Params) -> io::Result<Outcome> {
    let placement = Placement::detect();
    let mut tally = Tally::default();
    let cold_start = Instant::now();
    let sweep = build(p.seed, p.quick)?;
    let cold_s = cold_start.elapsed().as_secs_f64();
    let setups = Mutex::new(Setups::new(
        p.quick,
        SETUP_BLOCK,
        || build(p.seed, p.quick),
        discard,
    )?);
    let mut first = None;
    let mut tracer = Tracer::new(p.trace);
    let mut run_leg = |tracer: &mut Tracer, seconds: f64, tally: &mut Tally| {
        leg(
            &sweep,
            (&placement, &setups),
            &mut first,
            tracer,
            seconds,
            p,
            tally,
        )
    };
    let (mut untraced, traced) = if p.trace {
        let untraced = run_leg(&mut Tracer::new(false), p.seconds / 2.0, &mut tally)?;
        (
            untraced,
            Some(run_leg(&mut tracer, p.seconds / 2.0, &mut tally)?),
        )
    } else {
        (
            run_leg(&mut Tracer::new(false), p.seconds, &mut tally)?,
            None,
        )
    };
    let mut setups = setups.into_inner().expect("set-up sampler lock");
    setups.phase(|| build(p.seed, p.quick), discard)?;
    let peak_rss = peak_rss_mb()?;
    let first = first.expect("at least one sweep ran");

    // Gate: the first sweep's series are bitwise equal to an untimed
    // rerun of the figure on a two-worker executor.
    let figure = series(&sweep, &first);
    let rerun =
        sraa_response_time_with(&sweep.runner, &Executor::new(2), &FIG9_CONFIGS, &LOAD_GRID);
    let bytes = |s: &[SweepSeries]| serde_json::to_string(s).map_err(invalid);
    tally.check(
        bytes(&figure)? == bytes(&rerun)?,
        "series equal a two-worker rerun",
    );

    let mut e2e = Values::default();
    let throughput = untraced.throughput();
    let mut cell_us: Vec<f64> = untraced.cell_medians().iter().map(|s| s * 1e6).collect();
    e2e.set("throughput_per_s", throughput);
    e2e.set("latency_p50_us", median(&mut cell_us));
    e2e.set("latency_p90_us", quantile(&mut cell_us, 0.9));
    // Nothing is replayed here; every workload reports every
    // end-to-end metric of `BENCHMARK.json`, so this is throughput again.
    e2e.set("replay_per_s", throughput);
    e2e.set("setup_s", setups.best());
    e2e.set("peak_rss_mb", peak_rss);

    let mut layers = Values::default();
    let mut budget = Vec::new();
    if let Some(mut traced) = traced {
        let cells = first.len() as f64;
        let traced_throughput = traced.throughput();
        layers.set(
            "ecommerce.txn_per_s",
            traced.transactions as f64 / traced.cell_s,
        );
        layers.set(
            "ecommerce.gc_per_cell",
            first.iter().map(|m| m.gc_count).sum::<u64>() as f64 / cells,
        );
        layers.set(
            "ecommerce.rejuvenations_per_cell",
            first.iter().map(|m| m.rejuvenation_count).sum::<u64>() as f64 / cells,
        );
        layers.set("setup.cold_s", cold_s);
        let overhead = overhead_pct(throughput, traced_throughput, true);
        layers.set("trace.overhead_pct", overhead);
        let sweeps = traced.sweeps as f64;
        budget.push(format!(
            "des_fig09 budget, ms per sweep of {cells} cells: {:.3} = \
             ecommerce.replication {:.3} + residue {:.3} (executor dispatch, result collection)",
            traced.sweep_s * 1e3 / sweeps,
            traced.cell_s * 1e3 / sweeps,
            (traced.sweep_s - traced.cell_s) * 1e3 / sweeps
        ));
        budget.push(format!(
            "des_fig09 tracing overhead: {throughput:.3} cells/s untraced, \
             {traced_throughput:.3} cells/s traced ({overhead:.2} %)"
        ));
    }
    finish(p, tally, e2e, layers, budget, &tracer, "des_fig09")
}
