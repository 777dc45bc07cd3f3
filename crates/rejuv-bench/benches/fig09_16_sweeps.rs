//! Sweep benchmarks behind Figs. 9–16: cost of one replicated experiment
//! point of the e-commerce simulation per detector, one miniature full
//! sweep, and one Fig. 9 cell split into its per-transaction layers.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rejuv_bench::{fig16_comparison, sraa_response_time, FIG9_CONFIGS};
use rejuv_core::{RejuvenationDetector, Sraa, SraaConfig};
use rejuv_ecommerce::{Runner, SystemConfig};
use rejuv_sim::RngStreams;
use rejuv_stats::Exponential;
use std::hint::black_box;

fn bench_single_point(c: &mut Criterion) {
    let mut group = c.benchmark_group("experiment_point_9cpus");
    group.sample_size(10);
    let transactions = 20_000u64;
    group.throughput(Throughput::Elements(transactions));
    let cfg = SystemConfig::paper_at_load(9.0).unwrap();
    let runner = Runner::new(1, transactions, 5);

    for (n, k, d) in [(15usize, 1usize, 1u32), (2, 5, 3)] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("sraa_{n}_{k}_{d}")),
            &(n, k, d),
            |b, &(n, k, d)| {
                let factory = move || -> Option<Box<dyn RejuvenationDetector>> {
                    Some(Box::new(Sraa::new(
                        SraaConfig::builder(5.0, 5.0)
                            .sample_size(n)
                            .buckets(k)
                            .depth(d)
                            .build()
                            .unwrap(),
                    )))
                };
                b.iter(|| black_box(runner.run_point(cfg, &factory)));
            },
        );
    }

    group.bench_function("no_rejuvenation", |b| {
        b.iter(|| black_box(runner.run_point(cfg, &|| None)));
    });
    group.finish();
}

fn bench_mini_sweeps(c: &mut Criterion) {
    let mut group = c.benchmark_group("figure_sweeps_mini");
    group.sample_size(10);
    let runner = Runner::new(1, 5_000, 5);
    let loads = [0.5, 5.0, 9.0];

    group.bench_function("fig09_all_configs", |b| {
        b.iter(|| black_box(sraa_response_time(&runner, &FIG9_CONFIGS, &loads)));
    });

    group.bench_function("fig16_all_algorithms", |b| {
        b.iter(|| black_box(fig16_comparison(&runner, &loads)));
    });
    group.finish();
}

/// One Fig. 9 cell (load 10, SRAA(3,1,5), 10 000 transactions, as one
/// replication of a sweep), the same cell with the detector detached,
/// and `Exponential::sample` alone, 10 000 draws per iteration. A
/// transaction makes two draws (its arrival and its service time), so
/// the rows give a per-transaction budget: draws, detector and the rest
/// of the model. Without a detector the cell never rejuvenates, so its
/// running table stays fuller; that row bounds the model without
/// `observe`, it does not subtract it exactly.
fn bench_fig09_cell(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig09_cell");
    group.sample_size(20);
    let transactions = 10_000u64;
    group.throughput(Throughput::Elements(transactions));
    let cfg = SystemConfig::paper_at_load(10.0).unwrap();
    let runner = Runner::new(1, transactions, 1);
    let sraa = SraaConfig::builder(5.0, 5.0)
        .sample_size(3)
        .buckets(1)
        .depth(5)
        .build()
        .unwrap();
    let factory =
        move || -> Option<Box<dyn RejuvenationDetector>> { Some(Box::new(Sraa::new(sraa))) };

    group.bench_function("sraa_3_1_5", |b| {
        b.iter(|| black_box(runner.replication_metrics(cfg, 0, &factory, false)));
    });
    group.bench_function("no_detector", |b| {
        b.iter(|| black_box(runner.replication_metrics(cfg, 0, &|| None, false)));
    });

    let service = Exponential::new(cfg.service_rate()).unwrap();
    let mut rng = RngStreams::new(1).stream(1);
    group.bench_function("exponential_sample", |b| {
        b.iter(|| {
            let mut sum = 0.0;
            for _ in 0..transactions {
                sum += service.sample(&mut rng);
            }
            black_box(sum)
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_single_point,
    bench_mini_sweeps,
    bench_fig09_cell
);
criterion_main!(benches);
