//! Micro-benchmarks of the [`rejuv_sim::EventQueue`] hot path:
//! schedule/pop throughput with and without pending cancellations, the
//! cancel operation itself, and an [`rejuv_sim::Engine`] driven with a
//! §3-shaped event mix, the way the cluster model drives it. (The
//! single-host model keeps its own event calendar; its cost is the
//! `fig09_cell` group of the `fig09_16_sweeps` bench.)
//!
//! The `schedule_pop_clean` case exercises the fast path (no
//! cancellation tombstones in the heap); `schedule_cancel_pop` forces
//! the tombstone slow path on half the events; `schedule_cancel` grows
//! linearly in the event count only while a cancel is O(1), so it
//! guards against a cancel that scans the heap. `model_shaped` is the
//! §3 event mix: an arrival source in the engine's slot, at most 16
//! completions in the heap and ~5 % of them cancelled and rescheduled
//! (a GC pause).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use rejuv_sim::{Engine, EventId, EventQueue, SimTime};
use std::hint::black_box;

/// Deterministic pseudo-random event times (an LCG; no RNG dependency).
fn times(len: usize) -> Vec<SimTime> {
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            SimTime::from_secs((state >> 11) as f64 / (1u64 << 53) as f64 * 1_000.0)
        })
        .collect()
}

fn bench_event_queue(c: &mut Criterion) {
    const N: usize = 10_000;
    let ts = times(N);

    let mut group = c.benchmark_group("event_queue");
    group.throughput(Throughput::Elements(N as u64));

    // The DES hot loop: schedule then pop, never cancelling. Stays on
    // the `cancelled_in_heap == 0` fast path throughout.
    group.bench_function("schedule_pop_clean", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            for (i, &t) in ts.iter().enumerate() {
                q.schedule(t, i);
            }
            let mut acc = 0usize;
            while let Some((_, payload)) = q.pop() {
                acc = acc.wrapping_add(payload);
            }
            black_box(acc)
        });
    });

    // Interleaved schedule/pop with a bounded backlog, mimicking a
    // steady-state simulation where the queue stays small.
    group.bench_function("schedule_pop_interleaved", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            let mut acc = 0usize;
            for chunk in ts.chunks(16) {
                for (i, &t) in chunk.iter().enumerate() {
                    q.schedule(t, i);
                }
                for _ in 0..chunk.len() {
                    if let Some((_, payload)) = q.pop() {
                        acc = acc.wrapping_add(payload);
                    }
                }
            }
            black_box(acc)
        });
    });

    // Half the scheduled events are cancelled before draining — the GC
    // reschedule / rejuvenation pattern that leaves tombstones in the
    // heap and exercises the slow path.
    group.bench_function("schedule_cancel_pop", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            let ids: Vec<_> = ts
                .iter()
                .enumerate()
                .map(|(i, &t)| q.schedule(t, i))
                .collect();
            for id in ids.iter().step_by(2) {
                q.cancel(*id);
            }
            let mut acc = 0usize;
            while let Some((_, payload)) = q.pop() {
                acc = acc.wrapping_add(payload);
            }
            black_box(acc)
        });
    });

    // Cancellation cost in isolation (schedule + cancel, nothing popped).
    group.bench_function("schedule_cancel", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            let ids: Vec<_> = ts
                .iter()
                .enumerate()
                .map(|(i, &t)| q.schedule(t, i))
                .collect();
            let mut cancelled = 0usize;
            for id in ids {
                cancelled += usize::from(q.cancel(id));
            }
            black_box(cancelled)
        });
    });

    // The §3 event mix, as the cluster drives the engine. Each arrival
    // re-arms the source slot and takes a free CPU if there is one (16
    // CPUs, so at most 17 live events); one arrival in twenty also
    // delays a busy CPU's completion by cancelling and rescheduling it.
    group.bench_function("model_shaped", |b| {
        b.iter(|| {
            let mut engine = Engine::new();
            let mut cpus: [Option<EventId>; 16] = [None; 16];
            let mut draws = ts.iter().cycle().map(|t| t.as_secs() / 1_000.0);
            let mut delay = |mean: f64| SimTime::from_secs(draws.next().expect("cycle") * mean);
            engine.schedule_source_in(delay(0.6), Ev::Arrival);
            let mut completed = 0usize;
            for _ in 0..N {
                match engine.next_event().expect("the source is always armed").1 {
                    Ev::Arrival => {
                        engine.schedule_source_in(delay(0.6), Ev::Arrival);
                        let u = delay(1.0).as_secs();
                        if let Some(cpu) = cpus.iter().position(Option::is_none) {
                            cpus[cpu] = Some(engine.schedule_in(delay(10.0), Ev::Done(cpu)));
                        }
                        if u < 0.05 {
                            let cpu = (u * 320.0) as usize;
                            if let Some(id) = cpus[cpu] {
                                engine.cancel(id);
                                cpus[cpu] = Some(engine.schedule_in(delay(20.0), Ev::Done(cpu)));
                            }
                        }
                    }
                    Ev::Done(cpu) => {
                        cpus[cpu] = None;
                        completed += 1;
                    }
                }
            }
            black_box((completed, engine.pending()))
        });
    });

    group.finish();
}

/// The model-shaped case's events.
#[derive(Clone, Copy)]
enum Ev {
    Arrival,
    Done(usize),
}

criterion_group!(benches, bench_event_queue);
criterion_main!(benches);
