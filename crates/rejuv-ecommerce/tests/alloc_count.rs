//! The §3 model runs allocation-free once warm, and the cluster makes
//! only its per-host result `Vec`s.
//!
//! A counting global allocator over `System` counts the allocations
//! (`alloc`, `alloc_zeroed` and `realloc`) made on the test's own
//! thread while a flag is up, so the harness's threads never add to the
//! count. The count is exact and deterministic, so a change that puts
//! an allocation back on the per-event path fails here however fast the
//! box is.

use rejuv_core::{Sraa, SraaConfig};
use rejuv_ecommerce::{ClusterSystem, EcommerceSystem, RoutingPolicy, SystemConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn note_allocation() {
    if COUNTING.with(Cell::get) {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every call is forwarded unchanged to `System`; the counter
// only reads and writes two const-initialised thread-locals, which
// never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        // SAFETY: as for `alloc`; `ptr` came from this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocations_in<R>(f: impl FnOnce() -> R) -> (u64, R) {
    ALLOCATIONS.with(|n| n.set(0));
    COUNTING.with(|c| c.set(true));
    let out = f();
    COUNTING.with(|c| c.set(false));
    (ALLOCATIONS.with(Cell::get), out)
}

/// A Fig. 9 cell: the paper's system at load 10 with SRAA(3,1,5),
/// warmed by one run. Events live in the model's own calendar and the
/// metrics record no response times, so the only allocation left is the
/// FCFS queue growing to a new high-water mark: the second 10 000-
/// transaction run makes exactly one (its queue outgrows the warm-up's),
/// and a third makes none.
#[test]
fn a_warm_fig09_cell_runs_allocation_free() {
    let config = SystemConfig::paper_at_load(10.0).unwrap();
    let sraa = SraaConfig::builder(5.0, 5.0)
        .sample_size(3)
        .buckets(1)
        .depth(5)
        .build()
        .unwrap();
    let mut system = EcommerceSystem::new(config, 1);
    system.attach_detector(Box::new(Sraa::new(sraa)));
    let warm = system.run(10_000);
    assert!(warm.rejuvenation_count > 0 && warm.gc_count > 0);

    for expected in [1, 0] {
        let (allocations, metrics) = allocations_in(|| system.run(10_000));
        assert!(metrics.completed + metrics.lost >= 10_000);
        assert!(metrics.rejuvenation_count > 0 && metrics.gc_count > 0);
        assert_eq!(
            allocations, expected,
            "allocations in a warm 10 000-transaction run"
        );
    }
}

/// A warm 3-host cluster (per-host SRAA(2,5,3), 30 s downtime, least-
/// active routing). Each `run` returns two per-host `Vec`s (the
/// rejuvenation and GC counts), and the second run here makes one
/// allocation more: a host's FCFS queue outgrowing 128 waiting threads
/// (a `realloc` from 1 KiB to 2 KiB). The counts are exact, so a change
/// that puts an allocation on the per-event path fails here.
#[test]
fn a_warm_cluster_run_makes_a_pinned_number_of_allocations() {
    let host = SystemConfig::paper_at_load(1.0).unwrap();
    let sraa = SraaConfig::builder(5.0, 5.0)
        .sample_size(2)
        .buckets(5)
        .depth(3)
        .build()
        .unwrap();
    let mut cluster = ClusterSystem::new(host, 3, 6.0, RoutingPolicy::LeastActive, 30.0, 0x5EED);
    cluster.attach_detectors(|_| Box::new(Sraa::new(sraa)));
    let warm = cluster.run(10_000);
    assert!(warm.aggregate.rejuvenation_count > 0 && warm.aggregate.gc_count > 0);

    let mut counts = Vec::new();
    for _ in 0..2 {
        let (allocations, metrics) = allocations_in(|| cluster.run(10_000));
        assert!(metrics.aggregate.rejuvenation_count > 0 && metrics.aggregate.gc_count > 0);
        counts.push(allocations);
    }
    assert_eq!(
        counts,
        [2, 3],
        "allocations in two warm 10 000-transaction cluster runs"
    );
}
