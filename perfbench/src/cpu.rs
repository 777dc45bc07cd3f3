//! CPU placement for the single-threaded measured loops.
//!
//! On a shared machine the CPUs a process may run on are not equally
//! fast: a CPU whose host core is busy with other tenants runs the same
//! loop markedly slower, and a single-threaded process tends to stay on
//! whichever CPU the scheduler picked first. The benchmark therefore
//! rotates its measuring thread over every CPU it is allowed on, one
//! measurement window at a time, so each run samples every CPU alike
//! and the medians in `stats` do not depend on the CPU a run started on.

use std::mem::size_of_val;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// A `cpu_set_t`: 1024 bits.
type CpuSet = [u64; 16];

/// The CPUs this process may run on, and the mask to restore.
#[derive(Debug, Clone)]
pub struct Placement {
    original: CpuSet,
    cpus: Vec<usize>,
}

impl Placement {
    /// Reads the calling thread's allowed CPUs. If they cannot be read,
    /// `pin` and `release` do nothing.
    pub fn detect() -> Self {
        let mut mask: CpuSet = [0; 16];
        // SAFETY: `mask` is a writable buffer of exactly the size passed,
        // and pid 0 names the calling thread.
        let ok = unsafe { sched_getaffinity(0, size_of_val(&mask), mask.as_mut_ptr()) } == 0;
        let cpus = if ok {
            (0..mask.len() * 64)
                .filter(|&cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
                .collect()
        } else {
            Vec::new()
        };
        Placement {
            original: mask,
            cpus,
        }
    }

    /// Pins the calling thread to the CPU of `slot` (modulo the count).
    pub fn pin(&self, slot: usize) {
        if self.cpus.is_empty() {
            return;
        }
        let cpu = self.cpus[slot % self.cpus.len()];
        let mut mask: CpuSet = [0; 16];
        mask[cpu / 64] |= 1 << (cpu % 64);
        set(&mask);
    }

    /// Restores the calling thread's original CPU mask, so threads it
    /// spawns afterwards may run anywhere.
    pub fn release(&self) {
        if !self.cpus.is_empty() {
            set(&self.original);
        }
    }
}

fn set(mask: &CpuSet) {
    // SAFETY: `mask` is a readable buffer of exactly the size passed,
    // and pid 0 names the calling thread. A failure leaves the mask as
    // it was, which only costs the rotation, so the result is ignored.
    let _ = unsafe { sched_setaffinity(0, size_of_val(mask), mask.as_ptr()) };
}
