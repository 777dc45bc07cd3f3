//! Order statistics and process measurements.

use crate::cpu::Placement;
use std::io;

/// The `q`-quantile (0 ≤ q ≤ 1) of `values` by linear interpolation
/// between order statistics; `values` is sorted in place. 0 when empty.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (values.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    values[lo] + (values[hi] - values[lo]) * (pos - lo as f64)
}

/// The median of `values` (sorted in place).
pub fn median(values: &mut [f64]) -> f64 {
    quantile(values, 0.5)
}

/// The largest value, 0 when empty.
pub fn max(values: &[f64]) -> f64 {
    values.iter().copied().fold(0.0, f64::max)
}

/// This process's peak resident set size in MiB (`VmHWM`).
pub fn peak_rss_mb() -> io::Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no VmHWM in /proc/self/status"))
}

/// The mean of `values` without their lowest and highest tenth; sorts
/// `values` in place. 0 when empty.
pub fn trimmed_mean(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let cut = values.len() / 10;
    let kept = &values[cut..values.len() - cut];
    if kept.is_empty() {
        return 0.0;
    }
    kept.iter().sum::<f64>() / kept.len() as f64
}

/// The best tenth of per-window times: their 10th percentile.
///
/// Used for `paced_fleet`'s fire latencies, whose windows a woken
/// consumer's scheduling delays dominate; see `STEADINESS.md`.
pub fn best_time(times: &mut [f64]) -> f64 {
    quantile(times, 0.1)
}

/// Consecutive windows of a closed-loop leg. Each window records its
/// work rate and the median and 90th percentile of its operations'
/// latencies; the measuring thread moves to the next CPU at every
/// window boundary.
#[derive(Debug)]
pub struct Windows<'a> {
    placement: &'a Placement,
    window_s: f64,
    start_s: f64,
    last_s: f64,
    work: f64,
    latencies: Vec<f64>,
    slot: usize,
    rates: Vec<f64>,
    p50: Vec<f64>,
    p90: Vec<f64>,
}

/// The summary of a leg's windows.
///
/// Other tenants of a shared machine make it run the same rounds at two
/// speeds, about 1.6 times apart on `durable_replay`, switching every
/// 0.1–2 s, and a run's share of slow stretches varies from run to run.
/// A median or a best decile of window rates or window medians then
/// lands in one speed or the other depending on that share, while their
/// mean moves only in proportion to it; the highest and lowest tenth of
/// windows are left out of the mean. A window's p90 is instead set by its
/// few slowest rounds, and in busy stretches more than a tenth of the
/// windows hold a preempted round there, so the p90 is their median.
/// See `STEADINESS.md`.
#[derive(Debug, Clone, Copy)]
pub struct WindowStats {
    /// Window work rate, per second: trimmed mean over windows.
    pub rate: f64,
    /// Window median latency: trimmed mean over windows.
    pub p50: f64,
    /// Window 90th-percentile latency: median over windows.
    pub p90: f64,
}

impl<'a> Windows<'a> {
    /// Windows of at least `window_s` seconds; pins the calling thread
    /// to the first CPU.
    pub fn new(placement: &'a Placement, window_s: f64) -> Self {
        placement.pin(0);
        Windows {
            placement,
            window_s,
            start_s: 0.0,
            last_s: 0.0,
            work: 0.0,
            latencies: Vec::new(),
            slot: 0,
            rates: Vec::new(),
            p50: Vec::new(),
            p90: Vec::new(),
        }
    }

    /// Counts `work` units completed by `at_s` seconds into the leg, by
    /// an operation that took `latency` (none for work-free steps).
    pub fn add(&mut self, at_s: f64, work: u64, latency: Option<f64>) {
        self.work += work as f64;
        self.last_s = at_s;
        self.latencies.extend(latency);
        if at_s - self.start_s >= self.window_s {
            self.close();
            self.slot += 1;
            self.placement.pin(self.slot);
        }
    }

    fn close(&mut self) {
        self.rates.push(self.work / (self.last_s - self.start_s));
        if !self.latencies.is_empty() {
            self.p50.push(median(&mut self.latencies));
            self.p90.push(quantile(&mut self.latencies, 0.9));
        }
        self.start_s = self.last_s;
        self.work = 0.0;
        self.latencies.clear();
    }

    /// Closes the leg (a leg shorter than one window counts as one),
    /// releases the CPU pin and summarises.
    pub fn finish(mut self) -> WindowStats {
        if self.rates.is_empty() && self.last_s > self.start_s {
            self.close();
        }
        self.placement.release();
        WindowStats {
            rate: trimmed_mean(&mut self.rates),
            p50: trimmed_mean(&mut self.p50),
            p90: median(&mut self.p90),
        }
    }
}
