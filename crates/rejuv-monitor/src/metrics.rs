//! Deterministic metrics: fixed-bucket histograms and the report that
//! carries them.
//!
//! A [`MetricsReport`] holds three instrument kinds, mirroring what a
//! production monitoring stack exports:
//!
//! * **counters** — monotonic `u64` totals (observations processed,
//!   rejuvenations fired),
//! * **gauges** — `f64` levels (shard counts),
//! * **histograms** — fixed-bucket distributions with lifetime count and
//!   sum (observation values, drain batch sizes).
//!
//! The supervisor folds every instrument from per-shard state. The
//! report is plain data behind `BTreeMap`s, so its JSON rendering is
//! byte-stable across runs — the property `monitord --replay` relies on
//! to prove a re-analysis reproduced the live run exactly. Nothing here
//! reads the wall clock.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// A fixed-bucket histogram: `bounds[i]` is the *inclusive* upper edge
/// of bucket `i`, with one extra overflow bucket at the end.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Histogram {
    bounds: Vec<f64>,
    counts: Vec<u64>,
    count: u64,
    sum: f64,
}

impl Histogram {
    /// Creates a histogram with the given ascending bucket bounds.
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is empty or not strictly ascending.
    pub fn new(bounds: &[f64]) -> Self {
        assert!(!bounds.is_empty(), "a histogram needs at least one bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly ascending"
        );
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            count: 0,
            sum: 0.0,
        }
    }

    /// Records one value.
    pub fn record(&mut self, value: f64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.count += 1;
        self.sum += value;
    }

    /// Records a whole slice of values in one pass — the bulk
    /// counterpart of [`Histogram::record`], bitwise-identical to
    /// calling it once per value: the bucket index is computed per
    /// value, but the counts accumulate in a stack array and the sum in
    /// a register, both written back once. The slice order fixes the
    /// floating-point accumulation order, same as repeated `record`.
    pub fn record_slice(&mut self, values: &[f64]) {
        self.record_slice_with(values, |_, _| {});
    }

    /// [`Histogram::record_slice`] with a caller-supplied fold run on
    /// `(index, value)` inside the same pass. The drain plane fuses its
    /// FNV decision-digest fold into the bucket loop through this: the
    /// hash is a latency-bound dependency chain, and riding it through
    /// the histogram pass lets the (independent) bucket indexing fill
    /// the multiplier bubbles instead of costing a separate traversal.
    /// Identical histogram state to a per-value `record` loop, same
    /// call order for the fold.
    ///
    /// The bucket index is a branch-free count of the bounds the value
    /// exceeds, not `record`'s first-match search: healthy response
    /// times land in a random low bucket, so the search's exit branch
    /// mispredicts on most samples. For strictly ascending bounds (all
    /// `new` accepts, and all `Supervisor::restore` lets in) the bounds
    /// a value does *not* exceed form a suffix, so the count equals the
    /// first-match index for every finite value and ±inf; a NaN value
    /// compares false everywhere and counts to the overflow bucket,
    /// exactly as the search falls through to it (DESIGN §12).
    pub(crate) fn record_slice_with<F: FnMut(usize, f64)>(&mut self, values: &[f64], mut fold: F) {
        if values.is_empty() {
            return;
        }
        // Every histogram in the monitoring plane has ≤ 7 bounds; the
        // index below covers up to `LANES`, and anything wider falls back
        // to the per-value path.
        const LANES: usize = 8;
        if self.bounds.len() > LANES {
            for (i, &value) in values.iter().enumerate() {
                self.record(value);
                fold(i, value);
            }
            return;
        }
        // Pad the bounds with NaN to a fixed width, so the count is a
        // constant run of compares the compiler unrolls whole. Every
        // value lies "above" a NaN pad, so each pad adds exactly 1 to
        // every count: the raw count lands at `pads + index`, and the
        // pads are subtracted once, at the write-back below.
        let pads = LANES - self.bounds.len();
        let mut padded = [f64::NAN; LANES];
        padded[..self.bounds.len()].copy_from_slice(&self.bounds);
        let mut counts = [0u64; LANES + 1];
        let mut sum = self.sum;
        for (i, &value) in values.iter().enumerate() {
            // `!(value <= b)`, not `value > b`: NaN must count as above
            // every bound.
            #[allow(clippy::neg_cmp_op_on_partial_ord)]
            let raw = padded.iter().fold(0, |n, &b| n + !(value <= b) as usize);
            counts[raw] += 1;
            sum += value;
            fold(i, value);
        }
        for (mine, batched) in self.counts.iter_mut().zip(&counts[pads..]) {
            *mine += batched;
        }
        self.count += values.len() as u64;
        self.sum = sum;
    }

    /// Checks that this histogram is a well-formed instance of the one
    /// built by `Histogram::new(bounds)`: the same bounds, one count per
    /// bucket plus the overflow bucket, and counts that add up to
    /// `count`. A deserialised histogram skips `new`'s checks, so the
    /// checkpoint-restore path runs this before trusting one.
    pub(crate) fn check_shape(&self, bounds: &[f64]) -> Result<(), HistogramProblem> {
        if self.bounds != bounds {
            return Err(HistogramProblem::Bounds);
        }
        if self.counts.len() != bounds.len() + 1 {
            return Err(HistogramProblem::BucketCount {
                expected: bounds.len() + 1,
                found: self.counts.len(),
            });
        }
        let bucket_total: u128 = self.counts.iter().map(|&c| u128::from(c)).sum();
        if bucket_total != u128::from(self.count) {
            return Err(HistogramProblem::CountMismatch {
                count: self.count,
                bucket_total,
            });
        }
        Ok(())
    }

    /// Bucket upper bounds.
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Per-bucket counts; the final entry is the overflow bucket.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded values.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean of recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Folds `other` into this histogram: per-bucket counts and totals
    /// add, sums add in call order. Merging the same histograms in the
    /// same order always produces the same bytes — the property the
    /// supervisor relies on when it folds per-shard histograms in shard
    /// index order, so reports stay byte-stable no matter which consumer
    /// thread drained which shard.
    ///
    /// # Panics
    ///
    /// Panics if the bucket bounds differ.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(
            self.bounds, other.bounds,
            "cannot merge histograms with different bounds"
        );
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum += other.sum;
    }
}

/// How a deserialised [`Histogram`] fails to fit the instrument it is
/// meant to restore.
#[derive(Debug, Clone, PartialEq)]
pub enum HistogramProblem {
    /// Its bucket bounds differ from the configured ones.
    Bounds,
    /// It does not have one count per bucket plus the overflow bucket.
    BucketCount {
        /// `bounds.len() + 1`.
        expected: usize,
        /// Counts carried.
        found: usize,
    },
    /// Its bucket counts do not add up to its lifetime count.
    CountMismatch {
        /// Lifetime count carried.
        count: u64,
        /// Sum of the carried bucket counts.
        bucket_total: u128,
    },
}

impl fmt::Display for HistogramProblem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HistogramProblem::Bounds => {
                f.write_str("bucket bounds differ from the configured ones")
            }
            HistogramProblem::BucketCount { expected, found } => {
                write!(f, "{found} bucket counts where {expected} are needed")
            }
            HistogramProblem::CountMismatch {
                count,
                bucket_total,
            } => write!(
                f,
                "bucket counts add up to {bucket_total}, not its count {count}"
            ),
        }
    }
}

/// The monitoring plane's metrics: named counters, gauges and
/// histograms, as folded from shard state for a report or checkpoint.
///
/// `BTreeMap`-backed, so serialising the same state always yields the
/// same bytes — reports are directly `diff`-able.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsReport {
    /// Monotonic counters by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauges by name.
    pub gauges: BTreeMap<String, f64>,
    /// Histograms by name.
    pub histograms: BTreeMap<String, Histogram>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_values() {
        let mut h = Histogram::new(&[1.0, 10.0]);
        for v in [0.5, 1.0, 3.0, 100.0] {
            h.record(v);
        }
        assert_eq!(h.counts(), &[2, 1, 1]); // 1.0 lands inclusively
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 104.5);
        assert!((h.mean() - 26.125).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn unsorted_bounds_panic() {
        let _ = Histogram::new(&[10.0, 1.0]);
    }

    #[test]
    fn merge_adds_counts_and_sums_in_call_order() {
        let mut a = Histogram::new(&[1.0, 10.0]);
        let mut b = Histogram::new(&[1.0, 10.0]);
        for v in [0.5, 3.0] {
            a.record(v);
        }
        for v in [100.0, 0.25] {
            b.record(v);
        }
        a.merge(&b);
        assert_eq!(a.counts(), &[2, 1, 1]);
        assert_eq!(a.count(), 4);
        assert_eq!(
            a.sum().to_bits(),
            ((0.5 + 3.0) + (100.0 + 0.25f64)).to_bits()
        );
    }

    #[test]
    #[should_panic(expected = "different bounds")]
    fn merge_rejects_mismatched_bounds() {
        let mut a = Histogram::new(&[1.0]);
        let b = Histogram::new(&[2.0]);
        a.merge(&b);
    }

    #[test]
    fn report_round_trips_through_json() {
        let mut value = Histogram::new(&[1.0, 5.0, 25.0]);
        value.record_slice(&[3.5, 50.0]);
        let report = MetricsReport {
            counters: BTreeMap::from([("rejuvenations".to_owned(), 2)]),
            gauges: BTreeMap::from([("shards".to_owned(), 4.0)]),
            histograms: BTreeMap::from([("value".to_owned(), value)]),
        };
        let text = serde_json::to_string(&report).unwrap();
        let back: MetricsReport = serde_json::from_str(&text).unwrap();
        assert_eq!(report, back);
        // Same state, same bytes: the replay-determinism contract.
        assert_eq!(text, serde_json::to_string(&back).unwrap());
    }

    /// Histograms the branch-free bulk index must agree on: the three
    /// monitoring-plane instruments, one bound, a lone NaN bound (which
    /// `new` accepts), and every run of 1–17 consecutive bounds from an
    /// ascending palette that spans ±inf, ±MAX, the subnormals and a
    /// signed zero (once `+0.0`, once `-0.0`), so the NaN-padded
    /// fixed-width index (1–8 bounds) and the per-value fallback (9–17)
    /// each meet every width they serve.
    fn index_shapes() -> Vec<Vec<f64>> {
        use crate::supervisor::{BATCH_BOUNDS, LATENCY_BOUNDS, VALUE_BOUNDS};
        let mut shapes = vec![
            VALUE_BOUNDS.to_vec(),
            BATCH_BOUNDS.to_vec(),
            LATENCY_BOUNDS.to_vec(),
            vec![5.0],
            vec![f64::NAN],
        ];
        let tiny = f64::from_bits(1);
        for zero in [0.0, -0.0] {
            let palette = [
                f64::NEG_INFINITY,
                f64::MIN,
                -1e300,
                -2.0,
                -f64::MIN_POSITIVE,
                -tiny,
                zero,
                tiny,
                f64::MIN_POSITIVE,
                0.5,
                1.0,
                2.5,
                5.0,
                10.0,
                25.0,
                100.0,
                1e6,
                1e300,
                f64::MAX,
                f64::INFINITY,
            ];
            for len in 1..=17 {
                shapes.extend(palette.windows(len).map(<[f64]>::to_vec));
            }
        }
        shapes
    }

    /// Every bound and its neighbouring floats, signed zeros, infinities,
    /// NaNs of every sign and kind, and the extremes of the finite and
    /// subnormal ranges.
    fn edge_values(bounds: &[f64]) -> Vec<f64> {
        let mut values = vec![
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
            f64::from_bits(0x7ff8_0000_0000_0001), // quiet, with payload
            f64::from_bits(0x7ff0_0000_0000_0001), // signalling
            f64::from_bits(0xfff0_0000_0000_0001), // negative signalling
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            f64::from_bits(1),                     // smallest subnormal
            f64::from_bits(0x000f_ffff_ffff_ffff), // largest subnormal
            -f64::from_bits(1),
            f64::MAX,
            f64::MIN,
        ];
        for &b in bounds {
            let bits = b.to_bits();
            values.extend([
                b,
                f64::from_bits(bits.wrapping_sub(1)),
                f64::from_bits(bits.wrapping_add(1)),
            ]);
        }
        values
    }

    /// `record_slice` and `record_slice_with` must leave the same counts,
    /// count and sum bits as a per-value `record` loop, value by value
    /// and over the whole slice, and the fold must see every
    /// `(index, value)` once, in order.
    fn assert_bulk_matches_record(bounds: &[f64], values: &[f64]) {
        let state = |h: &Histogram| (h.counts().to_vec(), h.count(), h.sum().to_bits());
        for &value in values {
            let mut reference = Histogram::new(bounds);
            reference.record(value);
            let mut bulk = Histogram::new(bounds);
            bulk.record_slice(&[value]);
            assert_eq!(
                state(&bulk),
                state(&reference),
                "record_slice of {value:e} ({:#018x}) under bounds {bounds:?}",
                value.to_bits()
            );
        }
        let mut reference = Histogram::new(bounds);
        for &value in values {
            reference.record(value);
        }
        let mut bulk = Histogram::new(bounds);
        bulk.record_slice(values);
        assert_eq!(state(&bulk), state(&reference), "record_slice, {bounds:?}");
        let mut fused = Histogram::new(bounds);
        let mut seen = Vec::new();
        fused.record_slice_with(values, |i, value| seen.push((i, value.to_bits())));
        assert_eq!(
            state(&fused),
            state(&reference),
            "record_slice_with, {bounds:?}"
        );
        let expected: Vec<(usize, u64)> = values.iter().map(|v| v.to_bits()).enumerate().collect();
        assert_eq!(seen, expected, "fold calls, {bounds:?}");
    }

    #[test]
    fn bulk_bucket_index_matches_record_on_every_edge_value() {
        for bounds in index_shapes() {
            assert_bulk_matches_record(&bounds, &edge_values(&bounds));
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// Random strictly ascending bounds (1–16 of them, so both the
        /// fixed-width and the fallback path) and values drawn near the
        /// bounds, across the range, and from the edge set.
        #[test]
        fn bulk_bucket_index_matches_record_on_random_bounds(
            raw_bounds in proptest::collection::vec(-50.0f64..150.0, 1..17),
            picks in proptest::collection::vec((0usize..3, proptest::prelude::any::<u64>()), 0..200),
        ) {
            let mut bounds = raw_bounds;
            bounds.sort_by(f64::total_cmp);
            bounds.dedup();
            let edges = edge_values(&bounds);
            let values: Vec<f64> = picks
                .iter()
                .map(|&(kind, r)| match kind {
                    0 => edges[r as usize % edges.len()],
                    1 => -100.0 + 300.0 * (r >> 11) as f64 / (1u64 << 53) as f64,
                    _ => f64::from_bits(r),
                })
                .collect();
            assert_bulk_matches_record(&bounds, &values);
        }
    }
}
