//! Seeded input generator for the monitor workloads.
//!
//! Each shard gets its own stream of `(response time, timestamp)`
//! samples: exponential response times with the fleet's baseline mean
//! (µX = 5 s), interrupted at a fixed cadence by degradation episodes
//! whose mean is three to five times higher, so every detector kind
//! fires regularly. Timestamps advance by exponential inter-arrival
//! gaps. Everything is a pure function of the seed.

/// SplitMix64: a small, well-mixed generator; the benchmark needs
/// repeatable inputs, not cryptographic ones.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform integer in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }

    /// Exponential with the given mean.
    pub fn exp(&mut self, mean: f64) -> f64 {
        -mean * (1.0 - self.unit()).ln()
    }
}

/// Baseline mean response time, matching the fleet file's `mu`.
pub const BASELINE_MEAN: f64 = 5.0;
/// Mean gap between consecutive samples of one shard, in seconds.
const MEAN_GAP_S: f64 = 0.001;

/// One shard's generated stream.
#[derive(Debug, Clone)]
pub struct ShardStream {
    /// `(response time, timestamp)` pairs.
    pub samples: Vec<(f64, f64)>,
    /// The response times alone, for the isolation and reference passes.
    pub values: Vec<f64>,
    /// How far the timestamps advance per pass over the buffer; a
    /// cycled buffer adds `pass × period` so time keeps increasing.
    pub period: f64,
}

/// Samples between the starts of one shard's degradation episodes.
const EPISODE_EVERY: usize = 4096;

/// Generates `shards` streams of `len` samples each from `seed`.
pub fn fleet_streams(seed: u64, shards: usize, len: usize) -> Vec<ShardStream> {
    (0..shards)
        .map(|shard| shard_stream(seed, shard, shards, len))
        .collect()
}

/// One shard's stream. Episodes start every `EPISODE_EVERY` samples,
/// staggered evenly across the shards, so every seed gives the same mix
/// of healthy and degraded rounds; the seed draws the samples and each
/// episode's length (256–383 samples) and mean (15–25 s).
fn shard_stream(seed: u64, shard: usize, shards: usize, len: usize) -> ShardStream {
    let mut rng = SplitMix64::new(seed ^ (shard as u64).wrapping_mul(0xa076_1d64_78bd_642f));
    let phase = shard * EPISODE_EVERY / shards;
    let mut samples = Vec::with_capacity(len);
    let (mut at, mut episode_len, mut episode_mean) = (0.0, 0, BASELINE_MEAN);
    for i in 0..len {
        let k = (i + EPISODE_EVERY - phase) % EPISODE_EVERY;
        if k == 0 {
            episode_len = rng.range(256, 383);
            episode_mean = BASELINE_MEAN * (3.0 + 2.0 * rng.unit());
        }
        let mean = if k < episode_len {
            episode_mean
        } else {
            BASELINE_MEAN
        };
        at += rng.exp(MEAN_GAP_S);
        samples.push((rng.exp(mean), at));
    }
    let values = samples.iter().map(|&(v, _)| v).collect();
    ShardStream {
        samples,
        values,
        period: at + MEAN_GAP_S,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_repeat_per_seed_and_differ_across_seeds() {
        let a = fleet_streams(7, 2, 10_000);
        let b = fleet_streams(7, 2, 10_000);
        let c = fleet_streams(8, 2, 10_000);
        assert_eq!(a[1].samples, b[1].samples);
        assert_ne!(a[1].samples, c[1].samples);
        assert_ne!(a[0].samples, a[1].samples);
        assert!(a[0].samples.windows(2).all(|w| w[0].1 < w[1].1));
    }
}
