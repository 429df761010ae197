//! Row sampling for approximate query execution.
//!
//! SeeDB's sampling optimization (§3.3) runs all view queries against a
//! sample of the dataset, trading accuracy for latency. Membership is a
//! pure function of the row id and the seed, so the sample of a row range
//! is the union of the samples of its sub-ranges: sampled plans split
//! into row partitions, cache, and refresh from appended rows exactly
//! like unsampled ones, and every run with the same seed is reproducible.

/// How to sample the scan domain.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SampleSpec {
    /// Keep each row independently with probability `fraction`.
    /// Sample size is binomial around `fraction * n`.
    Bernoulli {
        /// Keep probability; `>= 1` keeps every row, `<= 0` none. NaN is
        /// rejected at execution time.
        fraction: f64,
        /// Hash seed (deterministic sampling).
        seed: u64,
    },
}

impl SampleSpec {
    /// Whether row `row` is in the sample:
    /// `mix64(mix64(seed) ^ row) < ⌊fraction · 2^64⌋`.
    ///
    /// The seed is mixed on its own first so that different seeds give
    /// independent samples rather than relabelings of one another.
    pub fn keeps(&self, row: u64) -> bool {
        self.membership()(row)
    }

    /// [`SampleSpec::keeps`] with the per-spec work (seed mix, threshold)
    /// done once, for the scan's per-row loop: the compiler does not hoist
    /// it out of that loop, which doubled the per-row sampling cost.
    pub(crate) fn membership(&self) -> impl Fn(u64) -> bool {
        let SampleSpec::Bernoulli { fraction, seed } = *self;
        // `as` saturates: NaN and fractions <= 0 give 0 (keep nothing),
        // fractions >= 1 give u64::MAX.
        let (key, cut) = (mix64(seed), (fraction * 2f64.powi(64)) as u64);
        let all = fraction >= 1.0;
        move |row| all || mix64(key ^ row) < cut
    }
}

/// SplitMix64's finalizer: a bijective 64-bit mix with full avalanche.
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(n: u64, fraction: f64, seed: u64) -> Vec<u64> {
        let spec = SampleSpec::Bernoulli { fraction, seed };
        (0..n).filter(|&r| spec.keeps(r)).collect()
    }

    #[test]
    fn bernoulli_edge_fractions() {
        assert_eq!(sample(10, 1.0, 1).len(), 10);
        assert_eq!(sample(10, 0.0, 1).len(), 0);
        // Out-of-range fractions are clamped rather than panicking.
        assert_eq!(sample(10, 2.0, 1).len(), 10);
        assert_eq!(sample(10, -1.0, 1).len(), 0);
    }

    #[test]
    fn bernoulli_is_deterministic_per_seed() {
        let a = sample(1000, 0.3, 42);
        let b = sample(1000, 0.3, 42);
        let c = sample(1000, 0.3, 43);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn bernoulli_size_near_expectation() {
        let n = sample(100_000, 0.1, 7).len() as f64;
        assert!((9_000.0..11_000.0).contains(&n), "got {n}");
    }

    /// Without the seed pre-mix, `seed ^ row` over a power-of-two row
    /// range only permutes that range, so every seed would draw the same
    /// number of rows.
    #[test]
    fn seeds_draw_independent_samples() {
        let sizes: Vec<usize> = (0..16).map(|seed| sample(4096, 0.5, seed).len()).collect();
        assert!(sizes.iter().any(|&s| s != sizes[0]), "sizes {sizes:?}");
    }
}
