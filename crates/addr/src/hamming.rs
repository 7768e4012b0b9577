//! Hamming-weight analysis of Interface IDs.
//!
//! The paper (§4, Appendix A.2, Fig. 7) uses the Hamming weight — the number
//! of bits set to 1 — of the rightmost 64 bits (the Interface ID) of targeted
//! addresses as an indicator of destination-address randomness: addresses
//! taken from hitlists or generated structurally exhibit a *low* Hamming
//! weight, while uniformly random IIDs concentrate near 32 with a binomial
//! (≈ Gaussian) distribution.

use serde::{Deserialize, Serialize};

/// Hamming weight (popcount) of the Interface ID (low 64 bits) of an address.
#[inline]
pub fn hamming_weight_iid(addr: u128) -> u32 {
    (addr as u64).count_ones()
}

/// An empirical distribution of IID Hamming weights (0..=64).
///
/// Collect with [`HammingDistribution::observe`], then query summary
/// statistics or compare against the binomial(64, ½) expected under uniform
/// random IIDs.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct HammingDistribution {
    counts: Vec<u64>, // 65 buckets
    total: u64,
}

impl HammingDistribution {
    /// Creates an empty distribution.
    pub fn new() -> Self {
        HammingDistribution {
            counts: vec![0; 65],
            total: 0,
        }
    }

    /// Adds one address's IID Hamming weight to the distribution.
    pub fn observe(&mut self, addr: u128) {
        self.counts[hamming_weight_iid(addr) as usize] += 1;
        self.total += 1;
    }

    /// Builds a distribution from an iterator of addresses.
    pub fn from_addrs<I: IntoIterator<Item = u128>>(addrs: I) -> Self {
        let mut d = Self::new();
        for a in addrs {
            d.observe(a);
        }
        d
    }

    /// Total number of observations.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Count of observations with exactly weight `w` (0..=64).
    pub fn count(&self, w: u32) -> u64 {
        self.counts.get(w as usize).copied().unwrap_or(0)
    }

    /// The 65-bucket histogram (index = weight).
    pub fn histogram(&self) -> &[u64] {
        &self.counts
    }

    /// Fraction of observations at each weight; empty distribution → zeros.
    pub fn pmf(&self) -> Vec<f64> {
        if self.total == 0 {
            return vec![0.0; 65];
        }
        self.counts
            .iter()
            .map(|&c| c as f64 / self.total as f64)
            .collect()
    }

    /// Mean Hamming weight. Uniform random IIDs have mean 32.
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let sum: u64 = self
            .counts
            .iter()
            .enumerate()
            .map(|(w, &c)| w as u64 * c)
            .sum();
        sum as f64 / self.total as f64
    }

    /// Variance of the Hamming weight. Uniform random IIDs have variance 16.
    pub fn variance(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let m = self.mean();
        let ss: f64 = self
            .counts
            .iter()
            .enumerate()
            .map(|(w, &c)| c as f64 * (w as f64 - m).powi(2))
            .sum();
        ss / self.total as f64
    }

    /// Median Hamming weight (lower median).
    pub fn median(&self) -> u32 {
        if self.total == 0 {
            return 0;
        }
        let half = self.total.div_ceil(2);
        let mut acc = 0u64;
        for (w, &c) in self.counts.iter().enumerate() {
            acc += c;
            if acc >= half {
                return w as u32;
            }
        }
        64
    }

    /// A coarse randomness verdict: does this distribution look like
    /// uniformly random IIDs?
    ///
    /// Uses the mean (within 32 ± 2), variance (within 16 ± 8), and requires
    /// at least 30 observations. This is the heuristic the experiments use to
    /// tag the December-24 scanner as "random IID generation" (paper §4).
    pub fn looks_random(&self) -> bool {
        self.total >= 30
            && (self.mean() - 32.0).abs() <= 2.0
            && (self.variance() - 16.0).abs() <= 8.0
    }

    /// Merges another distribution into this one.
    pub fn merge(&mut self, other: &HammingDistribution) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.total += other.total;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn weight_of_known_addresses() {
        assert_eq!(hamming_weight_iid(0), 0);
        assert_eq!(hamming_weight_iid(1), 1);
        assert_eq!(hamming_weight_iid(u128::MAX), 64);
        // Network bits must not count.
        assert_eq!(hamming_weight_iid(u128::MAX << 64), 0);
        assert_eq!(hamming_weight_iid(0x3), 2);
    }

    #[test]
    fn empty_distribution_is_inert() {
        let d = HammingDistribution::new();
        assert_eq!(d.total(), 0);
        assert_eq!(d.mean(), 0.0);
        assert_eq!(d.median(), 0);
        assert!(!d.looks_random());
    }

    #[test]
    fn random_iids_look_random() {
        let mut rng = SmallRng::seed_from_u64(7);
        let d = HammingDistribution::from_addrs((0..5000).map(|_| rng.gen::<u64>() as u128));
        assert!(d.looks_random(), "mean={} var={}", d.mean(), d.variance());
        assert!((d.mean() - 32.0).abs() < 0.5);
    }

    #[test]
    fn low_weight_iids_do_not_look_random() {
        // Hitlist-style addresses: ::1, ::2, small IIDs.
        let d = HammingDistribution::from_addrs((1u128..1000).map(|i| i % 256));
        assert!(d.mean() < 8.0);
        assert!(!d.looks_random());
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = HammingDistribution::from_addrs([0u128, 1, 3]);
        let b = HammingDistribution::from_addrs([7u128]);
        a.merge(&b);
        assert_eq!(a.total(), 4);
        assert_eq!(a.count(3), 1);
        assert_eq!(a.count(0), 1);
    }

    #[test]
    fn median_on_small_sets() {
        let d = HammingDistribution::from_addrs([1u128, 3, 7]); // weights 1,2,3
        assert_eq!(d.median(), 2);
    }
}
