//! Per-nibble entropy profiles of address sets (Entropy/IP-style).
//!
//! Foremski, Plonka & Berger's *Entropy/IP* (IMC 2016) — cited by the paper
//! as one of the ways scanners uncover structure in the IPv6 space —
//! characterizes an address set by the Shannon entropy of each of the 32
//! hex nibbles. Fixed nibbles (network prefixes, padding zeroes) have
//! entropy 0; counters and port-embeddings have low entropy; random
//! privacy IIDs approach 4 bits. The profile both *fingerprints* how a
//! population of addresses was generated and seeds target-generation
//! models ([`crate::gen`], `lumen6_scanners::tga`).

use serde::{Deserialize, Serialize};

/// Number of nibbles in an IPv6 address.
pub const NIBBLES: usize = 32;

/// Extracts nibble `i` (0 = most significant) of an address.
#[inline]
pub fn nibble(addr: u128, i: usize) -> u8 {
    debug_assert!(i < NIBBLES);
    ((addr >> ((NIBBLES - 1 - i) * 4)) & 0xf) as u8
}

/// Coarse structure classes per nibble position.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum NibbleClass {
    /// One value only (network prefix, padding).
    Fixed,
    /// Entropy below 1.5 bits: counters, small enumerations.
    Low,
    /// Entropy 1.5–3.5 bits: structured but varied.
    Medium,
    /// Entropy above 3.5 bits: effectively random.
    High,
}

/// Per-nibble value counts and entropy of an address set.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EntropyProfile {
    counts: Vec<[u64; 16]>, // 32 positions
    total: u64,
}

impl Default for EntropyProfile {
    fn default() -> Self {
        Self::new()
    }
}

impl EntropyProfile {
    /// An empty profile.
    pub fn new() -> Self {
        EntropyProfile {
            counts: vec![[0u64; 16]; NIBBLES],
            total: 0,
        }
    }

    /// Adds one address.
    pub fn observe(&mut self, addr: u128) {
        for i in 0..NIBBLES {
            self.counts[i][nibble(addr, i) as usize] += 1;
        }
        self.total += 1;
    }

    /// Builds a profile from an address iterator.
    pub fn from_addrs<I: IntoIterator<Item = u128>>(addrs: I) -> Self {
        let mut p = Self::new();
        for a in addrs {
            p.observe(a);
        }
        p
    }

    /// Number of addresses observed.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Shannon entropy (bits, 0..=4) of nibble position `i`.
    pub fn entropy(&self, i: usize) -> f64 {
        let total = self.total as f64;
        if self.total == 0 {
            return 0.0;
        }
        -self.counts[i]
            .iter()
            .filter(|&&c| c > 0)
            .map(|&c| {
                let p = c as f64 / total;
                p * p.log2()
            })
            .sum::<f64>()
    }

    /// Classifies nibble position `i`.
    pub fn class(&self, i: usize) -> NibbleClass {
        let h = self.entropy(i);
        if h == 0.0 {
            NibbleClass::Fixed
        } else if h < 1.5 {
            NibbleClass::Low
        } else if h < 3.5 {
            NibbleClass::Medium
        } else {
            NibbleClass::High
        }
    }

    /// Mean entropy of the IID nibbles (positions 16..32): ~0 for low-byte
    /// server farms, ~4 for privacy addresses. The paper's Hamming-weight
    /// analysis is a cruder cut of the same signal.
    pub fn iid_entropy(&self) -> f64 {
        (16..NIBBLES).map(|i| self.entropy(i)).sum::<f64>() / 16.0
    }

    /// Raw counts at position `i`.
    pub fn counts(&self, i: usize) -> &[u64; 16] {
        &self.counts[i]
    }

    /// A compact textual profile, one character per nibble: `.` fixed,
    /// `l` low, `m` medium, `H` high — handy in reports.
    pub fn signature(&self) -> String {
        (0..NIBBLES)
            .map(|i| match self.class(i) {
                NibbleClass::Fixed => '.',
                NibbleClass::Low => 'l',
                NibbleClass::Medium => 'm',
                NibbleClass::High => 'H',
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn nibble_extraction() {
        let a: u128 = 0x2001_0db8_0000_0000_0000_0000_0000_00ff;
        assert_eq!(nibble(a, 0), 0x2);
        assert_eq!(nibble(a, 1), 0x0);
        assert_eq!(nibble(a, 3), 0x1);
        assert_eq!(nibble(a, 31), 0xf);
        assert_eq!(nibble(a, 30), 0xf);
        assert_eq!(nibble(a, 29), 0x0);
    }

    #[test]
    fn fixed_prefix_zero_entropy() {
        // All addresses share 2001:db8::/32 and differ only in the last
        // nibble.
        let base: u128 = 0x2001_0db8 << 96;
        let p = EntropyProfile::from_addrs((0..16u128).map(|i| base | i));
        for i in 0..8 {
            assert_eq!(p.entropy(i), 0.0, "prefix nibble {i}");
            assert_eq!(p.class(i), NibbleClass::Fixed);
        }
        assert!((p.entropy(31) - 4.0).abs() < 1e-9, "uniform last nibble");
        assert_eq!(p.class(31), NibbleClass::High);
    }

    #[test]
    fn random_iids_have_high_iid_entropy() {
        let mut rng = SmallRng::seed_from_u64(5);
        let base: u128 = 0x2001_0db8 << 96;
        let p = EntropyProfile::from_addrs((0..5000).map(|_| base | u128::from(rng.gen::<u64>())));
        assert!(p.iid_entropy() > 3.8, "iid entropy {}", p.iid_entropy());
        // Network half stays fixed.
        assert!((0..8).all(|i| p.entropy(i) == 0.0));
    }

    #[test]
    fn low_byte_servers_have_low_iid_entropy() {
        let base: u128 = 0x2001_0db8 << 96;
        let p = EntropyProfile::from_addrs((1..=200u128).map(|i| base | ((i % 10) + 1)));
        assert!(p.iid_entropy() < 0.5, "iid entropy {}", p.iid_entropy());
    }

    #[test]
    fn signature_readable() {
        let base: u128 = 0x2001_0db8 << 96;
        let mut rng = SmallRng::seed_from_u64(6);
        let p = EntropyProfile::from_addrs((0..2000).map(|_| base | u128::from(rng.gen::<u16>())));
        let sig = p.signature();
        assert_eq!(sig.len(), 32);
        assert!(sig.starts_with("...."));
        assert!(sig.ends_with("HHHH"), "{sig}");
    }

    #[test]
    fn empty_profile_is_all_fixed() {
        let p = EntropyProfile::new();
        assert_eq!(p.total(), 0);
        assert!((0..NIBBLES).all(|i| p.entropy(i) == 0.0));
        assert_eq!(p.iid_entropy(), 0.0);
    }
}
