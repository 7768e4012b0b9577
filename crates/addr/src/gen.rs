//! Deterministic, seedable address generation.
//!
//! Scanner actor models (crate `lumen6-scanners`) and the telescope
//! deployment (crate `lumen6-telescope`) need to mint addresses with
//! controlled structure:
//!
//! - *source* strategies: a random address inside a prefix (the paper's
//!   AS#18 sourced from an entire /32), or a base address with only the low
//!   `n` bits varied (AS#9 varied the lowest 7–9 bits);
//! - *target* structure: low-Hamming-weight IIDs (hitlist-like) versus
//!   uniformly random IIDs (the Dec-24 scanner in the paper).
//!
//! All functions take `&mut impl Rng`, so callers control determinism via
//! seeded [`rand::rngs::SmallRng`] instances.

use crate::prefix::Ipv6Prefix;
use rand::Rng;

/// A uniformly random /128 address inside `prefix`.
pub fn random_in_prefix<R: Rng + ?Sized>(rng: &mut R, prefix: Ipv6Prefix) -> u128 {
    let host_bits = 128 - prefix.len();
    if host_bits == 0 {
        return prefix.bits();
    }
    let r: u128 = rng.gen();
    let host_mask = if host_bits >= 128 {
        u128::MAX
    } else {
        (1u128 << host_bits) - 1
    };
    prefix.bits() | (r & host_mask)
}

/// `base` with only the lowest `n` bits replaced by random bits.
///
/// Models scanners that encode scan metadata in (or just vary) the low bits
/// of their source address — e.g. the security company in the paper's AS#9
/// case study, which varied the lowest 7–9 bits.
pub fn vary_low_bits<R: Rng + ?Sized>(rng: &mut R, base: u128, n: u8) -> u128 {
    if n == 0 {
        return base;
    }
    let n = n.min(128);
    let mask = if n >= 128 {
        u128::MAX
    } else {
        (1u128 << n) - 1
    };
    (base & !mask) | (rng.gen::<u128>() & mask)
}

/// An address in `net64` (a /64) with a low-Hamming-weight IID.
///
/// Draws the weight from 1..=max_weight and places that many bits at random
/// positions, biased toward the low end of the IID (as real hitlist
/// addresses are: `::1`, `::2:1`, service ports, small counters).
pub fn low_weight_iid<R: Rng + ?Sized>(rng: &mut R, net64: u64, max_weight: u32) -> u128 {
    let w = rng.gen_range(1..=max_weight.clamp(1, 64));
    let mut iid = 0u64;
    let mut placed = 0;
    while placed < w {
        // Bias: 80% of bits land in the low 16 bit positions.
        let pos: u32 = if rng.gen_bool(0.8) {
            rng.gen_range(0..16)
        } else {
            rng.gen_range(0..64)
        };
        let bit = 1u64 << pos;
        if iid & bit == 0 {
            iid |= bit;
            placed += 1;
        }
    }
    ((net64 as u128) << 64) | iid as u128
}

/// An address in `net64` with a uniformly random IID (weight ≈ 32, binomial).
pub fn random_iid<R: Rng + ?Sized>(rng: &mut R, net64: u64) -> u128 {
    ((net64 as u128) << 64) | rng.gen::<u64>() as u128
}

/// A low-byte server address: `net64::n` with `n` in 1..=255.
pub fn low_byte_addr<R: Rng + ?Sized>(rng: &mut R, net64: u64) -> u128 {
    ((net64 as u128) << 64) | rng.gen_range(1u128..=255)
}

/// A "nearby" address: `base` with the lowest `span_bits` bits re-rolled,
/// guaranteed different from `base`.
///
/// Used to synthesize the paper's §3.3 in-DNS / not-in-DNS address pairs
/// ("close in address space, often within a /123") and scanners probing
/// neighborhoods of discovered addresses.
pub fn nearby_addr<R: Rng + ?Sized>(rng: &mut R, base: u128, span_bits: u8) -> u128 {
    let span = span_bits.clamp(1, 64);
    let mask = (1u128 << span) - 1;
    loop {
        let cand = (base & !mask) | (rng.gen::<u128>() & mask);
        if cand != base {
            return cand;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(42)
    }

    #[test]
    fn random_in_prefix_stays_inside() {
        let mut r = rng();
        let p: Ipv6Prefix = "2001:db8::/32".parse().unwrap();
        for _ in 0..1000 {
            let a = random_in_prefix(&mut r, p);
            assert!(p.contains_addr(a));
        }
    }

    #[test]
    fn random_in_host_prefix_is_fixed() {
        let mut r = rng();
        let p: Ipv6Prefix = "2001:db8::1".parse().unwrap();
        assert_eq!(random_in_prefix(&mut r, p), p.bits());
    }

    #[test]
    fn random_in_default_prefix_covers_high_bits() {
        let mut r = rng();
        let seen_high = (0..100).any(|_| random_in_prefix(&mut r, Ipv6Prefix::DEFAULT) >> 127 == 1);
        assert!(seen_high);
    }

    #[test]
    fn vary_low_bits_preserves_high_bits() {
        let mut r = rng();
        let base = 0x2001_0db8_0000_0000_0000_0000_0000_1234u128;
        for n in [0u8, 1, 7, 9, 64] {
            let a = vary_low_bits(&mut r, base, n);
            let mask = if n == 0 { 0 } else { (1u128 << n) - 1 };
            assert_eq!(a & !mask, base & !mask, "n={n}");
        }
        assert_eq!(vary_low_bits(&mut r, base, 0), base);
    }

    #[test]
    fn vary_low_bits_actually_varies() {
        let mut r = rng();
        let base = 0u128;
        let distinct: std::collections::HashSet<u128> =
            (0..200).map(|_| vary_low_bits(&mut r, base, 9)).collect();
        assert!(distinct.len() > 50);
        assert!(distinct.iter().all(|&a| a < 512));
    }

    #[test]
    fn low_weight_iid_respects_bound() {
        let mut r = rng();
        for _ in 0..500 {
            let a = low_weight_iid(&mut r, 0xdead_beef, 8);
            let w = (a as u64).count_ones();
            assert!((1..=8).contains(&w));
            assert_eq!((a >> 64) as u64, 0xdead_beef);
        }
    }

    #[test]
    fn random_iid_mean_weight_near_32() {
        let mut r = rng();
        let total: u32 = (0..2000)
            .map(|_| (random_iid(&mut r, 1) as u64).count_ones())
            .sum();
        let mean = total as f64 / 2000.0;
        assert!((mean - 32.0).abs() < 1.0, "mean={mean}");
    }

    #[test]
    fn nearby_addr_differs_and_stays_near() {
        let mut r = rng();
        let base = 0x2001_0db8_0000_0000_0000_0000_0000_0001u128;
        for _ in 0..100 {
            let a = nearby_addr(&mut r, base, 5); // within a /123
            assert_ne!(a, base);
            assert_eq!(a >> 5, base >> 5);
        }
    }

    #[test]
    fn determinism_same_seed_same_stream() {
        let mut a = SmallRng::seed_from_u64(7);
        let mut b = SmallRng::seed_from_u64(7);
        let p: Ipv6Prefix = "2001:db8::/48".parse().unwrap();
        for _ in 0..50 {
            assert_eq!(random_in_prefix(&mut a, p), random_in_prefix(&mut b, p));
        }
    }
}
