//! IPv6 address and prefix primitives for scan detection.
//!
//! This crate provides the low-level building blocks used throughout the
//! `lumen6` workspace:
//!
//! - [`Ipv6Prefix`]: a compact, totally ordered IPv6 prefix type with the
//!   aggregation operations scan detection needs (truncate a source address
//!   to /64, /48, /32, ...; containment; supernet/subnet walks).
//! - [`trie::PrefixTrie`]: a binary radix trie for longest-prefix-match
//!   lookups (prefix → AS attribution, allocation lookup).
//! - [`hamming`]: Hamming-weight analysis of Interface IDs (the low 64 bits),
//!   used by the paper (§4, Fig. 7) to distinguish structured from random
//!   target generation.
//! - [`gen`]: deterministic, seedable address generators used by the scanner
//!   actor models (random-in-prefix, vary-low-bits, low-Hamming-weight IIDs).
//! - [`fxhash`]: the deterministic hasher behind the hot-path address sets
//!   and maps (the detector's state, the capture test's telescope lookup).
//!
//! All types are plain data: no I/O, no global state, no wall-clock access.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cast;
pub mod entropy;
pub mod fxhash;
pub mod gen;
pub mod hamming;
pub mod prefix;
pub mod trie;

pub use entropy::EntropyProfile;
pub use hamming::{hamming_weight_iid, HammingDistribution};
pub use prefix::{Ipv6Prefix, PrefixParseError};
pub use trie::PrefixTrie;

/// The Interface ID: the low 64 bits of an IPv6 address.
#[inline]
pub fn iid(addr: u128) -> u64 {
    addr as u64
}
