//! The [`Ipv6Prefix`] type: an IPv6 address prefix with the aggregation
//! semantics scan detection needs.
//!
//! Scan-source aggregation (paper §2.2) treats a traffic source either as an
//! individual 128-bit address or as the covering /64, /48, or /32 prefix.
//! `Ipv6Prefix` makes that a one-word operation: [`Ipv6Prefix::aggregate`]
//! truncates to a coarser length, and the type's `Ord`/`Hash` make prefixes
//! usable as map keys for per-source state.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::net::Ipv6Addr;
use std::str::FromStr;

/// An IPv6 prefix: a 128-bit address with the low `128 - len` bits zeroed.
///
/// Invariant: all bits below the prefix length are zero. Constructors enforce
/// this by masking, so two prefixes that cover the same range always compare
/// equal.
///
/// ```
/// use lumen6_addr::Ipv6Prefix;
/// let p: Ipv6Prefix = "2001:db8::/32".parse().unwrap();
/// let host = Ipv6Prefix::host("2001:db8:1:2:3:4:5:6".parse().unwrap());
/// assert!(p.contains(&host));
/// assert_eq!(host.aggregate(64).to_string(), "2001:db8:1:2::/64");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Ipv6Prefix {
    bits: u128,
    len: u8,
}

/// Error returned when parsing an [`Ipv6Prefix`] from text fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PrefixParseError {
    /// The address part did not parse as an IPv6 address.
    BadAddress(String),
    /// The length part did not parse, or exceeded 128.
    BadLength(String),
}

impl fmt::Display for PrefixParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PrefixParseError::BadAddress(s) => write!(f, "invalid IPv6 address: {s:?}"),
            PrefixParseError::BadLength(s) => write!(f, "invalid prefix length: {s:?}"),
        }
    }
}

impl std::error::Error for PrefixParseError {}

impl Ipv6Prefix {
    /// The all-zero /0 prefix covering the entire IPv6 space.
    pub const DEFAULT: Ipv6Prefix = Ipv6Prefix { bits: 0, len: 0 };

    /// Creates a prefix from raw bits and a length, masking off host bits.
    ///
    /// `len` is clamped to 128.
    #[inline]
    pub fn new(bits: u128, len: u8) -> Self {
        let len = len.min(128);
        Ipv6Prefix {
            bits: bits & mask(len),
            len,
        }
    }

    /// Creates a /128 prefix (a single host) from an address.
    #[inline]
    pub fn host(addr: Ipv6Addr) -> Self {
        Ipv6Prefix {
            bits: u128::from(addr),
            len: 128,
        }
    }

    /// Creates a /128 prefix from raw address bits.
    #[inline]
    pub fn host_bits(bits: u128) -> Self {
        Ipv6Prefix { bits, len: 128 }
    }

    /// Creates a prefix from an [`Ipv6Addr`] and a length, masking host bits.
    #[inline]
    pub fn from_addr(addr: Ipv6Addr, len: u8) -> Self {
        Self::new(u128::from(addr), len)
    }

    /// The raw 128-bit value (host bits are zero).
    #[inline]
    pub fn bits(&self) -> u128 {
        self.bits
    }

    /// The prefix length in bits (0..=128).
    #[inline]
    #[allow(clippy::len_without_is_empty)] // a prefix length, not a container size
    pub fn len(&self) -> u8 {
        self.len
    }

    /// The network address as an [`Ipv6Addr`].
    #[inline]
    pub fn addr(&self) -> Ipv6Addr {
        Ipv6Addr::from(self.bits)
    }

    /// Truncates this prefix to a coarser (or equal) length.
    ///
    /// This is the scan-source aggregation operation of the paper: a /128
    /// source aggregated to its covering /64 or /48. Aggregating to a length
    /// longer than `self.len()` returns `self` unchanged (a prefix cannot be
    /// made more specific without inventing bits).
    #[inline]
    pub fn aggregate(&self, len: u8) -> Self {
        if len >= self.len {
            *self
        } else {
            Ipv6Prefix::new(self.bits, len)
        }
    }

    /// Whether `other` is fully contained in `self` (including equality).
    #[inline]
    pub fn contains(&self, other: &Ipv6Prefix) -> bool {
        self.len <= other.len && (other.bits & mask(self.len)) == self.bits
    }

    /// Whether the given address falls inside this prefix.
    #[inline]
    pub fn contains_addr(&self, addr: u128) -> bool {
        (addr & mask(self.len)) == self.bits
    }

    /// The immediate parent (one bit shorter), or `None` for /0.
    #[inline]
    pub fn parent(&self) -> Option<Ipv6Prefix> {
        if self.len == 0 {
            None
        } else {
            Some(Ipv6Prefix::new(self.bits, self.len - 1))
        }
    }

    /// The sibling prefix: same parent, last prefix bit flipped. `None` for /0.
    #[inline]
    pub fn sibling(&self) -> Option<Ipv6Prefix> {
        if self.len == 0 {
            None
        } else {
            Some(Ipv6Prefix {
                bits: self.bits ^ (1u128 << (128 - self.len)),
                len: self.len,
            })
        }
    }

    /// The two children of this prefix (one bit longer), or `None` for /128.
    #[inline]
    pub fn children(&self) -> Option<(Ipv6Prefix, Ipv6Prefix)> {
        if self.len == 128 {
            None
        } else {
            let left = Ipv6Prefix {
                bits: self.bits,
                len: self.len + 1,
            };
            let right = Ipv6Prefix {
                bits: self.bits | (1u128 << (127 - self.len)),
                len: self.len + 1,
            };
            Some((left, right))
        }
    }

    /// The bit at position `i` (0 = most significant). Panics if `i >= 128`.
    #[inline]
    pub fn bit(&self, i: u8) -> bool {
        debug_assert!(i < 128);
        (self.bits >> (127 - i)) & 1 == 1
    }

    /// The first (lowest) address covered by this prefix.
    #[inline]
    pub fn first_addr(&self) -> u128 {
        self.bits
    }

    /// The last (highest) address covered by this prefix.
    #[inline]
    pub fn last_addr(&self) -> u128 {
        self.bits | !mask(self.len)
    }

    /// The number of /128 addresses covered, saturating at `u128::MAX` for /0.
    #[inline]
    pub fn size(&self) -> u128 {
        if self.len == 0 {
            u128::MAX
        } else {
            1u128 << (128 - self.len)
        }
    }

    /// Length of the longest common prefix of two prefixes, capped at the
    /// shorter of the two lengths.
    pub fn common_prefix_len(&self, other: &Ipv6Prefix) -> u8 {
        let diff = self.bits ^ other.bits;
        let common = diff.leading_zeros().min(128) as u8;
        common.min(self.len).min(other.len)
    }

    /// The smallest prefix that covers both inputs.
    pub fn merge(&self, other: &Ipv6Prefix) -> Ipv6Prefix {
        let len = self.common_prefix_len(other);
        Ipv6Prefix::new(self.bits, len)
    }

    /// The n-th subnet of the given length within this prefix.
    ///
    /// For example, `"2001:db8::/32".nth_subnet(48, 5)` is the sixth /48
    /// inside the /32. Returns `None` if `sub_len < self.len()` or the index
    /// is out of range.
    pub fn nth_subnet(&self, sub_len: u8, n: u128) -> Option<Ipv6Prefix> {
        if sub_len < self.len || sub_len > 128 {
            return None;
        }
        let width = sub_len - self.len;
        if width < 128 && n >= (1u128 << width) {
            return None;
        }
        let bits = self.bits | (n << (128 - sub_len));
        Some(Ipv6Prefix::new(bits, sub_len))
    }
}

/// A bit mask with the top `len` bits set.
#[inline]
fn mask(len: u8) -> u128 {
    if len == 0 {
        0
    } else if len >= 128 {
        u128::MAX
    } else {
        !(u128::MAX >> len)
    }
}

impl fmt::Display for Ipv6Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.len == 128 {
            write!(f, "{}", self.addr())
        } else {
            write!(f, "{}/{}", self.addr(), self.len)
        }
    }
}

impl fmt::Debug for Ipv6Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.addr(), self.len)
    }
}

impl FromStr for Ipv6Prefix {
    type Err = PrefixParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.split_once('/') {
            Some((addr, len)) => {
                let addr: Ipv6Addr = addr
                    .parse()
                    .map_err(|_| PrefixParseError::BadAddress(addr.to_string()))?;
                let len: u8 = len
                    .parse()
                    .map_err(|_| PrefixParseError::BadLength(len.to_string()))?;
                if len > 128 {
                    return Err(PrefixParseError::BadLength(len.to_string()));
                }
                Ok(Ipv6Prefix::from_addr(addr, len))
            }
            None => {
                let addr: Ipv6Addr = s
                    .parse()
                    .map_err(|_| PrefixParseError::BadAddress(s.to_string()))?;
                Ok(Ipv6Prefix::host(addr))
            }
        }
    }
}

impl From<Ipv6Addr> for Ipv6Prefix {
    fn from(addr: Ipv6Addr) -> Self {
        Ipv6Prefix::host(addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Ipv6Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn parse_and_display_roundtrip() {
        for s in ["2001:db8::/32", "::/0", "2001:db8:1:2::/64", "ff00::/8"] {
            assert_eq!(p(s).to_string(), s);
        }
    }

    #[test]
    fn host_display_omits_len() {
        assert_eq!(p("2001:db8::1").to_string(), "2001:db8::1");
        assert_eq!(p("2001:db8::1").len(), 128);
    }

    #[test]
    fn constructor_masks_host_bits() {
        let a = Ipv6Prefix::new(
            u128::from_str_radix("20010db8000000010000000000000001", 16).unwrap(),
            32,
        );
        assert_eq!(a, p("2001:db8::/32"));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(matches!(
            "zzz/64".parse::<Ipv6Prefix>(),
            Err(PrefixParseError::BadAddress(_))
        ));
        assert!(matches!(
            "2001:db8::/129".parse::<Ipv6Prefix>(),
            Err(PrefixParseError::BadLength(_))
        ));
        assert!(matches!(
            "2001:db8::/x".parse::<Ipv6Prefix>(),
            Err(PrefixParseError::BadLength(_))
        ));
    }

    #[test]
    fn aggregate_truncates() {
        let h = p("2001:db8:aaaa:bbbb:cccc:dddd:eeee:ffff");
        assert_eq!(h.aggregate(64), p("2001:db8:aaaa:bbbb::/64"));
        assert_eq!(h.aggregate(48), p("2001:db8:aaaa::/48"));
        assert_eq!(h.aggregate(32), p("2001:db8::/32"));
        assert_eq!(h.aggregate(0), Ipv6Prefix::DEFAULT);
    }

    #[test]
    fn aggregate_to_finer_is_identity() {
        let x = p("2001:db8::/32");
        assert_eq!(x.aggregate(64), x);
        assert_eq!(x.aggregate(32), x);
    }

    #[test]
    fn containment() {
        assert!(p("2001:db8::/32").contains(&p("2001:db8:1::/48")));
        assert!(p("2001:db8::/32").contains(&p("2001:db8::/32")));
        assert!(!p("2001:db8:1::/48").contains(&p("2001:db8::/32")));
        assert!(!p("2001:db8::/32").contains(&p("2001:db9::/32")));
        assert!(Ipv6Prefix::DEFAULT.contains(&p("::1")));
    }

    #[test]
    fn contains_addr_boundaries() {
        let x = p("2001:db8::/32");
        assert!(x.contains_addr(x.first_addr()));
        assert!(x.contains_addr(x.last_addr()));
        assert!(!x.contains_addr(x.last_addr().wrapping_add(1)));
        assert!(!x.contains_addr(x.first_addr().wrapping_sub(1)));
    }

    #[test]
    fn parent_and_children() {
        let x = p("2001:db8::/32");
        let (l, r) = x.children().unwrap();
        assert_eq!(l.parent().unwrap(), x);
        assert_eq!(r.parent().unwrap(), x);
        assert_ne!(l, r);
        assert!(x.contains(&l) && x.contains(&r));
        assert_eq!(l.sibling().unwrap(), r);
        assert_eq!(r.sibling().unwrap(), l);
        assert!(Ipv6Prefix::DEFAULT.parent().is_none());
        assert!(p("::1").children().is_none());
    }

    #[test]
    fn size_and_range() {
        assert_eq!(p("2001:db8::/127").size(), 2);
        assert_eq!(p("::1").size(), 1);
        assert_eq!(p("2001:db8::/64").size(), 1u128 << 64);
        assert_eq!(Ipv6Prefix::DEFAULT.size(), u128::MAX);
        let x = p("2001:db8::/112");
        assert_eq!(x.last_addr() - x.first_addr() + 1, x.size());
    }

    #[test]
    fn merge_finds_common_cover() {
        let a = p("2001:db8:0:1::/64");
        let b = p("2001:db8:0:2::/64");
        let m = a.merge(&b);
        assert!(m.contains(&a) && m.contains(&b));
        assert_eq!(m, p("2001:db8::/62"));
    }

    #[test]
    fn nth_subnet_enumerates() {
        let x = p("2001:db8::/32");
        assert_eq!(x.nth_subnet(48, 0).unwrap(), p("2001:db8::/48"));
        assert_eq!(x.nth_subnet(48, 1).unwrap(), p("2001:db8:1::/48"));
        assert_eq!(x.nth_subnet(48, 0xffff).unwrap(), p("2001:db8:ffff::/48"));
        assert!(x.nth_subnet(48, 0x10000).is_none());
        assert!(x.nth_subnet(16, 0).is_none());
    }

    #[test]
    fn ordering_is_by_bits_then_len() {
        let mut v = vec![p("2001:db8:1::/48"), p("2001:db8::/32"), p("::/0")];
        v.sort();
        assert_eq!(v, vec![p("::/0"), p("2001:db8::/32"), p("2001:db8:1::/48")]);
    }

    #[test]
    fn bit_access() {
        let x = p("8000::/1");
        assert!(x.bit(0));
        let y = p("4000::/2");
        assert!(!y.bit(0));
        assert!(y.bit(1));
    }
}
