//! Internet number-resource model: AS registry, prefix allocations, and a
//! longest-prefix-match routing table.
//!
//! The paper attributes scan sources to origin networks via BGP/WHOIS
//! lookups (§3.2, Table 2) and reasons about *allocation sizes*: a /32 is
//! the typical RIR allocation for an entire ISP, a /48 the smallest
//! Internet-routable entity, and some cloud providers hand customers
//! prefixes more specific than /96. This crate models exactly that:
//!
//! - [`AsInfo`] / [`AsType`]: an autonomous system with a coarse type and
//!   country, as anonymized in the paper's Table 2 ("Datacenter (CN)").
//! - [`InternetRegistry`]: registered ASes plus announced prefixes, with
//!   [`InternetRegistry::origin_asn`] doing longest-prefix-match attribution
//!   over a binary trie.
//! - [`alloc_len`]: RIR-conventional allocation sizes per AS type.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use lumen6_addr::{Ipv6Prefix, PrefixTrie};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// Coarse network type, following the anonymized labels of the paper's
/// Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum AsType {
    /// Pure datacenter / server-hosting network.
    Datacenter,
    /// Public cloud provider.
    Cloud,
    /// Mixed cloud and transit network.
    CloudTransit,
    /// Global or regional transit provider.
    Transit,
    /// Residential / access ISP.
    Isp,
    /// Research network.
    Research,
    /// University network.
    University,
    /// Cybersecurity company.
    Cybersecurity,
    /// Content distribution network (the vantage point's networks).
    Cdn,
    /// Anything else.
    Enterprise,
}

impl AsType {
    /// Label matching the paper's Table 2 style.
    pub fn label(&self) -> &'static str {
        match self {
            AsType::Datacenter => "Datacenter",
            AsType::Cloud => "Cloud",
            AsType::CloudTransit => "Cloud/Transit",
            AsType::Transit => "Transit",
            AsType::Isp => "ISP",
            AsType::Research => "Research",
            AsType::University => "University",
            AsType::Cybersecurity => "Cybersecurity",
            AsType::Cdn => "CDN",
            AsType::Enterprise => "Enterprise",
        }
    }

    /// Whether this type exclusively connects residential end users — the
    /// paper notes no such network appears in its top-20 scan sources.
    pub fn is_residential(&self) -> bool {
        matches!(self, AsType::Isp)
    }
}

impl fmt::Display for AsType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One autonomous system.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AsInfo {
    /// AS number.
    pub asn: u32,
    /// Coarse network type.
    pub ty: AsType,
    /// ISO-ish country / region label ("CN", "US/global", "DE", ...).
    pub country: String,
    /// Human-readable name (synthetic).
    pub name: String,
}

impl AsInfo {
    /// The paper's anonymized descriptor, e.g. `Datacenter (CN)`.
    pub fn descriptor(&self) -> String {
        format!("{} ({})", self.ty.label(), self.country)
    }
}

/// The RIR-conventional allocation prefix length for a network type.
///
/// ARIN and RIPE allocate /32 to ISPs/transit by default (paper §3.2 and
/// its reference \[4\]); large clouds receive shorter prefixes; end sites
/// get /48.
pub fn alloc_len(ty: AsType) -> u8 {
    match ty {
        AsType::Cloud | AsType::CloudTransit => 29,
        AsType::Isp | AsType::Transit | AsType::Datacenter | AsType::Cdn => 32,
        AsType::Research | AsType::University => 32,
        AsType::Cybersecurity | AsType::Enterprise => 48,
    }
}

/// AS registry plus routing table: the attribution substrate.
///
/// ```
/// use lumen6_netmodel::{InternetRegistry, AsType};
/// let mut reg = InternetRegistry::new();
/// reg.register(64500, AsType::Isp, "DE", "example-isp");
/// reg.announce("2001:db8::/32".parse().unwrap(), 64500).unwrap();
/// let addr: u128 = u128::from("2001:db8::1".parse::<std::net::Ipv6Addr>().unwrap());
/// assert_eq!(reg.origin_asn(addr), Some(64500));
/// ```
#[derive(Debug, Clone, Default)]
pub struct InternetRegistry {
    ases: BTreeMap<u32, AsInfo>,
    rib: PrefixTrie<u32>,
    announcements: Vec<(Ipv6Prefix, u32)>,
}

/// Errors from registry operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegistryError {
    /// Announced origin AS is not registered.
    UnknownAs(u32),
    /// The exact prefix is already announced (by the contained AS).
    DuplicateAnnouncement(Ipv6Prefix, u32),
    /// An allocation length outside the layout's supported 12..=120 range.
    AllocationLengthOutOfRange(u8),
    /// The slot index does not fit the allocation's prefix length.
    SlotOverflow {
        /// Requested slot.
        slot: u32,
        /// Allocation prefix length the slot must fit under.
        len: u8,
    },
}

impl fmt::Display for RegistryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegistryError::UnknownAs(asn) => write!(f, "AS{asn} is not registered"),
            RegistryError::DuplicateAnnouncement(p, asn) => {
                write!(f, "prefix {p} already announced by AS{asn}")
            }
            RegistryError::AllocationLengthOutOfRange(len) => {
                write!(
                    f,
                    "allocation length /{len} outside the supported 12..=120 range"
                )
            }
            RegistryError::SlotOverflow { slot, len } => {
                write!(f, "slot {slot} does not fit a /{len} allocation")
            }
        }
    }
}

impl std::error::Error for RegistryError {}

impl InternetRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers an AS. Re-registering an ASN overwrites its metadata.
    pub fn register(&mut self, asn: u32, ty: AsType, country: &str, name: &str) -> &AsInfo {
        self.ases.insert(
            asn,
            AsInfo {
                asn,
                ty,
                country: country.to_string(),
                name: name.to_string(),
            },
        );
        &self.ases[&asn]
    }

    /// Announces a prefix with the given origin AS.
    pub fn announce(&mut self, prefix: Ipv6Prefix, asn: u32) -> Result<(), RegistryError> {
        if !self.ases.contains_key(&asn) {
            return Err(RegistryError::UnknownAs(asn));
        }
        if let Some(existing) = self.rib.get(&prefix) {
            return Err(RegistryError::DuplicateAnnouncement(prefix, *existing));
        }
        self.rib.insert(prefix, asn);
        self.announcements.push((prefix, asn));
        Ok(())
    }

    /// Registers an AS and announces its RIR-conventional allocation in one
    /// step, returning the allocated prefix. `slot` disambiguates multiple
    /// allocations: it is placed in the bits just below the 2000::/12 space.
    ///
    /// Fails with a typed error (never panics) when the slot does not fit
    /// the allocation length, or when an equal `(length, slot)` allocation
    /// was already announced — e.g. the same slot reused for two ASes of
    /// the same type.
    pub fn register_with_allocation(
        &mut self,
        asn: u32,
        ty: AsType,
        country: &str,
        name: &str,
        slot: u32,
    ) -> Result<Ipv6Prefix, RegistryError> {
        let len = alloc_len(ty);
        // Deterministic, collision-free layout inside 2000::/3: bits 3..11
        // carry the allocation *length*, so allocations of different
        // lengths live in disjoint sub-spaces, and the slot occupies the
        // lowest prefix bits, so equal-length allocations with distinct
        // slots never overlap either.
        if !(12..=120).contains(&len) {
            return Err(RegistryError::AllocationLengthOutOfRange(len));
        }
        if u64::from(slot) >= (1u64 << (len - 11)) {
            return Err(RegistryError::SlotOverflow { slot, len });
        }
        self.register(asn, ty, country, name);
        let bits =
            (1u128 << 125) | (u128::from(len) << 117) | ((slot as u128) << (128 - u32::from(len)));
        let prefix = Ipv6Prefix::new(bits, len);
        self.announce(prefix, asn)?;
        Ok(prefix)
    }

    /// Longest-prefix-match origin lookup.
    pub fn origin_asn(&self, addr: u128) -> Option<u32> {
        self.rib.longest_match(addr).map(|(_, asn)| *asn)
    }

    /// AS metadata.
    pub fn as_info(&self, asn: u32) -> Option<&AsInfo> {
        self.ases.get(&asn)
    }

    /// All registered ASes in ASN order.
    pub fn ases(&self) -> impl Iterator<Item = &AsInfo> {
        self.ases.values()
    }

    /// All announcements in insertion order.
    pub fn announcements(&self) -> &[(Ipv6Prefix, u32)] {
        &self.announcements
    }

    /// Number of distinct ASes originating the given addresses — the "ASes"
    /// column of the paper's Table 1. Unattributable addresses are counted
    /// under a synthetic "unknown" bucket only if `count_unknown` is set.
    pub fn distinct_origin_ases<I: IntoIterator<Item = u128>>(
        &self,
        addrs: I,
        count_unknown: bool,
    ) -> usize {
        use std::collections::HashSet;
        let mut set: HashSet<Option<u32>> = HashSet::new();
        for a in addrs {
            let asn = self.origin_asn(a);
            if asn.is_some() || count_unknown {
                set.insert(asn);
            }
        }
        set.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Ipv6Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn register_and_lookup() {
        let mut reg = InternetRegistry::new();
        reg.register(64500, AsType::Isp, "DE", "eyeball");
        reg.announce(p("2001:db8::/32"), 64500).unwrap();
        assert_eq!(reg.origin_asn(p("2001:db8::1").bits()), Some(64500));
        assert_eq!(reg.origin_asn(p("2001:db9::1").bits()), None);
    }

    #[test]
    fn announce_requires_registration() {
        let mut reg = InternetRegistry::new();
        assert_eq!(
            reg.announce(p("2001:db8::/32"), 1),
            Err(RegistryError::UnknownAs(1))
        );
    }

    #[test]
    fn duplicate_announcement_rejected() {
        let mut reg = InternetRegistry::new();
        reg.register(1, AsType::Transit, "US", "t");
        reg.announce(p("2001:db8::/32"), 1).unwrap();
        assert_eq!(
            reg.announce(p("2001:db8::/32"), 1),
            Err(RegistryError::DuplicateAnnouncement(p("2001:db8::/32"), 1))
        );
    }

    #[test]
    fn more_specific_announcement_wins() {
        // A customer /48 carved out of a provider /32 attributes to the
        // customer — the AS#18 situation (a /32 announced and used by one
        // entity, but sub-prefixes could be announced separately).
        let mut reg = InternetRegistry::new();
        reg.register(1, AsType::Transit, "DE", "provider");
        reg.register(2, AsType::Cybersecurity, "DE", "customer");
        reg.announce(p("2001:db8::/32"), 1).unwrap();
        reg.announce(p("2001:db8:42::/48"), 2).unwrap();
        assert_eq!(reg.origin_asn(p("2001:db8:42::1").bits()), Some(2));
        assert_eq!(reg.origin_asn(p("2001:db8:43::1").bits()), Some(1));
    }

    #[test]
    fn allocation_sizes_follow_rir_conventions() {
        assert_eq!(alloc_len(AsType::Isp), 32);
        assert_eq!(alloc_len(AsType::Transit), 32);
        assert_eq!(alloc_len(AsType::Enterprise), 48);
        assert!(alloc_len(AsType::Cloud) < 32);
    }

    #[test]
    fn register_with_allocation_is_deterministic_and_disjoint() {
        let mut reg = InternetRegistry::new();
        let a = reg
            .register_with_allocation(10, AsType::Isp, "RU", "a", 1)
            .unwrap();
        let b = reg
            .register_with_allocation(11, AsType::Isp, "RU", "b", 2)
            .unwrap();
        assert_eq!(a.len(), 32);
        assert_ne!(a, b);
        assert!(!a.contains(&b) && !b.contains(&a));
        assert_eq!(reg.origin_asn(a.first_addr() + 5), Some(10));
        assert_eq!(reg.origin_asn(b.first_addr() + 5), Some(11));
    }

    #[test]
    fn allocation_errors_are_typed_not_panics() {
        let mut reg = InternetRegistry::new();
        // Slot too large for an enterprise /48 layout (slot must fit
        // len - 11 = 37 bits — use a /32 ISP whose budget is 21 bits).
        let e = reg.register_with_allocation(1, AsType::Isp, "DE", "a", u32::MAX);
        assert_eq!(
            e,
            Err(RegistryError::SlotOverflow {
                slot: u32::MAX,
                len: 32
            })
        );
        // Reusing a (type, slot) pair collides on the same prefix and
        // surfaces as a duplicate announcement, not a panic.
        let p = reg
            .register_with_allocation(2, AsType::Isp, "DE", "b", 7)
            .unwrap();
        let e = reg.register_with_allocation(3, AsType::Isp, "DE", "c", 7);
        assert_eq!(e, Err(RegistryError::DuplicateAnnouncement(p, 2)));
    }

    #[test]
    fn descriptor_matches_paper_style() {
        let info = AsInfo {
            asn: 1,
            ty: AsType::Datacenter,
            country: "CN".into(),
            name: "x".into(),
        };
        assert_eq!(info.descriptor(), "Datacenter (CN)");
        let info2 = AsInfo {
            asn: 2,
            ty: AsType::CloudTransit,
            country: "DE".into(),
            name: "y".into(),
        };
        assert_eq!(info2.descriptor(), "Cloud/Transit (DE)");
    }

    #[test]
    fn distinct_origin_ases_counts() {
        let mut reg = InternetRegistry::new();
        reg.register(1, AsType::Isp, "VN", "a");
        reg.register(2, AsType::Cloud, "CN", "b");
        reg.announce(p("2001:db8::/32"), 1).unwrap();
        reg.announce(p("2001:db9::/32"), 2).unwrap();
        let addrs = vec![
            p("2001:db8::1").bits(),
            p("2001:db8::2").bits(),
            p("2001:db9::1").bits(),
            p("2001:dba::1").bits(), // unattributable
        ];
        assert_eq!(reg.distinct_origin_ases(addrs.iter().copied(), false), 2);
        assert_eq!(reg.distinct_origin_ases(addrs, true), 3);
    }

    #[test]
    fn residential_flag() {
        assert!(AsType::Isp.is_residential());
        assert!(!AsType::Cloud.is_residential());
        assert!(!AsType::Datacenter.is_residential());
    }
}
