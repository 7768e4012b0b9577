//! An operational blocklist on top of adaptive alerts.
//!
//! The paper warns (§5) that scan detection feeding blocklists is where
//! aggregation mistakes turn into collateral damage: block a /32 because a
//! scanner spread across it and an entire provider's customers go dark.
//! This module is the enforcement half of [`crate::adaptive`]:
//!
//! - alerts are admitted only if their collateral estimate is acceptable;
//! - an alert an equal or coarser entry already covers is not admitted
//!   again; coverage is a longest-prefix match over a binary trie;
//! - every decision is returned with its reason, so it is auditable.

use crate::adaptive::Alert;
use lumen6_addr::{Ipv6Prefix, PrefixTrie};
use serde::{Deserialize, Serialize};

/// Admission policy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BlocklistConfig {
    /// Maximum tolerated collateral (low-activity sources inside the
    /// prefix) per alert.
    pub max_collateral: u64,
    /// Minimum alert packet volume to bother blocking.
    pub min_packets: u64,
    /// Coarsest prefix the operator is willing to block (e.g. 32 — never
    /// block anything shorter than a /32).
    pub min_prefix_len: u8,
}

impl Default for BlocklistConfig {
    fn default() -> Self {
        BlocklistConfig {
            max_collateral: 8,
            min_packets: 100,
            min_prefix_len: 32,
        }
    }
}

/// Why an alert was not admitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RejectReason {
    /// Estimated collateral exceeds the policy bound.
    TooMuchCollateral,
    /// Alert volume below the policy floor.
    TooFewPackets,
    /// Prefix coarser than the operator allows.
    TooCoarse,
    /// Already covered by an existing (equal or coarser) entry.
    AlreadyCovered,
}

/// Outcome of offering one alert to the blocklist.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Decision {
    /// Entry added (or confirmed).
    Blocked(Ipv6Prefix),
    /// Rejected with a reason.
    Rejected(Ipv6Prefix, RejectReason),
}

/// The blocklist.
#[derive(Debug, Clone)]
pub struct Blocklist {
    config: BlocklistConfig,
    trie: PrefixTrie<()>,
}

impl Blocklist {
    /// Creates an empty blocklist.
    pub fn new(config: BlocklistConfig) -> Blocklist {
        Blocklist {
            config,
            trie: PrefixTrie::new(),
        }
    }

    /// Offers a batch of alerts; returns one decision per alert, in order.
    pub fn ingest(&mut self, alerts: &[Alert]) -> Vec<Decision> {
        alerts.iter().map(|a| self.offer(a)).collect()
    }

    fn offer(&mut self, alert: &Alert) -> Decision {
        let p = alert.prefix;
        if p.len() < self.config.min_prefix_len {
            return Decision::Rejected(p, RejectReason::TooCoarse);
        }
        if alert.packets < self.config.min_packets {
            return Decision::Rejected(p, RejectReason::TooFewPackets);
        }
        if alert.collateral_srcs > self.config.max_collateral {
            return Decision::Rejected(p, RejectReason::TooMuchCollateral);
        }
        // Confirm if exactly present; reject if a coarser cover exists.
        if self.trie.get(&p).is_some() {
            return Decision::Blocked(p);
        }
        if let Some((cover, ())) = self.trie.longest_match(p.bits()) {
            if cover.len() <= p.len() && cover.contains(&p) {
                return Decision::Rejected(p, RejectReason::AlreadyCovered);
            }
        }
        self.trie.insert(p, ());
        Decision::Blocked(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn alert(prefix: &str, packets: u64, collateral: u64) -> Alert {
        Alert {
            prefix: prefix.parse().unwrap(),
            packets,
            distinct_dsts: packets,
            contributing_srcs: 1,
            collateral_srcs: collateral,
            subsumed: vec![],
        }
    }

    fn bl() -> Blocklist {
        Blocklist::new(BlocklistConfig::default())
    }

    #[test]
    fn admits_clean_alert_and_covers_finer_alerts_inside_it() {
        let mut b = bl();
        let d = b.ingest(&[alert("2001:db8::/48", 5_000, 0)]);
        assert_eq!(d, vec![Decision::Blocked("2001:db8::/48".parse().unwrap())]);
        let d = b.ingest(&[
            alert("2001:db8:0:1234::/64", 5_000, 0),
            alert("2001:db9::/64", 5_000, 0),
        ]);
        assert!(matches!(
            d[0],
            Decision::Rejected(_, RejectReason::AlreadyCovered)
        ));
        assert!(matches!(d[1], Decision::Blocked(_)));
    }

    #[test]
    fn collateral_guard_rejects_risky_blocks() {
        let mut b = bl();
        let d = b.ingest(&[alert("2001:db8::/64", 10_000, 500)]);
        assert_eq!(
            d,
            vec![Decision::Rejected(
                "2001:db8::/64".parse().unwrap(),
                RejectReason::TooMuchCollateral
            )]
        );
        // The rejected /64 was not entered, so nothing covers a /96 in it.
        let d = b.ingest(&[alert("2001:db8::/96", 10_000, 0)]);
        assert!(matches!(d[0], Decision::Blocked(_)));
    }

    #[test]
    fn volume_floor_and_coarseness_guard() {
        let mut b = bl();
        let d = b.ingest(&[
            alert("2001:db8::/48", 10, 0),
            alert("2001::/16", 1_000_000, 0),
        ]);
        assert!(matches!(
            d[0],
            Decision::Rejected(_, RejectReason::TooFewPackets)
        ));
        assert!(matches!(
            d[1],
            Decision::Rejected(_, RejectReason::TooCoarse)
        ));
    }

    #[test]
    fn readmission_confirms_the_entry() {
        let mut b = bl();
        let a = alert("2001:db8::/48", 1_000, 0);
        b.ingest(std::slice::from_ref(&a));
        assert_eq!(
            b.ingest(&[a]),
            vec![Decision::Blocked("2001:db8::/48".parse().unwrap())]
        );
    }

    #[test]
    fn finer_alert_covered_by_coarser_entry() {
        let mut b = bl();
        b.ingest(&[alert("2001:db8::/32", 100_000, 0)]);
        let d = b.ingest(&[alert("2001:db8:1::/48", 5_000, 0)]);
        assert!(matches!(
            d[0],
            Decision::Rejected(_, RejectReason::AlreadyCovered)
        ));
    }
}
