//! Adaptive-aggregation scan alerting — the IDS sketched in the paper's
//! discussion (§5), built out.
//!
//! Fixed-mask detection faces a dilemma the paper demonstrates twice over:
//! aggregate too little and a scanner spreading its sources across a /32
//! (AS#18) stays invisible; aggregate too much and a multi-tenant cloud
//! whose customers get sub-/96 allocations (AS#6) is conflated into one
//! "source", so blocklisting it shoots innocent bystanders.
//!
//! [`AdaptiveIds::analyze`] resolves a traffic window bottom-up:
//!
//! 1. Per-/128 statistics are computed once, a row at a time, so a stream
//!    need not be resident ([`AdaptiveIds::analyze_counted`]).
//! 2. Walking levels from most specific to coarsest, a prefix raises an
//!    alert if its **residual** traffic — packets from descendants *not*
//!    already covered by a finer alert — meets the scan definition. A lone
//!    heavy /128 therefore alerts as a /128, and never drags its /64
//!    neighbors with it; a /32-spread scanner alerts as the /32 because only
//!    the union of its thousands of quiet sources crosses the threshold.
//! 3. Finer alerts contained in a coarser alert are subsumed: the /32-wide
//!    actor is reported once, with its qualifying /48s listed, matching the
//!    paper's attribution of the whole /32 to one entity.
//!
//! Every alert carries a **collateral estimate**: the number of distinct
//! low-activity /128 sources inside the alert prefix. Blocking an alerted
//! prefix with a high estimate risks exactly the collateral damage the
//! paper warns about. (For a genuinely spread scanner the low-activity
//! sources are usually the scanner's own addresses, so the estimate is an
//! upper bound — an operator signal, not ground truth.)

use crate::aggregate::AggLevel;
use lumen6_addr::Ipv6Prefix;
use lumen6_trace::PacketRecord;
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};

/// Configuration of the adaptive analyzer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdaptiveConfig {
    /// Aggregation levels to consider, most specific first. Defaults to
    /// /128, /64, /48, /32.
    pub levels: Vec<AggLevel>,
    /// Scan definition: minimum distinct destinations.
    pub min_dsts: u64,
    /// Sources with at most this many distinct destinations count as
    /// low-activity for the collateral estimate.
    pub benign_dst_limit: u64,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig {
            levels: vec![AggLevel::L128, AggLevel::L64, AggLevel::L48, AggLevel::L32],
            min_dsts: 100,
            benign_dst_limit: 3,
        }
    }
}

/// One adaptive alert: a prefix whose residual traffic meets the scan
/// definition, at the most specific level where that happens.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Alert {
    /// The alerted source prefix.
    pub prefix: Ipv6Prefix,
    /// Packets attributed to this alert (residual at emission time).
    pub packets: u64,
    /// Distinct destinations in the residual traffic.
    pub distinct_dsts: u64,
    /// Distinct /128 sources contributing to the residual traffic.
    pub contributing_srcs: u64,
    /// Low-activity /128 sources inside the prefix: the collateral-damage
    /// upper bound if this prefix were blocklisted.
    pub collateral_srcs: u64,
    /// Finer-level alerts subsumed into this one (empty for leaf alerts).
    pub subsumed: Vec<Ipv6Prefix>,
}

/// The adaptive-aggregation analyzer. Stateless; call
/// [`AdaptiveIds::analyze_counted`] per traffic window.
///
/// ```
/// use lumen6_detect::adaptive::{AdaptiveIds, AdaptiveConfig};
/// use lumen6_trace::PacketRecord;
///
/// // 200 one-packet sources spread across one /64: invisible per /128,
/// // one actor at /64.
/// let window = (0..200u64).map(|i| {
///     let src = (0x2001u128 << 112) | i as u128;
///     (PacketRecord::tcp(i, src, 0xa000 + i as u128, 1, 22, 60), 1)
/// });
/// let alerts = AdaptiveIds::new(AdaptiveConfig::default()).analyze_counted(window);
/// assert_eq!(alerts.len(), 1);
/// assert_eq!(alerts[0].prefix.len(), 64);
/// assert_eq!(alerts[0].contributing_srcs, 200);
/// ```
#[derive(Debug, Clone, Default)]
pub struct AdaptiveIds {
    config: AdaptiveConfig,
}

#[derive(Debug, Default)]
struct HostStat {
    dsts: HashSet<u128>,
    packets: u64,
}

impl AdaptiveIds {
    /// Creates an analyzer.
    pub fn new(config: AdaptiveConfig) -> Self {
        AdaptiveIds { config }
    }

    /// Analyzes one window of counted rows — a row of count `n` weighs as
    /// `n` copies — and returns the final alert set, sorted by packet count
    /// descending. Holds one entry per distinct (source, destination),
    /// however many packets carry it.
    pub fn analyze_counted(
        &self,
        rows: impl IntoIterator<Item = (PacketRecord, u32)>,
    ) -> Vec<Alert> {
        // 1. Per-/128 stats.
        let mut hosts: HashMap<u128, HostStat> = HashMap::new();
        for (r, n) in rows {
            let h = hosts.entry(r.src).or_default();
            h.dsts.insert(r.dst);
            h.packets += u64::from(n);
        }

        let mut levels = self.config.levels.clone();
        levels.sort_by_key(|l| std::cmp::Reverse(l.len())); // most specific first

        // Hosts already covered by a finer-level alert.
        let mut covered: HashSet<u128> = HashSet::new();
        let mut alerts: Vec<Alert> = Vec::new();

        for lvl in levels {
            // Group hosts by their prefix at this level.
            let mut groups: HashMap<Ipv6Prefix, Vec<u128>> = HashMap::new();
            for &host in hosts.keys() {
                groups.entry(lvl.source_of(host)).or_default().push(host);
            }
            for (prefix, members) in groups {
                let residual: Vec<u128> = members
                    .iter()
                    .copied()
                    .filter(|h| !covered.contains(h))
                    .collect();
                if residual.is_empty() {
                    continue;
                }
                // Union of residual destinations.
                let mut dsts: HashSet<u128> = HashSet::new();
                let mut packets = 0u64;
                for h in &residual {
                    let stat = &hosts[h];
                    dsts.extend(stat.dsts.iter().copied());
                    packets += stat.packets;
                }
                if (dsts.len() as u64) < self.config.min_dsts {
                    continue;
                }
                // Collateral: low-activity hosts anywhere inside the prefix.
                let collateral = members
                    .iter()
                    .filter(|h| hosts[*h].dsts.len() as u64 <= self.config.benign_dst_limit)
                    .count() as u64;

                // Subsume finer alerts contained in this prefix.
                let mut subsumed: Vec<Ipv6Prefix> = Vec::new();
                let mut sub_packets = 0u64;
                let mut sub_dsts = 0u64;
                alerts.retain(|a| {
                    if prefix.contains(&a.prefix) {
                        subsumed.push(a.prefix);
                        subsumed.extend(a.subsumed.iter().copied());
                        sub_packets += a.packets;
                        sub_dsts += a.distinct_dsts;
                        false
                    } else {
                        true
                    }
                });
                subsumed.sort();

                for h in &residual {
                    covered.insert(*h);
                }
                alerts.push(Alert {
                    prefix,
                    packets: packets + sub_packets,
                    // Destination overlap between residual and subsumed
                    // alerts is possible; the sum is an upper bound kept for
                    // interpretability (each part was individually exact).
                    distinct_dsts: dsts.len() as u64 + sub_dsts,
                    contributing_srcs: residual.len() as u64,
                    collateral_srcs: collateral,
                    subsumed,
                });
            }
        }

        alerts.sort_by(|a, b| b.packets.cmp(&a.packets).then(a.prefix.cmp(&b.prefix)));
        alerts
    }

    /// The active configuration.
    pub fn config(&self) -> &AdaptiveConfig {
        &self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The alerts of the default analyzer over `recs`, one copy each.
    fn alerts(recs: &[PacketRecord]) -> Vec<Alert> {
        AdaptiveIds::new(AdaptiveConfig::default()).analyze_counted(recs.iter().map(|&r| (r, 1)))
    }

    /// One heavy /128 scanning 150 destinations.
    fn heavy_host(src: u128, n: u64) -> Vec<PacketRecord> {
        (0..n)
            .map(|i| PacketRecord::tcp(i, src, 0xd000 + i as u128, 1, 22, 60))
            .collect()
    }

    #[test]
    fn lone_heavy_host_alerts_at_slash_128() {
        let recs = heavy_host(42, 150);
        let alerts = alerts(&recs);
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].prefix.len(), 128);
        assert_eq!(alerts[0].distinct_dsts, 150);
        assert!(alerts[0].subsumed.is_empty());
        assert_eq!(alerts[0].collateral_srcs, 0);
    }

    #[test]
    fn spread_scanner_alerts_at_coarse_level() {
        // AS#18-style: 500 /128 sources spread across one /32 (varying /48s
        // and /64s), each sending ONE packet to a distinct destination.
        let slash32: u128 = 0x2001_0db8_0000_0000_0000_0000_0000_0000;
        let recs: Vec<PacketRecord> = (0..500u64)
            .map(|i| {
                // Vary bits 80..89 (just below the /32 boundary) so each
                // source lands in its own /48 (and /64) while sharing the /32.
                let src = slash32 | ((i as u128) << 80) | (i as u128);
                PacketRecord::tcp(i, src, 0xe000 + i as u128, 1, 22, 60)
            })
            .collect();
        let alerts = alerts(&recs);
        assert_eq!(alerts.len(), 1, "{alerts:?}");
        assert_eq!(alerts[0].prefix.len(), 32);
        assert_eq!(alerts[0].contributing_srcs, 500);
        // Every member is low-activity, so the collateral bound is large —
        // the operator signal that blocking this /32 is risky.
        assert_eq!(alerts[0].collateral_srcs, 500);
    }

    #[test]
    fn cloud_tenants_do_not_conflate() {
        // AS#6-style: two scanning tenants (heavy /128s) and 200 benign
        // hosts, all inside one /64. The benign hosts touch 1 destination
        // each (not enough residual to alert the /64).
        let net: u128 = 0x2001_0db8_0000_0000_0000_0000_0000_0000;
        let mut recs = heavy_host(net | 0x1000, 150);
        recs.extend(heavy_host(net | 0x2000, 140));
        for i in 0..200u64 {
            recs.push(PacketRecord::tcp(
                i,
                net | (0x9000 + i as u128),
                0xf000,
                1,
                443,
                60,
            ));
        }
        let alerts = alerts(&recs);
        assert_eq!(alerts.len(), 2, "{alerts:?}");
        assert!(alerts.iter().all(|a| a.prefix.len() == 128));
        // Blocking either /128 causes zero collateral.
        assert!(alerts.iter().all(|a| a.collateral_srcs == 0));
    }

    #[test]
    fn benign_residual_can_still_alert_when_spread() {
        // 120 benign-looking hosts in one /64, but each hits a DISTINCT
        // destination — collectively that is a spread scan and must alert at
        // /64 even though each host alone is "low activity".
        let net: u128 = 0x2001_0db8_0000_0000_0000_0000_0000_0000;
        let recs: Vec<PacketRecord> = (0..120u64)
            .map(|i| PacketRecord::tcp(i, net | i as u128, 0xa000 + i as u128, 1, 22, 60))
            .collect();
        let alerts = alerts(&recs);
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].prefix.len(), 64);
    }

    #[test]
    fn heavy_host_plus_spread_neighbors_subsumes() {
        // A /64 containing a qualifying /128 AND 100 spread one-packet
        // sources with distinct destinations: the /128 alerts first; the
        // /64's residual (100 dsts) also qualifies and subsumes the /128.
        let net: u128 = 0x2001_0db8_0000_0000_0000_0000_0000_0000;
        let mut recs = heavy_host(net | 0xff, 150);
        recs.extend((0..100u64).map(|i| {
            PacketRecord::tcp(
                i,
                net | (0x1_0000 + i as u128),
                0xc000 + i as u128,
                1,
                22,
                60,
            )
        }));
        let alerts = alerts(&recs);
        assert_eq!(alerts.len(), 1, "{alerts:?}");
        assert_eq!(alerts[0].prefix.len(), 64);
        assert_eq!(alerts[0].subsumed.len(), 1);
        assert_eq!(alerts[0].subsumed[0].len(), 128);
        assert_eq!(alerts[0].packets, 250);
    }

    #[test]
    fn quiet_window_no_alerts() {
        let recs: Vec<PacketRecord> = (0..50u64)
            .map(|i| PacketRecord::tcp(i, i as u128 + 1, 0xf000, 1, 443, 60))
            .collect();
        assert!(alerts(&recs).is_empty());
    }

    #[test]
    fn empty_window() {
        assert!(alerts(&[]).is_empty());
    }

    #[test]
    fn alerts_sorted_by_packets() {
        let mut recs = heavy_host(1, 200);
        recs.extend(heavy_host(0xaaaa_0000_0000_0000_0000_0000_0000_0000, 120));
        let alerts = alerts(&recs);
        assert_eq!(alerts.len(), 2);
        assert!(alerts[0].packets >= alerts[1].packets);
    }
}
