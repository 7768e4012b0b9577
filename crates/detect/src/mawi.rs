//! The extended Fukuda–Heidemann scan detector used on public MAWI traces
//! (paper §4).
//!
//! Operating on one capture window (MAWI publishes 15 minutes per day), a
//! source is a scan if, for some destination port, it
//!
//! 1. targets at least `min_dsts` distinct destination IPs (the paper uses
//!    100 for its large-scale definition and compares with the original 5),
//! 2. sends all of those packets to the *same* destination port,
//! 3. sends fewer than `max_pkts_per_dst` (10) packets per destination on
//!    that port, and
//! 4. has packet-length entropy below `max_len_entropy` (0.1 bits) — scan
//!    probes are uniform, real traffic is not.
//!
//! In a second step, per-port scans from the same source are merged into a
//! single multi-port scan record, mirroring the paper's methodology.

use crate::aggregate::AggLevel;
use crate::fxhash::{FxHashMap, FxHashSet};
use lumen6_addr::Ipv6Prefix;
use lumen6_trace::{PacketRecord, Transport};
use serde::{Deserialize, Serialize};

/// Configuration of the MAWI-style detector.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MawiConfig {
    /// Source aggregation level.
    pub agg: AggLevel,
    /// Minimum distinct destination IPs per (source, port) group.
    pub min_dsts: u64,
    /// A source must send strictly fewer than this many packets per
    /// destination IP on the same port.
    pub max_pkts_per_dst: u64,
    /// Maximum Shannon entropy (bits) of the packet-length distribution.
    pub max_len_entropy: f64,
}

impl Default for MawiConfig {
    fn default() -> Self {
        MawiConfig {
            agg: AggLevel::L64,
            min_dsts: 100,
            max_pkts_per_dst: 10,
            max_len_entropy: 0.1,
        }
    }
}

impl MawiConfig {
    /// The paper's large-scale configuration at an aggregation level.
    pub fn paper(agg: AggLevel) -> Self {
        MawiConfig {
            agg,
            ..Default::default()
        }
    }

    /// The original Fukuda–Heidemann destination threshold (5), for the
    /// comparison in Fig. 5 / Appendix A.2.
    pub fn loose(agg: AggLevel) -> Self {
        MawiConfig {
            agg,
            min_dsts: 5,
            ..Default::default()
        }
    }
}

/// A detected (and per-source merged) MAWI scan.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MawiScan {
    /// Scan source at the configured aggregation.
    pub source: Ipv6Prefix,
    /// Qualifying (protocol, destination port) groups, sorted.
    pub services: Vec<(Transport, u16)>,
    /// Total packets across qualifying groups.
    pub packets: u64,
    /// Distinct destinations across qualifying groups.
    pub distinct_dsts: u64,
    /// First packet timestamp across qualifying groups.
    pub start_ms: u64,
    /// Last packet timestamp across qualifying groups.
    pub end_ms: u64,
}

impl MawiScan {
    /// Whether any qualifying group is ICMPv6 (§4 "ICMPv6 scans").
    pub fn is_icmpv6(&self) -> bool {
        self.services.iter().any(|(p, _)| *p == Transport::Icmpv6)
    }
}

/// Shannon entropy (bits) of a value histogram.
pub fn shannon_entropy<I: IntoIterator<Item = u64>>(counts: I) -> f64 {
    let counts: Vec<u64> = counts.into_iter().filter(|&c| c > 0).collect();
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return 0.0;
    }
    -counts
        .iter()
        .map(|&c| {
            let p = c as f64 / total as f64;
            p * p.log2()
        })
        .sum::<f64>()
}

/// Per-(source, service) accumulation.
#[derive(Debug, Default)]
struct Group {
    per_dst: FxHashMap<u128, u64>,
    len_hist: FxHashMap<u16, u64>,
    packets: u64,
    start_ms: u64,
    end_ms: u64,
}

/// The (source, service) groups of one capture window at one aggregation
/// level: everything detection computes before a threshold applies. A
/// threshold is a view of them ([`MawiDetector::scans`]), which reads the
/// groups without changing them, so one grouping serves every `min_dsts`.
#[derive(Debug)]
pub struct MawiGroups {
    agg: AggLevel,
    groups: FxHashMap<(Ipv6Prefix, Transport, u16), Group>,
}

/// The MAWI-style detector. Stateless between windows: construct once, call
/// [`MawiDetector::detect`] per capture window.
///
/// ```
/// use lumen6_detect::{MawiDetector, MawiConfig, AggLevel};
/// use lumen6_trace::PacketRecord;
///
/// // A clean same-port scan: constant probe size, one packet per target.
/// let window: Vec<PacketRecord> = (0..150u64)
///     .map(|i| PacketRecord::tcp(i * 10, 0x2001, 0xd000 + i as u128, 1, 22, 60))
///     .collect();
/// let scans = MawiDetector::new(MawiConfig::paper(AggLevel::L64)).detect(&window);
/// assert_eq!(scans.len(), 1);
/// assert_eq!(scans[0].services, vec![(lumen6_trace::Transport::Tcp, 22)]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct MawiDetector {
    config: MawiConfig,
}

impl MawiDetector {
    /// Creates a detector.
    pub fn new(config: MawiConfig) -> Self {
        MawiDetector { config }
    }

    /// Runs detection over one resident capture window and returns
    /// per-source merged scans, sorted by source:
    /// [`detect_counted`](Self::detect_counted) with one copy per record.
    pub fn detect(&self, records: &[PacketRecord]) -> Vec<MawiScan> {
        self.detect_counted(records.iter().map(|&r| (r, 1)))
    }

    /// Runs detection over one capture window of counted rows — a row of
    /// count `n` weighs as `n` copies — and returns per-source merged
    /// scans, sorted by source: [`group`](Self::group), then
    /// [`scans`](Self::scans).
    pub fn detect_counted(
        &self,
        rows: impl IntoIterator<Item = (PacketRecord, u32)>,
    ) -> Vec<MawiScan> {
        self.scans(&self.group(rows))
    }

    /// Groups one capture window of counted rows by (source at the
    /// configured aggregation, protocol, destination port).
    pub fn group(&self, rows: impl IntoIterator<Item = (PacketRecord, u32)>) -> MawiGroups {
        let mut groups: FxHashMap<(Ipv6Prefix, Transport, u16), Group> = FxHashMap::default();
        for (r, n) in rows {
            let (s, n) = (self.config.agg.source_of(r.src), u64::from(n));
            let g = groups
                .entry((s, r.proto, r.dport))
                .or_insert_with(|| Group {
                    start_ms: r.ts_ms,
                    end_ms: r.ts_ms,
                    ..Default::default()
                });
            *g.per_dst.entry(r.dst).or_default() += n;
            *g.len_hist.entry(r.len).or_default() += n;
            g.packets += n;
            g.start_ms = g.start_ms.min(r.ts_ms);
            g.end_ms = g.end_ms.max(r.ts_ms);
        }
        MawiGroups {
            agg: self.config.agg,
            groups,
        }
    }

    /// The scans `groups` holds under this detector's thresholds, sorted by
    /// source: each (source, service) group is qualified, then the
    /// qualifying groups are merged per source. `groups` must come from
    /// [`group`](Self::group) at this detector's aggregation level.
    pub fn scans(&self, groups: &MawiGroups) -> Vec<MawiScan> {
        debug_assert_eq!(groups.agg, self.config.agg, "groups of another level");
        // Qualify per-port groups, then merge per source with an exact
        // destination union (a multi-port scanner usually probes the same
        // host set on every port — summing would double-count).
        let mut merged: FxHashMap<Ipv6Prefix, (MawiScan, FxHashSet<u128>)> = FxHashMap::default();
        for (&(source, proto, port), g) in &groups.groups {
            if (g.per_dst.len() as u64) < self.config.min_dsts {
                continue;
            }
            if g.per_dst
                .values()
                .any(|&n| n >= self.config.max_pkts_per_dst)
            {
                continue;
            }
            if shannon_entropy(g.len_hist.values().copied()) >= self.config.max_len_entropy {
                continue;
            }
            let (entry, union) = merged.entry(source).or_insert_with(|| {
                (
                    MawiScan {
                        source,
                        services: Vec::new(),
                        packets: 0,
                        distinct_dsts: 0,
                        start_ms: g.start_ms,
                        end_ms: g.end_ms,
                    },
                    FxHashSet::default(),
                )
            });
            entry.services.push((proto, port));
            entry.packets += g.packets;
            union.extend(g.per_dst.keys().copied());
            entry.start_ms = entry.start_ms.min(g.start_ms);
            entry.end_ms = entry.end_ms.max(g.end_ms);
        }

        let mut out: Vec<MawiScan> = merged
            .into_values()
            .map(|(mut scan, union)| {
                scan.distinct_dsts = union.len() as u64;
                scan.services.sort_unstable();
                scan
            })
            .collect();
        out.sort_by_key(|s| s.source);
        out
    }

    /// The active configuration.
    pub fn config(&self) -> &MawiConfig {
        &self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A clean same-port scan: one packet per destination, constant length.
    fn clean_scan(src: u128, n: u64, dport: u16, len: u16) -> Vec<PacketRecord> {
        (0..n)
            .map(|i| PacketRecord::tcp(i * 10, src, 0xd000 + i as u128, 1, dport, len))
            .collect()
    }

    fn det(min_dsts: u64) -> MawiDetector {
        MawiDetector::new(MawiConfig {
            agg: AggLevel::L128,
            min_dsts,
            ..Default::default()
        })
    }

    #[test]
    fn clean_scan_detected() {
        let recs = clean_scan(1, 150, 22, 60);
        let scans = det(100).detect(&recs);
        assert_eq!(scans.len(), 1);
        assert_eq!(scans[0].distinct_dsts, 150);
        assert_eq!(scans[0].services, vec![(Transport::Tcp, 22)]);
        assert!(!scans[0].is_icmpv6());
    }

    #[test]
    fn below_threshold_not_detected() {
        let recs = clean_scan(1, 99, 22, 60);
        assert!(det(100).detect(&recs).is_empty());
        // But the loose (5-destination) definition catches it — the Fig. 5
        // order-of-magnitude effect.
        assert_eq!(det(5).detect(&recs).len(), 1);
    }

    #[test]
    fn varying_length_rejected_by_entropy() {
        // Same-port, many destinations, but every packet a different size:
        // looks like real traffic, not probes.
        let recs: Vec<PacketRecord> = (0..150u64)
            .map(|i| PacketRecord::tcp(i * 10, 1, 0xd000 + i as u128, 1, 443, 60 + (i % 64) as u16))
            .collect();
        assert!(det(100).detect(&recs).is_empty());
    }

    #[test]
    fn near_constant_length_accepted() {
        // 99.5% one size — entropy ≈ 0.045 bits < 0.1.
        let mut recs = clean_scan(1, 995, 22, 60);
        for i in 0..5u64 {
            recs.push(PacketRecord::tcp(i, 1, 0xf000 + i as u128, 1, 22, 72));
        }
        let scans = det(100).detect(&recs);
        assert_eq!(scans.len(), 1);
    }

    #[test]
    fn retransmission_heavy_source_rejected() {
        // 10 packets per destination on the same port: at the cap → reject.
        let mut recs = Vec::new();
        for d in 0..150u64 {
            for k in 0..10u64 {
                recs.push(PacketRecord::tcp(
                    d * 100 + k,
                    1,
                    0xd000 + d as u128,
                    1,
                    25,
                    60,
                ));
            }
        }
        assert!(det(100).detect(&recs).is_empty());
    }

    #[test]
    fn nine_packets_per_dst_accepted() {
        let mut recs = Vec::new();
        for d in 0..150u64 {
            for k in 0..9u64 {
                recs.push(PacketRecord::tcp(
                    d * 100 + k,
                    1,
                    0xd000 + d as u128,
                    1,
                    25,
                    60,
                ));
            }
        }
        assert_eq!(det(100).detect(&recs).len(), 1);
    }

    #[test]
    fn multi_port_scans_merged_per_source() {
        let mut recs = clean_scan(1, 120, 22, 60);
        recs.extend(clean_scan(1, 130, 80, 60).into_iter().map(|mut r| {
            r.ts_ms += 100_000;
            r
        }));
        let scans = det(100).detect(&recs);
        assert_eq!(scans.len(), 1, "merged into one scan record");
        assert_eq!(
            scans[0].services,
            vec![(Transport::Tcp, 22), (Transport::Tcp, 80)]
        );
        assert_eq!(scans[0].packets, 250);
        // Destination union, not sum: both port groups probed the same host
        // range (the 120-target set is a subset of the 130-target set).
        assert_eq!(scans[0].distinct_dsts, 130);
    }

    #[test]
    fn distinct_sources_stay_distinct() {
        let mut recs = clean_scan(1, 120, 22, 60);
        recs.extend(clean_scan(2, 120, 22, 60));
        let scans = det(100).detect(&recs);
        assert_eq!(scans.len(), 2);
    }

    #[test]
    fn icmpv6_scans_flagged() {
        let recs: Vec<PacketRecord> = (0..200u64)
            .map(|i| PacketRecord::icmpv6_echo(i * 10, 9, 0xe000 + i as u128, 96))
            .collect();
        let scans = det(100).detect(&recs);
        assert_eq!(scans.len(), 1);
        assert!(scans[0].is_icmpv6());
    }

    #[test]
    fn source_aggregation_applies() {
        // 120 packets spread over 120 /128s of one /64, one per destination.
        let base: u128 = 0x2001_0db8_0000_0000_0000_0000_0000_0000;
        let recs: Vec<PacketRecord> = (0..120u64)
            .map(|i| PacketRecord::tcp(i * 10, base + i as u128, 0xd000 + i as u128, 1, 22, 60))
            .collect();
        assert!(det(100).detect(&recs).is_empty(), "invisible at /128");
        let at64 = MawiDetector::new(MawiConfig::paper(AggLevel::L64)).detect(&recs);
        assert_eq!(at64.len(), 1);
    }

    #[test]
    fn entropy_function_basics() {
        assert_eq!(shannon_entropy([100]), 0.0);
        assert!((shannon_entropy([50, 50]) - 1.0).abs() < 1e-12);
        assert!((shannon_entropy([25, 25, 25, 25]) - 2.0).abs() < 1e-12);
        assert_eq!(shannon_entropy([]), 0.0);
        assert_eq!(shannon_entropy([0, 0, 10]), 0.0);
    }

    #[test]
    fn time_bounds_cover_merged_groups() {
        let mut recs = clean_scan(1, 120, 22, 60);
        let mut later = clean_scan(1, 120, 23, 60);
        for r in &mut later {
            r.ts_ms += 500_000;
        }
        recs.extend(later);
        let scans = det(100).detect(&recs);
        assert_eq!(scans[0].start_ms, 0);
        assert_eq!(scans[0].end_ms, 500_000 + 119 * 10);
    }
}
