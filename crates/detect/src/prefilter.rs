//! CDN artifact prefiltering (paper §2.1 and Appendix A.1).
//!
//! Client-facing CDN addresses attract traffic that *looks* like scanning
//! but is not: SMTP servers retrying mail delivery against AAAA records of
//! hosted domains, hosts attempting IPsec (ISAKMP, UDP/500) against many
//! CDN machines they were mapped to, NetBIOS chatter, and similar
//! misconfiguration fallout. The paper removes, per day, every /64 source
//! for which more than 30% of logged packets are "5-duplicates": packets
//! hitting the same (destination IP, destination port) more than 5 times
//! over the course of that day.
//!
//! The filter is deliberately port-agnostic — any port may also be targeted
//! by real scans — so removal is purely behavioral.

use crate::aggregate::AggLevel;
use lumen6_addr::Ipv6Prefix;
use lumen6_trace::{scale_intensity, PacketRecord, RecordBatch, Transport, DAY_MS};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap, HashSet};

/// Configuration of the 5-duplicate artifact filter.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ArtifactFilterConfig {
    /// Source aggregation for the filter decision (the paper uses /64).
    pub agg: AggLevel,
    /// A (dst, port) pair hit strictly more than this many times per day
    /// marks those packets as duplicates. The paper uses 5.
    pub dup_threshold: u64,
    /// Sources whose daily duplicate fraction strictly exceeds this are
    /// removed for that day. The paper uses 0.30.
    pub max_dup_fraction: f64,
}

impl Default for ArtifactFilterConfig {
    fn default() -> Self {
        ArtifactFilterConfig {
            agg: AggLevel::L64,
            dup_threshold: 5,
            max_dup_fraction: 0.30,
        }
    }
}

/// What the filter removed — the input for the paper's Appendix A.1
/// observation that UDP/500 (ISAKMP) and TCP/25 (SMTP) dominate artifacts.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct FilterReport {
    /// Packets seen.
    pub input_packets: u64,
    /// Packets removed.
    pub removed_packets: u64,
    /// Distinct (source, day) pairs removed.
    pub removed_source_days: u64,
    /// Distinct sources removed on at least one day.
    pub removed_sources: u64,
    /// Removed packets per (protocol, destination port), sorted descending.
    pub removed_by_service: Vec<((Transport, u16), u64)>,
    /// Removed distinct sources per (protocol, destination port) — a source
    /// counts toward every service it sent removed packets to.
    pub removed_sources_by_service: Vec<((Transport, u16), u64)>,
}

impl FilterReport {
    /// Fraction of input packets removed.
    pub fn removed_fraction(&self) -> f64 {
        if self.input_packets == 0 {
            0.0
        } else {
            self.removed_packets as f64 / self.input_packets as f64
        }
    }

    /// The most-removed services, e.g. `[(UDP/500, ...), (TCP/25, ...)]`.
    pub fn top_services(&self, n: usize) -> &[((Transport, u16), u64)] {
        &self.removed_by_service[..n.min(self.removed_by_service.len())]
    }
}

/// The 5-duplicate artifact filter. Decides one UTC day of counted rows at
/// a time; day boundaries are multiples of [`DAY_MS`] from the epoch.
/// [`filter`](Self::filter) runs it over a resident, time-sorted trace,
/// [`crate::day::Prefiltered`] over a stream.
///
/// ```
/// use lumen6_detect::ArtifactFilter;
/// use lumen6_trace::PacketRecord;
///
/// // An SMTP server retrying the same (destination, port) 50 times a day
/// // looks like a scan source but is an artifact — the filter removes it.
/// let recs: Vec<PacketRecord> = (0..50)
///     .map(|i| PacketRecord::tcp(i * 60_000, 0xa, 0xbeef, 2525, 25, 80))
///     .collect();
/// let (kept, report) = ArtifactFilter::default().filter(&recs);
/// assert!(kept.is_empty());
/// assert_eq!(report.removed_packets, 50);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ArtifactFilter {
    config: ArtifactFilterConfig,
}

/// What a filter removed so far, across the days it decided; its
/// [`report`](Self::report) is the [`FilterReport`].
#[derive(Debug, Clone, Default)]
pub(crate) struct FilterTally {
    input_packets: u64,
    removed_packets: u64,
    removed_source_days: u64,
    removed_sources: HashSet<Ipv6Prefix>,
    removed_by_service: BTreeMap<(Transport, u16), u64>,
    removed_src_service: HashSet<(Ipv6Prefix, Transport, u16)>,
}

impl FilterTally {
    /// The report of every day decided so far.
    pub(crate) fn report(&self) -> FilterReport {
        let descending = |m: BTreeMap<(Transport, u16), u64>| {
            let mut v: Vec<_> = m.into_iter().collect();
            v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            v
        };
        let mut sources_by_service: BTreeMap<(Transport, u16), u64> = BTreeMap::new();
        for &(_, proto, port) in &self.removed_src_service {
            *sources_by_service.entry((proto, port)).or_default() += 1;
        }
        FilterReport {
            input_packets: self.input_packets,
            removed_packets: self.removed_packets,
            removed_source_days: self.removed_source_days,
            removed_sources: self.removed_sources.len() as u64,
            removed_by_service: descending(self.removed_by_service.clone()),
            removed_sources_by_service: descending(sources_by_service),
        }
    }
}

impl ArtifactFilter {
    /// Creates a filter with the paper's parameters.
    pub fn new(config: ArtifactFilterConfig) -> Self {
        ArtifactFilter { config }
    }

    /// The paper's filter for a stream at `intensity` copies per probe.
    ///
    /// The A.1 duplicate threshold is a *volume-relative* cutoff ("the
    /// same (dst, port) more than 5 times per day"), unlike the detector's
    /// structural thresholds (distinct destinations, idle timeout), which
    /// intensity leaves untouched. Scaling it with the intensity keeps the
    /// filter's removal decisions bit-identical at integer intensities:
    /// every per-(source, dst, port) daily count is exactly `intensity`
    /// times its 1x value, so `count > 5 * intensity` holds iff the 1x
    /// count exceeded 5.
    pub fn at_intensity(intensity: f64) -> Self {
        let base = ArtifactFilterConfig::default();
        ArtifactFilter::new(ArtifactFilterConfig {
            dup_threshold: scale_intensity(base.dup_threshold, intensity),
            ..base
        })
    }

    /// Applies the filter to a resident, time-sorted trace, returning the
    /// kept packets (original order) and a report on what was removed: the
    /// day decision over each day's records.
    pub fn filter(&self, records: &[PacketRecord]) -> (Vec<PacketRecord>, FilterReport) {
        let mut kept = Vec::with_capacity(records.len());
        let mut tally = FilterTally::default();
        let (mut day, mut kept_rows) = (RecordBatch::new(), RecordBatch::new());
        for records in records.chunk_by(|a, b| a.ts_ms / DAY_MS == b.ts_ms / DAY_MS) {
            day.clear();
            day.extend(records.iter().copied());
            kept_rows.clear();
            self.filter_day(&day, &mut kept_rows, &mut tally);
            kept.extend(kept_rows.iter());
        }
        (kept, tally.report())
    }

    /// Decides one day of counted rows — a row of count `n` weighs as `n`
    /// copies — appending the kept rows to `kept` in order and accounting
    /// the removed ones in `tally`.
    ///
    /// Two passes: first count per-(source, dst, proto, port) packets,
    /// then decide per source and copy the keepers.
    pub(crate) fn filter_day(
        &self,
        day: &RecordBatch,
        kept: &mut RecordBatch,
        tally: &mut FilterTally,
    ) {
        let agg = self.config.agg;
        let rows = || (0..day.rows()).map(|i| (day.get(i), u64::from(day.count(i))));
        // Pass 1: per-(source, dst, proto, port) packet counts and
        // per-source totals.
        let mut flow_counts: HashMap<(Ipv6Prefix, u128, Transport, u16), u64> = HashMap::new();
        let mut src_totals: HashMap<Ipv6Prefix, u64> = HashMap::new();
        for (r, n) in rows() {
            let s = agg.source_of(r.src);
            *flow_counts.entry((s, r.dst, r.proto, r.dport)).or_default() += n;
            *src_totals.entry(s).or_default() += n;
        }
        // Per-source duplicate packet counts: packets belonging to flows
        // that exceeded the duplicate threshold.
        let mut src_dups: HashMap<Ipv6Prefix, u64> = HashMap::new();
        for (&(s, _, _, _), &n) in &flow_counts {
            if n > self.config.dup_threshold {
                *src_dups.entry(s).or_default() += n;
            }
        }
        // Decide removal per source.
        let removed: HashSet<Ipv6Prefix> = src_totals
            .iter()
            .filter(|(s, &total)| {
                let dups = src_dups.get(*s).copied().unwrap_or(0);
                dups as f64 > self.config.max_dup_fraction * total as f64
            })
            .map(|(s, _)| *s)
            .collect();

        tally.input_packets += day.len() as u64;
        tally.removed_source_days += removed.len() as u64;

        // Pass 2: copy keepers, account removals.
        for (i, (r, n)) in rows().enumerate() {
            let s = agg.source_of(r.src);
            if removed.contains(&s) {
                tally.removed_packets += n;
                *tally
                    .removed_by_service
                    .entry((r.proto, r.dport))
                    .or_default() += n;
                tally.removed_src_service.insert((s, r.proto, r.dport));
                tally.removed_sources.insert(s);
            } else {
                kept.extend_from_range(day, i..i + 1);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An SMTP fallback artifact: one source hammering the same
    /// (destination, port) far more than 5 times in a day.
    fn smtp_artifact(src: u128, t0: u64, repeats: u64) -> Vec<PacketRecord> {
        (0..repeats)
            .map(|i| PacketRecord::tcp(t0 + i * 60_000, src, 0xbeef, 2525, 25, 80))
            .collect()
    }

    /// Scan-like traffic: distinct destination per packet.
    fn scanlike(src: u128, t0: u64, n: u64) -> Vec<PacketRecord> {
        (0..n)
            .map(|i| PacketRecord::tcp(t0 + i * 1000, src, 0xcc00 + i as u128, 1, 22, 60))
            .collect()
    }

    fn run(records: &mut [PacketRecord]) -> (Vec<PacketRecord>, FilterReport) {
        lumen6_trace::sort_by_time(records);
        ArtifactFilter::new(ArtifactFilterConfig::default()).filter(records)
    }

    #[test]
    fn pure_artifact_source_is_removed() {
        let mut recs = smtp_artifact(1, 0, 50);
        let (kept, report) = run(&mut recs);
        assert!(kept.is_empty());
        assert_eq!(report.removed_packets, 50);
        assert_eq!(report.removed_sources, 1);
        assert_eq!(report.top_services(1)[0].0, (Transport::Tcp, 25));
    }

    #[test]
    fn scanner_is_kept() {
        let mut recs = scanlike(1, 0, 200);
        let (kept, report) = run(&mut recs);
        assert_eq!(kept.len(), 200);
        assert_eq!(report.removed_packets, 0);
    }

    #[test]
    fn exactly_five_repeats_is_not_duplicate() {
        // 5 hits on the same (dst, port): at the threshold, not over it.
        let mut recs = smtp_artifact(1, 0, 5);
        let (kept, report) = run(&mut recs);
        assert_eq!(kept.len(), 5);
        assert_eq!(report.removed_packets, 0);
    }

    #[test]
    fn six_repeats_of_a_lone_flow_removes_source() {
        let mut recs = smtp_artifact(1, 0, 6);
        let (kept, _) = run(&mut recs);
        assert!(kept.is_empty());
    }

    #[test]
    fn mixed_source_below_fraction_survives() {
        // 10 duplicate packets + 90 scan-like: 10% < 30% → all kept.
        let mut recs = smtp_artifact(1, 0, 10);
        recs.extend(scanlike(1, 1_000_000, 90));
        let (kept, report) = run(&mut recs);
        assert_eq!(kept.len(), 100);
        assert_eq!(report.removed_packets, 0);
    }

    #[test]
    fn mixed_source_above_fraction_is_removed_entirely() {
        // 40 duplicate packets + 60 scan-like: 40% > 30% → the whole source
        // goes, including its scan-like packets (the filter removes sources,
        // not packets).
        let mut recs = smtp_artifact(1, 0, 40);
        recs.extend(scanlike(1, 1_000_000, 60));
        let (kept, report) = run(&mut recs);
        assert!(kept.is_empty());
        assert_eq!(report.removed_packets, 100);
    }

    #[test]
    fn removal_is_per_day() {
        // Artifact behavior on day 0, clean scanning on day 1: only day 0
        // is removed.
        let mut recs = smtp_artifact(1, 0, 50);
        recs.extend(scanlike(1, DAY_MS + 1000, 120));
        let (kept, report) = run(&mut recs);
        assert_eq!(kept.len(), 120);
        assert_eq!(report.removed_packets, 50);
        assert_eq!(report.removed_source_days, 1);
        assert_eq!(report.removed_sources, 1);
    }

    #[test]
    fn aggregation_level_64_merges_addresses() {
        // Two /128s in the same /64, each repeating the same flow 4 times:
        // individually under the threshold, jointly 8 > 5 → removed.
        let base: u128 = 0x2001_0db8_0000_0000_0000_0000_0000_0000;
        let mut recs = Vec::new();
        for i in 0..4u64 {
            recs.push(PacketRecord::tcp(i * 1000, base + 1, 0xbeef, 1, 25, 80));
            recs.push(PacketRecord::tcp(i * 1000 + 1, base + 2, 0xbeef, 1, 25, 80));
        }
        let (kept, _) = run(&mut recs);
        assert!(kept.is_empty());
    }

    #[test]
    fn distinct_ports_are_distinct_flows() {
        // Same destination, 6 different ports, one packet each: no flow
        // exceeds the duplicate threshold.
        let mut recs: Vec<PacketRecord> = (0..6u16)
            .map(|i| PacketRecord::tcp(u64::from(i) * 1000, 1, 0xbeef, 1, 8000 + i, 60))
            .collect();
        let (kept, _) = run(&mut recs);
        assert_eq!(kept.len(), 6);
    }

    #[test]
    fn report_fraction_and_empty_input() {
        let filter = ArtifactFilter::new(ArtifactFilterConfig::default());
        let (kept, report) = filter.filter(&[]);
        assert!(kept.is_empty());
        assert_eq!(report.removed_fraction(), 0.0);

        // Sources in distinct /64s so the filter judges them separately.
        let mut recs = smtp_artifact(1u128 << 64, 0, 30);
        recs.extend(scanlike(2u128 << 64, 0, 70));
        lumen6_trace::sort_by_time(&mut recs);
        let (_, report) = filter.filter(&recs);
        assert!((report.removed_fraction() - 0.3).abs() < 1e-9);
    }

    #[test]
    fn isakmp_artifacts_reported_by_service() {
        let mut recs: Vec<PacketRecord> = (0..20u64)
            .map(|i| PacketRecord::udp(i * 1000, 7, 0xbeef, 500, 500, 120))
            .collect();
        recs.extend(smtp_artifact(8, 0, 10));
        let (_, report) = run(&mut recs);
        assert_eq!(report.top_services(2)[0].0, (Transport::Udp, 500));
        assert_eq!(report.top_services(2)[1].0, (Transport::Tcp, 25));
        assert_eq!(report.removed_sources_by_service.len(), 2);
    }
}
