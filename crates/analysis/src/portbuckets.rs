//! Figs. 4 and 8: breakdown of scans, sources, and packets by the number of
//! ports a scan targets (via the footnote-9 classifier).

use lumen6_detect::event::ScanReport;
use lumen6_detect::PortClass;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Fractions per port-count bucket.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PortBucketRow {
    /// The bucket.
    pub class: PortClass,
    /// Fraction of scans in the bucket.
    pub scans: f64,
    /// Fraction of distinct sources whose *heaviest* classification lands in
    /// the bucket (a source with both single- and multi-port scans counts
    /// once, at its widest bucket).
    pub sources: f64,
    /// Fraction of scan packets in the bucket.
    pub packets: f64,
}

/// Computes the Fig. 4 breakdown. `exclude` drops events (the paper keeps
/// AS#18 out of §3.3 characterizations).
pub fn port_buckets<F>(report: &ScanReport, exclude: F) -> Vec<PortBucketRow>
where
    F: Fn(&lumen6_addr::Ipv6Prefix) -> bool,
{
    let mut scans: HashMap<PortClass, u64> = HashMap::new();
    let mut packets: HashMap<PortClass, u64> = HashMap::new();
    let mut widest: HashMap<lumen6_addr::Ipv6Prefix, PortClass> = HashMap::new();
    let mut total_scans = 0u64;
    let mut total_packets = 0u64;

    for e in &report.events {
        if exclude(&e.source) {
            continue;
        }
        let class = e.port_class();
        total_scans += 1;
        total_packets += e.packets;
        *scans.entry(class).or_default() += 1;
        *packets.entry(class).or_default() += e.packets;
        widest
            .entry(e.source)
            .and_modify(|c| {
                if class > *c {
                    *c = class;
                }
            })
            .or_insert(class);
    }

    let mut sources: HashMap<PortClass, u64> = HashMap::new();
    for c in widest.values() {
        *sources.entry(*c).or_default() += 1;
    }
    let total_sources: u64 = widest.len() as u64;

    PortClass::ALL
        .iter()
        .map(|&class| PortBucketRow {
            class,
            scans: crate::stats::share(scans.get(&class).copied().unwrap_or(0), total_scans),
            sources: crate::stats::share(sources.get(&class).copied().unwrap_or(0), total_sources),
            packets: crate::stats::share(packets.get(&class).copied().unwrap_or(0), total_packets),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lumen6_detect::event::ScanEvent;
    use lumen6_detect::AggLevel;
    use lumen6_trace::Transport;

    fn ev(src: &str, ports: Vec<(u16, u64)>) -> ScanEvent {
        let packets = ports.iter().map(|(_, n)| n).sum();
        ScanEvent {
            source: src.parse().unwrap(),
            agg: AggLevel::L64,
            start_ms: 0,
            end_ms: 10,
            packets,
            distinct_dsts: 100,
            distinct_srcs: 1,
            ports: ports
                .into_iter()
                .map(|(p, n)| ((Transport::Tcp, p), n))
                .collect(),
            dsts: None,
        }
    }

    #[test]
    fn heavy_multiport_dominates_packets() {
        // One >100-port scan with 80% of packets, four single-port scans.
        let wide = ev(
            "2001:db8:f::/64",
            (1..=400u16).map(|p| (p, 20u64)).collect(),
        );
        let mut events = vec![wide];
        for i in 0..4u64 {
            events.push(ev(&format!("2001:db8:{i}::/64"), vec![(22, 500)]));
        }
        let rows = port_buckets(&ScanReport::new(events), |_| false);
        let wide_row = rows
            .iter()
            .find(|r| r.class == PortClass::MoreThan100)
            .unwrap();
        assert!((wide_row.packets - 0.8).abs() < 1e-9);
        assert!((wide_row.scans - 0.2).abs() < 1e-9);
        assert!((wide_row.sources - 0.2).abs() < 1e-9);
        let single = rows.iter().find(|r| r.class == PortClass::Single).unwrap();
        assert!((single.scans - 0.8).abs() < 1e-9);
    }

    #[test]
    fn fractions_sum_to_one_per_dimension() {
        let events = vec![
            ev("2001:db8::/64", vec![(22, 100)]),
            ev("2001:db8:1::/64", (1..=8).map(|p| (p, 10)).collect()),
            ev("2001:db8:2::/64", (1..=50).map(|p| (p, 2)).collect()),
        ];
        let rows = port_buckets(&ScanReport::new(events), |_| false);
        for f in [
            rows.iter().map(|r| r.scans).sum::<f64>(),
            rows.iter().map(|r| r.sources).sum::<f64>(),
            rows.iter().map(|r| r.packets).sum::<f64>(),
        ] {
            assert!((f - 1.0).abs() < 1e-9, "{f}");
        }
    }

    #[test]
    fn source_counted_once_at_widest_class() {
        // Same source: one single-port scan and one >100-port scan.
        let events = vec![
            ev("2001:db8::/64", vec![(22, 100)]),
            ev("2001:db8::/64", (1..=400).map(|p| (p, 1)).collect()),
        ];
        let rows = port_buckets(&ScanReport::new(events), |_| false);
        let wide = rows
            .iter()
            .find(|r| r.class == PortClass::MoreThan100)
            .unwrap();
        assert_eq!(wide.sources, 1.0);
        let single = rows.iter().find(|r| r.class == PortClass::Single).unwrap();
        assert_eq!(single.sources, 0.0);
        assert_eq!(single.scans, 0.5);
    }

    #[test]
    fn empty_report_zeroes() {
        let rows = port_buckets(&ScanReport::default(), |_| false);
        assert_eq!(rows.len(), 4);
        assert!(rows.iter().all(|r| r.scans == 0.0 && r.packets == 0.0));
    }
}
