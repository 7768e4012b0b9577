//! Scan events and reports — the detector's output model.

use crate::aggregate::AggLevel;
use crate::portclass::{classify_ports, PortClass};
use lumen6_addr::Ipv6Prefix;
use lumen6_trace::Transport;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;

/// One detected scan: a maximal run of packets from one (aggregated) source
/// in which no packet inter-arrival exceeded the timeout and which targeted
/// at least the configured number of distinct destinations.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScanEvent {
    /// The scan source at the detection aggregation level.
    pub source: Ipv6Prefix,
    /// Aggregation level the detector ran at.
    pub agg: AggLevel,
    /// Timestamp of the first packet (ms since epoch).
    pub start_ms: u64,
    /// Timestamp of the last packet (ms since epoch).
    pub end_ms: u64,
    /// Total packets in the event.
    pub packets: u64,
    /// Distinct destination addresses targeted (exact or sketched).
    pub distinct_dsts: u64,
    /// Distinct /128 source addresses observed within the aggregated source.
    pub distinct_srcs: u64,
    /// Packet counts per (protocol, destination port), sorted by key.
    pub ports: Vec<((Transport, u16), u64)>,
    /// The targeted destination addresses, if the detector was configured to
    /// retain them (needed for targeting analysis; off for IDS deployments).
    pub dsts: Option<Vec<u128>>,
}

impl ScanEvent {
    /// Scan duration in milliseconds (zero for single-burst scans).
    pub fn duration_ms(&self) -> u64 {
        self.end_ms - self.start_ms
    }

    /// Number of distinct (protocol, port) services targeted.
    pub fn num_ports(&self) -> usize {
        self.ports.len()
    }

    /// The paper's footnote-9 single/multi-port classification.
    pub fn port_class(&self) -> PortClass {
        classify_ports(self.ports.iter().map(|&(_, n)| n), self.packets)
    }

    /// Whether the event targets the given service at all.
    pub fn targets(&self, proto: Transport, port: u16) -> bool {
        self.ports
            .binary_search_by_key(&(proto, port), |&(k, _)| k)
            .is_ok()
    }
}

/// A set of scan events plus the summary statistics the paper's Table 1
/// reports per aggregation level.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ScanReport {
    /// All detected events, in flush order (≈ end-time order).
    pub events: Vec<ScanEvent>,
}

impl ScanReport {
    /// Wraps a list of events.
    pub fn new(events: Vec<ScanEvent>) -> Self {
        ScanReport { events }
    }

    /// Number of scans (events) — Table 1 "scans".
    pub fn scans(&self) -> usize {
        self.events.len()
    }

    /// Total packets attributed to scanning — Table 1 "packets".
    pub fn packets(&self) -> u64 {
        self.events.iter().map(|e| e.packets).sum()
    }

    /// Distinct scan sources — Table 1 "sources".
    pub fn sources(&self) -> usize {
        self.source_set().len()
    }

    /// The distinct source prefixes.
    pub fn source_set(&self) -> HashSet<Ipv6Prefix> {
        self.events.iter().map(|e| e.source).collect()
    }

    /// Sorted scan durations in milliseconds.
    pub fn durations_ms(&self) -> Vec<u64> {
        let mut d: Vec<u64> = self.events.iter().map(ScanEvent::duration_ms).collect();
        d.sort_unstable();
        d
    }

    /// Total packets per source, descending — the concentration input for
    /// Fig. 3.
    pub fn packets_by_source(&self) -> Vec<(Ipv6Prefix, u64)> {
        use std::collections::HashMap;
        let mut m: HashMap<Ipv6Prefix, u64> = HashMap::new();
        for e in &self.events {
            *m.entry(e.source).or_default() += e.packets;
        }
        let mut v: Vec<_> = m.into_iter().collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v
    }

    /// Merges another report into this one.
    pub fn extend(&mut self, other: ScanReport) {
        self.events.extend(other.events);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(src: &str, start: u64, end: u64, packets: u64) -> ScanEvent {
        ScanEvent {
            source: src.parse().unwrap(),
            agg: AggLevel::L64,
            start_ms: start,
            end_ms: end,
            packets,
            distinct_dsts: 100,
            distinct_srcs: 1,
            ports: vec![((Transport::Tcp, 22), packets)],
            dsts: None,
        }
    }

    #[test]
    fn report_totals() {
        let r = ScanReport::new(vec![
            ev("2001:db8::/64", 0, 10, 500),
            ev("2001:db8::/64", 100, 110, 300),
            ev("2001:db8:1::/64", 0, 5, 200),
        ]);
        assert_eq!(r.scans(), 3);
        assert_eq!(r.packets(), 1000);
        assert_eq!(r.sources(), 2);
    }

    #[test]
    fn packets_by_source_descends() {
        let r = ScanReport::new(vec![
            ev("2001:db8::/64", 0, 1, 10),
            ev("2001:db8:1::/64", 0, 1, 99),
            ev("2001:db8::/64", 2, 3, 5),
        ]);
        let v = r.packets_by_source();
        assert_eq!(v[0].1, 99);
        assert_eq!(v[1].1, 15);
    }

    #[test]
    fn event_accessors() {
        let e = ev("2001:db8::/64", 5, 105, 42);
        assert_eq!(e.duration_ms(), 100);
        assert_eq!(e.num_ports(), 1);
        assert_eq!(e.ports[0].0, (Transport::Tcp, 22));
        assert!(e.targets(Transport::Tcp, 22));
        assert!(!e.targets(Transport::Udp, 22));
        assert!(!e.targets(Transport::Tcp, 23));
    }

    #[test]
    fn durations_sorted() {
        let r = ScanReport::new(vec![
            ev("2001:db8::/64", 0, 500, 1),
            ev("2001:db8::/64", 0, 100, 1),
            ev("2001:db8::/64", 0, 300, 1),
        ]);
        assert_eq!(r.durations_ms(), vec![100, 300, 500]);
    }
}
