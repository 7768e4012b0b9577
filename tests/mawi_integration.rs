//! Integration tests for the MAWI cross-check (§4, Appendix A.2).

use lumen6::addr::HammingDistribution;
use lumen6::analysis::{overlap, targeting};
use lumen6::detect::{AggLevel, MawiConfig as FhConfig, MawiDetector};
use lumen6::mawi::{capture_window, MawiConfig, MawiWorld};
use lumen6::prelude::*;
use lumen6::trace::{RecordBatch, SimTime, Source};
use std::sync::OnceLock;

/// A MAWI world covering the May-27 switch, July-6 and Dec-24 events.
fn world() -> &'static (MawiWorld, Vec<PacketRecord>) {
    static W: OnceLock<(MawiWorld, Vec<PacketRecord>)> = OnceLock::new();
    W.get_or_init(|| {
        let cfg = MawiConfig {
            start_day: 140,
            end_day: 365,
            ..MawiConfig::small()
        };
        let w = MawiWorld::build(cfg, None);
        let (mut source, mut trace, mut batch) = (w.source(), Vec::new(), RecordBatch::new());
        while source
            .fill(&mut batch, 65_536)
            .expect("generation cannot fail")
            > 0
        {
            trace.extend(batch.iter());
        }
        (w, trace)
    })
}

/// The capture window of each day in `[start_day, end_day)`, as a slice of
/// the time-sorted `records`.
fn split_days(
    records: &[PacketRecord],
    start_day: u64,
    end_day: u64,
) -> Vec<(u64, &[PacketRecord])> {
    let at = |t: u64| records.partition_point(|r| r.ts_ms < t);
    (start_day..end_day)
        .map(|day| {
            let (s, e) = capture_window(day);
            (day, &records[at(s)..at(e)])
        })
        .collect()
}

/// `records` as rows of one copy each.
fn ones(records: &[PacketRecord]) -> impl Iterator<Item = (PacketRecord, u32)> + '_ {
    records.iter().map(|&r| (r, 1))
}

fn targets_on(day: u64, pred: impl Fn(&PacketRecord) -> bool) -> Vec<u128> {
    let (_, trace) = world();
    let (s, e) = capture_window(day);
    trace
        .iter()
        .filter(|r| r.ts_ms >= s && r.ts_ms < e && pred(r))
        .map(|r| r.dst)
        .collect()
}

#[test]
fn loose_threshold_finds_many_more_sources() {
    // Fig. 5: threshold 5 finds several times the sources threshold 100 does.
    let (w, trace) = world();
    let (s, e) = (w.config().start_day, w.config().end_day);
    let mut strict_total = 0usize;
    let mut loose_total = 0usize;
    for (_, slice) in split_days(trace, s, e) {
        strict_total += MawiDetector::new(FhConfig::paper(AggLevel::L64))
            .detect_counted(ones(slice))
            .len();
        loose_total += MawiDetector::new(FhConfig::loose(AggLevel::L64))
            .detect_counted(ones(slice))
            .len();
    }
    assert!(
        loose_total as f64 > 4.0 * strict_total as f64,
        "loose {loose_total} vs strict {strict_total}"
    );
}

#[test]
fn as1_dominates_the_link_and_is_cross_vantage_consistent() {
    // Fig. 6 + §4: the most active MAWI source is AS#1, also the CDN's top
    // scanner when identities are shared.
    let (w, trace) = world();
    let (s, e) = (w.config().start_day, w.config().end_day);
    let det = MawiDetector::new(FhConfig::paper(AggLevel::L64));
    let mut by_source: std::collections::HashMap<Ipv6Prefix, u64> = Default::default();
    for (_, slice) in split_days(trace, s, e) {
        for scan in det.detect_counted(ones(slice)) {
            *by_source.entry(scan.source).or_default() += scan.packets;
        }
    }
    let (top, top_pkts) = by_source
        .iter()
        .max_by_key(|(_, n)| **n)
        .map(|(s, n)| (*s, *n))
        .expect("scans detected");
    assert!(top.contains_addr(w.as1_source));
    let total: u64 = by_source.values().sum();
    assert!(
        top_pkts as f64 > 0.5 * total as f64,
        "top share {}",
        top_pkts as f64 / total as f64
    );

    // Cross-vantage identity: building MAWI against a CDN fleet reuses the
    // AS#1 source address.
    let cdn = World::build(FleetConfig::small());
    let w2 = MawiWorld::build(MawiConfig::small(), Some(&cdn.fleet));
    assert!(cdn.fleet.truth[0].prefix.contains_addr(w2.as1_source));
}

#[test]
fn hitlist_day_has_full_overlap_and_fewer_uniques() {
    // Appendix A.2: on 2021-05-27 AS#1 probes the hitlist (overlap ≈ 100%,
    // uniques collapse); adjacent days have ≈ 0 overlap.
    let (w, _) = world();
    let hitset: std::collections::HashSet<u128> = w.hitlist.iter().copied().collect();
    let may27 = SimTime::from_date(2021, 5, 27).day_index();

    let on = |day| targets_on(day, |r| r.src == w.as1_source);
    let switch = overlap::hitlist_overlap(on(may27).iter(), &hitset);
    let before = overlap::hitlist_overlap(on(may27 - 1).iter(), &hitset);
    let after = overlap::hitlist_overlap(on(may27 + 1).iter(), &hitset);
    assert!(
        switch.fraction() > 0.95,
        "switch-day overlap {}",
        switch.fraction()
    );
    assert!(before.fraction() < 0.05);
    assert!(after.fraction() < 0.05);
    assert!(
        switch.targets * 2 < before.targets,
        "uniques collapse: {} vs {}",
        switch.targets,
        before.targets
    );
}

#[test]
fn port_switch_on_may_27() {
    // §4: hundreds of ports before, exactly six after.
    let (w, _) = world();
    let may27 = SimTime::from_date(2021, 5, 27).day_index();
    let (_, trace) = world();
    let (s, _) = capture_window(may27 - 1);
    let (e2s, e2e) = capture_window(may27 + 1);
    let before: std::collections::HashSet<u16> = trace
        .iter()
        .filter(|r| r.src == w.as1_source && r.ts_ms < s + lumen6::mawi::WINDOW_LEN_MS)
        .filter(|r| r.ts_ms >= s)
        .map(|r| r.dport)
        .collect();
    let after: std::collections::HashSet<u16> = trace
        .iter()
        .filter(|r| r.src == w.as1_source && r.ts_ms >= e2s && r.ts_ms < e2e)
        .map(|r| r.dport)
        .collect();
    assert!(
        before.len() >= 6,
        "progressive sweep covers a daily window: {}",
        before.len()
    );
    let mut want: Vec<u16> = vec![22, 80, 443, 3389, 8080, 8443];
    want.sort_unstable();
    let mut got: Vec<u16> = after.into_iter().collect();
    got.sort_unstable();
    assert_eq!(got, want);
}

#[test]
fn icmpv6_peaks_and_hamming_separation() {
    // Fig. 7: structured target IIDs for AS#3's July-6 event, Gaussian for
    // the Dec-24 scanner; the Dec-24 scanner hits a distinct /64 per probe.
    let (w, _) = world();
    let jul6 = SimTime::from_date(2021, 7, 6).day_index();
    let dec24 = SimTime::from_date(2021, 12, 24).day_index();

    let jul_targets = targets_on(jul6, |r| w.jul6_prefix.contains_addr(r.src));
    assert!(!jul_targets.is_empty(), "July-6 event present");
    let jul = HammingDistribution::from_addrs(jul_targets.iter().copied());
    assert!(jul.mean() < 12.0, "structured: mean {}", jul.mean());
    assert!(!jul.looks_random());

    let dec_targets = targets_on(dec24, |r| r.src == w.dec24_source);
    assert!(dec_targets.len() > 1000, "Dec-24 peak present");
    let dec = HammingDistribution::from_addrs(dec_targets.iter().copied());
    assert!(
        dec.looks_random(),
        "mean {} var {}",
        dec.mean(),
        dec.variance()
    );
    assert_eq!(targeting::targets_per_dst64(&dec_targets), 1);

    // Both peak days' ICMPv6 packets dominate those days.
    let day_icmp = |day| {
        targets_on(day, |r| r.proto == Transport::Icmpv6).len() as f64
            / targets_on(day, |_| true).len().max(1) as f64
    };
    assert!(day_icmp(dec24) > 0.5);
    assert!(day_icmp(jul6) > 0.3);
}

#[test]
fn background_traffic_is_never_classified_as_scanning() {
    // The entropy and packets-per-destination criteria must reject real
    // flows: no detected scan source may be one of the background remotes
    // (background sources live outside the scanner address blocks).
    let (w, trace) = world();
    let (s, e) = (w.config().start_day, w.config().end_day);
    let det = MawiDetector::new(FhConfig::loose(AggLevel::L128));
    let background_space: Ipv6Prefix = "2400::/8".parse().unwrap();
    for (_, slice) in split_days(trace, s, e) {
        for scan in det.detect_counted(ones(slice)) {
            assert!(
                !background_space.contains(&scan.source),
                "background remote classified as scanner: {:?}",
                scan
            );
        }
    }
}

#[test]
fn split_days_partitions() {
    let (s0, _) = capture_window(0);
    let (_s1, e1) = capture_window(1);
    let records = vec![
        PacketRecord::tcp(s0, 1, 2, 1, 22, 60),
        PacketRecord::tcp(s0 + 10, 1, 3, 1, 22, 60),
        PacketRecord::tcp(e1 - 1, 1, 4, 1, 22, 60),
        PacketRecord::tcp(e1, 1, 5, 1, 22, 60), // outside
    ];
    let days = split_days(&records, 0, 3);
    assert_eq!(days.len(), 3);
    assert_eq!(days[0].1.len(), 2);
    assert_eq!(days[1].1.len(), 1);
    assert_eq!(days[2].1.len(), 0);
}
