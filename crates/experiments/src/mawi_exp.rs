//! MAWI-side experiments: Figs. 5–7, the §4 ICMPv6 findings, and the
//! Appendix A.2 hitlist-overlap analysis.

use crate::MawiLab;
use lumen6_addr::HammingDistribution;
use lumen6_analysis::{overlap, stats, targeting};
use lumen6_detect::{AggLevel, MawiConfig as FhConfig, MawiDetector, MawiScan};
use lumen6_mawi::split_days;
use lumen6_report::{pct, pkt_count, Table};
use lumen6_trace::{PacketRecord, SimTime};
use std::collections::HashMap;
use std::fmt::Write;

/// Per-day detection at one configuration — the one path every MAWI
/// experiment and CSV series takes. Days are independent, so they are
/// detected concurrently, in order: on 2 cores this is 1.6x the one-thread
/// loop (full MAWI world, `fig5 fig6 icmpv6 fig7 hitlist`, same bytes), and
/// on one core it is that loop.
pub(crate) fn daily_scans(
    lab: &MawiLab,
    agg: AggLevel,
    min_dsts: u64,
) -> Vec<(u64, Vec<MawiScan>)> {
    let det = MawiDetector::new(FhConfig {
        agg,
        min_dsts,
        ..Default::default()
    });
    let config = lab.world.config();
    let days = split_days(&lab.trace, config.start_day, config.end_day);
    rayon::parallel_map_slice(&days, &|(day, slice)| (*day, det.detect(slice)))
}

/// Fig. 5: daily scan sources per aggregation and destination threshold.
pub fn fig5_daily_sources(lab: &MawiLab) -> String {
    let mut out = String::from("## Fig. 5 — MAWI daily scan sources (aggregation × min-dst)\n");
    let mut t = Table::new(vec!["configuration", "median/day", "mean/day", "max/day"]);
    for c in 1..=3 {
        t.align_right(c);
    }
    let mut medians: HashMap<(u8, u64), f64> = HashMap::new();
    for agg in [AggLevel::L128, AggLevel::L64, AggLevel::L48] {
        for min in [100u64, 5] {
            let days = daily_scans(lab, agg, min);
            let mut counts: Vec<u64> = days.iter().map(|(_, s)| s.len() as u64).collect();
            counts.sort_unstable();
            let median = stats::median_sorted(&counts);
            let mean = counts.iter().sum::<u64>() as f64 / counts.len().max(1) as f64;
            medians.insert((agg.len(), min), median as f64);
            t.row(vec![
                format!("{agg}, ≥{min} dsts"),
                median.to_string(),
                format!("{mean:.1}"),
                counts.last().copied().unwrap_or(0).to_string(),
            ]);
        }
    }
    out.push_str(&t.render());
    let strict = medians.get(&(64, 100)).copied().unwrap_or(0.0);
    let loose = medians.get(&(64, 5)).copied().unwrap_or(0.0);
    if strict > 0.0 {
        writeln!(
            out,
            "threshold 5 vs 100 at /64: {loose:.0} vs {strict:.0} median daily sources ({:.1}×)",
            loose / strict
        )
        .unwrap();
    }
    out
}

/// Fig. 6: daily scan packets and top-1/2/3 source shares.
pub fn fig6_share(lab: &MawiLab) -> String {
    let days = daily_scans(lab, AggLevel::L64, 100);
    let mut out = String::from("## Fig. 6 — MAWI daily packets and top-source shares (/64)\n");
    let mut total_by_source: HashMap<lumen6_addr::Ipv6Prefix, u64> = HashMap::new();
    let mut daily_top1 = Vec::new();
    let mut daily_top3 = Vec::new();
    let mut total_packets = 0u64;
    for (_, scans) in &days {
        let mut v: Vec<u64> = scans.iter().map(|s| s.packets).collect();
        v.sort_unstable_by(|a, b| b.cmp(a));
        let day_total: u64 = v.iter().sum();
        total_packets += day_total;
        if day_total > 0 {
            daily_top1.push(v[0] as f64 / day_total as f64);
            daily_top3.push(v.iter().take(3).sum::<u64>() as f64 / day_total as f64);
        }
        for s in scans {
            *total_by_source.entry(s.source).or_default() += s.packets;
        }
    }
    let mut ranked: Vec<(lumen6_addr::Ipv6Prefix, u64)> = total_by_source.into_iter().collect();
    ranked.sort_by_key(|&(_, n)| std::cmp::Reverse(n));
    writeln!(
        out,
        "days analyzed: {}   scan packets: {}",
        days.len(),
        pkt_count(total_packets)
    )
    .unwrap();
    if let Some((top, pkts)) = ranked.first() {
        writeln!(
            out,
            "most active source: {top} with {} ({} of all scan packets)",
            pkt_count(*pkts),
            pct(stats::share(*pkts, total_packets))
        )
        .unwrap();
        writeln!(
            out,
            "most active source is the CDN fleet's AS#1 source: {}",
            top.contains_addr(lab.world.as1_source)
        )
        .unwrap();
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    writeln!(
        out,
        "mean daily top-1 share: {}   mean daily top-3 share: {}",
        pct(mean(&daily_top1)),
        pct(mean(&daily_top3))
    )
    .unwrap();
    out
}

/// §4 ICMPv6 scans: prevalence, dominance, and the two peak events.
pub fn icmpv6_days(lab: &MawiLab) -> String {
    let days = daily_scans(lab, AggLevel::L64, 100);
    let mut out = String::from("## §4 — ICMPv6 scanning in the MAWI traces\n");
    let mut days_with_icmp = 0usize;
    let mut days_icmp_majority = 0usize;
    let mut peak: (u64, u64) = (0, 0); // (day, icmpv6 packets)
    for (day, scans) in &days {
        let icmp: Vec<&MawiScan> = scans.iter().filter(|s| s.is_icmpv6()).collect();
        if !icmp.is_empty() {
            days_with_icmp += 1;
            if icmp.len() * 2 > scans.len() {
                days_icmp_majority += 1;
            }
            let pkts: u64 = icmp.iter().map(|s| s.packets).sum();
            if pkts > peak.1 {
                peak = (*day, pkts);
            }
        }
    }
    writeln!(
        out,
        "days with large-scale ICMPv6 scans: {} of {}",
        days_with_icmp,
        days.len()
    )
    .unwrap();
    writeln!(
        out,
        "days where ICMPv6 sources are the majority of scan sources: {days_icmp_majority}"
    )
    .unwrap();
    let label = SimTime(peak.0 * lumen6_trace::DAY_MS).date_label();
    let kpps = peak.1 as f64 / (lumen6_mawi::WINDOW_LEN_MS as f64 / 1000.0) / 1000.0;
    writeln!(
        out,
        "largest ICMPv6 peak: {label} with {} packets in the 15-min window ({kpps:.1} kpps)",
        pkt_count(peak.1)
    )
    .unwrap();
    // The July 6 event: count the /128 source addresses inside the /124
    // (the paper: "the top scan source consists of 7 source IPs from the
    // same /124 prefix").
    let jul6 = SimTime::from_date(2021, 7, 6).day_index();
    let srcs: std::collections::HashSet<u128> = window(lab, jul6)
        .iter()
        .filter(|r| lab.world.jul6_prefix.contains_addr(r.src))
        .map(|r| r.src)
        .collect();
    writeln!(
        out,
        "2021-07-06: {} source IPs from the AS#3 /124 ({})",
        srcs.len(),
        lab.world.jul6_prefix
    )
    .unwrap();
    out
}

/// The records of one day's capture window.
fn window(lab: &MawiLab, day: u64) -> &[PacketRecord] {
    let (s, e) = lumen6_mawi::capture_window(day);
    let lo = lab.trace.partition_point(|r| r.ts_ms < s);
    let hi = lab.trace.partition_point(|r| r.ts_ms < e);
    &lab.trace[lo..hi]
}

/// The targets probed on `day` by the sources `from` admits.
pub(crate) fn targets(lab: &MawiLab, day: u64, from: impl Fn(u128) -> bool) -> Vec<u128> {
    let probes = window(lab, day).iter().filter(|r| from(r.src));
    probes.map(|r| r.dst).collect()
}

/// Fig. 7: Hamming-weight distributions of target IIDs for the selected
/// sources and dates.
pub fn fig7_hamming(lab: &MawiLab) -> String {
    let may27 = SimTime::from_date(2021, 5, 27).day_index();
    let may28 = may27 + 1;
    let jul6 = SimTime::from_date(2021, 7, 6).day_index();
    let dec24 = SimTime::from_date(2021, 12, 24).day_index();
    let jul6_src = lab.world.jul6_prefix.first_addr() | 1;

    let mut out = String::from("## Fig. 7 — Hamming weight of target IIDs (MAWI)\n");
    let mut t = Table::new(vec![
        "source / date",
        "targets",
        "mean HW",
        "median",
        "random?",
    ]);
    for c in 1..=3 {
        t.align_right(c);
    }
    let mut dists: Vec<(String, HammingDistribution)> = Vec::new();
    for (label, day, src) in [
        ("AS#1 2021-05-27 (hitlist day)", may27, lab.world.as1_source),
        ("AS#1 2021-05-28", may28, lab.world.as1_source),
        ("AS#3 2021-07-06 (ICMPv6)", jul6, jul6_src),
        ("Cloud 2021-12-24 (ICMPv6)", dec24, lab.world.dec24_source),
    ] {
        // For the July-6 event, collect over all seven /124 sources.
        let pool = |s| lab.world.jul6_prefix.contains_addr(s);
        let targets = targets(lab, day, |s| if day == jul6 { pool(s) } else { s == src });
        let d = HammingDistribution::from_addrs(targets);
        t.row(vec![
            label.to_string(),
            d.total().to_string(),
            format!("{:.1}", d.mean()),
            d.median().to_string(),
            if d.looks_random() {
                "yes (Gaussian)"
            } else {
                "no (structured)"
            }
            .to_string(),
        ]);
        dists.push((label.to_string(), d));
    }
    out.push_str(&t.render());
    // Coarse PMF rows (8-weight buckets).
    writeln!(out, "\nPMF over weight buckets [0-8) [8-16) ... [56-64]:").unwrap();
    for (label, d) in &dists {
        if d.total() == 0 {
            continue;
        }
        let pmf = d.pmf();
        let mut row = String::new();
        for b in 0..8 {
            let sum: f64 = pmf[b * 8..(b + 1) * 8].iter().sum();
            write!(row, " {:>5.1}%", sum * 100.0).unwrap();
        }
        writeln!(out, "{label:<32}{row}").unwrap();
    }
    // Target closeness (§4): median targets per destination /64.
    let as1_targets = targets(lab, may28, |s| s == lab.world.as1_source);
    let dec_targets = targets(lab, dec24, |s| s == lab.world.dec24_source);
    writeln!(
        out,
        "\nmedian targets per destination /64: AS#1 = {}, Dec-24 scanner = {}",
        targeting::targets_per_dst64(&as1_targets),
        targeting::targets_per_dst64(&dec_targets)
    )
    .unwrap();
    out
}

/// Appendix A.2: overlap of per-day target sets with the public hitlist.
pub fn hitlist_overlap(lab: &MawiLab) -> String {
    let hitlist: std::collections::HashSet<u128> = lab.world.hitlist.iter().copied().collect();
    let may27 = SimTime::from_date(2021, 5, 27).day_index();
    let dec24 = SimTime::from_date(2021, 12, 24).day_index();
    let jul6 = SimTime::from_date(2021, 7, 6).day_index();
    let mut out = String::from("## Appendix A.2 — IPv6-hitlist overlap of target sets\n");
    let mut t = Table::new(vec![
        "source / date",
        "unique targets",
        "in hitlist",
        "overlap",
    ]);
    for c in 1..=3 {
        t.align_right(c);
    }
    for (label, day, src) in [
        ("AS#1 2021-05-26", may27 - 1, lab.world.as1_source),
        ("AS#1 2021-05-27 (switch day)", may27, lab.world.as1_source),
        ("AS#1 2021-05-28", may27 + 1, lab.world.as1_source),
        ("Cloud 2021-12-24", dec24, lab.world.dec24_source),
    ] {
        let o = overlap::hitlist_overlap(targets(lab, day, |s| s == src).iter(), &hitlist);
        t.row(vec![
            label.to_string(),
            o.targets.to_string(),
            o.in_hitlist.to_string(),
            pct(o.fraction()),
        ]);
    }
    // July 6: all seven sources.
    let jul_targets = targets(lab, jul6, |s| lab.world.jul6_prefix.contains_addr(s));
    let o = overlap::hitlist_overlap(jul_targets.iter(), &hitlist);
    t.row(vec![
        "AS#3 2021-07-06 (/124 pool)".into(),
        o.targets.to_string(),
        o.in_hitlist.to_string(),
        pct(o.fraction()),
    ]);
    out.push_str(&t.render());
    out
}
