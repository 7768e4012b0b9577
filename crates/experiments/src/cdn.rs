//! CDN-side experiments: Figs. 1–4, 8; Tables 1–3; §2.2 sensitivity; §3.1
//! durations; §3.3 targeting; Appendices A.1 and A.4.

use crate::{between, detect, CdnLab};
use lumen6_analysis::{
    concentration, durations as dur, heatmap, portbuckets, series, stats, targeting, topas,
    topports,
};
use lumen6_detect::{AggLevel, Backend, ScanDetectorConfig};
use lumen6_report::{duration_human, pct, pkt_count, pkt_with_share, Table};
use lumen6_trace::{time, SimTime, DAY_MS};
use std::fmt::Write;

/// Fig. 1: heatmap of source /64s by (destinations, packets), over November
/// 2021 when the window covers it, otherwise over the whole trace.
pub fn fig1_heatmap(lab: &CdnLab) -> String {
    let nov = time::month_range(2021, 11);
    let (slice_label, (from, to)) = if lab.world.config().end_day * DAY_MS >= nov.1 {
        ("November 2021", nov)
    } else {
        ("full window", (0, u64::MAX))
    };
    let points = heatmap::source_points(between(&lab.trace, from, to), AggLevel::L64);
    let h = heatmap::Heatmap::build(&points, 24);
    let origin = h.mass_below(8, 512);
    let heavy = points.iter().filter(|p| p.dsts >= 100).count();

    let mut out = String::new();
    writeln!(out, "## Fig. 1 — source /64 heatmap ({slice_label})").unwrap();
    writeln!(out, "source /64s: {}", h.sources).unwrap();
    writeln!(
        out,
        "origin cluster (≤8 dsts, ≤64 pkts): {} ({})",
        origin,
        pct(stats::share(origin, h.sources))
    )
    .unwrap();
    writeln!(
        out,
        "heavy tail (≥100 dsts): {} ({})",
        heavy,
        pct(stats::share(heavy as u64, h.sources))
    )
    .unwrap();
    // Compact grid: 8×8 coarse view (log₂ bins pooled 3:1).
    writeln!(
        out,
        "\npackets \\ dsts (log₂-binned source counts, pooled 3:1):"
    )
    .unwrap();
    for by in (0..24).step_by(3).rev() {
        let mut row = String::new();
        for bx in (0..24).step_by(3) {
            let sum: u64 = (by..by + 3)
                .flat_map(|y| (bx..bx + 3).map(move |x| (y, x)))
                .map(|(y, x)| h.cells[y][x])
                .sum();
            write!(
                row,
                "{:>7}",
                if sum == 0 {
                    ".".into()
                } else {
                    sum.to_string()
                }
            )
            .unwrap();
        }
        writeln!(out, "2^{:>2} |{row}", by).unwrap();
    }
    out
}

/// Table 1: detected scans, packets, sources, and source ASes per
/// aggregation level.
pub fn table1_totals(lab: &CdnLab) -> String {
    let mut t = Table::new(vec!["aggregation", "scans", "packets", "sources", "ASes"]);
    for c in 1..=4 {
        t.align_right(c);
    }
    for lvl in [AggLevel::L128, AggLevel::L64, AggLevel::L48] {
        let r = &lab.reports[&lvl];
        let ases = lab.world.registry.distinct_origin_ases(
            r.source_set().iter().map(lumen6_addr::Ipv6Prefix::bits),
            true,
        );
        t.row(vec![
            lvl.to_string(),
            r.scans().to_string(),
            pkt_count(r.packets()),
            r.sources().to_string(),
            ases.to_string(),
        ]);
    }
    format!(
        "## Table 1 — scan totals per source aggregation\n{}",
        t.render()
    )
}

/// §2.2 parameter sensitivity: timeout 3600/1800/900 s and min-dst 100 vs
/// 50 at /64 aggregation; reports the share of threshold-50 sources inside
/// AS#18.
pub fn sensitivity(lab: &CdnLab) -> String {
    let base = &lab.reports[&AggLevel::L64];
    let mut out = String::from("## §2.2 — parameter sensitivity (/64 aggregation)\n");
    let mut t = Table::new(vec![
        "configuration",
        "scans",
        "sources",
        "Δscans",
        "Δsources",
    ]);
    for c in 1..=4 {
        t.align_right(c);
    }
    t.row(vec![
        "timeout 3600s, ≥100 dsts (baseline)".into(),
        base.scans().to_string(),
        base.sources().to_string(),
        "—".into(),
        "—".into(),
    ]);
    let delta = |new: f64, old: f64| -> String {
        if old == 0.0 {
            "n/a".into()
        } else {
            format!("{:+.1}%", (new - old) / old * 100.0)
        }
    };
    for (label, timeout, min_dsts) in [
        ("timeout 1800s, ≥100 dsts", 1_800_000u64, 100u64),
        ("timeout 900s, ≥100 dsts", 900_000, 100),
        ("timeout 3600s, ≥50 dsts", 3_600_000, 50),
    ] {
        let config = ScanDetectorConfig {
            agg: AggLevel::L64,
            timeout_ms: timeout,
            min_dsts,
            ..Default::default()
        };
        let r = detect(Backend::Sequential, &lab.filtered, &[AggLevel::L64], config)
            .remove(&AggLevel::L64)
            .unwrap_or_default();
        t.row(vec![
            label.into(),
            r.scans().to_string(),
            r.sources().to_string(),
            delta(r.scans() as f64, base.scans() as f64),
            delta(r.sources() as f64, base.sources() as f64),
        ]);
        if min_dsts == 50 {
            let as18 = lab.as18_prefix();
            let new_sources: Vec<_> = r
                .source_set()
                .difference(&base.source_set())
                .copied()
                .collect();
            let in_as18 = new_sources.iter().filter(|s| as18.contains(s)).count();
            writeln!(
                out,
                "threshold-50 blow-up: {} new /64 sources, {} ({}) inside AS#18",
                new_sources.len(),
                in_as18,
                pct(stats::share(in_as18 as u64, new_sources.len() as u64))
            )
            .unwrap();
        }
    }
    out.push_str(&t.render());
    out
}

/// Fig. 2: weekly active scan sources per aggregation level, plus the
/// November-2021 /128 uptick check.
pub fn fig2_weekly_sources(lab: &CdnLab) -> String {
    let n_weeks = lab.world.config().end_day.div_ceil(7);
    let mut out = String::from("## Fig. 2 — weekly scan sources per aggregation\n");
    let mut all = Vec::new();
    for lvl in [AggLevel::L128, AggLevel::L64, AggLevel::L48] {
        let s = series::series(&lab.reports[&lvl], series::Bucket::Weekly, n_weeks);
        writeln!(
            out,
            "{lvl}: median weekly sources = {}",
            series::median_sources(&s)
        )
        .unwrap();
        all.push((lvl, s));
    }
    // The /128 uptick: mean weekly /128 sources before vs after 2021-11-01.
    let nov = SimTime::from_date(2021, 11, 1).day_index() / 7;
    let s128 = &all[0].1;
    if (nov as usize) < s128.len() {
        let mean = |xs: &[series::SeriesPoint]| -> f64 {
            if xs.is_empty() {
                0.0
            } else {
                xs.iter().map(|p| p.sources as f64).sum::<f64>() / xs.len() as f64
            }
        };
        writeln!(
            out,
            "/128 uptick: mean weekly /128 sources {:.1} before 2021-11 vs {:.1} after (AS#9)",
            mean(&s128[..nov as usize]),
            mean(&s128[nov as usize..])
        )
        .unwrap();
    }
    writeln!(out, "\nweek  /128  /64  /48").unwrap();
    for w in 0..n_weeks as usize {
        writeln!(
            out,
            "{:>4}  {:>4}  {:>3}  {:>3}",
            w, all[0].1[w].sources, all[1].1[w].sources, all[2].1[w].sources
        )
        .unwrap();
    }
    out
}

/// Fig. 3: weekly scan packets (/64) and the top-2 source concentration.
pub fn fig3_weekly_packets(lab: &CdnLab) -> String {
    let n_weeks = lab.world.config().end_day.div_ceil(7);
    let r = &lab.reports[&AggLevel::L64];
    let shares = concentration::per_bucket_topk(r, series::Bucket::Weekly, n_weeks, 2);
    let mut out = String::from("## Fig. 3 — weekly scan packets and concentration (/64)\n");
    writeln!(
        out,
        "overall top-2 source share: {}",
        pct(concentration::overall_topk_share(r, 2))
    )
    .unwrap();
    writeln!(
        out,
        "mean weekly top-2 share: {}",
        pct(concentration::mean_topk_share(&shares))
    )
    .unwrap();
    writeln!(out, "\nweek  packets    top2-share  top-source").unwrap();
    for s in &shares {
        writeln!(
            out,
            "{:>4}  {:>9.0}  {:>10}  {}",
            s.bucket,
            s.packets,
            pct(s.topk_share),
            s.top_source.map(|p| p.to_string()).unwrap_or_default()
        )
        .unwrap();
    }
    out
}

/// Table 2: top-20 source ASes.
pub fn table2_top_as(lab: &CdnLab) -> String {
    let rows = topas::top_as_table(
        &lab.world.registry,
        &lab.reports[&AggLevel::L128],
        &lab.reports[&AggLevel::L64],
        &lab.reports[&AggLevel::L48],
        20,
    );
    let mut t = Table::new(vec![
        "rank",
        "AS type",
        "packets",
        "/48s",
        "/64s",
        "/128s",
        "paper(/48,/64,/128)",
    ]);
    for c in [0usize, 2, 3, 4, 5] {
        t.align_right(c);
    }
    for row in &rows {
        let paper = row
            .asn
            .and_then(|asn| lab.world.fleet.truth.iter().find(|tr| tr.asn == asn))
            .map(|tr| {
                format!(
                    "{} / {} / {}",
                    tr.paper_sources.0, tr.paper_sources.1, tr.paper_sources.2
                )
            })
            .unwrap_or_default();
        t.row(vec![
            format!("#{}", row.rank),
            row.descriptor.clone(),
            pkt_with_share(row.packets, row.share),
            row.sources_48.to_string(),
            row.sources_64.to_string(),
            row.sources_128.to_string(),
            paper,
        ]);
    }
    let mut out = format!(
        "## Table 2 — top source ASes by scan packets\n{}",
        t.render()
    );
    writeln!(
        out,
        "top-5 AS share: {}   top-10 AS share: {}",
        pct(topas::topk_as_share(&rows, 5)),
        pct(topas::topk_as_share(&rows, 10))
    )
    .unwrap();
    // §3.2: the AS#18 /32 aggregate captures ~3× the /48-attributed packets.
    let as18 = lab.as18_prefix();
    let at48: u64 = lab.reports[&AggLevel::L48]
        .events
        .iter()
        .filter(|e| as18.contains(&e.source))
        .map(|e| e.packets)
        .sum();
    let at32: u64 = lab.reports[&AggLevel::L32]
        .events
        .iter()
        .filter(|e| as18.contains(&e.source))
        .map(|e| e.packets)
        .sum();
    writeln!(
        out,
        "AS#18 packets in qualifying scans: {} at /48 vs {} at /32 aggregation ({:.1}×)",
        pkt_count(at48),
        pkt_count(at32),
        if at48 > 0 {
            at32 as f64 / at48 as f64
        } else {
            0.0
        }
    )
    .unwrap();
    out
}

/// §3.1 scan durations per aggregation level.
pub fn durations(lab: &CdnLab) -> String {
    let mut t = Table::new(vec!["aggregation", "scans", "median", "p90", "longest"]);
    for c in 1..=4 {
        t.align_right(c);
    }
    for lvl in [AggLevel::L128, AggLevel::L64, AggLevel::L48] {
        let s = dur::summarize(&lab.reports[&lvl]);
        t.row(vec![
            lvl.to_string(),
            s.scans.to_string(),
            duration_human(s.median_ms),
            duration_human(s.p90_ms),
            duration_human(s.max_ms),
        ]);
    }
    format!("## §3.1 — scan durations\n{}", t.render())
}

/// Fig. 4: scans/sources/packets by ports-per-scan bucket (/64, AS#18
/// excluded per §3.3).
pub fn fig4_port_buckets(lab: &CdnLab) -> String {
    let as18 = lab.as18_prefix();
    let rows = portbuckets::port_buckets(&lab.reports[&AggLevel::L64], |s| as18.contains(s));
    let mut t = Table::new(vec!["ports per scan", "scans", "sources", "packets"]);
    for c in 1..=3 {
        t.align_right(c);
    }
    for r in &rows {
        t.row(vec![
            r.class.to_string(),
            pct(r.scans),
            pct(r.sources),
            pct(r.packets),
        ]);
    }
    format!(
        "## Fig. 4 — ports targeted per scan (/64, AS#18 excluded)\n{}",
        t.render()
    )
}

/// Table 3: top-10 ports by packets, scans, and source /64s (AS#18
/// excluded).
pub fn table3_top_ports(lab: &CdnLab) -> String {
    let as18 = lab.as18_prefix();
    let top = topports::top_ports(&lab.reports[&AggLevel::L64], 10, |s| as18.contains(s));
    let mut t = Table::new(vec![
        "rank", "by pkts", "%", "by scans", "%", "by /64s", "%",
    ]);
    t.align_right(0)
        .align_right(2)
        .align_right(4)
        .align_right(6);
    let fmt = |r: Option<&topports::PortRank>| -> (String, String) {
        match r {
            Some(r) => (
                format!("{}/{}", r.service.0.label(), r.service.1),
                pct(r.fraction),
            ),
            None => (String::new(), String::new()),
        }
    };
    for i in 0..10 {
        let (a, ap) = fmt(top.by_packets.get(i));
        let (b, bp) = fmt(top.by_scans.get(i));
        let (c, cp) = fmt(top.by_sources.get(i));
        t.row(vec![format!("#{}", i + 1), a, ap, b, bp, c, cp]);
    }
    format!(
        "## Table 3 — top targeted ports (/64, AS#18 excluded)\n{}",
        t.render()
    )
}

/// §3.3 targeted addresses: in-DNS vs not-in-DNS per source, plus the
/// nearby-prior-probe analysis.
pub fn targets(lab: &CdnLab) -> String {
    let dep = &lab.world.deployment;
    let as18 = lab.as18_prefix();
    let breakdowns = targeting::dns_breakdown(&lab.reports[&AggLevel::L64], |a| dep.is_in_dns(a));
    let (as18_rows, other): (Vec<_>, Vec<_>) = breakdowns
        .into_iter()
        .partition(|b| as18.contains(&b.source));
    let summary = targeting::summarize_dns(&other);
    let mut out = String::from("## §3.3 — targeted addresses (in DNS vs not in DNS)\n");
    writeln!(
        out,
        "/64 scan sources analyzed (AS#18 separate): {}",
        summary.sources
    )
    .unwrap();
    writeln!(
        out,
        "sources with ALL targets in DNS: {}",
        pct(summary.all_in_dns_frac)
    )
    .unwrap();
    writeln!(
        out,
        "sources with ≥33% not-in-DNS targets: {}",
        pct(summary.heavy_not_in_dns_frac)
    )
    .unwrap();
    writeln!(
        out,
        "rank correlation (scan size vs not-in-DNS fraction): {:+.2}",
        summary.size_vs_hidden_correlation
    )
    .unwrap();
    if !as18_rows.is_empty() {
        let hidden: u64 = as18_rows.iter().map(|b| b.not_in_dns).sum();
        let total: u64 = as18_rows
            .iter()
            .map(lumen6_analysis::targeting::SourceDns::total)
            .sum();
        writeln!(
            out,
            "AS#18: {} of its probed addresses not in DNS ({})",
            hidden,
            pct(stats::share(hidden, total))
        )
        .unwrap();
    }

    // Nearby-prior analysis over sources with ≥50% not-in-DNS targets.
    // Sample the sources with the heaviest not-in-DNS targeting (the paper
    // samples /64s that are at least 50% not-in-DNS; our fleet's explorer
    // sources sit in the 30-50% band, so take the top of the ranking).
    let mut ranked: Vec<_> = other
        .iter()
        .filter(|b| b.not_in_dns_frac() >= 0.25 && b.total() >= 50)
        .collect();
    ranked.sort_by(|a, b| b.not_in_dns_frac().total_cmp(&a.not_in_dns_frac()));
    let sample: Vec<_> = ranked.iter().map(|b| b.source).take(20).collect();
    let spans = [4u8, 8, 12, 16];
    let analysis = targeting::nearby_prior_analysis(
        lab.filtered.iter(),
        &sample,
        AggLevel::L64,
        |a| dep.is_in_dns(a),
        &spans,
    );
    writeln!(
        out,
        "\nnearby-prior-probe analysis ({} sources with substantial not-in-DNS targeting):",
        analysis.len()
    )
    .unwrap();
    writeln!(
        out,
        "source                          hidden   /124   /120   /116   /112"
    )
    .unwrap();
    for n in analysis.iter().take(12) {
        writeln!(
            out,
            "{:<30}  {:>6}  {:>5}  {:>5}  {:>5}  {:>5}",
            n.source.to_string(),
            n.hidden_targets,
            pct(n.fraction(4)),
            pct(n.fraction(8)),
            pct(n.fraction(12)),
            pct(n.fraction(16))
        )
        .unwrap();
    }
    out
}

/// Fig. 8: ports-per-scan buckets at /128 (no aggregation) and /48.
pub fn fig8_port_buckets_aggs(lab: &CdnLab) -> String {
    let mut out = String::from("## Fig. 8 — ports per scan at /128 and /48 aggregation\n");
    for lvl in [AggLevel::L128, AggLevel::L48] {
        let rows = portbuckets::port_buckets(&lab.reports[&lvl], |_| false);
        let mut t = Table::new(vec!["ports per scan", "scans", "sources", "packets"]);
        for c in 1..=3 {
            t.align_right(c);
        }
        for r in &rows {
            t.row(vec![
                r.class.to_string(),
                pct(r.scans),
                pct(r.sources),
                pct(r.packets),
            ]);
        }
        writeln!(out, "\n{lvl} aggregation:\n{}", t.render()).unwrap();
    }
    out
}

/// Appendix A.1: what the artifact filter removed.
pub fn a1_artifacts(lab: &CdnLab) -> String {
    let r = &lab.filter_report;
    let mut out = String::from("## Appendix A.1 — CDN filtering artifacts\n");
    writeln!(
        out,
        "input {} packets, removed {} ({}) from {} source-days ({} distinct /64 sources)",
        pkt_count(r.input_packets),
        pkt_count(r.removed_packets),
        pct(r.removed_fraction()),
        r.removed_source_days,
        r.removed_sources
    )
    .unwrap();
    let mut t = Table::new(vec!["service", "removed packets", "removed sources"]);
    t.align_right(1).align_right(2);
    for ((proto, port), n) in r.top_services(6) {
        let srcs = r
            .removed_sources_by_service
            .iter()
            .find(|(s, _)| s == &(*proto, *port))
            .map(|(_, n)| *n)
            .unwrap_or(0);
        t.row(vec![
            format!("{}/{}", proto.label(), port),
            pkt_count(*n),
            srcs.to_string(),
        ]);
    }
    out.push_str(&t.render());
    out
}

/// Appendix A.4: the AS#6 common-actor pair — near-identical target sets
/// across two /64s in different /48s.
pub fn a4_cloud_pair(lab: &CdnLab) -> String {
    let dep = &lab.world.deployment;
    // The pair actors' source /64s, from the fleet definition.
    let pair_64s: Vec<lumen6_addr::Ipv6Prefix> = lab
        .world
        .fleet
        .actors
        .iter()
        .filter(|a| a.name.starts_with("as6-a4-pair"))
        .map(|a| match &a.sources {
            lumen6_scanners::SourceSampler::Pool(pool) => lumen6_addr::Ipv6Prefix::new(pool[0], 64),
            _ => unreachable!("pair actors use pools"),
        })
        .collect();
    assert_eq!(pair_64s.len(), 2, "fleet defines exactly one A.4 pair");
    let mut out = String::from("## Appendix A.4 — AS#6 common-actor inference\n");
    let mut sets: Vec<Vec<u128>> = Vec::new();
    for p in &pair_64s {
        let events: Vec<_> = lab.reports[&AggLevel::L64]
            .events
            .iter()
            .filter(|e| e.source == *p)
            .collect();
        let mut targets: Vec<u128> = events
            .iter()
            .filter_map(|e| e.dsts.as_ref())
            .flatten()
            .copied()
            .collect();
        targets.sort_unstable();
        targets.dedup();
        let in_dns = targets.iter().filter(|&&a| dep.is_in_dns(a)).count();
        let packets: u64 = events.iter().map(|e| e.packets).sum();
        let first = events.iter().map(|e| e.start_ms).min().unwrap_or(0);
        let last = events.iter().map(|e| e.end_ms).max().unwrap_or(0);
        writeln!(
            out,
            "{p}: scans={} packets={} targets={} in-DNS={} ({}) active day {}..{}",
            events.len(),
            packets,
            targets.len(),
            in_dns,
            pct(stats::share(in_dns as u64, targets.len() as u64)),
            first / DAY_MS,
            last / DAY_MS
        )
        .unwrap();
        sets.push(targets);
    }
    if sets.len() == 2 {
        writeln!(
            out,
            "target-set Jaccard similarity (intersection/union): {}",
            pct(stats::jaccard_sorted(&sets[0], &sets[1]))
        )
        .unwrap();
        // Different /48s — the "separate address space" observation.
        writeln!(
            out,
            "pair /64s in different /48s: {}",
            pair_64s[0].aggregate(48) != pair_64s[1].aggregate(48)
        )
        .unwrap();
    }
    out
}
