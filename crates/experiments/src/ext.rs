//! Extension experiments: the paper's §5 future-work directions, built and
//! evaluated on the simulated world.
//!
//! - `ext_adaptive` — the adaptive-aggregation IDS plus blocklist policy on
//!   real fleet traffic: who gets blocked, who is saved by the collateral
//!   guard.
//! - `ext_fingerprint` — traffic-feature clustering of scan events; purity
//!   against the ground-truth AS of each source, and the Appendix A.4
//!   same-actor verdict computed from behavior alone.
//! - `ext_tga` — target generation: learn the telescope's address structure
//!   from the DNS-exposed half, rediscover hidden (not-in-DNS) addresses.

use crate::{between, CdnLab};
use lumen6_addr::EntropyProfile;
use lumen6_detect::adaptive::{AdaptiveConfig, AdaptiveIds};
use lumen6_detect::blocklist::{Blocklist, BlocklistConfig, Decision, RejectReason};
use lumen6_detect::{fingerprint, AggLevel};
use lumen6_report::{pct, Table};
use lumen6_scanners::tga;
use lumen6_trace::{PacketRecord, DAY_MS};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::{HashMap, HashSet};
use std::fmt::Write;

/// Adaptive IDS + blocklist over one analysis window of fleet traffic.
pub fn ext_adaptive(lab: &CdnLab) -> String {
    // One 28-day window keeps per-host state bounded and mirrors an IDS
    // analysis epoch.
    let end = 28 * DAY_MS;
    let rows = &lab.filtered;
    let hi = rows.ts_ms().partition_point(|&t| t < end);

    // The firewall only sees unsolicited traffic, so AS#6's benign cloud
    // tenants are normally invisible. Model the §5 collateral scenario:
    // 300 of them emit a stray packet each (one destination apiece) inside
    // the scanners' /32 during the window — any coarse alert over that /32
    // now carries real collateral.
    let as6 = lab
        .world
        .fleet
        .truth
        .iter()
        .find(|t| t.rank == 6)
        .expect("fleet has 20 ASes")
        .prefix;
    let busy_dst = lab.world.deployment.machines()[0].client_facing;
    let mut rng = SmallRng::seed_from_u64(7);
    let tenants: Vec<_> = (0..300u64)
        .map(|i| {
            let src = lumen6_addr::gen::random_in_prefix(&mut rng, as6);
            PacketRecord::udp((i % 28) * DAY_MS + 1000, src, busy_dst, 500, 500, 120)
        })
        .collect();
    // The IDS folds per host, so the window's counted rows go in as they
    // are, in any order.
    let window = (0..hi).map(|i| (rows.get(i), rows.count(i)));
    let window: Vec<_> = window.chain(tenants.iter().map(|&r| (r, 1))).collect();
    let packets: u64 = window.iter().map(|&(_, n)| u64::from(n)).sum();
    let alerts = AdaptiveIds::new(AdaptiveConfig::default()).analyze_counted(window);

    let mut out = String::from("## Extension — adaptive-aggregation IDS + blocklist policy\n");
    writeln!(
        out,
        "analysis window: 28 days, {packets} packets (incl. 300 benign AS#6 tenants); {} alerts",
        alerts.len()
    )
    .unwrap();
    let mut t = Table::new(vec![
        "prefix",
        "packets",
        "dsts",
        "srcs",
        "collateral",
        "subsumed",
        "AS",
    ]);
    for c in 1..=5 {
        t.align_right(c);
    }
    for a in alerts.iter().take(12) {
        let who = lab
            .world
            .registry
            .origin_asn(a.prefix.bits())
            .and_then(|asn| lab.world.fleet.truth.iter().find(|t| t.asn == asn))
            .map(|t| format!("#{}", t.rank))
            .unwrap_or_else(|| "?".into());
        t.row(vec![
            a.prefix.to_string(),
            a.packets.to_string(),
            a.distinct_dsts.to_string(),
            a.contributing_srcs.to_string(),
            a.collateral_srcs.to_string(),
            a.subsumed.len().to_string(),
            who,
        ]);
    }
    out.push_str(&t.render());

    // Blocklist policy: strict collateral bound first, then a loose bound
    // to expose the trade-off the paper warns about.
    for (label, max_collateral) in [("strict (≤8)", 8u64), ("loose (≤10000)", 10_000)] {
        let mut bl = Blocklist::new(BlocklistConfig {
            max_collateral,
            ..Default::default()
        });
        let decisions = bl.ingest(&alerts);
        let blocked = decisions
            .iter()
            .filter(|d| matches!(d, Decision::Blocked(_)))
            .count();
        let collateral_rejects = decisions
            .iter()
            .filter(|d| matches!(d, Decision::Rejected(_, RejectReason::TooMuchCollateral)))
            .count();
        writeln!(
            out,
            "policy {label}: {blocked} blocked, {collateral_rejects} rejected for collateral ({} other rejects)",
            decisions.len() - blocked - collateral_rejects
        )
        .unwrap();
        if max_collateral <= 8 {
            for d in &decisions {
                if let Decision::Rejected(p, RejectReason::TooMuchCollateral) = d {
                    writeln!(out, "  collateral guard saved: {p}").unwrap();
                }
            }
        }
    }
    out
}

/// Behavior-based clustering of scan events and the A.4 inference.
pub fn ext_fingerprint(lab: &CdnLab) -> String {
    let report = &lab.reports[&AggLevel::L64];
    let clusters = fingerprint::cluster(&report.events, 0.10);

    // Purity: fraction of each cluster's events whose source AS equals the
    // cluster's majority AS, weighted by cluster size.
    let asn_of = |idx: usize| -> Option<u32> {
        lab.world
            .registry
            .origin_asn(report.events[idx].source.bits())
    };
    let mut weighted_pure = 0usize;
    let mut total = 0usize;
    for c in &clusters {
        let mut counts: HashMap<Option<u32>, usize> = HashMap::new();
        for &m in &c.members {
            *counts.entry(asn_of(m)).or_default() += 1;
        }
        let majority = counts.values().copied().max().unwrap_or(0);
        weighted_pure += majority;
        total += c.members.len();
    }

    let mut out = String::from("## Extension — traffic-feature fingerprinting of scans\n");
    writeln!(
        out,
        "{} /64 scan events clustered into {} behavior groups ({} scanning ASes in the fleet)",
        report.events.len(),
        clusters.len(),
        lab.world.fleet.truth.len()
    )
    .unwrap();
    writeln!(
        out,
        "cluster purity (events matching their cluster's majority AS): {}",
        pct(weighted_pure as f64 / total.max(1) as f64)
    )
    .unwrap();

    // The A.4 pair by behavior alone.
    let pair: Vec<_> = lab
        .world
        .fleet
        .actors
        .iter()
        .filter(|a| a.name.starts_with("as6-a4-pair"))
        .map(|a| match &a.sources {
            lumen6_scanners::SourceSampler::Pool(p) => lumen6_addr::Ipv6Prefix::new(p[0], 64),
            _ => unreachable!("pair actors use pools"),
        })
        .collect();
    let events_of = |p: &lumen6_addr::Ipv6Prefix| -> Vec<&lumen6_detect::ScanEvent> {
        report.events.iter().filter(|e| e.source == *p).collect()
    };
    let a = events_of(&pair[0]);
    let b = events_of(&pair[1]);
    writeln!(
        out,
        "A.4 pair same-actor verdict (behavior only, no prefix relation): {}",
        fingerprint::same_actor(&a, &b, 0.15)
    )
    .unwrap();
    // Control: the pair vs AS#18 (single-port, half-hidden targeting).
    let as18 = lab.as18_prefix();
    let control: Vec<_> = report
        .events
        .iter()
        .filter(|e| as18.contains(&e.source))
        .take(40)
        .collect();
    writeln!(
        out,
        "control (pair vs AS#18 behavior): {}",
        fingerprint::same_actor(&a, &control, 0.15)
    )
    .unwrap();
    out
}

/// DNS-backscatter cross-check: detect the fleet's scanners from the
/// reverse-zone authority's viewpoint, with no access to the scan traffic.
pub fn ext_backscatter(lab: &CdnLab) -> String {
    use lumen6_backscatter::{backscatter_queries, BackscatterConfig, BackscatterDetector};
    // One month of victim-side traffic drives the PTR-query stream.
    let end = 31 * DAY_MS;
    let mut queries: Vec<_> = backscatter_queries(
        between(&lab.trace, 0, end),
        &BackscatterConfig::default(),
        5,
    )
    .collect();
    queries.sort_by_key(|q| q.ts_ms);
    let detected = BackscatterDetector::default().detect(&queries);

    let mut out = String::from(
        "## Extension — DNS-backscatter cross-check (Fukuda–Heidemann vantage)
",
    );
    writeln!(
        out,
        "{} PTR queries at the reverse-zone authority; {} sources flagged (≥20 distinct resolvers)",
        queries.len(),
        detected.len()
    )
    .unwrap();
    let mut t = Table::new(vec!["source /64", "queriers", "queries", "ground truth"]);
    t.align_right(1).align_right(2);
    let mut hits = 0usize;
    for d in detected.iter().take(10) {
        let who = lab
            .world
            .fleet
            .truth
            .iter()
            .find(|tr| tr.prefix.contains(&d.source))
            .map(|tr| {
                hits += 1;
                format!("AS#{}", tr.rank)
            })
            .unwrap_or_else(|| "not a scanner (!)".into());
        t.row(vec![
            d.source.to_string(),
            d.queriers.to_string(),
            d.queries.to_string(),
            who,
        ]);
    }
    out.push_str(&t.render());
    let precision = detected
        .iter()
        .filter(|d| {
            lab.world
                .fleet
                .truth
                .iter()
                .any(|tr| tr.prefix.contains(&d.source))
        })
        .count();
    writeln!(
        out,
        "precision: {} of {} flagged sources are ground-truth scanners",
        precision,
        detected.len()
    )
    .unwrap();
    out
}

/// Seed robustness: the headline results must not be artifacts of one RNG
/// stream. Builds three reduced worlds with different seeds and compares
/// the topline shapes.
pub fn ext_seeds(_lab: &CdnLab) -> String {
    let mut out = String::from(
        "## Extension — seed robustness (three reduced 12-week worlds)
",
    );
    let mut t = Table::new(vec![
        "seed",
        "/64 scans",
        "/64 sources",
        "/48 sources",
        "top-2 share",
        "all-in-DNS",
    ]);
    for c in 1..=5 {
        t.align_right(c);
    }
    for seed in [1u64, 7, 1234] {
        let mut cfg = lumen6_scanners::FleetConfig::small();
        cfg.seed = seed;
        cfg.end_day = 84;
        let lab = CdnLab::build_with(cfg, lumen6_detect::Backend::default());
        let r64 = &lab.reports[&AggLevel::L64];
        let r48 = &lab.reports[&lumen6_detect::AggLevel::L48];
        let as18 = lab.as18_prefix();
        let dep = &lab.world.deployment;
        let rows: Vec<_> = lumen6_analysis::targeting::dns_breakdown(r64, |a| dep.is_in_dns(a))
            .into_iter()
            .filter(|b| !as18.contains(&b.source))
            .collect();
        let summary = lumen6_analysis::targeting::summarize_dns(&rows);
        t.row(vec![
            seed.to_string(),
            r64.scans().to_string(),
            r64.sources().to_string(),
            r48.sources().to_string(),
            pct(lumen6_analysis::concentration::overall_topk_share(r64, 2)),
            pct(summary.all_in_dns_frac),
        ]);
    }
    out.push_str(&t.render());
    writeln!(
        out,
        "shape checks across seeds: /48 sources > /64 sources and top-2 dominance hold in every world"
    )
    .unwrap();
    out
}

/// Strategy-shift detection: recover AS#1's May-2021 port switch from the
/// trace alone (no ground-truth peek).
pub fn ext_portshift(lab: &CdnLab) -> String {
    let as1 = lab.world.fleet.truth[0].prefix;
    let weeks = lab.world.config().end_day.div_ceil(7) as usize;
    let sets = lumen6_analysis::changepoint::service_sets_per_bucket(
        lab.filtered.iter(),
        as1,
        lumen6_trace::WEEK_MS,
        weeks,
    );
    let mut out = String::from(
        "## Extension — port-strategy change-point detection (AS#1)
",
    );
    match lumen6_analysis::changepoint::detect_port_shift(&sets, 4, 0.5) {
        Some(shift) => {
            let day = shift.bucket as u64 * 7;
            let label = lumen6_trace::SimTime(day * DAY_MS).date_label();
            writeln!(
                out,
                "detected switch in week {} (≈ {label}): {} ports -> {} ports",
                shift.bucket, shift.ports_before, shift.ports_after
            )
            .unwrap();
            writeln!(
                out,
                "regime coherence {:.2} / {:.2}, cross-similarity {:.2}",
                shift.before_coherence, shift.after_coherence, shift.cross_similarity
            )
            .unwrap();
            writeln!(
                out,
                "ground truth: the fleet switches AS#1 on 2021-05-27 (week 20)"
            )
            .unwrap();
        }
        None => writeln!(out, "no change point found (window may not cover May 2021)").unwrap(),
    }
    out
}

/// Target generation: rediscovering not-in-DNS telescope addresses.
pub fn ext_tga(lab: &CdnLab) -> String {
    let dep = &lab.world.deployment;
    let seeds: Vec<u128> = dep.dns_hitlist();
    let seed_set: HashSet<u128> = seeds.iter().copied().collect();
    let responders: HashSet<u128> = dep.all_addrs().into_iter().collect();

    let profile = EntropyProfile::from_addrs(seeds.iter().copied());
    let model = tga::IidModel::learn(&seeds);
    let nets = tga::seed_networks(&seeds);

    let mut rng = SmallRng::seed_from_u64(99);
    let n = 200_000;
    let candidates = model.generate(&mut rng, &nets, &seed_set, n);
    let hit = tga::evaluate_hit_rate(&candidates, &seed_set, &responders);
    let baseline = tga::random_baseline(&mut rng, &nets, n);
    let base_hit = tga::evaluate_hit_rate(&baseline, &seed_set, &responders);

    // How many *hidden* (not-in-DNS) addresses did the model uncover?
    let discovered: HashSet<u128> = candidates
        .iter()
        .copied()
        .filter(|c| !seed_set.contains(c) && responders.contains(c))
        .collect();
    let hidden_total = responders.len() - seed_set.len();

    let mut out =
        String::from("## Extension — target generation (how scanners find non-DNS targets)\n");
    writeln!(
        out,
        "seed set: {} DNS-exposed addresses over {} /64s",
        seeds.len(),
        nets.len()
    )
    .unwrap();
    writeln!(out, "seed entropy signature: {}", profile.signature()).unwrap();
    writeln!(
        out,
        "seed IID entropy: {:.2} bits/nibble",
        profile.iid_entropy()
    )
    .unwrap();
    writeln!(
        out,
        "learned model: hit rate {} over {n} candidates (random-IID baseline: {})",
        pct(hit),
        pct(base_hit)
    )
    .unwrap();
    writeln!(
        out,
        "hidden addresses discovered: {} of {} not-in-DNS telescope addresses ({})",
        discovered.len(),
        hidden_total,
        pct(discovered.len() as f64 / hidden_total.max(1) as f64)
    )
    .unwrap();
    writeln!(
        out,
        "-> structured address plans make \"non-DNS\" targets guessable, the paper's §5 concern"
    )
    .unwrap();
    out
}
