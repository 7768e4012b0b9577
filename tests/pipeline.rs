//! End-to-end integration: the full CDN pipeline on the calibrated fleet
//! must reproduce the paper's qualitative findings.

use lumen6::analysis::{concentration, portbuckets, targeting, topas};
use lumen6::detect::day::Prefiltered;
use lumen6::detect::{
    Backend, DetectorBuilder, FilterReport, PortClass, Session, SessionConfig, SessionOutcome,
};
use lumen6::prelude::*;
use lumen6::scanners::FleetSource;
use lumen6::trace::{MaterializedSource, RecordBatch, Source};
use std::sync::OnceLock;

struct Lab {
    world: World,
    /// The firewall stream's records the A.1 filter kept, and its report.
    clean: Vec<PacketRecord>,
    filtered: FilterReport,
    r128: ScanReport,
    r64: ScanReport,
    r48: ScanReport,
}

/// The report at `config`'s level of a sequential session over `records`.
fn scans(records: &[PacketRecord], config: ScanDetectorConfig) -> ScanReport {
    let agg = config.agg;
    let session = Session::new(
        DetectorBuilder::new(config),
        Backend::Sequential,
        SessionConfig::default(),
    );
    match session.run_source(&mut MaterializedSource::new(records.to_vec())) {
        Ok(SessionOutcome::Finished(mut run)) => run.reports.remove(&agg).expect("the one level"),
        other => panic!("a session over memory runs to the end: {other:?}"),
    }
}

/// One shared small world for all tests in this file (12 weeks).
fn lab() -> &'static Lab {
    static LAB: OnceLock<Lab> = OnceLock::new();
    LAB.get_or_init(|| {
        let mut cfg = FleetConfig::small();
        cfg.end_day = 84;
        let world = World::build(cfg);
        let stream = Box::new(FleetSource::new(world.clone()));
        let mut src = Prefiltered::new(stream, ArtifactFilter::default());
        let (mut clean, mut batch) = (Vec::new(), RecordBatch::new());
        while src.fill(&mut batch, 4096).expect("generation cannot fail") > 0 {
            clean.extend(batch.iter());
        }
        let r128 = scans(&clean, ScanDetectorConfig::paper(AggLevel::L128));
        let r64 = scans(&clean, ScanDetectorConfig::paper(AggLevel::L64).with_dsts());
        let r48 = scans(&clean, ScanDetectorConfig::paper(AggLevel::L48));
        Lab {
            world,
            clean,
            filtered: src.report(),
            r128,
            r64,
            r48,
        }
    })
}

fn as18(lab: &Lab) -> Ipv6Prefix {
    lab.world
        .fleet
        .truth
        .iter()
        .find(|t| t.rank == 18)
        .expect("20 ASes")
        .prefix
}

#[test]
fn aggregation_changes_the_picture_dramatically() {
    // Table 1: /128 sources far exceed /64 sources; /48 sources exceed /64
    // sources (driven by AS#18-style spread).
    let lab = lab();
    // (The full 439-day world gives a ~4x gap; the shared 12-week test
    // fixture compresses episodic actors, so require a smaller factor.)
    assert!(lab.r128.sources() as f64 > 1.5 * lab.r64.sources() as f64);
    assert!(lab.r48.sources() > lab.r64.sources());
    // Scan packet totals stay comparable across levels (same traffic).
    let p64 = lab.r64.packets() as f64;
    assert!((lab.r48.packets() as f64 - p64).abs() / p64 < 0.15);
}

#[test]
fn as18_48s_exceed_64s_and_32_captures_more() {
    let lab = lab();
    let as18 = as18(lab);
    let s64 = lab
        .r64
        .source_set()
        .iter()
        .filter(|s| as18.contains(s))
        .count();
    let s48 = lab
        .r48
        .source_set()
        .iter()
        .filter(|s| as18.contains(s))
        .count();
    assert!(s48 > s64, "/48 sources {s48} must exceed /64 sources {s64}");

    // The /32 aggregate attributes strictly more packets than /48.
    let at48: u64 = lab
        .r48
        .events
        .iter()
        .filter(|e| as18.contains(&e.source))
        .map(|e| e.packets)
        .sum();
    let r32 = scans(&lab.clean, ScanDetectorConfig::paper(AggLevel::L32));
    let at32: u64 = r32
        .events
        .iter()
        .filter(|e| as18.contains(&e.source))
        .map(|e| e.packets)
        .sum();
    assert!(at32 as f64 > 1.2 * at48 as f64, "/32 {at32} vs /48 {at48}");
}

#[test]
fn relaxed_threshold_blows_up_sources_via_as18() {
    // §2.2: min-dst 50 yields vastly more sources, nearly all in AS#18.
    let lab = lab();
    let loose = scans(
        &lab.clean,
        ScanDetectorConfig {
            agg: AggLevel::L64,
            min_dsts: 50,
            ..Default::default()
        },
    );
    assert!(
        loose.sources() as f64 > 2.0 * lab.r64.sources() as f64,
        "{} vs {}",
        loose.sources(),
        lab.r64.sources()
    );
    let as18 = as18(lab);
    let new: Vec<_> = loose
        .source_set()
        .difference(&lab.r64.source_set())
        .copied()
        .collect();
    let inside = new.iter().filter(|s| as18.contains(s)).count();
    assert!(
        inside * 10 >= new.len() * 9,
        "{inside} of {} new sources in AS18",
        new.len()
    );
}

#[test]
fn timeouts_have_small_effect() {
    // §2.2: 30- and 15-minute timeouts change results only slightly.
    let lab = lab();
    for timeout_ms in [1_800_000u64, 900_000] {
        let r = scans(
            &lab.clean,
            ScanDetectorConfig {
                agg: AggLevel::L64,
                timeout_ms,
                ..Default::default()
            },
        );
        let ds = (r.sources() as f64 - lab.r64.sources() as f64).abs() / lab.r64.sources() as f64;
        assert!(ds < 0.15, "timeout {timeout_ms}: source delta {ds}");
    }
}

#[test]
fn scan_traffic_concentrates_on_top_two_sources() {
    // Fig. 3: the two most active sources dominate.
    let lab = lab();
    let share = concentration::overall_topk_share(&lab.r64, 2);
    assert!(share > 0.5, "top-2 share {share}");
    // And they are AS#1 and AS#2.
    let by_src = lab.r64.packets_by_source();
    let reg = &lab.world.registry;
    let top_asns: Vec<u32> = by_src
        .iter()
        .take(2)
        .filter_map(|(s, _)| reg.origin_asn(s.bits()))
        .collect();
    let truth = &lab.world.fleet.truth;
    assert!(top_asns.contains(&truth[0].asn));
    assert!(top_asns.contains(&truth[1].asn));
}

#[test]
fn table2_top_networks_are_datacenters_and_clouds_not_eyeballs() {
    let lab = lab();
    let rows = topas::top_as_table(&lab.world.registry, &lab.r128, &lab.r64, &lab.r48, 20);
    assert!(
        rows.len() >= 15,
        "most of the fleet detected: {}",
        rows.len()
    );
    // Top five rows are non-residential (paper: no pure eyeball ISP there).
    for row in rows.iter().take(5) {
        let asn = row.asn.expect("fleet sources attributable");
        let info = lab.world.registry.as_info(asn).unwrap();
        assert!(!info.ty.is_residential(), "top-5 row {info:?}");
    }
    // Top-5 packet share is heavy (paper: 92.8%).
    assert!(topas::topk_as_share(&rows, 5) > 0.8);
}

#[test]
fn multiport_scanning_dominates_packets() {
    // Fig. 4: most scan packets come from multi-port scanners.
    let lab = lab();
    let as18 = as18(lab);
    let rows = portbuckets::port_buckets(&lab.r64, |s| as18.contains(s));
    let single = rows.iter().find(|r| r.class == PortClass::Single).unwrap();
    let multi: f64 = rows
        .iter()
        .filter(|r| r.class != PortClass::Single)
        .map(|r| r.packets)
        .sum();
    assert!(multi > 0.8, "multi-port packet share {multi}");
    assert!(single.packets < 0.2);
    // And the >100-ports bucket alone holds a large share.
    let wide = rows
        .iter()
        .find(|r| r.class == PortClass::MoreThan100)
        .unwrap();
    assert!(wide.packets > 0.35, ">100-port share {}", wide.packets);
}

#[test]
fn artifacts_are_removed_and_dominated_by_smtp_and_isakmp() {
    // Appendix A.1.
    let report = &lab().filtered;
    // The small fixture runs a reduced artifact mix; the full-scale world
    // removes >60% (see EXPERIMENTS.md).
    assert!(
        report.removed_fraction() > 0.15,
        "{}",
        report.removed_fraction()
    );
    let top2: Vec<_> = report.top_services(2).iter().map(|(s, _)| *s).collect();
    assert!(top2.contains(&(Transport::Udp, 500)), "{top2:?}");
    assert!(top2.contains(&(Transport::Tcp, 25)), "{top2:?}");
}

#[test]
fn most_sources_target_only_dns_exposed_addresses() {
    // §3.3 (AS#18 excluded, as in the paper).
    let lab = lab();
    let as18 = as18(lab);
    let dep = &lab.world.deployment;
    let rows: Vec<_> = targeting::dns_breakdown(&lab.r64, |a| dep.is_in_dns(a))
        .into_iter()
        .filter(|b| !as18.contains(&b.source))
        .collect();
    let summary = targeting::summarize_dns(&rows);
    assert!(
        summary.all_in_dns_frac > 0.5,
        "all-in-DNS fraction {}",
        summary.all_in_dns_frac
    );
    // AS#18 itself targets roughly half not-in-DNS addresses.
    let as18_rows: Vec<_> = targeting::dns_breakdown(&lab.r64, |a| dep.is_in_dns(a))
        .into_iter()
        .filter(|b| as18.contains(&b.source))
        .collect();
    let hidden: u64 = as18_rows.iter().map(|b| b.not_in_dns).sum();
    let total: u64 = as18_rows.iter().map(targeting::SourceDns::total).sum();
    let frac = hidden as f64 / total as f64;
    assert!((0.4..0.6).contains(&frac), "AS18 hidden fraction {frac}");
}

#[test]
fn scan_events_never_overlap_per_source() {
    // Detector invariant on real fleet output.
    let lab = lab();
    let mut per_source: std::collections::HashMap<_, Vec<(u64, u64)>> = Default::default();
    for e in &lab.r64.events {
        per_source
            .entry(e.source)
            .or_default()
            .push((e.start_ms, e.end_ms));
    }
    for spans in per_source.values_mut() {
        spans.sort();
        for w in spans.windows(2) {
            assert!(w[1].0 > w[0].1 + 3_600_000);
        }
    }
}
