//! JSON round-trip stability of the public result types: downstream tools
//! consume `--json` output, so these shapes are API.

use lumen6::detect::adaptive::Alert;
use lumen6::detect::{
    AggLevel, Backend, DetectorBuilder, MawiScan, ScanEvent, Session, SessionConfig, SessionOutcome,
};
use lumen6::prelude::*;
use lumen6::scanners::FleetSource;
use lumen6::trace::Transport;

#[test]
fn scan_event_json_roundtrip() {
    let e = ScanEvent {
        source: "2001:db8::/64".parse().unwrap(),
        agg: AggLevel::L64,
        start_ms: 12,
        end_ms: 9_999,
        packets: 500,
        distinct_dsts: 480,
        distinct_srcs: 3,
        ports: vec![((Transport::Tcp, 22), 400), ((Transport::Udp, 500), 100)],
        dsts: Some(vec![1, 2, 3]),
    };
    let json = serde_json::to_string(&e).unwrap();
    let back: ScanEvent = serde_json::from_str(&json).unwrap();
    assert_eq!(e, back);
}

#[test]
fn detection_pipeline_events_roundtrip_via_json() {
    let mut cfg = FleetConfig::small();
    cfg.end_day = 5;
    let world = World::build(cfg);
    let config = ScanDetectorConfig::paper(AggLevel::L64).with_dsts();
    let session = Session::new(
        DetectorBuilder::new(config),
        Backend::Sequential,
        SessionConfig::default(),
    );
    let Ok(SessionOutcome::Finished(mut run)) = session.run_source(&mut FleetSource::new(world))
    else {
        panic!("no checkpoint policy: the session runs to the end")
    };
    let report = run.reports.remove(&AggLevel::L64).expect("the one level");
    assert!(report.scans() > 0);
    let json = serde_json::to_string(&report.events).unwrap();
    let back: Vec<ScanEvent> = serde_json::from_str(&json).unwrap();
    assert_eq!(report.events, back);
}

#[test]
fn mawi_scan_and_alert_roundtrip() {
    let scan = MawiScan {
        source: "2001:db8::/64".parse().unwrap(),
        services: vec![(Transport::Icmpv6, 0), (Transport::Tcp, 22)],
        packets: 1_000,
        distinct_dsts: 900,
        start_ms: 5,
        end_ms: 800,
    };
    let back: MawiScan = serde_json::from_str(&serde_json::to_string(&scan).unwrap()).unwrap();
    assert_eq!(scan, back);
    assert!(back.is_icmpv6());

    let alert = Alert {
        prefix: "2001:db8::/32".parse().unwrap(),
        packets: 10_000,
        distinct_dsts: 9_000,
        contributing_srcs: 500,
        collateral_srcs: 12,
        subsumed: vec!["2001:db8:1::/48".parse().unwrap()],
    };
    let back: Alert = serde_json::from_str(&serde_json::to_string(&alert).unwrap()).unwrap();
    assert_eq!(alert, back);
}

#[test]
fn prefix_serializes_compactly_and_roundtrips() {
    let p: Ipv6Prefix = "2001:db8::/32".parse().unwrap();
    let json = serde_json::to_string(&p).unwrap();
    let back: Ipv6Prefix = serde_json::from_str(&json).unwrap();
    assert_eq!(p, back);
}

#[test]
fn configs_roundtrip() {
    let d = ScanDetectorConfig::default();
    let back: ScanDetectorConfig =
        serde_json::from_str(&serde_json::to_string(&d).unwrap()).unwrap();
    assert_eq!(d, back);

    let f = FleetConfig::small();
    let back: FleetConfig = serde_json::from_str(&serde_json::to_string(&f).unwrap()).unwrap();
    assert_eq!(f, back);

    let m = lumen6::mawi::MawiConfig::default();
    let back: lumen6::mawi::MawiConfig =
        serde_json::from_str(&serde_json::to_string(&m).unwrap()).unwrap();
    assert_eq!(m, back);
}
