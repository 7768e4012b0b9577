//! A periodic publication spawns no detector thread: `Session::report_now`
//! finishes a throwaway sequential clone on every backend, and publishes the
//! same bytes from a threaded session as from a sequential one. A test
//! binary of its own, because the worker count it reads is process-global
//! and every other threaded test would move it.

use lumen6_detect::prelude::*;
use lumen6_obs::MetricsRegistry;
use lumen6_trace::PacketRecord;

/// Detector workers that ever finished in this process.
fn workers_finished() -> u64 {
    let snap = MetricsRegistry::global().snapshot();
    let wall = snap.histograms.get("detect.parallel.worker_wall_us");
    wall.map_or(0, |h| h.count)
}

#[test]
fn report_now_spawns_no_worker_and_publishes_the_sequential_bytes() {
    // One scanner at 150 distinct destinations among two quiet sources.
    let scanner = 0x2001_0db8_0000_0001_u128 << 64 | 1;
    let mut recs: Vec<PacketRecord> = (0..150u64)
        .map(|i| PacketRecord::tcp(i * 1_000, scanner, 0xd000 + u128::from(i), 1, 22, 60))
        .collect();
    recs.extend((0..100u64).map(|i| {
        let quiet = (0x2001_0db8_0000_0100_u128 + u128::from(i % 2)) << 64 | 1;
        PacketRecord::udp(i * 1_500, quiet, 0xe000, 1, 53, 80)
    }));
    lumen6_trace::sort_by_time(&mut recs);
    let builder =
        DetectorBuilder::new(ScanDetectorConfig::default()).levels(&AggLevel::PAPER_LEVELS);
    let config = SessionConfig {
        watermark_ms: 2_000,
        batch: 64,
        ..Default::default()
    };

    let mut published = Vec::new();
    for backend in [Backend::Sequential, Backend::Threaded] {
        let mut session = Session::new(builder.clone(), backend, config.clone());
        let mut src = MaterializedSource::new(recs.clone());
        for _ in 0..3 {
            session.step(&mut src).unwrap();
        }
        let before = workers_finished();
        let report = session.report_now().unwrap();
        assert_eq!(
            workers_finished(),
            before,
            "{backend:?}: report_now ran a worker"
        );
        assert_eq!(report.records, 192, "{backend:?}");
        assert_eq!(report.reports[&AggLevel::L64].scans(), 1, "{backend:?}");
        published.push(serde_json::to_string(&report).unwrap());
    }
    assert_eq!(published[0], published[1]);
}
