//! Tier-1 check of the one ingest route against an independent statement
//! of the paper's rule: a `Session` that hands the source's batches to the
//! detector — as filled, through the reorder buffer, cut by idle flushes,
//! on either backend — reports exactly what the test-side oracle
//! (`crates/detect/tests/oracle/mod.rs`, §2.2 written out with std
//! collections) reports, level by level, on fleet traffic — and so does a
//! fused 10x run, where the source emits and the detector accounts nine
//! records in ten as the repeats of a run. At the paper's 1250x, where a
//! 4096-record batch is three or four counted rows, the reports are the
//! oracle's over the 1x records as rows of count 1250: every packet count
//! is the oracle's u64 sum, with no copy expanded.

use lumen6::detect::prelude::*;
use lumen6::detect::ArtifactFilter;
use lumen6::scanners::{FleetConfig, FleetSource, World};
use lumen6::trace::{PacketRecord, RecordBatch, Source};

#[path = "../crates/detect/tests/oracle/mod.rs"]
mod oracle;

/// What the oracle reports at each paper level on `records`, each record
/// standing for `copies` packets.
fn oracle_reports(
    records: &[PacketRecord],
    copies: u64,
    base: &ScanDetectorConfig,
) -> Vec<(AggLevel, ScanReport)> {
    AggLevel::PAPER_LEVELS
        .iter()
        .map(|&agg| {
            let config = ScanDetectorConfig {
                agg,
                ..base.clone()
            };
            let report = oracle::scans(records.iter().map(|&r| (r, copies)), &config);
            assert!(report.scans() > 0, "{agg}: nothing to compare");
            (agg, report)
        })
        .collect()
}

#[test]
fn session_reports_equal_the_oracle_at_paper_levels() {
    let world = World::build(FleetConfig {
        end_day: 7,
        ..FleetConfig::small()
    });
    let (clean, _) = ArtifactFilter::default().filter(&world.cdn_trace());
    assert!(clean.len() > 10_000, "trace too small to be meaningful");
    let base = ScanDetectorConfig {
        min_dsts: 50,
        ..Default::default()
    };
    let reference = oracle_reports(&clean, 1, &base);

    let builder = DetectorBuilder::new(base).levels(&AggLevel::PAPER_LEVELS);
    for backend in [Backend::Sequential, Backend::Threaded] {
        for watermark_ms in [0, 60_000] {
            for flush_idle_every_ms in [0, 3_600_000] {
                let config = SessionConfig {
                    watermark_ms,
                    flush_idle_every_ms,
                    ..Default::default()
                };
                let what = format!("{backend:?}, {config:?}");
                let mut src = MaterializedSource::new(clean.clone());
                let outcome = Session::new(builder.clone(), backend, config)
                    .run_source(&mut src)
                    .unwrap();
                let SessionOutcome::Finished(rep) = outcome else {
                    panic!("{what}: stopped without a checkpoint policy");
                };
                assert_eq!(rep.records, clean.len() as u64, "{what}");
                assert_eq!(rep.late_dropped, 0, "{what}");
                for (agg, expect) in &reference {
                    assert_eq!(&rep.reports[agg], expect, "{what}: level {agg}");
                }
            }
        }
    }
}

#[test]
fn fused_10x_session_reports_equal_the_oracle_at_paper_levels() {
    let fleet = FleetConfig {
        intensity: 10.0,
        end_day: 7,
        ..FleetConfig::small()
    };
    let trace = World::build(fleet.clone()).cdn_trace();
    assert!(trace.len() > 100_000, "trace too small to be meaningful");
    let base = ScanDetectorConfig::default();
    let reference = oracle_reports(&trace, 1, &base);

    let builder = DetectorBuilder::new(base).levels(&AggLevel::PAPER_LEVELS);
    for backend in [Backend::Sequential, Backend::Threaded] {
        // 4096 carries whole runs; 3 cuts every one of them.
        for batch in [4_096, 3] {
            let config = SessionConfig {
                batch,
                ..Default::default()
            };
            let what = format!("{backend:?}, batch {batch}");
            let mut src = FleetSource::new(World::build(fleet.clone()));
            let outcome = Session::new(builder.clone(), backend, config)
                .run_source(&mut src)
                .unwrap();
            let SessionOutcome::Finished(rep) = outcome else {
                panic!("{what}: stopped without a checkpoint policy");
            };
            assert_eq!(rep.records, trace.len() as u64, "{what}");
            for (agg, expect) in &reference {
                assert_eq!(&rep.reports[agg], expect, "{what}: level {agg}");
            }
        }
    }
}

#[test]
fn fused_1250x_session_reports_are_the_1x_reference_times_1250() {
    let fleet = |intensity| FleetConfig {
        intensity,
        end_day: 7,
        ..FleetConfig::small()
    };
    // An integer intensity repeats every probe exactly that often, at its
    // own timestamp: same events, 1250 packets for each one.
    let base = ScanDetectorConfig::default();
    let trace = World::build(fleet(1.0)).cdn_trace();
    let reference = oracle_reports(&trace, 1250, &base);
    let mut times_1250 = oracle_reports(&trace, 1, &base);
    for e in times_1250.iter_mut().flat_map(|(_, r)| &mut r.events) {
        e.packets *= 1250;
        e.ports.iter_mut().for_each(|(_, n)| *n *= 1250);
    }
    assert_eq!(
        reference, times_1250,
        "a row of count n weighs as n packets"
    );

    let builder = DetectorBuilder::new(base).levels(&AggLevel::PAPER_LEVELS);
    let backends = [Backend::Sequential, Backend::Threaded];
    for backend in backends {
        let mut src = FleetSource::new(World::build(fleet(1250.0)));
        let outcome = Session::new(builder.clone(), backend, SessionConfig::default())
            .run_source(&mut src)
            .unwrap();
        let SessionOutcome::Finished(rep) = outcome else {
            panic!("{backend:?}: stopped without a checkpoint policy");
        };
        assert_eq!(rep.records, 1250 * trace.len() as u64, "{backend:?}");
        for (agg, expect) in &reference {
            assert_eq!(&rep.reports[agg], expect, "{backend:?}: level {agg}");
        }
    }

    // The first records cut every way — 4096 cuts a row in three, 17 cuts
    // each into 74, 1 makes every copy a batch — leave one detector state.
    const PREFIX: usize = 17 * 4_096;
    let mut expect = None;
    for backend in backends {
        for size in [4_096, 17, 1] {
            let mut src = FleetSource::new(World::build(fleet(1250.0)));
            let mut det = builder.build(backend);
            let mut batch = RecordBatch::new();
            for _ in 0..PREFIX / size {
                assert_eq!(src.fill(&mut batch, size).unwrap(), size);
                // A row per 1250 records, a cut one at either end, and one
                // more where a lane's 4096-record run ended inside the batch.
                assert!(batch.rows() <= size / 1250 + 3, "copies arrive as counts");
                det.observe_batch(&batch);
            }
            let state = det.state();
            assert_eq!(state[0].observed, PREFIX as u64);
            let expect = expect.get_or_insert_with(|| state.clone());
            assert!(&state == expect, "{backend:?}, batch {size}");
        }
    }
}
