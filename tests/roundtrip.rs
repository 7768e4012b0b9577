//! Cross-crate round trips: a generated world trace survives the binary
//! codec byte-for-byte, and detection over the decoded trace is identical.

use lumen6::detect::day::Prefiltered;
use lumen6::detect::{
    Backend, DetectorBuilder, Session, SessionConfig, SessionError, SessionOutcome,
};
use lumen6::prelude::*;
use lumen6::scanners::FleetSource;
use lumen6::trace::{
    CodecError, FileStreamSource, FillOutcome, MaterializedSource, RecordBatch, Source, TailSource,
};
use std::collections::BTreeMap;

/// A world of the small fleet over `days` days.
fn world(days: u64) -> World {
    let mut cfg = FleetConfig::small();
    cfg.end_day = days;
    World::build(cfg)
}

/// Every copy of every row `src` fills, in order, a batch at a time.
fn drain(src: &mut dyn Source) -> Vec<PacketRecord> {
    let (mut out, mut batch) = (Vec::new(), RecordBatch::new());
    while src.fill(&mut batch, 4096).expect("generation cannot fail") > 0 {
        out.extend(batch.iter());
    }
    out
}

/// `world`'s firewall stream behind the A.1 artifact filter, drained.
fn clean_trace(world: &World) -> Vec<PacketRecord> {
    let stream = Box::new(FleetSource::new(world.clone()));
    drain(&mut Prefiltered::new(stream, ArtifactFilter::default()))
}

/// `records` written through a [`TraceWriter`] into memory.
fn encoded(records: &[PacketRecord]) -> Vec<u8> {
    let mut w = TraceWriter::new(Vec::new()).expect("header");
    for r in records {
        w.append(r).expect("time-sorted");
    }
    w.finish().expect("in memory")
}

/// Every record of `bytes` read by `fill`, until the stream ends or fails.
fn decoded(bytes: &[u8]) -> Result<Vec<PacketRecord>, CodecError> {
    let (mut reader, mut batch) = (StreamingTraceReader::new(bytes)?, RecordBatch::new());
    let mut out = Vec::new();
    while reader.fill(&mut batch, 4096)? > 0 {
        out.extend(batch.iter());
    }
    Ok(out)
}

/// The per-level reports of a sequential session over `records`.
fn session_reports(
    records: &[PacketRecord],
    builder: DetectorBuilder,
) -> BTreeMap<AggLevel, ScanReport> {
    let session = Session::new(builder, Backend::Sequential, SessionConfig::default());
    let mut src = MaterializedSource::new(records.to_vec());
    match session.run_source(&mut src).expect("in memory") {
        SessionOutcome::Finished(run) => run.reports,
        SessionOutcome::Stopped { .. } => unreachable!("no checkpoint policy"),
    }
}

#[test]
fn world_trace_codec_roundtrip_and_detection_equality() {
    let trace = drain(&mut FleetSource::new(world(10)));

    let back = decoded(&encoded(&trace)).expect("decodes");
    assert_eq!(trace, back);

    let builder = DetectorBuilder::new(ScanDetectorConfig::paper(AggLevel::L64));
    let a = session_reports(&trace, builder.clone());
    let b = session_reports(&back, builder);
    assert_eq!(a, b);
}

#[test]
fn trace_writer_reader_file_path() {
    let trace = drain(&mut FleetSource::new(world(3)));

    let dir = std::env::temp_dir().join(format!("lumen6-roundtrip-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("trace.l6tr");

    let mut w = TraceWriter::new(std::fs::File::create(&path).unwrap()).unwrap();
    for r in &trace {
        w.append(r).unwrap();
    }
    w.finish().unwrap();

    // The file a record at a time, and in batches, straight into columns.
    let mut reader = StreamingTraceReader::new(std::fs::File::open(&path).unwrap()).unwrap();
    let (mut batch, mut back) = (RecordBatch::new(), Vec::new());
    while reader.fill(&mut batch, 1).unwrap() > 0 {
        back.push(batch.get(0));
    }
    assert_eq!(back, trace);
    assert_eq!(drain(&mut FileStreamSource::open(&path).unwrap()), trace);
    std::fs::remove_dir_all(&dir).ok();
}

/// Two records whose timestamp deltas are each `u64::MAX - 5`: the second
/// carries the running timestamp past `u64::MAX`. Every route into the one
/// parser delivers the first record, then `TimestampOverflow`, then nothing
/// — no panic in a debug build, no wrapped (decreasing) timestamp in release.
#[test]
fn timestamp_overflow_is_a_typed_error_on_every_decode_route() {
    let mut bytes = b"L6TR\x01".to_vec();
    for _ in 0..2 {
        // LEB128 of u64::MAX - 5: 0xfa, eight 0xff, 0x01.
        bytes.push(0xfa);
        bytes.extend_from_slice(&[0xff; 8]);
        bytes.push(0x01);
        bytes.extend_from_slice(&7u128.to_be_bytes()); // src
        bytes.extend_from_slice(&9u128.to_be_bytes()); // dst
        bytes.extend_from_slice(&[6, 1, 22, 60]); // TCP, sport, dport, len
    }
    let first = PacketRecord::tcp(u64::MAX - 5, 7, 9, 1, 22, 60);

    let dir = std::env::temp_dir().join(format!("lumen6-overflow-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("trace.l6tr");
    std::fs::write(&path, &bytes).unwrap();
    std::fs::write(TailSource::eof_marker(&path), b"").unwrap();

    assert!(matches!(
        decoded(&bytes),
        Err(CodecError::TimestampOverflow)
    ));
    for permissive in [false, true] {
        let mut batch = RecordBatch::new();
        let mut reader = StreamingTraceReader::new(&bytes[..])
            .unwrap()
            .permissive(permissive);
        assert_eq!(reader.fill(&mut batch, 1).unwrap(), 1);
        assert_eq!(batch.get(0), first);
        let err = reader.fill(&mut batch, 1).unwrap_err();
        assert!(matches!(err, CodecError::TimestampOverflow));
        assert_eq!(err.kind(), "timestamp_overflow");
        assert!(!err.is_recoverable());
        assert_eq!(reader.fill(&mut batch, 1).unwrap(), 0);

        let mut file = FileStreamSource::open(&path)
            .unwrap()
            .permissive(permissive);
        assert_eq!(file.fill(&mut batch, 4096).unwrap(), 1);
        assert_eq!(batch.get(0), first);
        assert!(matches!(
            file.fill(&mut batch, 4096),
            Err(CodecError::TimestampOverflow)
        ));
        assert_eq!(file.fill(&mut batch, 4096).unwrap(), 0);
        assert_eq!(file.skipped(), 0);

        let mut tail = TailSource::open(&path).permissive(permissive);
        assert_eq!(
            tail.poll_fill(&mut batch, 4096).unwrap(),
            FillOutcome::Filled(1)
        );
        assert_eq!(batch.get(0), first);
        assert!(matches!(
            tail.poll_fill(&mut batch, 4096),
            Err(CodecError::TimestampOverflow)
        ));
        assert_eq!(tail.poll_fill(&mut batch, 4096).unwrap(), FillOutcome::Eof);
        assert_eq!(tail.skipped(), 0);

        let session = Session::new(
            DetectorBuilder::new(ScanDetectorConfig::paper(AggLevel::L64)),
            Backend::Sequential,
            SessionConfig {
                strict: !permissive,
                ..Default::default()
            },
        );
        assert!(matches!(
            session.run(&path),
            Err(SessionError::Codec(CodecError::TimestampOverflow))
        ));
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupted_trace_fails_loudly_not_wrongly() {
    let trace = drain(&mut FleetSource::new(world(2)));
    let mut bytes = encoded(&trace);

    // Flip a byte in the middle: either a decode error surfaces or the
    // decoded stream differs from the original — silent agreement would
    // mean corruption goes unnoticed.
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xff;
    match decoded(&bytes) {
        Err(_) => {}
        Ok(back) => assert_ne!(back, trace),
    }

    // Truncation: must error, never panic.
    let cut = &bytes[..bytes.len() / 3];
    let _ = decoded(cut);
}

#[test]
fn multi_level_single_pass_matches_per_level_passes_on_fleet_traffic() {
    let clean = clean_trace(&world(14));

    let paper = DetectorBuilder::new(ScanDetectorConfig::default());
    let multi = session_reports(&clean, paper.levels(&AggLevel::PAPER_LEVELS));
    for lvl in AggLevel::PAPER_LEVELS {
        let one = DetectorBuilder::new(ScanDetectorConfig::paper(lvl));
        let single = &session_reports(&clean, one)[&lvl];
        assert_eq!(multi[&lvl].scans(), single.scans(), "{lvl}");
        assert_eq!(multi[&lvl].packets(), single.packets(), "{lvl}");
        assert_eq!(multi[&lvl].source_set(), single.source_set(), "{lvl}");
    }
}

#[test]
fn adaptive_ids_flags_as18_as_one_coarse_actor_on_fleet_traffic() {
    let world = world(28);
    let clean = clean_trace(&world);

    let rows = clean.iter().map(|&r| (r, 1));
    let alerts =
        lumen6::detect::adaptive::AdaptiveIds::new(Default::default()).analyze_counted(rows);
    assert!(!alerts.is_empty());

    // The AS#18 /32 should surface as a coarse alert (its sources being one
    // address per /64, only aggregation reveals the actor in full).
    let as18 = world
        .fleet
        .truth
        .iter()
        .find(|t| t.rank == 18)
        .unwrap()
        .prefix;
    let coarse = alerts
        .iter()
        .find(|a| as18.contains(&a.prefix) && a.prefix.len() <= 48);
    assert!(
        coarse.is_some(),
        "expected a coarse AS#18 alert, got {:?}",
        alerts
            .iter()
            .filter(|a| as18.contains(&a.prefix))
            .collect::<Vec<_>>()
    );

    // AS#1's single /128 must alert as a /128 (never dragged coarser than
    // its own activity warrants), except when subsumed by nothing.
    let as1 = world.fleet.truth[0].prefix;
    assert!(alerts
        .iter()
        .any(|a| as1.contains(&a.prefix) && a.prefix.len() == 128));
}
