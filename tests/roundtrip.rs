//! Cross-crate round trips: a generated world trace survives the binary
//! codec byte-for-byte, and detection over the decoded trace is identical.

use lumen6::detect::{Backend, DetectorBuilder, Session, SessionConfig, SessionError};
use lumen6::prelude::*;
use lumen6::trace::codec::{decode, encode};
use lumen6::trace::{CodecError, FileStreamSource, FillOutcome, RecordBatch, Source, TailSource};

#[test]
fn world_trace_codec_roundtrip_and_detection_equality() {
    let mut cfg = FleetConfig::small();
    cfg.end_day = 10;
    let world = World::build(cfg);
    let trace = world.cdn_trace();

    let bytes = encode(&trace).expect("encodes");
    let back = decode(&bytes).expect("decodes");
    assert_eq!(trace, back);

    let a = detect(&trace, ScanDetectorConfig::paper(AggLevel::L64));
    let b = detect(&back, ScanDetectorConfig::paper(AggLevel::L64));
    assert_eq!(a.events, b.events);
}

#[test]
fn trace_writer_reader_file_path() {
    let mut cfg = FleetConfig::small();
    cfg.end_day = 3;
    let world = World::build(cfg);
    let trace = world.cdn_trace();

    let dir = std::env::temp_dir().join(format!("lumen6-roundtrip-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("trace.l6tr");

    let mut w = TraceWriter::new(std::fs::File::create(&path).unwrap()).unwrap();
    for r in &trace {
        w.append(r).unwrap();
    }
    w.finish().unwrap();

    let reader = StreamingTraceReader::new(std::fs::File::open(&path).unwrap()).unwrap();
    let back: Result<Vec<_>, _> = reader.collect();
    assert_eq!(back.unwrap(), trace);

    // The same file in batches, straight into columns.
    let mut src = FileStreamSource::open(&path).unwrap();
    let mut batch = RecordBatch::new();
    let mut batched = Vec::new();
    while src.fill(&mut batch, 4096).unwrap() > 0 {
        batched.extend(batch.iter());
    }
    assert_eq!(batched, trace);
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

    assert!(matches!(decode(&bytes), Err(CodecError::TimestampOverflow)));
    for permissive in [false, true] {
        let mut items = StreamingTraceReader::new(&bytes[..])
            .unwrap()
            .permissive(permissive);
        assert_eq!(items.next().unwrap().unwrap(), first);
        let err = items.next().unwrap().unwrap_err();
        assert!(matches!(err, CodecError::TimestampOverflow));
        assert_eq!(err.kind(), "timestamp_overflow");
        assert!(!err.is_recoverable());
        assert!(items.next().is_none());

        let mut batch = RecordBatch::new();
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
    let mut cfg = FleetConfig::small();
    cfg.end_day = 2;
    let world = World::build(cfg);
    let trace = world.cdn_trace();
    let mut bytes = encode(&trace).expect("encodes");

    // Flip a byte in the middle: either a decode error surfaces or the
    // decoded stream differs from the original — silent agreement would
    // mean corruption goes unnoticed.
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xff;
    match decode(&bytes) {
        Err(_) => {}
        Ok(back) => assert_ne!(back, trace),
    }

    // Truncation: must error, never panic.
    let cut = &bytes[..bytes.len() / 3];
    let _ = decode(cut);
}

#[test]
fn multi_level_single_pass_matches_per_level_passes_on_fleet_traffic() {
    let mut cfg = FleetConfig::small();
    cfg.end_day = 14;
    let world = World::build(cfg);
    let trace = world.cdn_trace();
    let (clean, _) = ArtifactFilter::default().filter(&trace);

    let mut det = lumen6::detect::multi::MultiLevelDetector::paper();
    lumen6::detect::observe_slice(&mut det, &clean, 4096);
    let multi = det.finish();
    for lvl in AggLevel::PAPER_LEVELS {
        let single = detect(&clean, ScanDetectorConfig::paper(lvl));
        assert_eq!(multi[&lvl].scans(), single.scans(), "{lvl}");
        assert_eq!(multi[&lvl].packets(), single.packets(), "{lvl}");
        assert_eq!(multi[&lvl].source_set(), single.source_set(), "{lvl}");
    }
}

#[test]
fn adaptive_ids_flags_as18_as_one_coarse_actor_on_fleet_traffic() {
    let mut cfg = FleetConfig::small();
    cfg.end_day = 28;
    let world = World::build(cfg);
    let trace = world.cdn_trace();
    let (clean, _) = ArtifactFilter::default().filter(&trace);

    let alerts = lumen6::detect::adaptive::AdaptiveIds::new(Default::default()).analyze(&clean);
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
