//! Integration tests for the fault-tolerant streaming session layer:
//! snapshot/restore across the backends, out-of-order tolerance,
//! checkpoint durability, kill-resume determinism, and the independence of
//! every report and checkpoint byte from how the stream is cut into batches.

use lumen6_detect::prelude::*;
use lumen6_detect::DEFAULT_SESSION_BATCH;
use lumen6_trace::{CodecError, PacketRecord, RecordBatch, TracePosition, TraceWriter};
use std::collections::BTreeMap;
use std::fs::File;
use std::io::{BufWriter, Write as _};
use std::path::PathBuf;

mod oracle;

/// A per-test temp directory (removed on drop).
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!(
            "lumen6-session-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }

    fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// A sorted workload with scans at several aggregation levels: one heavy
/// /128, a spread /64 (100 distinct /128 sources, one destination each),
/// and background noise that never qualifies.
fn workload() -> Vec<PacketRecord> {
    let spread: u128 = 0x2001_0db8_0000_0000_0000_0000_0000_0000;
    let heavy: u128 = 0x2001_0db9_0000_0000_0000_0000_0000_0001;
    let noise: u128 = 0x2001_0dbc_0000_0000_0000_0000_0000_0007;
    let mut recs: Vec<PacketRecord> = (0..100u64)
        .map(|i| {
            PacketRecord::tcp(
                i * 1_000,
                spread + u128::from(i),
                0xa000 + u128::from(i),
                1,
                22,
                60,
            )
        })
        .collect();
    recs.extend(
        (0..150u64).map(|i| PacketRecord::tcp(i * 900, heavy, 0xb000 + u128::from(i), 1, 443, 60)),
    );
    // Two bursts from the heavy source separated by more than the timeout,
    // so an event closes mid-stream.
    recs.extend((0..120u64).map(|i| {
        PacketRecord::tcp(
            8_000_000 + i * 500,
            heavy,
            0xc000 + u128::from(i),
            1,
            443,
            60,
        )
    }));
    recs.extend((0..40u64).map(|i| PacketRecord::tcp(i * 2_000, noise, 0xd000, 1, 80, 60)));
    lumen6_trace::sort_by_time(&mut recs);
    recs
}

fn write_trace(path: &std::path::Path, recs: &[PacketRecord]) {
    let mut w = TraceWriter::new(BufWriter::new(File::create(path).unwrap())).unwrap();
    for r in recs {
        w.append(r).unwrap();
    }
    w.finish().unwrap().flush().unwrap();
}

fn base_config() -> ScanDetectorConfig {
    ScanDetectorConfig {
        min_dsts: 50,
        ..Default::default()
    }
}

/// Reports serialized to canonical JSON, for byte-level comparison.
fn report_json(reports: &BTreeMap<AggLevel, ScanReport>) -> String {
    let per_level: Vec<String> = reports
        .iter()
        .map(|(lvl, r)| format!("{lvl}:{}", serde_json::to_string(&r.events).unwrap()))
        .collect();
    per_level.join("\n")
}

fn builders() -> Vec<(&'static str, DetectorBuilder, Backend)> {
    let levels = [AggLevel::L128, AggLevel::L64, AggLevel::L48];
    vec![
        (
            "sequential-single",
            DetectorBuilder::new(base_config()),
            Backend::Sequential,
        ),
        (
            "sequential-multi",
            DetectorBuilder::new(base_config()).levels(&levels),
            Backend::Sequential,
        ),
        (
            "threaded",
            DetectorBuilder::new(base_config()).levels(&levels),
            Backend::Threaded,
        ),
    ]
}

#[test]
fn snapshot_roundtrip_every_backend() {
    let recs = workload();
    for (name, builder, backend) in builders() {
        // Uninterrupted reference.
        let mut reference = builder.build(backend);
        observe_slice(reference.as_mut(), &recs, 64);
        let expect = report_json(&reference.finish());

        // Snapshot mid-stream, restore, continue.
        let mid = recs.len() / 2;
        let mut first = builder.build(backend);
        observe_slice(first.as_mut(), &recs[..mid], 64);
        let snap = first.snapshot();
        drop(first);
        let mut resumed = builder.restore(backend, &snap).unwrap();
        assert_eq!(resumed.observed(), mid as u64, "{name}: observed count");
        observe_slice(resumed.as_mut(), &recs[mid..], 64);
        assert_eq!(report_json(&resumed.finish()), expect, "{name}");
    }
}

#[test]
fn snapshot_roundtrip_with_sketch_and_kept_dsts() {
    let recs = workload();
    for (tag, cfg) in [
        (
            "sketch",
            ScanDetectorConfig {
                min_dsts: 50,
                sketch: Some(SketchConfig::spill_at(16)),
                ..Default::default()
            },
        ),
        (
            "keep-dsts",
            ScanDetectorConfig {
                min_dsts: 50,
                keep_dsts: true,
                ..Default::default()
            },
        ),
    ] {
        let builder = DetectorBuilder::new(cfg);
        let mut reference = builder.build(Backend::Sequential);
        observe_slice(reference.as_mut(), &recs, 64);
        let expect = report_json(&reference.finish());

        let mid = recs.len() / 3;
        let mut first = builder.build(Backend::Sequential);
        observe_slice(first.as_mut(), &recs[..mid], 64);
        let snap = first.snapshot();
        let mut resumed = builder.restore(Backend::Sequential, &snap).unwrap();
        observe_slice(resumed.as_mut(), &recs[mid..], 64);
        assert_eq!(report_json(&resumed.finish()), expect, "{tag}");
    }
}

#[test]
fn snapshots_are_portable_across_backends() {
    let recs = workload();
    let levels = [AggLevel::L128, AggLevel::L64, AggLevel::L48];
    let builder = DetectorBuilder::new(base_config()).levels(&levels);

    let mut reference = builder.build(Backend::Sequential);
    observe_slice(reference.as_mut(), &recs, 64);
    let expect = report_json(&reference.finish());

    let mid = recs.len() / 2;
    // A snapshot taken by either backend restores into either.
    for (from, into) in [
        (Backend::Threaded, Backend::Sequential),
        (Backend::Sequential, Backend::Threaded),
    ] {
        let mut first = builder.build(from);
        observe_slice(first.as_mut(), &recs[..mid], 64);
        let snap = first.snapshot();
        let mut resumed = builder.restore(into, &snap).unwrap();
        observe_slice(resumed.as_mut(), &recs[mid..], 64);
        assert_eq!(
            report_json(&resumed.finish()),
            expect,
            "{from:?} restored into {into:?}"
        );
    }
}

/// A snapshot's levels are one scan definition at several aggregations: a
/// two-level snapshot whose levels disagree on the timeout is refused with
/// a typed error on either backend, and the same snapshot with the
/// timeouts agreeing restores.
#[test]
fn restore_refuses_levels_that_disagree_on_the_timeout() {
    let builder = DetectorBuilder::new(base_config()).levels(&[AggLevel::L128, AggLevel::L64]);
    let mut det = builder.build(Backend::Sequential);
    observe_slice(det.as_mut(), &workload(), 64);
    let mut snap = det.snapshot();
    assert_eq!(snap.levels.len(), 2);
    for backend in [Backend::Sequential, Backend::Threaded] {
        assert!(builder.restore(backend, &snap).is_ok(), "{backend:?}");
    }
    snap.levels[1].config.timeout_ms += 1;
    for backend in [Backend::Sequential, Backend::Threaded] {
        let err = builder.restore(backend, &snap).err().expect("refused");
        assert!(err.to_string().contains("timeout_ms"), "{backend:?}: {err}");
    }
}

#[test]
fn flush_idle_is_report_neutral() {
    let recs = workload();
    for (name, builder, backend) in builders() {
        let mut plain = builder.build(backend);
        observe_slice(plain.as_mut(), &recs, 64);
        let expect = report_json(&plain.finish());

        // Aggressive flushing at every packet must not change the report.
        let mut flushed = builder.build(backend);
        for r in &recs {
            flushed.flush_idle(r.ts_ms);
            observe_slice(flushed.as_mut(), std::slice::from_ref(r), 1);
        }
        assert_eq!(report_json(&flushed.finish()), expect, "{name}");
    }
}

#[test]
fn flush_idle_closes_idle_runs() {
    // After the heavy source's first burst times out, a flush must retire
    // its run from live state (the event is held as pending, not lost).
    let cfg = base_config();
    let timeout = cfg.timeout_ms;
    let mut det = DetectorBuilder::new(cfg).build(Backend::Sequential);
    let heavy: u128 = 0x2001_0db9_0000_0000_0000_0000_0000_0001;
    let burst: Vec<PacketRecord> = (0..150u64)
        .map(|i| PacketRecord::tcp(i * 900, heavy, u128::from(i), 1, 443, 60))
        .collect();
    observe_slice(det.as_mut(), &burst, 64);
    let last_ts = 149 * 900;
    det.flush_idle(last_ts + timeout + 1);
    let state = &det.state()[0];
    assert!(state.runs.is_empty(), "idle run still open after flush");
    assert_eq!(state.pending.len(), 1, "closed event must be pending");
    let reports = det.finish();
    assert_eq!(reports[&AggLevel::L64].scans(), 1);
}

// ---------------------------------------------------------------------------
// Out-of-order tolerance
// ---------------------------------------------------------------------------

fn rec_at(ts: u64, tag: u128) -> PacketRecord {
    PacketRecord::tcp(ts, 7, tag, 1, 22, 60)
}

#[test]
fn reorder_releases_in_timestamp_order() {
    let mut buf = ReorderBuffer::new(1_000);
    let mut out = RecordBatch::new();
    for &ts in &[5_000u64, 4_500, 4_200, 6_000, 5_500, 7_500] {
        buf.push(rec_at(ts, u128::from(ts)), &mut out);
    }
    buf.drain(&mut out);
    let times = out.ts_ms().to_vec();
    assert_eq!(times, vec![4_200, 4_500, 5_000, 5_500, 6_000, 7_500]);
    assert_eq!(buf.late_dropped(), 0);
}

#[test]
fn reorder_at_watermark_is_kept() {
    // Lateness exactly equal to the watermark is still admissible.
    let mut buf = ReorderBuffer::new(1_000);
    let mut out = RecordBatch::new();
    buf.push(rec_at(10_000, 1), &mut out);
    buf.push(rec_at(9_000, 2), &mut out); // exactly max_ts - watermark
    buf.drain(&mut out);
    assert_eq!(buf.late_dropped(), 0);
    let times = out.ts_ms().to_vec();
    assert_eq!(times, vec![9_000, 10_000]);
}

#[test]
fn reorder_beyond_watermark_is_dropped_and_counted() {
    let mut buf = ReorderBuffer::new(1_000);
    let mut out = RecordBatch::new();
    buf.push(rec_at(10_000, 1), &mut out);
    buf.push(rec_at(8_999, 2), &mut out); // 1 ms beyond the watermark
    buf.push(rec_at(5_000, 3), &mut out); // far beyond
    buf.drain(&mut out);
    assert_eq!(buf.late_dropped(), 2);
    let times = out.ts_ms().to_vec();
    assert_eq!(times, vec![10_000]);
}

#[test]
fn zero_watermark_is_pure_passthrough() {
    let mut buf = ReorderBuffer::new(0);
    let mut out = RecordBatch::new();
    for &ts in &[5_000u64, 1_000, 9_000, 3] {
        buf.push(rec_at(ts, u128::from(ts)), &mut out);
    }
    assert_eq!(out.len(), 4, "nothing buffered");
    assert_eq!(buf.late_dropped(), 0, "nothing dropped");
    let times = out.ts_ms().to_vec();
    assert_eq!(times, vec![5_000, 1_000, 9_000, 3], "original order kept");
}

#[test]
fn reorder_state_roundtrip_preserves_release_order() {
    let mut buf = ReorderBuffer::new(10_000);
    let mut out = RecordBatch::new();
    for &ts in &[5_000u64, 4_000, 4_000, 6_000, 5_500] {
        buf.push(rec_at(ts, u128::from(out.len() as u64)), &mut out);
    }
    assert!(out.is_empty(), "all within watermark, all buffered");
    let mut direct = RecordBatch::new();
    let restored_state = buf.state();
    buf.drain(&mut direct);

    let mut restored = ReorderBuffer::from_state(&restored_state);
    let mut via_snapshot = RecordBatch::new();
    restored.drain(&mut via_snapshot);
    assert_eq!(direct, via_snapshot);
}

/// The central out-of-order guarantee: shuffling a stream within the
/// watermark, then feeding it through the reorder buffer, yields exactly
/// the sorted-stream report with nothing dropped.
#[test]
fn within_watermark_shuffle_yields_sorted_report() {
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    let watermark = 60_000u64;
    let sorted = workload();

    let mut reference = DetectorBuilder::new(base_config()).build(Backend::Sequential);
    observe_slice(reference.as_mut(), &sorted, 64);
    let expect = report_json(&reference.finish());

    for seed in 0..8u64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        // Jitter-sort: perturb each timestamp by < watermark/2 and sort by
        // the perturbed key. Any two records swap only if their true
        // timestamps are within the watermark of each other, so the
        // arrival order is a valid within-watermark shuffle.
        let mut arrival: Vec<(u64, usize)> = sorted
            .iter()
            .enumerate()
            .map(|(i, r)| (r.ts_ms + rng.gen_range(0..watermark / 2), i))
            .collect();
        arrival.sort_unstable();

        let mut buf = ReorderBuffer::new(watermark);
        let mut det = DetectorBuilder::new(base_config()).build(Backend::Sequential);
        let mut released = RecordBatch::new();
        for &(_, i) in &arrival {
            buf.push(sorted[i], &mut released);
        }
        buf.drain(&mut released);
        det.observe_batch(&released);
        assert_eq!(buf.late_dropped(), 0, "seed {seed}: nothing may drop");
        assert_eq!(report_json(&det.finish()), expect, "seed {seed}");
    }
}

// ---------------------------------------------------------------------------
// Checkpoint files
// ---------------------------------------------------------------------------

fn sample_checkpoint() -> Checkpoint {
    let mut det = DetectorBuilder::new(base_config()).build(Backend::Sequential);
    observe_slice(det.as_mut(), &workload()[..100], 64);
    Checkpoint {
        position: lumen6_trace::TracePosition {
            offset: 1_234,
            prev_ts: 99_000,
        },
        records_done: 100,
        decode_skipped: 2,
        detector: det.snapshot(),
        reorder: ReorderBuffer::new(5_000).state(),
        checkpoints_written: 3,
        last_flush_ms: 42,
    }
}

#[test]
fn checkpoint_save_load_roundtrip() {
    let dir = TempDir::new("ck-roundtrip");
    let path = dir.path("state.l6ck");
    let ck = sample_checkpoint();
    ck.save(&path).unwrap();
    let back = Checkpoint::load(&path).unwrap();
    assert_eq!(back, ck);
}

#[test]
fn checkpoint_detects_corruption() {
    let dir = TempDir::new("ck-corrupt");
    let path = dir.path("state.l6ck");
    sample_checkpoint().save(&path).unwrap();
    let mut bytes = std::fs::read(&path).unwrap();
    // Flip one byte in the body (past the header line).
    let body_start = bytes.iter().position(|&b| b == b'\n').unwrap() + 1;
    bytes[body_start + 10] ^= 0x20;
    std::fs::write(&path, &bytes).unwrap();
    match Checkpoint::load(&path) {
        Err(SessionError::Corrupt(msg)) => assert!(msg.contains("checksum"), "{msg}"),
        other => panic!("expected Corrupt, got {other:?}"),
    }
}

#[test]
fn checkpoint_rejects_bad_magic_and_truncation() {
    let dir = TempDir::new("ck-frame");
    let path = dir.path("state.l6ck");
    std::fs::write(&path, "NOPE v1 0 0\n{}").unwrap();
    assert!(matches!(
        Checkpoint::load(&path),
        Err(SessionError::Corrupt(_))
    ));
    let saved = {
        let p = dir.path("ok.l6ck");
        sample_checkpoint().save(&p).unwrap();
        std::fs::read(&p).unwrap()
    };
    std::fs::write(&path, &saved[..saved.len() - 7]).unwrap();
    assert!(matches!(
        Checkpoint::load(&path),
        Err(SessionError::Corrupt(_))
    ));
}

/// A checkpoint of a few hundred bytes that still holds one of everything
/// the body can: an open run with a sketched and an exact counter and a
/// retained destination list, a pending event, a reorder entry, and a
/// non-TCP service.
fn tiny_checkpoint() -> Checkpoint {
    let base = ScanDetectorConfig {
        min_dsts: 3,
        timeout_ms: 1_000,
        keep_dsts: true,
        sketch: Some(SketchConfig {
            spill_threshold: 4,
            precision: 4,
        }),
        ..Default::default()
    };
    let mut det = DetectorBuilder::new(base).build(Backend::Sequential);
    let mut recs: Vec<PacketRecord> = (0..4u64)
        .map(|i| PacketRecord::udp(i * 10, 7, 0xa0 + u128::from(i), 1, 53, 60))
        .collect();
    // The same source after its timeout closes the first run as an event,
    // and six destinations spill the new run's counter to a sketch.
    recs.extend(
        (0..6u64).map(|i| PacketRecord::tcp(5_000 + i, 7, 0xb0 + u128::from(i), 1, 22, 60)),
    );
    observe_slice(det.as_mut(), &recs, 64);
    let mut reorder = ReorderBuffer::new(5_000);
    reorder.push(
        PacketRecord::icmpv6_echo(6_000, 9, 10, 64),
        &mut RecordBatch::new(),
    );
    let ck = Checkpoint {
        position: TracePosition {
            offset: 300,
            prev_ts: 5_005,
        },
        records_done: 10,
        decode_skipped: 0,
        detector: det.snapshot(),
        reorder: reorder.state(),
        checkpoints_written: 1,
        last_flush_ms: 0,
    };
    use lumen6_detect::snapshot::CounterState;
    let level = &ck.detector.levels[0];
    assert_eq!((level.pending.len(), level.runs.len()), (1, 1));
    assert!(matches!(level.runs[0].dsts, CounterState::Sketch(_)));
    assert!(matches!(level.runs[0].srcs, CounterState::Exact(_)));
    assert!(level.runs[0].dst_list.is_some());
    assert_eq!(ck.reorder.entries.len(), 1);
    ck
}

/// PR 5 / PR 15's corpus for `L6CK`: a v2 file cut at every length, and
/// with every single bit flipped — header line included — never loads and
/// never panics; it is `Corrupt`, which is what lets `load_newest` fall
/// back to the previous generation.
#[test]
fn every_truncation_and_every_bit_flip_of_a_v2_file_is_corrupt() {
    let dir = TempDir::new("ck-hostile");
    let path = dir.path("state.l6ck");
    let ck = tiny_checkpoint();
    ck.save(&path).unwrap();
    assert_eq!(Checkpoint::load(&path).unwrap(), ck);
    let good = std::fs::read(&path).unwrap();
    assert!(good.starts_with(b"L6CK v2 "));
    assert!(good.len() < 1_000, "keep the corpus small: {}", good.len());

    let damaged = dir.path("damaged.l6ck");
    let assert_corrupt = |bytes: &[u8], what: String| {
        std::fs::write(&damaged, bytes).unwrap();
        match Checkpoint::load(&damaged) {
            Err(SessionError::Corrupt(_)) => {}
            other => panic!("{what}: expected Corrupt, got {other:?}"),
        }
    };
    for cut in 0..good.len() {
        assert_corrupt(&good[..cut], format!("cut at {cut}"));
    }
    for bit in 0..good.len() * 8 {
        let mut bytes = good.clone();
        bytes[bit / 8] ^= 1 << (bit % 8);
        assert_corrupt(&bytes, format!("bit {} of byte {}", bit % 8, bit / 8));
    }
    let mut longer = good.clone();
    longer.push(0);
    assert_corrupt(&longer, "one trailing byte".into());
}

/// FNV-1a 64, as the header carries it: anyone can compute it, so a correct
/// checksum says nothing about the body under it.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `body` under the header `Checkpoint::save` would give it.
fn framed_v2(body: &[u8]) -> Vec<u8> {
    let mut file = format!("L6CK v2 {:016x} {:020}\n", fnv1a(body), body.len()).into_bytes();
    file.extend_from_slice(body);
    file
}

/// A hostile body under a *correct* checksum: its first element count
/// claims 2^60 reorder entries. The decoder holds every count to what the
/// remaining bytes could encode before sizing anything from it, so this is
/// an error naming that cap — not an allocation.
#[test]
fn a_count_the_body_cannot_hold_is_corrupt_before_any_allocation() {
    let dir = TempDir::new("ck-count");
    let path = dir.path("state.l6ck");
    // snapshot version 2, then nine zero varints: position, counters and the
    // reorder buffer's three scalars.
    let mut body = vec![2u8, 0, 0, 0, 0, 0, 0, 0, 0, 0];
    body.extend_from_slice(&[0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x10]);
    body.extend_from_slice(&[0; 82]);
    std::fs::write(&path, framed_v2(&body)).unwrap();
    match Checkpoint::load(&path) {
        Err(SessionError::Corrupt(msg)) => {
            let claimed = (1u64 << 60).to_string();
            assert!(
                msg.contains(&claimed) && msg.contains("the body has room for 2"),
                "{msg}"
            );
        }
        other => panic!("expected Corrupt, got {other:?}"),
    }

    // The framing helper is the real one: an honest body loads through it.
    let ck = tiny_checkpoint();
    ck.save(&path).unwrap();
    let saved = std::fs::read(&path).unwrap();
    let body_start = saved.iter().position(|&b| b == b'\n').unwrap() + 1;
    assert_eq!(framed_v2(&saved[body_start..]), saved);
}

/// The same for a version-1 frame, whose body is JSON: 10 000 `[` under a
/// correct checksum used to recurse the parser off the end of the stack
/// (SIGABRT, not an error). Nesting is capped, so it is `Corrupt`.
#[test]
fn a_v1_body_nested_past_the_parser_limit_is_corrupt_not_an_abort() {
    let dir = TempDir::new("ck-deep");
    let path = dir.path("state.l6ck");
    let body = "[".repeat(10_000);
    let frame = format!(
        "L6CK v1 {:016x} {}\n{body}",
        fnv1a(body.as_bytes()),
        body.len()
    );
    std::fs::write(&path, frame).unwrap();
    match Checkpoint::load(&path) {
        Err(SessionError::Corrupt(msg)) => assert!(msg.contains("limit of 128"), "{msg}"),
        other => panic!("expected Corrupt, got {other:?}"),
    }
}

/// The temp file is `<path>.tmp` — suffix appended, as for `.prev` — so a
/// checkpoint that is itself called `*.tmp` is still written beside, never
/// in place, and two checkpoints sharing a stem do not share a temp file.
#[test]
fn temp_file_is_the_path_with_tmp_appended() {
    let dir = TempDir::new("ck-tmp");
    let path = dir.path("state.tmp");
    let mut ck = tiny_checkpoint();
    ck.save(&path).unwrap();
    ck.checkpoints_written = 2;
    ck.save(&path).unwrap();
    let prev = Checkpoint::prev_path(&path);
    assert_ne!(
        std::fs::read(&prev).unwrap(),
        std::fs::read(&path).unwrap(),
        "the previous generation was overwritten before it was copied"
    );
    assert_eq!(Checkpoint::load(&prev).unwrap().checkpoints_written, 1);
    assert_eq!(Checkpoint::load(&path).unwrap().checkpoints_written, 2);

    // `a.l6ck` and `a.json`: with the extension *replaced* both would write
    // through `a.tmp`, clobbering whatever is there.
    let bystander = dir.path("a.tmp");
    std::fs::write(&bystander, "not a temp file").unwrap();
    for name in ["a.l6ck", "a.json"] {
        ck.save(&dir.path(name)).unwrap();
        assert_eq!(Checkpoint::load(&dir.path(name)).unwrap(), ck);
    }
    assert_eq!(std::fs::read(&bystander).unwrap(), b"not a temp file");
    let left: Vec<_> = std::fs::read_dir(&dir.0)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .filter(|n| n.ends_with(".tmp") && n != "state.tmp" && n != "a.tmp")
        .collect();
    assert!(left.is_empty(), "a completed save left {left:?}");
}

/// Two saves of one state are the same bytes, and a version-1 frame may
/// only carry snapshot version 1, a version-2 frame only 2.
#[test]
fn saves_are_deterministic_and_frames_carry_their_own_snapshot_version() {
    let dir = TempDir::new("ck-version");
    let (a, b) = (dir.path("a.l6ck"), dir.path("b.l6ck"));
    let ck = tiny_checkpoint();
    ck.save(&a).unwrap();
    ck.save(&b).unwrap();
    assert_eq!(std::fs::read(&a).unwrap(), std::fs::read(&b).unwrap());

    let mut stale = ck.clone();
    stale.detector.version = 1;
    stale.save(&a).unwrap();
    assert!(matches!(
        Checkpoint::load(&a),
        Err(SessionError::Snapshot(_))
    ));
    // The same state as an earlier build would have framed it loads, and
    // comes back as the current version.
    let json = serde_json::to_string(&stale).unwrap();
    let v1 = format!(
        "L6CK v1 {:016x} {}\n{json}",
        fnv1a(json.as_bytes()),
        json.len()
    );
    std::fs::write(&a, &v1).unwrap();
    assert_eq!(Checkpoint::load(&a).unwrap(), ck);
    let v1_carrying_2 = serde_json::to_string(&ck).unwrap();
    std::fs::write(
        &a,
        format!(
            "L6CK v1 {:016x} {}\n{v1_carrying_2}",
            fnv1a(v1_carrying_2.as_bytes()),
            v1_carrying_2.len()
        ),
    )
    .unwrap();
    assert!(matches!(
        Checkpoint::load(&a),
        Err(SessionError::Corrupt(_))
    ));
}

// ---------------------------------------------------------------------------
// Sessions over trace files
// ---------------------------------------------------------------------------

fn session_report_json(rep: &SessionReport) -> String {
    serde_json::to_string(rep).unwrap()
}

#[test]
fn session_finishes_without_checkpointing() {
    let dir = TempDir::new("plain");
    let trace = dir.path("t.l6tr");
    let recs = workload();
    write_trace(&trace, &recs);
    let builder = DetectorBuilder::new(base_config());
    let outcome = Session::new(
        builder.clone(),
        Backend::Sequential,
        SessionConfig::default(),
    )
    .run(&trace)
    .unwrap();
    let SessionOutcome::Finished(rep) = outcome else {
        panic!("expected Finished");
    };
    assert_eq!(rep.records, recs.len() as u64);
    assert_eq!(rep.late_dropped, 0);
    assert_eq!(rep.decode_skipped, 0);
    assert_eq!(rep.checkpoints_written, 0);

    let mut direct = builder.build(Backend::Sequential);
    observe_slice(direct.as_mut(), &recs, 64);
    assert_eq!(report_json(&rep.reports), report_json(&direct.finish()));
}

/// Kill-and-resume in process: stop after each checkpoint in turn, resume,
/// and require the final report to be byte-identical to an uninterrupted
/// session, whatever the interruption point and even when the backend
/// changes across the restart.
#[test]
fn kill_resume_is_byte_identical() {
    let dir = TempDir::new("kill-resume");
    let trace = dir.path("t.l6tr");
    let recs = workload();
    write_trace(&trace, &recs);
    let every = 100u64;
    let total_ckpts = recs.len() as u64 / every;
    assert!(total_ckpts >= 3, "workload too small to interrupt");

    let config = |path: PathBuf, stop_after: Option<u64>| SessionConfig {
        checkpoint: Some(CheckpointPolicy {
            path,
            every_records: every,
            stop_after,
        }),
        ..Default::default()
    };

    let builder = DetectorBuilder::new(base_config());

    // Uninterrupted reference (with the same checkpoint cadence, so the
    // checkpoint counters in the report line up).
    let reference = Session::new(
        builder.clone(),
        Backend::Sequential,
        config(dir.path("ref.l6ck"), None),
    )
    .run(&trace)
    .unwrap();
    let SessionOutcome::Finished(expect) = reference else {
        panic!("reference must finish");
    };
    let expect = session_report_json(&expect);

    for stop_at in 1..=total_ckpts {
        let ck = dir.path(&format!("stop{stop_at}.l6ck"));
        let outcome = Session::new(
            builder.clone(),
            Backend::Sequential,
            config(ck.clone(), Some(stop_at)),
        )
        .run(&trace)
        .unwrap();
        match outcome {
            SessionOutcome::Stopped {
                checkpoints_written,
                records_done,
            } => {
                assert_eq!(checkpoints_written, stop_at);
                assert_eq!(records_done, stop_at * every);
            }
            SessionOutcome::Finished(_) => panic!("stop {stop_at}: expected Stopped"),
        }
        // Resume with a *different* backend to also prove portability.
        let resumed = Session::new(builder.clone(), Backend::Threaded, config(ck, None))
            .run(&trace)
            .unwrap();
        let SessionOutcome::Finished(rep) = resumed else {
            panic!("stop {stop_at}: resume must finish");
        };
        assert_eq!(session_report_json(&rep), expect, "stop after {stop_at}");
    }
}

#[test]
fn double_interruption_still_matches() {
    let dir = TempDir::new("double-kill");
    let trace = dir.path("t.l6tr");
    let recs = workload();
    write_trace(&trace, &recs);
    let builder = DetectorBuilder::new(base_config());
    let ck = dir.path("state.l6ck");
    let config = |stop_after| SessionConfig {
        checkpoint: Some(CheckpointPolicy {
            path: ck.clone(),
            every_records: 64,
            stop_after,
        }),
        ..Default::default()
    };

    let reference = Session::new(
        builder.clone(),
        Backend::Sequential,
        SessionConfig {
            checkpoint: Some(CheckpointPolicy {
                path: dir.path("ref.l6ck"),
                every_records: 64,
                stop_after: None,
            }),
            ..Default::default()
        },
    )
    .run(&trace)
    .unwrap();
    let SessionOutcome::Finished(expect) = reference else {
        panic!("reference must finish");
    };

    // First run stops after 1 checkpoint; second run (resuming) stops after
    // 2 more; third finishes.
    assert!(matches!(
        Session::new(builder.clone(), Backend::Sequential, config(Some(1)))
            .run(&trace)
            .unwrap(),
        SessionOutcome::Stopped { .. }
    ));
    assert!(matches!(
        Session::new(builder.clone(), Backend::Sequential, config(Some(3)))
            .run(&trace)
            .unwrap(),
        SessionOutcome::Stopped {
            checkpoints_written: 3,
            ..
        }
    ));
    let SessionOutcome::Finished(rep) = Session::new(builder, Backend::Sequential, config(None))
        .run(&trace)
        .unwrap()
    else {
        panic!("final run must finish");
    };
    assert_eq!(session_report_json(&rep), session_report_json(&expect));
}

// ---------------------------------------------------------------------------
// Sessions over generic sources
// ---------------------------------------------------------------------------

/// The same session run through three different sources — the trace file,
/// a `FileStreamSource` built explicitly, and an in-memory
/// `MaterializedSource` — must produce byte-identical reports.
#[test]
fn run_source_matches_run_for_every_source_kind() {
    let dir = TempDir::new("source-kinds");
    let trace = dir.path("t.l6tr");
    let recs = workload();
    write_trace(&trace, &recs);
    for (name, builder, backend) in builders() {
        let via_path = Session::new(builder.clone(), backend, SessionConfig::default())
            .run(&trace)
            .unwrap();
        let SessionOutcome::Finished(via_path) = via_path else {
            panic!("{name}: path run must finish");
        };

        let mut file_src = FileStreamSource::open(&trace).unwrap().permissive(true);
        let via_file = Session::new(builder.clone(), backend, SessionConfig::default())
            .run_source(&mut file_src)
            .unwrap();
        let SessionOutcome::Finished(via_file) = via_file else {
            panic!("{name}: file-source run must finish");
        };

        let mut mat_src = MaterializedSource::new(recs.clone());
        let via_mem = Session::new(builder.clone(), backend, SessionConfig::default())
            .run_source(&mut mat_src)
            .unwrap();
        let SessionOutcome::Finished(via_mem) = via_mem else {
            panic!("{name}: materialized run must finish");
        };

        let expect = session_report_json(&via_path);
        assert_eq!(session_report_json(&via_file), expect, "{name}: file src");
        assert_eq!(session_report_json(&via_mem), expect, "{name}: mem src");
    }
}

/// Kill-resume through `run_source` with record-index positions: stopping a
/// materialized-source session at every checkpoint and resuming must match
/// the uninterrupted run byte for byte — the same guarantee the file-offset
/// path has always had.
#[test]
fn kill_resume_over_materialized_source_is_byte_identical() {
    let dir = TempDir::new("source-kill-resume");
    let recs = workload();
    let every = 100u64;
    let total_ckpts = recs.len() as u64 / every;
    let builder = DetectorBuilder::new(base_config());
    let config = |path: PathBuf, stop_after: Option<u64>| SessionConfig {
        checkpoint: Some(CheckpointPolicy {
            path,
            every_records: every,
            stop_after,
        }),
        ..Default::default()
    };

    let mut reference_src = MaterializedSource::new(recs.clone());
    let reference = Session::new(
        builder.clone(),
        Backend::Sequential,
        config(dir.path("ref.l6ck"), None),
    )
    .run_source(&mut reference_src)
    .unwrap();
    let SessionOutcome::Finished(expect) = reference else {
        panic!("reference must finish");
    };
    let expect = session_report_json(&expect);

    for stop_at in 1..=total_ckpts {
        let ck = dir.path(&format!("stop{stop_at}.l6ck"));
        let mut first = MaterializedSource::new(recs.clone());
        let outcome = Session::new(
            builder.clone(),
            Backend::Sequential,
            config(ck.clone(), Some(stop_at)),
        )
        .run_source(&mut first)
        .unwrap();
        assert!(matches!(outcome, SessionOutcome::Stopped { .. }));
        // Resume with a brand-new source instance, as a restarted process
        // would.
        let mut second = MaterializedSource::new(recs.clone());
        let resumed = Session::new(builder.clone(), Backend::Sequential, config(ck, None))
            .run_source(&mut second)
            .unwrap();
        let SessionOutcome::Finished(rep) = resumed else {
            panic!("stop {stop_at}: resume must finish");
        };
        assert_eq!(session_report_json(&rep), expect, "stop after {stop_at}");
    }
}

#[test]
fn session_flush_idle_cadence_is_report_neutral() {
    let dir = TempDir::new("flush-cadence");
    let trace = dir.path("t.l6tr");
    let recs = workload();
    write_trace(&trace, &recs);
    let builder = DetectorBuilder::new(base_config());

    let plain = Session::new(
        builder.clone(),
        Backend::Sequential,
        SessionConfig::default(),
    )
    .run(&trace)
    .unwrap();
    let SessionOutcome::Finished(plain) = plain else {
        panic!()
    };
    for every in [1_000u64, 100_000, 3_600_000] {
        let flushed = Session::new(
            builder.clone(),
            Backend::Sequential,
            SessionConfig {
                flush_idle_every_ms: every,
                ..Default::default()
            },
        )
        .run(&trace)
        .unwrap();
        let SessionOutcome::Finished(flushed) = flushed else {
            panic!()
        };
        assert_eq!(
            report_json(&flushed.reports),
            report_json(&plain.reports),
            "flush every {every} ms"
        );
    }
}

// ---------------------------------------------------------------------------
// Re-entrant stepping (the serve daemon's driving API)
// ---------------------------------------------------------------------------

/// Drives a session to completion one `step` at a time, exactly as the
/// serve daemon's worker loop does.
fn step_to_finish(session: &mut Session, src: &mut dyn Source) -> SessionReport {
    loop {
        match session.step(src).unwrap() {
            Step::Ingested(_) | Step::Pending => {}
            Step::Finished(rep) => return rep,
            Step::Stopped { .. } => panic!("unexpected Stopped without stop_after"),
        }
    }
}

/// A step-driven session must be indistinguishable from a `run_source`
/// driven one: byte-identical final report *and* byte-identical checkpoint
/// files, across every backend. This is the contract that lets the daemon
/// interleave many tenants without perturbing any single tenant's output.
#[test]
fn step_driven_session_matches_run_source() {
    let dir = TempDir::new("step-differential");
    let recs = workload();
    let config = |path: PathBuf| SessionConfig {
        checkpoint: Some(CheckpointPolicy {
            path,
            every_records: 100,
            stop_after: None,
        }),
        ..Default::default()
    };

    for (name, builder, backend) in builders() {
        let ck_ref = dir.path(&format!("{name}-ref.l6ck"));
        let mut ref_src = MaterializedSource::new(recs.clone());
        let outcome = Session::new(builder.clone(), backend, config(ck_ref.clone()))
            .run_source(&mut ref_src)
            .unwrap();
        let SessionOutcome::Finished(expect) = outcome else {
            panic!("{name}: reference must finish");
        };

        let ck_step = dir.path(&format!("{name}-step.l6ck"));
        let mut session = Session::new(builder.clone(), backend, config(ck_step.clone()));
        let mut src = MaterializedSource::new(recs.clone());
        let rep = step_to_finish(&mut session, &mut src);

        assert_eq!(
            session_report_json(&rep),
            session_report_json(&expect),
            "{name}: stepped report differs from run_source"
        );
        assert_eq!(
            std::fs::read(&ck_step).unwrap(),
            std::fs::read(&ck_ref).unwrap(),
            "{name}: final checkpoint bytes differ"
        );
    }
}

/// `checkpoint_now` writes an off-grid drain checkpoint (one extra beyond
/// the periodic grid), and a fresh session resumed from it reproduces the
/// uninterrupted run's detection output exactly.
#[test]
fn checkpoint_now_off_grid_drain_resumes_cleanly() {
    let dir = TempDir::new("ckpt-now");
    let recs = workload();
    let builder = DetectorBuilder::new(base_config());
    let ck = dir.path("drain.l6ck");
    let config = |path: PathBuf, batch: usize| SessionConfig {
        checkpoint: Some(CheckpointPolicy {
            path,
            every_records: 100,
            stop_after: None,
        }),
        batch,
        ..Default::default()
    };

    let mut ref_src = MaterializedSource::new(recs.clone());
    let outcome = Session::new(
        builder.clone(),
        Backend::Sequential,
        config(dir.path("ref.l6ck"), DEFAULT_SESSION_BATCH),
    )
    .run_source(&mut ref_src)
    .unwrap();
    let SessionOutcome::Finished(expect) = outcome else {
        panic!("reference must finish");
    };

    // Small batches land the session off the 100-record grid; a graceful
    // drain must still capture that exact position.
    let mut session = Session::new(builder.clone(), Backend::Sequential, config(ck.clone(), 7));
    let mut src = MaterializedSource::new(recs.clone());
    for _ in 0..10 {
        assert!(matches!(session.step(&mut src).unwrap(), Step::Ingested(_)));
    }
    assert_eq!(session.records_done(), 70);
    assert_ne!(session.records_done() % 100, 0, "must be off-grid");
    assert!(session.checkpoint_now(&mut src).unwrap());
    drop(session);

    let mut resumed_src = MaterializedSource::new(recs.clone());
    let outcome = Session::new(
        builder.clone(),
        Backend::Sequential,
        config(ck, DEFAULT_SESSION_BATCH),
    )
    .run_source(&mut resumed_src)
    .unwrap();
    let SessionOutcome::Finished(rep) = outcome else {
        panic!("resumed run must finish");
    };
    // The drain checkpoint is one extra write beyond the periodic grid;
    // everything the detector *saw* must be unchanged.
    assert_eq!(report_json(&rep.reports), report_json(&expect.reports));
    assert_eq!(rep.records, expect.records);
    assert_eq!(rep.late_dropped, expect.late_dropped);
    assert_eq!(rep.decode_skipped, expect.decode_skipped);
    assert_eq!(rep.checkpoints_written, expect.checkpoints_written + 1);

    // Without a checkpoint policy there is nowhere to drain to.
    let mut bare = Session::new(builder, Backend::Sequential, SessionConfig::default());
    let mut bare_src = MaterializedSource::new(recs);
    bare.step(&mut bare_src).unwrap();
    assert!(!bare.checkpoint_now(&mut bare_src).unwrap());
}

/// `report_now` mid-stream must not perturb the live pipeline: repeated
/// calls agree with each other, and the session still finishes with a
/// report byte-identical to a never-published run.
#[test]
fn report_now_is_non_destructive_mid_stream() {
    let recs = workload();
    let builder = DetectorBuilder::new(base_config());

    let mut ref_src = MaterializedSource::new(recs.clone());
    let outcome = Session::new(
        builder.clone(),
        Backend::Sequential,
        SessionConfig::default(),
    )
    .run_source(&mut ref_src)
    .unwrap();
    let SessionOutcome::Finished(expect) = outcome else {
        panic!("reference must finish");
    };

    let mut session = Session::new(
        builder,
        Backend::Sequential,
        SessionConfig {
            batch: 64,
            ..Default::default()
        },
    );
    let mut src = MaterializedSource::new(recs);
    for _ in 0..3 {
        session.step(&mut src).unwrap();
    }
    let r1 = session.report_now().unwrap();
    let r2 = session.report_now().unwrap();
    assert_eq!(session_report_json(&r1), session_report_json(&r2));
    assert_eq!(r1.records, session.records_done());

    let rep = step_to_finish(&mut session, &mut src);
    assert_eq!(
        session_report_json(&rep),
        session_report_json(&expect),
        "mid-stream publication changed the final report"
    );
}

/// `load_newest` prefers the main checkpoint but falls back to the `.prev`
/// generation when the main file is corrupt — the crash-recovery path the
/// daemon leans on after a torn write.
#[test]
fn load_newest_prefers_main_and_falls_back_to_prev() {
    let dir = TempDir::new("ck-prev");
    let path = dir.path("state.l6ck");

    let older = sample_checkpoint();
    older.save(&path).unwrap();
    let mut newer = sample_checkpoint();
    newer.records_done = 150;
    newer.checkpoints_written = 4;
    newer.save(&path).unwrap();

    assert!(Checkpoint::prev_path(&path).exists());
    assert_eq!(Checkpoint::load_newest(&path).unwrap(), newer);

    // Corrupt the main file: fall back to the previous generation.
    let mut bytes = std::fs::read(&path).unwrap();
    let body_start = bytes.iter().position(|&b| b == b'\n').unwrap() + 1;
    bytes[body_start + 10] ^= 0x20;
    std::fs::write(&path, &bytes).unwrap();
    assert_eq!(Checkpoint::load_newest(&path).unwrap(), older);

    // Both generations gone bad: the corruption surfaces.
    std::fs::remove_file(Checkpoint::prev_path(&path)).unwrap();
    assert!(matches!(
        Checkpoint::load_newest(&path),
        Err(SessionError::Corrupt(_))
    ));
}

// ---------------------------------------------------------------------------
// Batch geometry never shows: cuts, short fills, the reorder heap
// ---------------------------------------------------------------------------

/// Steps a checkpointing session to the end, keeping the bytes of every
/// checkpoint file it wrote on the way.
fn run_keeping_checkpoints(
    mut session: Session,
    src: &mut dyn Source,
) -> (SessionReport, Vec<Vec<u8>>) {
    let policy = session.config().checkpoint.clone().expect("checkpointing");
    let mut files = Vec::new();
    loop {
        match session.step(src).unwrap() {
            Step::Ingested(_) if session.records_done().is_multiple_of(policy.every_records) => {
                files.push(std::fs::read(&policy.path).unwrap());
            }
            Step::Ingested(_) | Step::Pending => {}
            Step::Finished(rep) => return (rep, files),
            Step::Stopped { .. } => panic!("unexpected Stopped without stop_after"),
        }
    }
}

/// 96 records one second apart, three /64 sources in rotating bursts of
/// four, every destination distinct.
fn ticking_workload() -> Vec<PacketRecord> {
    (0..96u64)
        .map(|i| {
            let src = (0x2001_0db8_0000_0000u128 + u128::from(i / 4 % 3)) << 64 | 1;
            PacketRecord::tcp(i * 1_000, src, 0xa000 + u128::from(i), 1, 22, 60)
        })
        .collect()
}

/// An idle flush falling on the first row, the last row or the middle of a
/// pulled batch — with and without a watermark, on either backend — leaves
/// the reports, every checkpoint file and `last_flush_ms` exactly as a
/// one-record-per-step session writes them.
#[test]
fn idle_flush_cuts_match_one_record_per_step() {
    let dir = TempDir::new("flush-cuts");
    let recs = ticking_workload();
    let builder = DetectorBuilder::new(ScanDetectorConfig {
        min_dsts: 3,
        timeout_ms: 5_000,
        ..Default::default()
    })
    .levels(&[AggLevel::L128, AggLevel::L64]);
    const PULL: usize = 8;
    let mut rows_cut = std::collections::BTreeSet::new();

    for flush_every in [7_000u64, 8_000] {
        // Where the rule puts the flushes at watermark 0: row i % PULL of
        // its batch (checkpoints every 24 records keep pulls aligned).
        let mut last = 0;
        for (i, r) in recs.iter().enumerate() {
            if r.ts_ms - last >= flush_every {
                rows_cut.insert(i % PULL);
                last = r.ts_ms;
            }
        }
        for watermark_ms in [0u64, 3_000] {
            for backend in [Backend::Sequential, Backend::Threaded] {
                let run = |batch: usize| {
                    let path = dir.path(&format!("{flush_every}-{watermark_ms}-{batch}.l6ck"));
                    std::fs::remove_file(&path).ok();
                    let config = SessionConfig {
                        watermark_ms,
                        checkpoint: Some(CheckpointPolicy {
                            path,
                            every_records: 24,
                            stop_after: None,
                        }),
                        flush_idle_every_ms: flush_every,
                        batch,
                        ..Default::default()
                    };
                    let mut src = MaterializedSource::new(recs.clone());
                    run_keeping_checkpoints(
                        Session::new(builder.clone(), backend, config),
                        &mut src,
                    )
                };
                let (expect, expect_files) = run(1);
                assert_eq!(expect_files.len(), 4);
                for batch in [PULL, 5, 4096] {
                    let what = format!(
                        "flush every {flush_every}, watermark {watermark_ms}, {backend:?}, batch {batch}"
                    );
                    let (rep, files) = run(batch);
                    assert_eq!(
                        session_report_json(&rep),
                        session_report_json(&expect),
                        "{what}"
                    );
                    assert_eq!(files, expect_files, "{what}: checkpoint bytes");
                }
                let ck = Checkpoint::load(
                    &dir.path(&format!("{flush_every}-{watermark_ms}-{PULL}.l6ck")),
                )
                .unwrap();
                assert!(ck.last_flush_ms > 0, "no flush reached a checkpoint");
            }
        }
    }
    assert!(
        rows_cut.contains(&0),
        "no flush on a first row: {rows_cut:?}"
    );
    assert!(
        rows_cut.contains(&(PULL - 1)),
        "no flush on a last row: {rows_cut:?}"
    );
    assert!(
        rows_cut.iter().any(|r| (1..PULL - 1).contains(r)),
        "{rows_cut:?}"
    );
}

/// A source that hands over one to three records per call, whatever was
/// asked for — a tailed file between writes, a slow socket.
struct ShortFill {
    inner: MaterializedSource,
    calls: usize,
}

impl Source for ShortFill {
    fn fill(&mut self, out: &mut RecordBatch, max: usize) -> Result<usize, CodecError> {
        self.calls += 1;
        self.inner.fill(out, max.min(1 + self.calls % 3))
    }
    fn position(&self) -> TracePosition {
        self.inner.position()
    }
    fn resume(&mut self, at: TracePosition) -> Result<(), CodecError> {
        self.inner.resume(at)
    }
}

#[test]
fn short_filling_source_matches_full_filling() {
    let dir = TempDir::new("short-fill");
    let recs = workload();
    for (name, builder, backend) in builders() {
        let run = |tag: &str, src: &mut dyn Source| {
            let config = SessionConfig {
                watermark_ms: 2_000,
                checkpoint: Some(CheckpointPolicy {
                    path: dir.path(&format!("{name}-{tag}.l6ck")),
                    every_records: 100,
                    stop_after: None,
                }),
                flush_idle_every_ms: 60_000,
                ..Default::default()
            };
            run_keeping_checkpoints(Session::new(builder.clone(), backend, config), src)
        };
        let (full, full_files) = run("full", &mut MaterializedSource::new(recs.clone()));
        let mut short = ShortFill {
            inner: MaterializedSource::new(recs.clone()),
            calls: 0,
        };
        let (rep, files) = run("short", &mut short);
        assert!(short.calls > recs.len() / 3, "{name}: fills were not short");
        assert_eq!(
            session_report_json(&rep),
            session_report_json(&full),
            "{name}"
        );
        assert_eq!(files, full_files, "{name}: checkpoint bytes");
    }
}

/// A source of one probe's copies, handed out `min(left, max)` per fill as
/// one counted row: paper volume without a record generated.
struct Copies {
    rec: PacketRecord,
    left: u64,
    delivered: u64,
}

impl Source for Copies {
    fn fill(&mut self, out: &mut RecordBatch, max: usize) -> Result<usize, CodecError> {
        out.clear();
        let n = usize::try_from(self.left).map_or(max, |left| left.min(max));
        out.push_n(self.rec, n);
        self.left -= n as u64;
        self.delivered += n as u64;
        Ok(n)
    }
    fn position(&self) -> TracePosition {
        TracePosition {
            offset: self.delivered,
            prev_ts: self.rec.ts_ms,
        }
    }
    fn resume(&mut self, _: TracePosition) -> Result<(), CodecError> {
        unreachable!("no checkpoint exists when the session starts")
    }
}

/// ROADMAP 8(d): the record counts of a paper-volume run (6.7 B, past
/// `u32`) are `u64` sums wherever they add up. The largest batch
/// `RunConfig::validate` admits — `u32::MAX` records, here one row — three
/// times over reads 12 884 901 885 in the session's count, the source's
/// position, the checkpoint, the event and the detector's counters.
#[test]
fn record_counts_past_u32_add_up_as_u64() {
    const BATCH: u64 = u32::MAX as u64;
    let dir = TempDir::new("past-u32");
    let rec = PacketRecord::tcp(5, 0x2001, 0xd000, 1, 22, 60);
    let builder = DetectorBuilder::new(ScanDetectorConfig {
        min_dsts: 1,
        ..Default::default()
    });
    for backend in [Backend::Sequential, Backend::Threaded] {
        let path = dir.path(&format!("{backend:?}.l6ck"));
        let config = SessionConfig {
            batch: BATCH as usize,
            checkpoint: Some(CheckpointPolicy {
                path: path.clone(),
                every_records: 2 * BATCH,
                stop_after: None,
            }),
            ..Default::default()
        };
        let mut src = Copies {
            rec,
            left: 3 * BATCH,
            delivered: 0,
        };
        let outcome = Session::new(builder.clone(), backend, config)
            .run_source(&mut src)
            .unwrap();
        let SessionOutcome::Finished(rep) = outcome else {
            panic!("{backend:?}: stopped");
        };
        assert_eq!(rep.records, 12_884_901_885, "{backend:?}");
        assert_eq!(src.position().offset, 12_884_901_885, "{backend:?}");
        let events = &rep.reports[&AggLevel::L64].events;
        assert_eq!(events.len(), 1, "{backend:?}");
        assert_eq!(events[0].packets, 12_884_901_885, "{backend:?}");
        let ck = Checkpoint::load(&path).unwrap();
        assert_eq!(ck.records_done, 2 * BATCH, "{backend:?}");
        assert_eq!(ck.position.offset, 2 * BATCH, "{backend:?}");
        assert_eq!(ck.detector.levels[0].observed, 2 * BATCH, "{backend:?}");
    }

    let mut row = RecordBatch::new();
    row.push_n(rec, BATCH as usize);
    let mut det = MultiLevelDetector::new(&[AggLevel::L64], ScanDetectorConfig::default());
    for _ in 0..3 {
        det.observe_batch(&row);
    }
    // `detect.batch.{records, memo_hits, runs}`: every copy but a batch's
    // first is a memo hit.
    let stats: Vec<_> = det.detectors().map(ScanDetector::batch_stats).collect();
    assert_eq!(stats, [(12_884_901_885, 12_884_901_882, 3)]);
    assert_eq!(det.observed(), 12_884_901_885);
}

/// `report_now` while the reorder heap still holds records: the published
/// report covers them (it equals the oracle's over everything pulled so
/// far), and the session goes on to the same final report.
#[test]
fn report_now_covers_the_reorder_heap() {
    let recs = workload();
    let config = SessionConfig {
        // Wider than the 200 records pulled below span: nothing is released.
        watermark_ms: 3_600_000,
        batch: 50,
        ..Default::default()
    };
    let builder = DetectorBuilder::new(base_config());
    let mut src = MaterializedSource::new(recs.clone());
    let outcome = Session::new(builder.clone(), Backend::Sequential, config.clone())
        .run_source(&mut src)
        .unwrap();
    let SessionOutcome::Finished(expect) = outcome else {
        panic!("reference must finish");
    };

    let mut session = Session::new(builder, Backend::Sequential, config);
    let mut src = MaterializedSource::new(recs.clone());
    for _ in 0..4 {
        session.step(&mut src).unwrap();
    }
    let pulled = &recs[..200];
    assert!(
        pulled[199].ts_ms < 3_600_000,
        "the heap must still hold every record"
    );
    let published = session.report_now().unwrap();
    assert_eq!(published.records, 200);
    assert_eq!(
        published.reports[&AggLevel::L64],
        oracle::scans(pulled.iter().map(|&r| (r, 1)), &base_config()),
        "published report misses the reorder heap"
    );
    assert!(published.reports[&AggLevel::L64].scans() > 0);
    let rep = step_to_finish(&mut session, &mut src);
    assert_eq!(session_report_json(&rep), session_report_json(&expect));
}

/// A trace-supplied timestamp at `u64::MAX` must neither wrap the idle-flush
/// trigger nor stop the run.
#[test]
fn timestamp_at_u64_max_finishes_with_a_report() {
    for n in [2usize, 3] {
        for watermark_ms in [0u64, 60_000] {
            let mut recs = vec![rec_at(0, 1)];
            recs.resize(n, rec_at(u64::MAX, 2));
            let config = SessionConfig {
                watermark_ms,
                flush_idle_every_ms: 3_600_000,
                batch: 1,
                ..Default::default()
            };
            let mut src = MaterializedSource::new(recs);
            let outcome = Session::new(
                DetectorBuilder::new(base_config()),
                Backend::Sequential,
                config,
            )
            .run_source(&mut src)
            .unwrap();
            let SessionOutcome::Finished(rep) = outcome else {
                panic!("must finish");
            };
            assert_eq!(rep.records, n as u64);
            assert_eq!(rep.late_dropped, 0);
        }
    }
}
