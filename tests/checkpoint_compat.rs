//! Tier-1 check that checkpoints written before `L6CK v2` still resume.
//!
//! `tests/data/` holds a small trace and two `L6CK v1` (JSON body)
//! checkpoints that the *parent* of the v2 commit cut from it after 800 of
//! its 1418 records — see `tests/data/make_v1_fixtures.rs` for exactly how.
//! Nothing in this tree can write v1, so these files are the only witnesses:
//! each must resume here to the report of an uninterrupted run, and the
//! resumed session's next save must be a canonical v2 file.

use lumen6::detect::prelude::*;
use std::path::{Path, PathBuf};

fn data(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/data")
        .join(name)
}

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("lumen6-compat-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

// The two session shapes below are those of
// `tests/data/make_v1_fixtures.rs`, which cut the v1 files under them
// (there with a `stop_after`).

/// Exact counters behind a reorder watermark and an idle-flush cadence,
/// sequential: the checkpoint holds pending events, reorder entries and a
/// `last_flush_ms`.
fn session_pending(ck: &Path) -> Session {
    let base = ScanDetectorConfig {
        min_dsts: 20,
        timeout_ms: 60_000,
        ..Default::default()
    };
    Session::new(
        DetectorBuilder::new(base).levels(&AggLevel::PAPER_LEVELS),
        Backend::Sequential,
        SessionConfig {
            watermark_ms: 2_000,
            flush_idle_every_ms: 30_000,
            checkpoint: Some(CheckpointPolicy {
                path: ck.to_path_buf(),
                every_records: 400,
                stop_after: None,
            }),
            ..Default::default()
        },
    )
}

/// Spill-to-sketch counters with retained destinations, threaded (the
/// fixture was cut on two shards of the pipeline that preceded it): the
/// checkpoint holds `Sketch` and `Exact` counters and `dst_list`s.
fn session_sketch(ck: &Path) -> Session {
    let base = ScanDetectorConfig {
        min_dsts: 20,
        timeout_ms: 60_000,
        keep_dsts: true,
        sketch: Some(SketchConfig {
            spill_threshold: 16,
            precision: 10,
        }),
        ..Default::default()
    };
    Session::new(
        DetectorBuilder::new(base).levels(&[AggLevel::L64, AggLevel::L48]),
        Backend::Threaded,
        SessionConfig {
            checkpoint: Some(CheckpointPolicy {
                path: ck.to_path_buf(),
                every_records: 400,
                stop_after: None,
            }),
            ..Default::default()
        },
    )
}

fn finished(session: Session) -> SessionReport {
    match session.run(&data("compat.l6tr")).unwrap() {
        SessionOutcome::Finished(report) => report,
        SessionOutcome::Stopped { .. } => panic!("no stop_after was set"),
    }
}

/// Resumes the committed v1 checkpoint `fixture` under `session` and holds
/// the outcome to an uninterrupted run of the same session shape: the same
/// report, and — the resumed run's third checkpoint being its first save —
/// the same, version-2, final checkpoint file.
fn v1_resumes_like_an_uninterrupted_run(fixture: &str, session: fn(&Path) -> Session) {
    let dir = TempDir::new(fixture);
    let v1 = std::fs::read(data(fixture)).unwrap();
    assert!(v1.starts_with(b"L6CK v1 "), "{fixture} is not a v1 file");
    let cut = Checkpoint::load(&data(fixture)).unwrap();
    assert_eq!((cut.records_done, cut.checkpoints_written), (800, 2));
    assert_eq!(cut.detector.version, 2, "v1 loads upgraded");
    for level in &cut.detector.levels {
        assert!(level.pending.len() >= 2, "fixture lost its pending events");
        assert!(
            level.pending.is_sorted_by_key(|e| (e.start_ms, e.source)),
            "v1 pending events load in canonical order"
        );
    }

    let fresh = dir.0.join("fresh.l6ck");
    let reference = finished(session(&fresh));
    assert_eq!(reference.records, 1418);
    assert!(reference.reports.values().all(|r| r.scans() >= 5));

    let resumed_ck = dir.0.join("resumed.l6ck");
    std::fs::write(&resumed_ck, &v1).unwrap();
    let resumed = finished(session(&resumed_ck));
    assert_eq!(resumed, reference, "{fixture}: resumed report differs");
    assert_eq!(resumed.checkpoints_written, 3);

    let saved = std::fs::read(&resumed_ck).unwrap();
    assert!(saved.starts_with(b"L6CK v2 "), "the next save is v2");
    assert_eq!(
        saved,
        std::fs::read(&fresh).unwrap(),
        "{fixture}: a resumed v1 run re-saves the canonical v2 bytes"
    );
    assert_eq!(
        std::fs::read(Checkpoint::prev_path(&resumed_ck)).unwrap(),
        v1,
        "the v1 file became the .prev generation untouched"
    );
}

#[test]
fn v1_checkpoint_with_pending_events_and_reorder_entries_resumes() {
    let cut = Checkpoint::load(&data("compat_pending.v1.l6ck")).unwrap();
    assert!(!cut.reorder.entries.is_empty() && cut.last_flush_ms > 0);
    v1_resumes_like_an_uninterrupted_run("compat_pending.v1.l6ck", session_pending);
}

#[test]
fn v1_checkpoint_with_sketches_and_kept_destinations_resumes() {
    let cut = Checkpoint::load(&data("compat_sketch.v1.l6ck")).unwrap();
    let runs = || cut.detector.levels.iter().flat_map(|l| &l.runs);
    assert!(runs().any(|r| r.dst_list.is_some()));
    // `CounterState` is not re-exported; its JSON names the variant.
    let json = serde_json::to_string(&cut.detector).unwrap();
    assert!(json.contains("\"Sketch\"") && json.contains("\"Exact\""));
    v1_resumes_like_an_uninterrupted_run("compat_sketch.v1.l6ck", session_sketch);
}

/// The same two files resumed at another idle-flush cadence — one timeout,
/// what `RunConfig::session_config` now resolves an unset `flush_idle_secs`
/// to; the sketch file was cut with no flush ever run (`last_flush_ms` 0) —
/// still finish with the uninterrupted report. Only the report: the flush
/// grid restarts at the first row after the resume, so checkpoint bytes from
/// there on need not be a fresh run's.
#[test]
fn v1_checkpoints_resume_under_the_timeout_cadence() {
    let at_timeout = |fixture: &str, session: fn(&Path) -> Session| {
        let dir = TempDir::new(&format!("cadence-{fixture}"));
        let cut = session(&dir.0.join("fresh.l6ck"));
        let config = cut.config().clone();
        let reference = finished(cut);

        let ck = dir.0.join("resumed.l6ck");
        std::fs::copy(data(fixture), &ck).unwrap();
        let policy = config.checkpoint.map(|p| CheckpointPolicy {
            path: ck.clone(),
            ..p
        });
        // The file's own level configurations are authoritative on a
        // restore, and either backend restores either file.
        let resumed = finished(Session::new(
            DetectorBuilder::new(ScanDetectorConfig::default()),
            Backend::Sequential,
            SessionConfig {
                flush_idle_every_ms: 60_000,
                checkpoint: policy,
                ..config
            },
        ));
        assert_eq!(resumed, reference, "{fixture}");
        let last = Checkpoint::load(&ck).unwrap();
        assert_eq!(last.checkpoints_written, 3);
        assert!(
            last.last_flush_ms > 0,
            "{fixture}: no flush after the resume"
        );
    };
    at_timeout("compat_pending.v1.l6ck", session_pending);
    at_timeout("compat_sketch.v1.l6ck", session_sketch);
}

/// A torn or damaged v2 main file falls back to the `.prev` generation even
/// when that generation is a v1 file — the state of a spool directory right
/// after an upgrade.
#[test]
fn load_newest_falls_back_from_corrupt_v2_to_v1_prev() {
    let dir = TempDir::new("fallback");
    let main = dir.0.join("state.l6ck");
    std::fs::write(
        &main,
        std::fs::read(data("compat_pending.v1.l6ck")).unwrap(),
    )
    .unwrap();
    let v1 = Checkpoint::load(&main).unwrap();

    // One more save: v2 main, the v1 file moves to `.prev`.
    let mut newer = v1.clone();
    newer.checkpoints_written += 1;
    newer.save(&main).unwrap();
    assert_eq!(Checkpoint::load_newest(&main).unwrap(), newer);

    let mut bytes = std::fs::read(&main).unwrap();
    assert!(bytes.starts_with(b"L6CK v2 "));
    let last = bytes.len() - 1;
    bytes[last] ^= 0x01;
    std::fs::write(&main, &bytes).unwrap();
    assert!(matches!(
        Checkpoint::load(&main),
        Err(SessionError::Corrupt(_))
    ));
    assert_eq!(Checkpoint::load_newest(&main).unwrap(), v1);
}
