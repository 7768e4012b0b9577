//! The fused-generation battery: one grid, with `gen_threads` as one more
//! dimension, against the materialized [`oracle::cdn_trace`].
//!
//! Stream level: [`FleetSource`] — and [`World::cdn_trace`], its drain —
//! delivers the oracle's exact record sequence at every lane count, batch
//! size and intensity; positions are interchangeable across lane counts;
//! foreign positions are rejected; buffering does not scale with trace
//! length.
//!
//! Session level: a detection [`Session`] pulling from the source yields
//! the same report as the materialize-to-`L6TR`-then-stream path and the
//! same checkpoint bytes as a run over the materialized records, and a run
//! killed at any checkpoint and resumed with a brand-new source
//! (regenerated from the seed, as a restarted process would) at a
//! *different* lane count or detector backend finishes byte-identical to
//! an uninterrupted run.

use lumen6_detect::prelude::*;
use lumen6_scanners::{FleetConfig, FleetSource, World};
use lumen6_telescope::DeploymentConfig;
use lumen6_trace::{
    MaterializedSource, PacketRecord, RecordBatch, Source, TracePosition, TraceWriter,
};
use proptest::prelude::*;
use std::fs::File;
use std::io::{BufWriter, Write as _};
use std::path::PathBuf;

mod oracle;

const GEN_THREADS: [usize; 4] = [1, 2, 4, 8];

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!(
            "lumen6-fused-{tag}-{}-{:?}",
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

fn tiny_config(seed: u64, intensity: f64, end_day: u64) -> FleetConfig {
    FleetConfig {
        seed,
        intensity,
        end_day,
        ..FleetConfig::small()
    }
}

/// A fast grid fleet: four days, small telescope — still thousands of
/// logged records at 1×, tens of thousands at 25×.
fn grid_config(seed: u64, intensity: f64) -> FleetConfig {
    FleetConfig {
        deployment: DeploymentConfig {
            machines: 40,
            ases: 5,
            dns_pairs: 25,
            ..Default::default()
        },
        noise_sources_per_day: 4,
        ..tiny_config(seed, intensity, 4)
    }
}

fn source(cfg: &FleetConfig, gen_threads: usize) -> FleetSource {
    FleetSource::with_gen_threads(World::build(cfg.clone()), gen_threads)
}

fn drain(src: &mut FleetSource, max: usize) -> Vec<PacketRecord> {
    let mut out = Vec::new();
    let mut batch = RecordBatch::new();
    while src.fill(&mut batch, max).expect("fleet fill is infallible") > 0 {
        out.extend(batch.iter());
    }
    out
}

#[test]
fn stream_equals_cdn_trace_across_threads_batch_and_intensity() {
    for (intensity, end_day) in [(0.3, 7), (0.5, 7), (1.0, 14), (2.5, 7), (10.0, 7)] {
        let cfg = tiny_config(42, intensity, end_day);
        let world = World::build(cfg.clone());
        let expected = oracle::cdn_trace(&world);
        assert!(expected.len() > 1_000, "trace too small to be meaningful");
        assert_eq!(world.cdn_trace(), expected, "intensity={intensity}");
        for n in GEN_THREADS {
            for max in [1, 97, 4096] {
                assert_eq!(
                    drain(&mut source(&cfg, n), max),
                    expected,
                    "gen_threads={n} batch max={max} intensity={intensity}"
                );
            }
        }
    }
}

proptest! {
    /// Differential: for arbitrary seeds, lane counts, intensities and
    /// batch sizes, the fused stream is byte-identical to the materialized
    /// oracle of the same configuration.
    #[test]
    fn stream_equals_cdn_trace_for_arbitrary_configs(
        seed in 0u64..1_000,
        gen_threads in prop_oneof![Just(1usize), Just(2), Just(4), Just(8)],
        intensity_milli in prop_oneof![
            Just(100u64), Just(800), Just(1_000), Just(3_000), Just(25_000)
        ],
        max in prop_oneof![Just(1usize), Just(64), Just(8_192)],
    ) {
        let cfg = grid_config(seed, intensity_milli as f64 / 1_000.0);
        let expected = oracle::cdn_trace(&World::build(cfg.clone()));
        prop_assert_eq!(drain(&mut source(&cfg, gen_threads), max), expected);
    }
}

#[test]
fn position_taken_at_one_thread_count_resumes_at_any_other() {
    let cfg = tiny_config(42, 1.0, 10);
    let full = oracle::cdn_trace(&World::build(cfg.clone()));
    assert!(full.len() > 1_000);
    for (wrote, resumes) in [(1, 1), (1, 2), (2, 1), (2, 4)] {
        let mut src = source(&cfg, wrote);
        let mut batch = RecordBatch::new();
        for _ in 0..3 {
            src.fill(&mut batch, 200).expect("fill");
        }
        let pos = src.position();
        assert_eq!(pos.offset, 600);
        assert_eq!(pos.prev_ts, full[599].ts_ms);
        // A brand-new source over a freshly built world resumes exactly:
        // the position is a property of the record sequence, which is
        // thread-count-invariant.
        let mut fresh = source(&cfg, resumes);
        fresh.resume(pos).expect("resume");
        assert_eq!(
            drain(&mut fresh, 333),
            full[600..],
            "position from gen_threads={wrote} resumed at gen_threads={resumes}"
        );
    }
}

#[test]
fn resume_seeks_forward_in_place_and_regenerates_to_go_back() {
    let cfg = tiny_config(42, 1.0, 10);
    let full = oracle::cdn_trace(&World::build(cfg.clone()));
    let at = |i: usize| TracePosition {
        offset: i as u64,
        prev_ts: full[i - 1].ts_ms,
    };
    for n in [1, 2] {
        let mut src = source(&cfg, n);
        // Forward twice on one source — each seek continues from where the
        // last one stopped, and re-seeking to the current position is a
        // validated no-op.
        src.resume(at(400)).expect("forward resume");
        src.resume(at(400)).expect("resume in place");
        src.resume(at(1_000)).expect("second forward resume");
        let mut batch = RecordBatch::new();
        src.fill(&mut batch, 50).expect("fill");
        assert_eq!(
            batch.iter().collect::<Vec<_>>(),
            full[1_000..1_050],
            "gen_threads={n}"
        );
        // Backwards restarts generation and still reproduces the stream.
        src.resume(at(250)).expect("backward resume");
        assert_eq!(drain(&mut src, 512), full[250..], "gen_threads={n}");
    }
}

/// The two tests above run at intensity 1, where no position falls inside
/// a run. At 25x a run is 25 adjacent copies of one row and most positions
/// do: every offset of a 300-record window — inside a run, at its first and
/// at its last copy — is taken from a source walked one record at a time at
/// one lane count and resumed at the other (forwards once, then by
/// regeneration), and the fills that follow, whatever their size, continue
/// the oracle's sequence from exactly that copy.
#[test]
fn position_at_every_offset_of_a_25x_window_resumes_exactly() {
    let cfg = tiny_config(42, 25.0, 3);
    let full = oracle::cdn_trace(&World::build(cfg.clone()));
    let window = 500..800usize;
    assert!(full.len() > window.end + 8_192);
    let (mut inside, mut first, mut last) = (0, 0, 0);
    for i in window.clone() {
        match (full[i - 1] == full[i], full[i] == full[i + 1]) {
            (true, true) => inside += 1,
            (false, true) => first += 1,
            (true, false) => last += 1,
            (false, false) => {}
        }
    }
    assert!(
        inside > 100 && first > 3 && last > 3,
        "window holds no runs to cut: {inside} inside, {first} first, {last} last copies"
    );
    let mut batch = RecordBatch::new();
    for (wrote, resumes) in [(1, 2), (2, 1)] {
        let mut walker = source(&cfg, wrote);
        walker
            .resume(TracePosition {
                offset: window.start as u64,
                prev_ts: full[window.start - 1].ts_ms,
            })
            .expect("seek to the window");
        let mut reader = source(&cfg, resumes);
        for offset in window.clone() {
            let pos = walker.position();
            assert_eq!(pos.offset, offset as u64);
            assert_eq!(pos.prev_ts, full[offset - 1].ts_ms);
            for max in [1, 7, 4_096] {
                reader.resume(pos).expect("resume inside a run");
                assert_eq!(reader.position(), pos);
                for want in full[offset..offset + 2 * max].chunks(max) {
                    reader.fill(&mut batch, max).expect("fill");
                    assert_eq!(
                        batch.iter().collect::<Vec<_>>(),
                        want,
                        "offset {offset} max={max}: gen_threads {wrote} → {resumes}"
                    );
                }
            }
            assert_eq!(walker.fill(&mut batch, 1).expect("fill"), 1);
        }
    }
}

#[test]
fn resume_rejects_foreign_positions() {
    let cfg = tiny_config(42, 1.0, 7);
    let n_records = oracle::cdn_trace(&World::build(cfg.clone())).len() as u64;
    for n in [1, 2] {
        // Beyond the end of the stream.
        let beyond = TracePosition {
            offset: n_records + 1,
            prev_ts: 0,
        };
        assert!(source(&cfg, n).resume(beyond).is_err(), "gen_threads={n}");
        // Timestamp that contradicts the regenerated stream (e.g. a
        // checkpoint from a different seed).
        let contradicts = TracePosition {
            offset: 10,
            prev_ts: u64::MAX,
        };
        assert!(
            source(&cfg, n).resume(contradicts).is_err(),
            "gen_threads={n}"
        );
    }
}

#[test]
fn peak_buffered_records_do_not_scale_with_trace_length() {
    // The streaming property that motivates the fused source: buffering
    // (release heaps + channel runs + consumer heads) is set by the lane
    // depth and *concurrent* session budgets, not by how many days the
    // trace spans. Tripling the window must not come close to tripling
    // the peak.
    fn run(end_day: u64, gen_threads: usize) -> (u64, u64) {
        let mut src = source(&tiny_config(42, 1.0, end_day), gen_threads);
        let mut batch = RecordBatch::new();
        while src.fill(&mut batch, 1024).expect("fill") > 0 {}
        (src.peak_buffered_records(), src.position().offset)
    }
    for n in [1, 4] {
        let (peak_short, total_short) = run(14, n);
        let (peak_long, total_long) = run(42, n);
        assert!(
            total_long > total_short * 2,
            "window did not grow the trace: {total_short} → {total_long}"
        );
        assert!(
            peak_long < peak_short * 2,
            "gen_threads={n}: peak buffering scaled with trace length: {peak_short} → \
             {peak_long} while the trace grew {total_short} → {total_long}"
        );
        assert!(
            peak_long > 0,
            "peak tracker never observed any buffered records"
        );
    }
}

/// Low-threshold detector so even the 0.1× grid corner produces events.
fn detector() -> DetectorBuilder {
    DetectorBuilder::new(ScanDetectorConfig {
        min_dsts: 25,
        ..Default::default()
    })
    .levels(&[AggLevel::L128, AggLevel::L64, AggLevel::L48])
}

fn report_json(rep: &SessionReport) -> String {
    serde_json::to_string(rep).unwrap()
}

fn finish(outcome: SessionOutcome) -> SessionReport {
    match outcome {
        SessionOutcome::Finished(rep) => rep,
        SessionOutcome::Stopped { .. } => panic!("session stopped unexpectedly"),
    }
}

fn checkpointing(path: PathBuf, every_records: u64, stop_after: Option<u64>) -> SessionConfig {
    SessionConfig {
        checkpoint: Some(CheckpointPolicy {
            path,
            every_records,
            stop_after,
        }),
        ..Default::default()
    }
}

/// Final reports equal the file-backed run across gen-threads {1,2,4,8} ×
/// batch {1,64,8192} × intensity {0.1,1,25}.
#[test]
fn session_report_equals_materialized_trace_file_run() {
    let dir = TempDir::new("battery");
    for intensity in [0.1, 1.0, 25.0] {
        let cfg = grid_config(77, intensity);
        let recs = oracle::cdn_trace(&World::build(cfg.clone()));
        assert!(
            recs.len() > 500,
            "grid corner too small at intensity {intensity}: {}",
            recs.len()
        );
        let trace = dir.path(&format!("grid-{intensity}.l6tr"));
        let mut w = TraceWriter::new(BufWriter::new(File::create(&trace).unwrap())).unwrap();
        for r in &recs {
            w.append(r).unwrap();
        }
        w.finish().unwrap().flush().unwrap();

        for batch in [1usize, 64, 8_192] {
            let session = || {
                Session::new(
                    detector(),
                    Backend::Sequential,
                    SessionConfig {
                        batch,
                        ..Default::default()
                    },
                )
            };
            let via_file = finish(session().run(&trace).unwrap());
            assert!(
                via_file.reports.values().any(|r| r.scans() > 0),
                "workload must produce scan events"
            );
            let expect = report_json(&via_file);
            for n in GEN_THREADS {
                let via_fused = finish(session().run_source(&mut source(&cfg, n)).unwrap());
                assert_eq!(
                    report_json(&via_fused),
                    expect,
                    "gen_threads={n} batch={batch} intensity={intensity}"
                );
            }
        }
    }
}

/// Mid-run state and checkpoint bytes: a fused run stopped at its first
/// checkpoint has ingested exactly as many records as a run over the
/// materialized trace at the same cadence, and the checkpoint files —
/// detector snapshot, source position, session counters, checksum framing
/// — are byte-identical.
#[test]
fn first_stop_checkpoint_bytes_equal_materialized_trace_run() {
    let dir = TempDir::new("ckpt-bytes");
    let cfg = grid_config(77, 1.0);
    let every = 500u64;
    let stop_at_first = |name: &str, src: &mut dyn Source| {
        let ck = dir.path(name);
        let outcome = Session::new(
            detector(),
            Backend::Sequential,
            checkpointing(ck.clone(), every, Some(1)),
        )
        .run_source(src)
        .unwrap();
        let SessionOutcome::Stopped { records_done, .. } = outcome else {
            panic!("{name}: run must stop at its first checkpoint");
        };
        assert_eq!(records_done, every, "{name}");
        std::fs::read(&ck).unwrap()
    };
    let mut materialized = MaterializedSource::new(oracle::cdn_trace(&World::build(cfg.clone())));
    let expect = stop_at_first("oracle.l6ck", &mut materialized);
    for n in GEN_THREADS {
        assert_eq!(
            stop_at_first(&format!("fused{n}.l6ck"), &mut source(&cfg, n)),
            expect,
            "checkpoint bytes differ from the materialized run at gen_threads={n}"
        );
    }
}

/// Kill-resume: a checkpoint written at one gen-thread count resumes at
/// another (including 1) and under a changed detector backend, all
/// byte-identical to an uninterrupted run.
#[test]
fn kill_resume_across_thread_counts_is_byte_identical() {
    let dir = TempDir::new("kill-resume");
    let cfg = grid_config(77, 1.0);
    let every = 500u64;
    let reference = finish(
        Session::new(
            detector(),
            Backend::Sequential,
            checkpointing(dir.path("ref.l6ck"), every, None),
        )
        .run_source(&mut source(&cfg, 1))
        .unwrap(),
    );
    assert!(
        reference.records > 3 * every,
        "workload too small to interrupt: {}",
        reference.records
    );
    let expect = report_json(&reference);

    let threaded = Backend::Threaded;
    for (wrote, resumes, backend) in [
        (1, 1, threaded),
        (1, 2, Backend::Sequential),
        (2, 1, Backend::Sequential),
        (2, 4, threaded),
    ] {
        for stop_at in 1..=3u64 {
            let ck = dir.path(&format!("w{wrote}-r{resumes}-stop{stop_at}.l6ck"));
            let outcome = Session::new(
                detector(),
                Backend::Sequential,
                checkpointing(ck.clone(), every, Some(stop_at)),
            )
            .run_source(&mut source(&cfg, wrote))
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
            // A restarted process rebuilds the source from the seed; the
            // session resumes it via the record-index checkpoint position.
            let rep = finish(
                Session::new(detector(), backend, checkpointing(ck, every, None))
                    .run_source(&mut source(&cfg, resumes))
                    .unwrap(),
            );
            assert_eq!(
                report_json(&rep),
                expect,
                "stop after {stop_at}: gen_threads {wrote} → {resumes}"
            );
        }
    }
}
