//! Idle runs retire on the stream clock by default: what a default
//! [`RunConfig`] session holds — in memory and in every checkpoint — is what
//! is live plus the events pending, not every source ever seen; and what that
//! default asks of the input in return.

use lumen6_detect::prelude::*;
use lumen6_serve::RunConfig;
use lumen6_trace::PacketRecord;
use std::path::{Path, PathBuf};

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("lumen6-retire-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// One checkpoint as the run left it: the file, the open runs the session
/// reported for it, and the file's size without its pending events.
struct Cut {
    bytes: Vec<u8>,
    open_runs: usize,
    live_bytes: u64,
}

/// Steps `cfg`'s session over `cfg`'s source to the end, keeping every
/// checkpoint on the way.
fn run_keeping_cuts(cfg: &RunConfig, scratch: &Path) -> (SessionReport, Vec<Cut>) {
    cfg.validate().unwrap();
    let path = PathBuf::from(cfg.checkpoint.as_ref().expect("checkpointing"));
    std::fs::remove_file(&path).ok();
    let mut src = cfg.make_source().unwrap();
    let mut session = cfg.make_session();
    let mut cuts = Vec::new();
    loop {
        match session.step(src.as_mut()).unwrap() {
            Step::Ingested(_) if session.records_done().is_multiple_of(cfg.checkpoint_every) => {
                let ck = Checkpoint::load(&path).unwrap();
                let [(level, memory)] = session.memory() else {
                    panic!("one level, got {:?}", session.memory());
                };
                let state = &ck.detector.levels[0];
                assert_eq!(*level, state.config.agg);
                assert_eq!(*memory, state.memory(), "gauges read the snapshot saved");
                let mut live = ck.clone();
                live.detector.levels[0].pending.clear();
                live.save(scratch).unwrap();
                cuts.push(Cut {
                    bytes: std::fs::read(&path).unwrap(),
                    open_runs: memory.open_runs,
                    live_bytes: std::fs::metadata(scratch).unwrap().len(),
                });
            }
            Step::Ingested(_) | Step::Pending => {}
            Step::Finished(report) => return (report, cuts),
            Step::Stopped { .. } => panic!("no stop_after was set"),
        }
    }
}

/// Small fleet, 120 days, default configuration, both backends: at every
/// checkpoint the open runs and the file — its pending events aside — stay
/// under one fixed bound, so the checkpoint 30 days in and the last differ
/// by no more than their pending events. The same runs with retirement off
/// grow past both bounds many times over, and report the same scans.
#[test]
fn default_checkpoints_hold_what_is_live_not_every_source_seen() {
    const OPEN_RUNS: usize = 32;
    const LIVE_BYTES: u64 = 64 << 10;
    let dir = TempDir::new("bounded");
    let scratch = dir.0.join("live-part.l6ck");
    let mut files: Vec<Vec<Vec<u8>>> = Vec::new();
    let mut reports = Vec::new();
    for (backend, sequential) in [("seq", true), ("threaded", false)] {
        let default = RunConfig {
            fused: true,
            small: true,
            days: Some(120),
            sequential,
            checkpoint: Some(dir.0.join(backend).to_string_lossy().into_owned()),
            checkpoint_every: 50_000,
            ..RunConfig::default()
        };
        assert_eq!(default.flush_idle_secs, None);
        let (report, cuts) = run_keeping_cuts(&default, &scratch);
        assert!(cuts.len() >= 12, "{} checkpoints", cuts.len());
        for (i, cut) in cuts.iter().enumerate() {
            assert!(
                cut.open_runs <= OPEN_RUNS,
                "{backend} cut {i}: {} open runs",
                cut.open_runs
            );
            assert!(
                cut.live_bytes <= LIVE_BYTES,
                "{backend} cut {i}: {} B live",
                cut.live_bytes
            );
        }
        let (early, last) = (&cuts[cuts.len() / 4], &cuts[cuts.len() - 1]);
        let pending = |cut: &Cut| cut.bytes.len() as u64 - cut.live_bytes;
        assert!(pending(last) > pending(early), "events accumulate");
        assert!(
            (last.bytes.len() as u64).abs_diff(early.bytes.len() as u64)
                <= pending(last) - pending(early) + LIVE_BYTES,
            "{backend}: {} B 30 days in, {} B at the end",
            early.bytes.len(),
            last.bytes.len()
        );

        let never = RunConfig {
            flush_idle_secs: Some(0),
            ..default
        };
        let (never_report, never_cuts) = run_keeping_cuts(&never, &scratch);
        let (early, last) = (
            &never_cuts[never_cuts.len() / 4],
            &never_cuts[never_cuts.len() - 1],
        );
        assert!(early.open_runs > 10 * OPEN_RUNS && last.open_runs > 2 * early.open_runs);
        assert!(early.live_bytes > 4 * LIVE_BYTES && last.live_bytes > early.live_bytes);
        assert_eq!(
            never_report, report,
            "{backend}: retirement changed the report"
        );

        files.push(cuts.into_iter().map(|cut| cut.bytes).collect());
        reports.push(report);
    }
    assert_eq!(reports[0], reports[1]);
    assert!(
        files[0] == files[1],
        "sequential and threaded checkpoints differ"
    );
}

const HOUR_MS: u64 = 3_600_000;

/// A scanner's 120 probes in two minutes, two hours of other traffic, and
/// then one more of the scanner's probes stamped 30 minutes in — a record
/// 90 minutes late.
fn late_record_workload() -> Vec<PacketRecord> {
    let scanner = 0x2001_0db8_0000_0001_u128 << 64 | 1;
    let probe = |ts, dst: u64| PacketRecord::tcp(ts, scanner, 0xd000 + u128::from(dst), 1, 22, 60);
    let mut recs: Vec<PacketRecord> = (0..120).map(|i| probe(i * 1_000, i)).collect();
    recs.extend((0..240u64).map(|i| {
        let other = (0x2001_0db8_0000_0100_u128 + u128::from(i % 7)) << 64 | 1;
        PacketRecord::udp(120_000 + i * 30_000, other, 0xe000, 1, 53, 80)
    }));
    recs.push(probe(HOUR_MS / 2, 500));
    recs
}

fn scanner_packets(cfg: &RunConfig, recs: &[PacketRecord]) -> Vec<u64> {
    let mut src = MaterializedSource::new(recs.to_vec());
    let SessionOutcome::Finished(report) = cfg.make_session().run_source(&mut src).unwrap() else {
        panic!("no stop_after was set");
    };
    assert_eq!(report.records, recs.len() as u64);
    report.reports[&AggLevel::L64]
        .events
        .iter()
        .map(|e| e.packets)
        .collect()
}

/// The precondition of report-neutral retirement, both sides. Input that is
/// time-ordered *at the detector* — here disordered, but inside the
/// watermark — reports the same with retirement on (the default) and off.
/// With watermark 0 the same disordered input is still a deterministic,
/// finished run, but the late record meets a run the flush already closed:
/// the scan reports its 120 packets and the straggler opens a run of its
/// own, where without retirement it would have joined as the 121st.
#[test]
fn retirement_is_report_neutral_for_input_ordered_at_the_detector() {
    let recs = late_record_workload();
    let cfg = |watermark_secs, flush_idle_secs| RunConfig {
        trace: Some("unused: the records come from memory".into()),
        sequential: true,
        watermark_secs,
        flush_idle_secs,
        ..RunConfig::default()
    };
    // 2 h of watermark covers the 90 minutes.
    let ordered = scanner_packets(&cfg(7_200, None), &recs);
    assert_eq!(ordered, [121]);
    assert_eq!(scanner_packets(&cfg(7_200, Some(0)), &recs), ordered);

    let late = scanner_packets(&cfg(0, None), &recs);
    assert_eq!(
        late,
        [120],
        "the flush closed the scan before the straggler"
    );
    assert_eq!(scanner_packets(&cfg(0, None), &recs), late, "deterministic");
    assert_eq!(scanner_packets(&cfg(0, Some(0)), &recs), [121]);
}
