//! What the grouping counts, pinned: on a fixed input detected at the
//! paper's three levels, `detect.batch.{records,memo_hits,runs}` and every
//! level's `detect.multi.l*.{runs_opened,events_closed}` keep the values a
//! build that grouped each level on its own published. Grouping once for
//! all levels must count the same memo hits, runs and openings. A test
//! binary of its own, because the metrics registry is process-global.

use lumen6_detect::prelude::*;
use lumen6_obs::MetricsRegistry;
use lumen6_trace::{PacketRecord, RecordBatch};

/// 60 000 counted rows from 60 sources nested three deep (three /48s, four
/// /64s in each, five /128s in each /64): bursts from one source, probes
/// to a few hundred destinations per /64 on 16 ports, 1–8 copies a row,
/// and now and then an hour and more of silence.
fn rows() -> RecordBatch {
    let mut state = 0x9e37_79b9_7f4a_7c15_u64;
    let mut next = move |n: u64| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state % n
    };
    let (mut ts, mut src) = (0u64, 0u128);
    let mut batch = RecordBatch::new();
    for _ in 0..60_000 {
        ts += next(3_000) + if next(500) == 0 { 4_000_000 } else { 0 };
        if next(2) == 0 {
            let (p48, p64, host) = (next(3), next(4), next(5));
            src = 0x2001_0db8_u128 << 96
                | u128::from(p48) << 80
                | u128::from(p64) << 64
                | u128::from(host);
        }
        let dst = (src >> 64 << 16) | u128::from(next(300));
        let row = PacketRecord::tcp(ts, src, dst, 40_000, next(16) as u16, 60);
        batch.push_n(row, next(8) as usize + 1);
    }
    batch
}

#[test]
fn grouping_counters_keep_their_values_at_three_levels() {
    let rows = rows();
    let config = ScanDetectorConfig {
        min_dsts: 20,
        ..Default::default()
    };
    let builder = DetectorBuilder::new(config).levels(&AggLevel::PAPER_LEVELS);
    let mut det = builder.build(Backend::Sequential);
    let mut batch = RecordBatch::new();
    for (k, lo) in (0..rows.rows()).step_by(4096).enumerate() {
        batch.clear();
        batch.extend_from_range(&rows, lo..rows.rows().min(lo + 4096));
        det.observe_batch(&batch);
        if k % 5 == 4 {
            det.flush_idle(batch.ts_ms()[batch.rows() - 1]);
        }
    }
    let reports = det.finish();
    assert!(reports.values().all(|r| r.scans() > 0), "every level scans");

    let snap = MetricsRegistry::global().snapshot();
    let got: Vec<(&str, u64)> = [
        "detect.batch.records",
        "detect.batch.memo_hits",
        "detect.batch.runs",
        "detect.multi.l128.runs_opened",
        "detect.multi.l128.events_closed",
        "detect.multi.l64.runs_opened",
        "detect.multi.l64.events_closed",
        "detect.multi.l48.runs_opened",
        "detect.multi.l48.events_closed",
    ]
    .map(|name| (name, snap.counters.get(name).copied().unwrap_or(0)))
    .to_vec();
    let expect = [
        ("detect.batch.records", 811_623),
        ("detect.batch.memo_hits", 734_910),
        ("detect.batch.runs", 180_000),
        ("detect.multi.l128.runs_opened", 5845),
        ("detect.multi.l128.events_closed", 777),
        ("detect.multi.l64.runs_opened", 1333),
        ("detect.multi.l64.events_closed", 915),
        ("detect.multi.l48.runs_opened", 343),
        ("detect.multi.l48.events_closed", 313),
    ];
    assert_eq!(got, expect);
}
