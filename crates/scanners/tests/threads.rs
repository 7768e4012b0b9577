//! Thread accounting of the fused source, read from `/proc/self/status`:
//! `gen_threads = 1` spawns nothing, and `gen_threads = N` runs exactly N
//! workers, joined on drop and replaced (not leaked) by a backward resume.
//!
//! One test, alone in this file: the process thread count is only a
//! property of the source when nothing else in the process spawns.

#![cfg(target_os = "linux")]

use lumen6_scanners::{FleetConfig, FleetSource, World};
use lumen6_trace::{RecordBatch, Source, TracePosition};

fn process_threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let line = status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .expect("Threads: line");
    line.trim().parse().expect("thread count")
}

#[test]
fn inline_lane_spawns_nothing_and_threaded_lanes_join_their_workers() {
    let world = || {
        World::build(FleetConfig {
            end_day: 5,
            intensity: 4.0,
            ..FleetConfig::small()
        })
    };
    let start = TracePosition {
        offset: 0,
        prev_ts: 0,
    };
    let base = process_threads();
    let mut batch = RecordBatch::new();

    let mut inline = FleetSource::new(world());
    assert_eq!(process_threads(), base, "constructing at gen_threads=1");
    let mut records = 0usize;
    loop {
        let n = inline.fill(&mut batch, 1_000).expect("fill");
        assert_eq!(process_threads(), base, "filling at gen_threads=1");
        if n == 0 {
            break;
        }
        records += n;
    }
    assert!(records > 300_000, "trace too small: {records}");
    inline.resume(start).expect("rewind");
    assert_eq!(process_threads(), base, "rewinding at gen_threads=1");
    drop(inline);

    // Each lane carries ~100 k records and a worker parks after at most
    // 4 × 4096, so the counts below cannot race a worker's natural exit.
    let mut threaded = FleetSource::with_gen_threads(world(), 3);
    assert_eq!(process_threads(), base + 3, "constructing at gen_threads=3");
    threaded.fill(&mut batch, 1_000).expect("fill");
    threaded.resume(start).expect("rewind");
    assert_eq!(process_threads(), base + 3, "workers replaced, not leaked");
    drop(threaded);
    assert_eq!(process_threads(), base, "workers joined on drop");
}
