//! Provenance of the files beside this one — not a build target.
//!
//! `compat.l6tr`, `compat_pending.v1.l6ck` and `compat_sketch.v1.l6ck` were
//! written by this program built as an example of the *parent* of the commit
//! that introduced `L6CK v2` (a42471c, the last build whose
//! `Checkpoint::save` wrote a JSON body):
//!
//! ```sh
//! git archive a42471c | tar -x -C /tmp/parent
//! cp tests/data/make_v1_fixtures.rs /tmp/parent/examples/
//! (cd /tmp/parent && cargo run --release --example make_v1_fixtures -- OUT_DIR)
//! ```
//!
//! Nothing in the tree can write a `v1` file any more, so they cannot be
//! regenerated from here; `tests/checkpoint_compat.rs` holds this build to
//! them, under the two `session_*` shapes below (there without `stop_after`).

use lumen6::detect::prelude::*;
use lumen6::trace::{PacketRecord, TraceWriter, Transport};
use std::io::Write as _;
use std::path::Path;

const A: u128 = 0x2001_0db8_000a_0001_0000_0000_0000_0001;
const B48: u128 = 0x2001_0db8_00b0_0000_0000_0000_0000_0000;
const C64: u128 = 0x2001_0db8_000c_0007_0000_0000_0000_0000;
const D: u128 = 0x2001_0db8_000d_0002_0000_0000_0000_0009;
const EFG: [u128; 3] = [
    0x2001_0db8_00e0_0001_0000_0000_0000_0001,
    0x2620_00f0_0000_0002_0000_0000_0000_0001,
    0x2a03_0090_0000_0003_0000_0000_0000_0001,
];
const DST: u128 = 0x2a00_1450_4001_0000_0000_0000_0000_0000;

/// ~1.5 k records over 400 s: four sources whose first scan has timed out
/// and closed before the cut (A, and E/F/G in three other networks, starting
/// out of address order), a /48 spread over thirty /64s (B), a /64
/// spread over sixty /128s (C), a heavy hitter past any spill threshold
/// (D), and thin background noise over four transports.
fn workload() -> Vec<PacketRecord> {
    let mut recs = Vec::new();
    for i in 0..40u64 {
        recs.push(PacketRecord::tcp(i * 1_000, A, DST + u128::from(i), 40_000, 22, 60));
        recs.push(PacketRecord::tcp(
            200_000 + i * 1_000,
            A,
            DST + 0x100 + u128::from(i),
            40_000,
            443,
            60,
        ));
    }
    for (k, start) in [5_000u64, 2_000, 8_000].into_iter().enumerate() {
        let src = EFG[k];
        for i in 0..25u64 {
            let dst = DST + 0x4000 + u128::from(i);
            recs.push(PacketRecord::tcp(start + i * 1_000, src, dst, 40_000, 23, 60));
        }
        recs.push(PacketRecord::tcp(180_000 + start, src, DST, 40_000, 23, 60));
    }
    for i in 0..60u64 {
        let src = B48 | (u128::from(i % 30) << 64) | 1;
        recs.push(PacketRecord::udp(
            50_000 + i * 3_000,
            src,
            DST + 0x1000 + u128::from(i),
            5_000,
            53,
            80,
        ));
    }
    for i in 0..60u64 {
        recs.push(PacketRecord::icmpv6_echo(
            120_000 + i * 2_500,
            C64 | (u128::from(i) + 1),
            DST + 0x2000 + u128::from(i),
            64,
        ));
    }
    for i in 0..700u64 {
        recs.push(PacketRecord::tcp(
            10_000 + i * 550,
            D,
            DST + 0x10000 + u128::from(i % 350),
            41_000,
            if i % 3 == 0 { 80 } else { 8080 },
            60,
        ));
    }
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for i in 0..440u64 {
        x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        let proto = match x >> 61 {
            0 => Transport::Udp,
            1 => Transport::Icmpv6,
            2 => Transport::Other(47),
            _ => Transport::Tcp,
        };
        recs.push(PacketRecord {
            ts_ms: i * 900 + (x >> 40) % 900,
            src: 0x2400_cb00_0000_0000_0000_0000_0000_0000 | u128::from((x >> 8) % 50) << 64 | 7,
            dst: DST + 0x3000 + u128::from((x >> 20) % 8),
            proto,
            sport: 1_024 + (x % 60_000) as u16,
            dport: [25, 53, 123, 500][(x >> 33) as usize % 4],
            len: 60 + (x % 40) as u16,
        });
    }
    lumen6::trace::sort_by_time(&mut recs);
    recs
}

/// Exact counters behind a reorder watermark and an idle-flush cadence,
/// sequential: the checkpoint holds pending events, reorder entries and a
/// `last_flush_ms`.
fn session_pending(ck: &Path, stop_after: Option<u64>) -> Session {
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
                stop_after,
            }),
            ..Default::default()
        },
    )
}

/// Spill-to-sketch counters with retained destinations on two shards: the
/// checkpoint holds `Sketch` and `Exact` counters and `dst_list`s.
fn session_sketch(ck: &Path, stop_after: Option<u64>) -> Session {
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
        Backend::Sharded(ShardPlan::with_shards(2)),
        SessionConfig {
            checkpoint: Some(CheckpointPolicy {
                path: ck.to_path_buf(),
                every_records: 400,
                stop_after,
            }),
            ..Default::default()
        },
    )
}

fn main() {
    let out = std::env::args().nth(1).expect("usage: make_v1_fixtures OUT_DIR");
    let out = Path::new(&out);
    let trace = out.join("compat.l6tr");
    let mut w = TraceWriter::new(std::io::BufWriter::new(
        std::fs::File::create(&trace).unwrap(),
    ))
    .unwrap();
    for r in &workload() {
        w.append(r).unwrap();
    }
    w.finish().unwrap().flush().unwrap();
    for (name, session) in [
        ("compat_pending.v1.l6ck", session_pending as fn(&Path, Option<u64>) -> Session),
        ("compat_sketch.v1.l6ck", session_sketch),
    ] {
        let ck = out.join(name);
        let _ = std::fs::remove_file(&ck);
        let outcome = session(&ck, Some(2)).run(&trace).unwrap();
        assert!(matches!(outcome, SessionOutcome::Stopped { records_done: 800, .. }));
        let _ = std::fs::remove_file(Checkpoint::prev_path(&ck));
    }
}
