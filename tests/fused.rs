//! Tier-1 smoke of fused generation (the full battery lives in
//! `crates/scanners/tests/fused.rs`): the source's inline lane and its
//! threaded lanes both deliver the materialized `cdn_trace()`, and a
//! position taken under one resumes under the other.

use lumen6::scanners::{FleetConfig, FleetSource, World};
use lumen6::trace::{PacketRecord, RecordBatch, Source};

fn config() -> FleetConfig {
    FleetConfig {
        end_day: 7,
        ..FleetConfig::small()
    }
}

fn drain(src: &mut FleetSource) -> Vec<PacketRecord> {
    let mut out = Vec::new();
    let mut batch = RecordBatch::new();
    while src.fill(&mut batch, 4_096).expect("infallible") > 0 {
        out.extend(batch.iter());
    }
    out
}

#[test]
fn inline_and_threaded_generation_equal_cdn_trace() {
    let expected = World::build(config()).cdn_trace();
    assert!(expected.len() > 10_000, "trace too small to be meaningful");
    for gen_threads in [1, 2] {
        let mut src = FleetSource::with_gen_threads(World::build(config()), gen_threads);
        assert_eq!(drain(&mut src), expected, "gen_threads={gen_threads}");
    }
}

#[test]
fn position_taken_threaded_resumes_inline() {
    let expected = World::build(config()).cdn_trace();
    let mut threaded = FleetSource::with_gen_threads(World::build(config()), 2);
    let mut batch = RecordBatch::new();
    assert_eq!(threaded.fill(&mut batch, 5_000).expect("fill"), 5_000);
    let mut inline = FleetSource::new(World::build(config()));
    inline.resume(threaded.position()).expect("resume");
    assert_eq!(drain(&mut inline), expected[5_000..]);
}
