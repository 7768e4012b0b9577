//! Tier-1 smoke of fused generation (the full battery lives in
//! `crates/scanners/tests/fused.rs`, and so does the oracle both compare
//! against): the source's inline lane, its threaded lanes and
//! `World::cdn_trace()` all deliver the materialized reference trace — at
//! 10x, where nine rows in ten are adjacent repeats, through fills small
//! enough to cut every run — and a position taken under one lane count
//! resumes under the other.

use lumen6::scanners::{FleetConfig, FleetSource, World};
use lumen6::trace::{PacketRecord, RecordBatch, Source};

#[path = "../crates/scanners/tests/oracle/mod.rs"]
mod oracle;

fn config() -> FleetConfig {
    FleetConfig {
        end_day: 7,
        ..FleetConfig::small()
    }
}

fn drain(src: &mut FleetSource, max: usize) -> Vec<PacketRecord> {
    let mut out = Vec::new();
    let mut batch = RecordBatch::new();
    while src.fill(&mut batch, max).expect("infallible") > 0 {
        assert!(batch.len() <= max, "fill overran max={max}");
        out.extend(batch.iter());
    }
    out
}

#[test]
fn inline_and_threaded_generation_equal_cdn_trace() {
    let world = World::build(config());
    let expected = oracle::cdn_trace(&world);
    assert!(expected.len() > 10_000, "trace too small to be meaningful");
    assert_eq!(world.cdn_trace(), expected, "cdn_trace()");
    for gen_threads in [1, 2] {
        let mut src = FleetSource::with_gen_threads(World::build(config()), gen_threads);
        assert_eq!(
            drain(&mut src, 4_096),
            expected,
            "gen_threads={gen_threads}"
        );
    }
}

#[test]
fn runs_cut_by_three_record_fills_equal_cdn_trace_at_10x() {
    let config = FleetConfig {
        intensity: 10.0,
        end_day: 2,
        ..FleetConfig::small()
    };
    let expected = oracle::cdn_trace(&World::build(config.clone()));
    let repeats = expected.windows(2).filter(|w| w[0] == w[1]).count();
    assert!(
        repeats * 10 > expected.len() * 8,
        "10x trace is not mostly adjacent repeats: {repeats} of {}",
        expected.len()
    );
    for gen_threads in [1, 2] {
        let mut src = FleetSource::with_gen_threads(World::build(config.clone()), gen_threads);
        assert!(
            drain(&mut src, 3) == expected,
            "gen_threads={gen_threads}: stream differs from the oracle"
        );
    }
}

#[test]
fn position_taken_threaded_resumes_inline() {
    let expected = oracle::cdn_trace(&World::build(config()));
    let mut threaded = FleetSource::with_gen_threads(World::build(config()), 2);
    let mut batch = RecordBatch::new();
    assert_eq!(threaded.fill(&mut batch, 5_000).expect("fill"), 5_000);
    let mut inline = FleetSource::new(World::build(config()));
    inline.resume(threaded.position()).expect("resume");
    assert_eq!(drain(&mut inline, 4_096), expected[5_000..]);
}
