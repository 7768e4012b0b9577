//! One generator for every vantage: the MAWI link trace and a custom fleet
//! stream through the engine the CDN trace runs on, and deliver the
//! reference's exact record sequence at every lane count and fill size.

use lumen6_mawi::{MawiConfig, MawiWorld};
use lumen6_scanners::{
    FleetSource, PortSampler, ScannerActor, Schedule, SourceSampler, TargetSampler, Vantage,
};
use lumen6_trace::{PacketRecord, RecordBatch, SimTime, Source, TracePosition, Transport};

mod reference;

/// Every record `source` delivers, filled `max` at a time.
fn drain(source: &mut dyn Source, max: usize) -> Vec<PacketRecord> {
    let (mut out, mut batch) = (Vec::new(), RecordBatch::new());
    while source.fill(&mut batch, max).unwrap() > 0 {
        assert!(batch.len() <= max, "{} records past max {max}", batch.len());
        out.extend(batch.iter());
    }
    out
}

/// A short window of the small world around one date: the day before it
/// to the day after.
fn around(year: i32, month: u32, day: u32) -> MawiWorld {
    let d = SimTime::from_date(year, month, day).day_index();
    let config = MawiConfig {
        start_day: d - 1,
        end_day: d + 2,
        ..MawiConfig::small()
    };
    MawiWorld::build(config, None)
}

#[test]
fn mawi_source_is_the_reference_merge_at_every_lane_count_and_fill_size() {
    // The hitlist switch, the July-6 /124 pool and the December-24 peak:
    // each window holds an event actor beside the recurring ones.
    for world in [
        around(2021, 5, 27),
        around(2021, 7, 6),
        around(2021, 12, 24),
    ] {
        let want = reference::mawi_trace(&world);
        assert!(want.len() > 10_000, "window too quiet: {}", want.len());
        assert_eq!(drain(&mut world.source(), 4096), want);
        for gen_threads in [1, 2] {
            for max in [1, 3, 4096] {
                let mut source = FleetSource::from_vantage(world.vantage(), gen_threads);
                assert!(
                    drain(&mut source, max) == want,
                    "days {:?}, gen_threads {gen_threads}, fill {max}",
                    world.config().start_day..world.config().end_day
                );
            }
        }
    }
}

/// The fixed streams are generated a day at a time: at a fractional
/// intensity (the counting pass) and integral ones, over a window that
/// starts after day 0 and one of a single day, and after a backward
/// resume restarts the steppers, the source delivers the reference's
/// sequence.
#[test]
fn mawi_source_is_the_reference_at_every_intensity_horizon_and_resume() {
    let jul6 = SimTime::from_date(2021, 7, 6).day_index();
    let one_day = MawiConfig {
        start_day: jul6,
        end_day: jul6 + 1,
        ..MawiConfig::small()
    };
    for world in [around(2021, 5, 27), MawiWorld::build(one_day, None)] {
        let days = world.config().start_day..world.config().end_day;
        for intensity in [0.37, 1.0, 10.0] {
            let want = reference::mawi_trace_at(&world, intensity);
            assert!(want.len() > 1_000, "days {days:?}: too quiet");
            let third = want.len() / 3;
            for gen_threads in [1, 2] {
                let case = format!("days {days:?}, {intensity}x, gen_threads {gen_threads}");
                let vantage = || Vantage {
                    intensity,
                    ..world.vantage()
                };
                let mut source = FleetSource::from_vantage(vantage(), gen_threads);
                assert!(drain(&mut source, 4096) == want, "{case}");
                source
                    .resume(TracePosition {
                        offset: third as u64,
                        prev_ts: want[third - 1].ts_ms,
                    })
                    .expect("backward resume");
                assert!(drain(&mut source, 97) == want[third..], "{case}, resumed");
            }
        }
    }
}

/// A scanner defined as a fleet file would define it.
fn actor(name: &str, source: u128, targets: u128, port: u16, days: (u64, u64)) -> ScannerActor {
    ScannerActor {
        name: name.into(),
        asn: 65_001,
        sources: SourceSampler::Single(source),
        targets: TargetSampler::Hitlist((1..=400u128).map(|i| targets | i << 8).collect()),
        ports: PortSampler::Single(Transport::Tcp, port),
        schedule: Schedule::continuous(days.0, days.1, 500),
        probe_len: 60,
    }
}

#[test]
fn a_custom_fleet_is_the_merge_of_its_actors() {
    // Overlapping schedules, so the merge interleaves the two streams.
    let actors = vec![
        actor("ssh", 0x2001_0db8 << 96 | 1, 0xd << 96, 22, (0, 3)),
        actor("telnet", 0x2001_0db9 << 96 | 2, 0xe << 96, 23, (1, 4)),
    ];
    let want = reference::merge_sorted(actors.iter().map(|a| a.generate(7)).collect());
    assert!(want.windows(2).any(|w| w[0].src != w[1].src));
    for gen_threads in [1, 2] {
        for max in [1, 3, 4096] {
            let vantage = Vantage {
                actors: actors.clone().into(),
                seed: 7,
                intensity: 1.0,
                fixed: Vec::new(),
                capture: None,
            };
            let mut source = FleetSource::from_vantage(vantage, gen_threads);
            assert!(
                drain(&mut source, max) == want,
                "gen_threads {gen_threads}, fill {max}"
            );
        }
    }
}
