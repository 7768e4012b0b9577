//! Building a custom scanner actor from samplers, and inspecting the
//! ground-truth fleet behind the paper's Table 2.
//!
//! ```sh
//! cargo run --release --example scanner_fleet
//! ```

use lumen6::detect::{Backend, DetectorBuilder, Session, SessionConfig, SessionOutcome};
use lumen6::prelude::*;
use lumen6::scanners::{actor::Schedule, IidMode, PortSampler, SourceSampler, TargetSampler};
use lumen6::scanners::{FleetSource, Vantage};

fn main() -> Result<(), lumen6::detect::SessionError> {
    // A custom actor: sources spread across a /48, structured-IID prefix
    // sweep, progressive daily port rotation.
    let actor = ScannerActor {
        name: "demo-scanner".into(),
        asn: 65_000,
        sources: SourceSampler::RandomInPrefix("2001:db8:42::/48".parse().unwrap()),
        targets: TargetSampler::PrefixSweep {
            prefixes: vec!["2001:200::/32".parse().unwrap()],
            iid: IidMode::LowHamming(6),
            subnets_per_prefix: 1 << 14,
        },
        ports: PortSampler::DailyRotate {
            proto: Transport::Tcp,
            pool: PortSampler::common_tcp_ports(100),
            per_day: 6,
        },
        schedule: Schedule::continuous(0, 7, 400),
        probe_len: 60,
    };
    // Its stream alone, as `lumen6 generate custom` draws it: no telescope
    // capture, no other traffic.
    let vantage = Vantage {
        actors: vec![actor].into(),
        seed: 1,
        intensity: 1.0,
        fixed: Vec::new(),
        capture: None,
    };
    let mut stream = FleetSource::from_vantage(vantage, 1);
    let levels = [AggLevel::L128, AggLevel::L64, AggLevel::L48];
    let builder = DetectorBuilder::new(ScanDetectorConfig::default()).levels(&levels);
    let session = Session::new(builder, Backend::Sequential, SessionConfig::default());
    let SessionOutcome::Finished(run) = session.run_source(&mut stream)? else {
        unreachable!("no checkpoint policy: the session runs to the end")
    };
    println!("demo actor emitted {} probes over a week", run.records);

    // It is invisible without aggregation and obvious at /48 — exactly the
    // paper's methodological point.
    for agg in levels {
        let scans = &run.reports[&agg];
        println!(
            "  at {agg}: {} scans from {} sources",
            scans.scans(),
            scans.sources()
        );
    }

    // The calibrated paper fleet and its ground truth.
    let world = World::build(FleetConfig::small());
    println!(
        "\nTable-2 ground truth ({} actors total):",
        world.fleet.actors.len()
    );
    println!("rank  type                 paper packets  paper /48,/64,/128   sim prefix");
    for t in &world.fleet.truth {
        println!(
            "#{:<4} {:<20} {:>7.1}M       {:>4} / {:>4} / {:>4}   {}",
            t.rank,
            t.as_type.to_string() + " (" + &t.country + ")",
            t.paper_packets_m,
            t.paper_sources.0,
            t.paper_sources.1,
            t.paper_sources.2,
            t.prefix
        );
    }
    Ok(())
}
