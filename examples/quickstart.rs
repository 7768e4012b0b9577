//! Quickstart: build a small simulated world, run the paper's detection
//! pipeline over its firewall stream, and print the per-aggregation picture.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use lumen6::detect::day::Prefiltered;
use lumen6::detect::{Backend, DetectorBuilder, Session, SessionConfig, SessionOutcome};
use lumen6::netmodel::AsInfo;
use lumen6::prelude::*;
use lumen6::scanners::FleetSource;

fn main() -> Result<(), lumen6::detect::SessionError> {
    // A scaled-down world: 6 weeks, a few hundred telescope machines, the
    // full 20-AS scanner fleet of the paper's Table 2.
    println!("building world and generating the firewall trace ...");
    let world = World::build(FleetConfig::small());

    // Step 1 — the firewall-logged trace, generated as it is read, with CDN
    // connection artifacts (SMTP fallback, ISAKMP retries) removed: /64
    // sources that are >30% 5-duplicate packets per day, decided a closed
    // day at a time.
    let stream = Box::new(FleetSource::new(world.clone()));
    let mut clean = Prefiltered::new(stream, ArtifactFilter::default());

    // Step 2 — large-scale scan detection (≥100 destinations, 1 h timeout)
    // at the paper's three source-aggregation levels, in one pass.
    let builder =
        DetectorBuilder::new(ScanDetectorConfig::default()).levels(&AggLevel::PAPER_LEVELS);
    let session = Session::new(builder, Backend::Sequential, SessionConfig::default());
    let SessionOutcome::Finished(run) = session.run_source(&mut clean)? else {
        unreachable!("no checkpoint policy: the session runs to the end")
    };

    let report = clean.report();
    println!("logged {} unsolicited packets", report.input_packets);
    println!(
        "artifact prefilter removed {} packets from {} sources",
        report.removed_packets, report.removed_sources
    );
    if let Some(((proto, port), n)) = report.top_services(1).first() {
        println!(
            "top artifact service: {}/{port} ({n} packets)",
            proto.label()
        );
    }
    for agg in [AggLevel::L128, AggLevel::L64, AggLevel::L48] {
        let scans = &run.reports[&agg];
        println!(
            "{agg}: {} scans, {} sources, {} packets",
            scans.scans(),
            scans.sources(),
            scans.packets()
        );
    }

    // Step 3 — who are the top scan sources?
    println!("\ntop scan sources (/64):");
    for (source, packets) in run.reports[&AggLevel::L64]
        .packets_by_source()
        .into_iter()
        .take(5)
    {
        let who = world
            .registry
            .origin_asn(source.bits())
            .and_then(|asn| world.registry.as_info(asn))
            .map(AsInfo::descriptor)
            .unwrap_or_else(|| "unknown".into());
        println!("  {source}  {packets} packets  [{who}]");
    }
    Ok(())
}
