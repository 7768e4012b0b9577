//! The CDN telescope end to end: deployment, capture filtering, artifact
//! removal, and the §3.3 targeting analysis on the in-DNS / not-in-DNS
//! address pairs.
//!
//! ```sh
//! cargo run --release --example cdn_telescope
//! ```

use lumen6::analysis::targeting;
use lumen6::detect::day::Prefiltered;
use lumen6::detect::{Backend, DetectorBuilder, Session, SessionConfig, SessionOutcome};
use lumen6::prelude::*;
use lumen6::scanners::FleetSource;
use lumen6::telescope::CaptureConfig;
use lumen6::trace::{RecordBatch, Source};

/// The world's firewall-logged stream, generated as it is read, with the
/// A.1 artifact filter applied a closed day at a time.
fn clean_stream(world: &World) -> Prefiltered {
    let stream = Box::new(FleetSource::new(world.clone()));
    Prefiltered::new(stream, ArtifactFilter::default())
}

/// Every copy of every row `source` fills, a batch at a time.
fn records(mut source: impl Source) -> impl Iterator<Item = PacketRecord> {
    let batches = std::iter::from_fn(move || {
        let mut batch = RecordBatch::new();
        let filled = source
            .fill(&mut batch, 4096)
            .expect("generation cannot fail");
        (filled > 0).then_some(batch)
    });
    batches.flat_map(|b| {
        (0..b.rows()).flat_map(move |i| std::iter::repeat_n(b.get(i), b.count(i) as usize))
    })
}

fn main() -> Result<(), lumen6::detect::SessionError> {
    let world = World::build(FleetConfig::small());
    let dep = &world.deployment;
    println!(
        "telescope: {} machines over {} hosting ASes, {} addresses ({} in DNS), {} DNS pairs",
        dep.machines().len(),
        dep.as_prefixes().len(),
        dep.telescope_size(),
        dep.dns_hitlist().len(),
        dep.pairs().len()
    );

    // Demonstrate the capture filter on hand-made packets.
    let capture = FirewallCapture::new(dep, CaptureConfig::default());
    let dst = dep.machines()[0].client_facing;
    let probes = [
        (
            "TCP/22 probe",
            PacketRecord::tcp(0, 1, dst, 1, 22, 60),
            true,
        ),
        (
            "TCP/443 (served)",
            PacketRecord::tcp(0, 1, dst, 1, 443, 60),
            false,
        ),
        (
            "ICMPv6 echo",
            PacketRecord::icmpv6_echo(0, 1, dst, 96),
            false,
        ),
        (
            "foreign dst",
            PacketRecord::tcp(0, 1, 0xdead, 1, 22, 60),
            false,
        ),
    ];
    for (label, p, expect) in probes {
        assert_eq!(capture.logs(&p), expect);
        println!("firewall logs {label:<18} -> {}", capture.logs(&p));
    }

    // Full pipeline with destination retention for targeting analysis.
    let config = ScanDetectorConfig::paper(AggLevel::L64).with_dsts();
    let session = Session::new(
        DetectorBuilder::new(config),
        Backend::Sequential,
        SessionConfig::default(),
    );
    let SessionOutcome::Finished(mut run) = session.run_source(&mut clean_stream(&world))? else {
        unreachable!("no checkpoint policy: the session runs to the end")
    };
    let scans = run.reports.remove(&AggLevel::L64).expect("the one level");

    // §3.3: how many of each source's targets exist in DNS? The paper
    // reports AS#18 separately — it holds 80% of the /64 sources and
    // targets half-hidden addresses, which would swamp the distribution.
    let as18 = world
        .fleet
        .truth
        .iter()
        .find(|t| t.rank == 18)
        .expect("fleet has 20 ASes")
        .prefix;
    let breakdown: Vec<_> = targeting::dns_breakdown(&scans, |a| dep.is_in_dns(a))
        .into_iter()
        .filter(|b| !as18.contains(&b.source))
        .collect();
    let summary = targeting::summarize_dns(&breakdown);
    println!(
        "\n{} scan sources; {:.0}% target only DNS-exposed addresses; {:.0}% have ≥33% hidden targets",
        summary.sources,
        summary.all_in_dns_frac * 100.0,
        summary.heavy_not_in_dns_frac * 100.0
    );

    // The nearby-prior question: were hidden targets preceded by an in-DNS
    // probe in the same /120? A second pass over the stream answers it.
    let explorers: Vec<_> = breakdown
        .iter()
        .filter(|b| b.not_in_dns_frac() > 0.3 && b.total() > 50)
        .map(|b| b.source)
        .collect();
    let analysis = targeting::nearby_prior_analysis(
        records(clean_stream(&world)),
        &explorers,
        AggLevel::L64,
        |a| dep.is_in_dns(a),
        &[8],
    );
    for n in analysis.iter().take(5) {
        println!(
            "{}: {} hidden targets, {:.0}% had a prior in-DNS probe in the same /120",
            n.source,
            n.hidden_targets,
            n.fraction(8) * 100.0
        );
    }
    Ok(())
}
