//! The third vantage point: detecting the fleet's scanners from DNS
//! backscatter alone — the reverse-zone authority never sees a single scan
//! packet, only the PTR lookups that victims' resolvers perform about the
//! scanners' source addresses (Fukuda & Heidemann, the paper's ref [12]).
//!
//! ```sh
//! cargo run --release --example backscatter
//! ```

use lumen6::backscatter::{backscatter_queries, BackscatterConfig, BackscatterDetector};
use lumen6::prelude::*;
use lumen6::scanners::FleetSource;
use lumen6::trace::{RecordBatch, Source};

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

fn main() {
    let mut cfg = FleetConfig::small();
    cfg.end_day = 21;
    let world = World::build(cfg);

    // What the scanners' reverse-zone authority records, drawn packet by
    // packet as the firewall-logged stream is generated.
    let mut packets = 0u64;
    let traffic = records(FleetSource::new(world.clone())).inspect(|_| packets += 1);
    let queries: Vec<_> = backscatter_queries(traffic, &BackscatterConfig::default(), 42).collect();
    println!("victim-side traffic: {packets} packets over 3 weeks");
    println!("PTR queries at the authority: {}", queries.len());

    // Querier diversity separates scanners from ordinary hosts.
    let detected = BackscatterDetector::default().detect(&queries);
    println!("\nflagged sources (≥20 distinct resolvers):");
    let mut true_positives = 0;
    for s in detected.iter().take(8) {
        let truth = world
            .fleet
            .truth
            .iter()
            .find(|t| t.prefix.contains(&s.source));
        if truth.is_some() {
            true_positives += 1;
        }
        println!(
            "  {}  {} resolvers, {} queries  [{}]",
            s.source,
            s.queriers,
            s.queries,
            truth
                .map(|t| format!("ground truth: Table-2 AS#{}", t.rank))
                .unwrap_or_else(|| "NOT a scanner".into())
        );
    }
    println!(
        "\n{} of {} shown are ground-truth scanners — scan detection without scan packets",
        true_positives,
        detected.len().min(8)
    );

    // Aggregation merges per-address sightings into per-actor entities —
    // and for a scanner that rotates source addresses per probe, only the
    // aggregate is visible at all (see the crate's unit tests for that
    // extreme; the paper's §2.2 lesson applies at this vantage too).
    let at128 = BackscatterDetector {
        agg_len: 128,
        min_queriers: 20,
    };
    println!(
        "per-/128 sightings: {}  ->  per-/64 actors: {}",
        at128.detect(&queries).len(),
        detected.len()
    );
}
