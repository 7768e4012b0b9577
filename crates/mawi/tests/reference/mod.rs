//! The reference the vantage tests compare [`MawiWorld::source`] against:
//! the MAWI link trace assembled the long way round, from public parts
//! only — every actor's whole `generate` stream, the background stream and
//! the small scanners, then one `merge_sorted`. Everything is resident at
//! once, so short windows only.
//!
//! It shares the per-actor draw loop and the two fixed-stream generators
//! with the source; what it checks independently is everything the engine
//! adds — release queues, the lane merge, where runs are cut and the
//! fixed-stream cursors.
//!
//! Defined once: `crates/mawi/tests/vantage.rs` declares it as a module and
//! the experiments crate's `tests/mawi_lab.rs` includes the same file.
//!
//! [`MawiWorld::source`]: lumen6_mawi::MawiWorld::source

use lumen6_mawi::{background, MawiWorld};
use lumen6_trace::{merge_sorted, PacketRecord};

/// The materialized link trace of `world`: actors at their indices, then
/// background, then the small scanners — the merge's tie-break order.
pub fn mawi_trace(world: &MawiWorld) -> Vec<PacketRecord> {
    let c = world.config();
    let mut streams: Vec<Vec<PacketRecord>> =
        world.actors.iter().map(|a| a.generate(c.seed)).collect();
    streams.push(background::generate(
        &c.downstream,
        c.background_flows_per_day,
        c.start_day,
        c.end_day,
        c.seed,
    ));
    streams.push(world.small_scanners());
    merge_sorted(streams)
}
