//! The reference the fused batteries compare [`FleetSource`] (and so
//! [`World::cdn_trace`], its drain) against: the firewall-logged CDN record
//! sequence assembled the long way round, from public parts only — every
//! actor's whole `generate_scaled` stream, the artifact and noise streams
//! repeated record by record, one `merge_sorted`, one `capture` over the
//! merged trace. Everything is resident at once, so small fleets only.
//!
//! It shares the per-probe draw loop with the source (the goldens pin
//! that); what it checks independently is everything the source adds — the
//! release queues, the lane merge, where runs are cut, the capture filter
//! applied before the merge, and the fixed streams' run-length cursor.
//!
//! Defined once: `crates/scanners/tests/fused.rs` declares it as a module
//! and the workspace root's `tests/fused.rs` includes the same file.
//!
//! [`FleetSource`]: lumen6_scanners::FleetSource

use lumen6_scanners::{noise, scale_intensity, World};
use lumen6_telescope::{artifacts, CaptureConfig, FirewallCapture};
use lumen6_trace::{merge_sorted, PacketRecord};

/// `stream` scaled to `scale_intensity(len, intensity)` records by the
/// Bresenham schedule: record `i` appears `due(i + 1) - due(i)` times, in
/// place.
fn repeat(stream: &[PacketRecord], intensity: f64) -> Vec<PacketRecord> {
    let base = stream.len() as u128;
    let scaled = u128::from(scale_intensity(stream.len() as u64, intensity));
    let due = |i: usize| (scaled * i as u128 / base) as usize;
    let copies = |(i, r): (usize, &PacketRecord)| std::iter::repeat_n(*r, due(i + 1) - due(i));
    stream.iter().enumerate().flat_map(copies).collect()
}

/// The materialized CDN trace of `world`.
pub fn cdn_trace(world: &World) -> Vec<PacketRecord> {
    let cfg = world.config();
    let mut streams: Vec<Vec<PacketRecord>> = world
        .fleet
        .actors
        .iter()
        .map(|actor| actor.generate_scaled(cfg.seed, cfg.intensity))
        .collect();
    // Stream order is the merge's tie-break: actors at their fleet indices,
    // then artifacts, then noise.
    let artifacts = artifacts::generate(
        &world.deployment,
        &cfg.artifacts,
        cfg.start_day,
        cfg.end_day,
        cfg.seed,
    );
    let noise = noise::generate(
        &world.deployment.all_addrs(),
        cfg.noise_sources_per_day,
        cfg.start_day,
        cfg.end_day,
        cfg.seed,
    );
    streams.push(repeat(&artifacts, cfg.intensity));
    streams.push(repeat(&noise, cfg.intensity));
    let capture = FirewallCapture::new(&world.deployment, CaptureConfig::default());
    capture.capture(&merge_sorted(streams)).0
}
