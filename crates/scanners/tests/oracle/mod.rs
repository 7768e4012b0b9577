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
//! applied before the merge, and the fixed streams' run-length cursor. The
//! artifact and noise streams are generated here as records, by the bodies
//! the product generators had before they wrote compact rows, each day
//! stably sorted by comparison: the flow table, the rows, their chunks and
//! the day radix sort are checked too.
//!
//! Defined once: `crates/scanners/tests/fused.rs` declares it as a module
//! (and checks its [`merge_sorted`]) and the workspace root's
//! `tests/fused.rs` includes the same file.
//!
//! [`FleetSource`]: lumen6_scanners::FleetSource

use lumen6_scanners::{scale_intensity, World};
use lumen6_telescope::artifacts::{mapped_machines, ArtifactConfig};
use lumen6_telescope::{CaptureConfig, CdnDeployment, FirewallCapture};
use lumen6_trace::{sort_by_time, PacketRecord, Transport, DAY_MS, HOUR_MS};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

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

/// Merges traces, each sorted by timestamp, into one sorted trace; ties go
/// to the lower trace index, so the streams' order is the tie-break.
pub fn merge_sorted(traces: Vec<Vec<PacketRecord>>) -> Vec<PacketRecord> {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    let total: usize = traces.iter().map(Vec::len).sum();
    let mut out = Vec::with_capacity(total);
    // Heap of (next timestamp, trace index, position).
    let mut heap: BinaryHeap<Reverse<(u64, usize, usize)>> = BinaryHeap::new();
    for (i, t) in traces.iter().enumerate() {
        if let Some(r) = t.first() {
            heap.push(Reverse((r.ts_ms, i, 0)));
        }
    }
    while let Some(Reverse((_, i, pos))) = heap.pop() {
        out.push(traces[i][pos]);
        if pos + 1 < traces[i].len() {
            heap.push(Reverse((traces[i][pos + 1].ts_ms, i, pos + 1)));
        }
    }
    out
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
    let artifacts = artifacts(
        &world.deployment,
        &cfg.artifacts,
        cfg.start_day,
        cfg.end_day,
        cfg.seed,
    );
    let noise = noise(
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

/// The artifact mix for `[day_start, day_end)`, in stable time order.
fn artifacts(
    deployment: &CdnDeployment,
    config: &ArtifactConfig,
    day_start: u64,
    day_end: u64,
    seed: u64,
) -> Vec<PacketRecord> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xa27f_ac75);
    let mut out = Vec::new();
    for day in day_start..day_end {
        let t0 = day * DAY_MS;
        let day_first = out.len();
        for kind in 0..3 {
            let (count, proto, dport, len) = match kind {
                0 => (config.smtp_sources_per_day, Transport::Tcp, 25u16, 80u16),
                1 => (config.isakmp_sources_per_day, Transport::Udp, 500, 120),
                _ => (config.netbios_sources_per_day, Transport::Udp, 137, 92),
            };
            for _ in 0..count {
                // Residential-looking source /64 with a random host IID.
                let net64: u64 = 0x2600_0000_0000_0000 | (rng.gen::<u64>() & 0x00ff_ffff_ffff_0000);
                let src = ((net64 as u128) << 64) | u128::from(rng.gen::<u64>());
                let dsts = mapped_machines(deployment, src, day, config.mapped_machines);
                // Retries spread over the day.
                for dst in dsts {
                    let base = t0 + rng.gen_range(0..4 * HOUR_MS);
                    for k in 0..config.retries_per_dst {
                        let ts = base + k * rng.gen_range(60_000u64..120_000);
                        out.push(PacketRecord {
                            ts_ms: ts.min(t0 + DAY_MS - 1),
                            src,
                            dst,
                            proto,
                            sport: rng.gen_range(1024..65535),
                            dport,
                            len,
                        });
                    }
                }
            }
        }
        // Every record of the day is clamped into the day, so sorting day
        // by day is the whole stream's stable time sort.
        sort_by_time(&mut out[day_first..]);
    }
    out
}

/// `sources_per_day` ephemeral noise sources for each day of `[day_start,
/// day_end)`, targeting addresses drawn from `telescope_addrs`, in stable
/// time order.
fn noise(
    telescope_addrs: &[u128],
    sources_per_day: usize,
    day_start: u64,
    day_end: u64,
    seed: u64,
) -> Vec<PacketRecord> {
    assert!(!telescope_addrs.is_empty(), "need telescope addresses");
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x0153_e5e5);
    let mut out = Vec::new();
    for day in day_start..day_end {
        let day_first = out.len();
        for _ in 0..sources_per_day {
            // Random source /64 anywhere in 2000::/3-ish space.
            let net64: u64 = 0x2000_0000_0000_0000 | (rng.gen::<u64>() >> 3);
            let src = ((net64 as u128) << 64) | u128::from(rng.gen::<u64>());
            let n_dsts = rng.gen_range(1..=5usize);
            let dsts: Vec<u128> = (0..n_dsts)
                .map(|_| telescope_addrs[rng.gen_range(0..telescope_addrs.len())])
                .collect();
            let packets = rng.gen_range(1..=20u64);
            let t0 = day * DAY_MS + rng.gen_range(0..DAY_MS - 3_600_000);
            for k in 0..packets {
                let dst = dsts[rng.gen_range(0..dsts.len())];
                let proto = if rng.gen_bool(0.7) {
                    Transport::Tcp
                } else {
                    Transport::Udp
                };
                out.push(PacketRecord {
                    ts_ms: t0 + k * rng.gen_range(1_000u64..60_000),
                    src,
                    dst,
                    proto,
                    sport: rng.gen_range(1024..65000),
                    dport: [53u16, 123, 161, 1900, 5060, 6881, 3074, 27015]
                        [rng.gen_range(0usize..8)],
                    len: rng.gen_range(40..1400),
                });
            }
        }
        // A source starts at least an hour before midnight and sends for at
        // most 19 minutes, so the day's records stay in the day: sorting day
        // by day is the whole stream's stable time sort.
        sort_by_time(&mut out[day_first..]);
    }
    out
}
