//! The reference the vantage tests compare [`MawiWorld::source`] against:
//! the MAWI link trace assembled the long way round, from public parts
//! only — every actor's whole `generate` stream, the background stream and
//! the small scanners, then one `merge_sorted`. Everything is resident at
//! once, so short windows only.
//!
//! It shares the per-actor draw loop with the source; what it checks
//! independently is everything the engine adds — release queues, the lane
//! merge, where runs are cut, the fixed streams' days and their copies —
//! and the two fixed streams' compact form: they are generated here as
//! records over the whole window, by the bodies the product generators had
//! before they wrote a day of rows over a flow table at a time, sorted
//! whole by comparison and repeated record by record.
//!
//! Defined once: `crates/mawi/tests/vantage.rs` declares it as a module and
//! the experiments crate's `tests/mawi_lab.rs` includes the same file.
//!
//! [`MawiWorld::source`]: lumen6_mawi::MawiWorld::source

use lumen6_addr::{gen, Ipv6Prefix};
use lumen6_mawi::{capture_window, MawiWorld};
use lumen6_trace::{scale_intensity, PacketRecord, Transport};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The materialized link trace of `world`: actors at their indices, then
/// background, then the small scanners — the merge's tie-break order.
pub fn mawi_trace(world: &MawiWorld) -> Vec<PacketRecord> {
    mawi_trace_at(world, 1.0)
}

/// The link trace of `world` with every stream's volume scaled by
/// `intensity`: each actor's `generate_scaled` stream, and the background
/// and small scanners repeated record by record.
pub fn mawi_trace_at(world: &MawiWorld, intensity: f64) -> Vec<PacketRecord> {
    let c = world.config();
    let mut streams: Vec<Vec<PacketRecord>> = world
        .actors
        .iter()
        .map(|a| a.generate_scaled(c.seed, intensity))
        .collect();
    let background = background(
        &c.downstream,
        c.background_flows_per_day,
        c.start_day,
        c.end_day,
        c.seed,
    );
    streams.push(repeat(&background, intensity));
    streams.push(repeat(&small_scanners(world), intensity));
    merge_sorted(streams)
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

/// Background flows inside each day's capture window, time-sorted.
fn background(
    downstream: &[Ipv6Prefix],
    flows_per_day: usize,
    start_day: u64,
    end_day: u64,
    seed: u64,
) -> Vec<PacketRecord> {
    assert!(!downstream.is_empty(), "need downstream prefixes");
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xbac0);
    let mut out = Vec::new();
    for day in start_day..end_day {
        let (ws, we) = capture_window(day);
        // Ordinary flows.
        for _ in 0..flows_per_day {
            let p = downstream[rng.gen_range(0..downstream.len())];
            let local = gen::random_in_prefix(&mut rng, p);
            let remote_net: u64 = 0x2400_0000_0000_0000 | (rng.gen::<u64>() >> 8);
            let remote = gen::random_iid(&mut rng, remote_net);
            let dport = [443u16, 80, 53, 8443, 993][rng.gen_range(0usize..5)];
            let n = rng.gen_range(5..40u64);
            let t0 = rng.gen_range(ws..we - 1);
            for k in 0..n {
                out.push(PacketRecord {
                    ts_ms: (t0 + k * rng.gen_range(5u64..2_000)).min(we - 1),
                    src: remote,
                    dst: local,
                    proto: Transport::Tcp,
                    sport: rng.gen_range(1024..65000),
                    dport,
                    len: rng.gen_range(40..1500),
                });
            }
        }
        // A couple of busy remote servers touching many destinations with
        // high length variance (e.g. a node pushing data to many clients).
        // The second one keeps a FIXED destination port: it satisfies every
        // Fukuda–Heidemann criterion except length entropy, which is the
        // only thing standing between it and a false positive.
        for fixed_port in [false, true] {
            let remote_net: u64 = 0x2400_0000_0000_0000 | (rng.gen::<u64>() >> 8);
            let remote = gen::random_iid(&mut rng, remote_net);
            let p = downstream[rng.gen_range(0..downstream.len())];
            let t0 = rng.gen_range(ws..we - 1);
            for k in 0..150u64 {
                let local = gen::random_in_prefix(&mut rng, p);
                out.push(PacketRecord {
                    ts_ms: (t0 + k * rng.gen_range(5u64..500)).min(we - 1),
                    src: remote,
                    dst: local,
                    proto: Transport::Tcp,
                    sport: 443,
                    dport: if fixed_port {
                        4500
                    } else {
                        rng.gen_range(1024..65000)
                    },
                    len: rng.gen_range(40..1500),
                });
            }
        }
    }
    lumen6_trace::sort_by_time(&mut out);
    out
}

/// The ephemeral small-scale scanners, time-sorted.
fn small_scanners(world: &MawiWorld) -> Vec<PacketRecord> {
    let config = world.config();
    let mut rng = SmallRng::seed_from_u64(config.seed ^ 0x5a11);
    let mut out = Vec::new();
    for day in config.start_day..config.end_day {
        let (ws, we) = capture_window(day);
        for _ in 0..config.small_scanners_per_day {
            let net: u64 = 0x2a0e_0000_0000_0000 | (rng.gen::<u64>() >> 12);
            let src = ((net as u128) << 64) | u128::from(rng.gen::<u16>());
            let n = rng.gen_range(6..60u64);
            let dport = [22u16, 23, 80, 443, 8080, 2323][rng.gen_range(0usize..6)];
            let p = config.downstream[rng.gen_range(0..config.downstream.len())];
            let t0 = rng.gen_range(ws..we - 1);
            for k in 0..n {
                let sub = p.nth_subnet(64, rng.gen_range(0..1u128 << 16)).unwrap_or(p);
                let dst = lumen6_addr::gen::low_weight_iid(&mut rng, (sub.bits() >> 64) as u64, 6);
                out.push(PacketRecord {
                    ts_ms: (t0 + k * rng.gen_range(100u64..2_000)).min(we - 1),
                    src,
                    dst,
                    proto: Transport::Tcp,
                    sport: rng.gen_range(32_768..61_000),
                    dport,
                    len: 60,
                });
            }
        }
    }
    lumen6_trace::sort_by_time(&mut out);
    out
}
