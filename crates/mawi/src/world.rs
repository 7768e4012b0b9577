//! Assembly of the MAWI-visible scanner population.

use crate::background::Background;
use crate::{WINDOW_LEN_MS, WINDOW_START_MS};
use lumen6_addr::Ipv6Prefix;
use lumen6_scanners::{
    actor::{ScannerActor, Schedule},
    fleet::Fleet,
    FleetSource, IidMode, PortSampler, SourceSampler, TargetSampler, Vantage,
};
use lumen6_trace::{DayRows, DayStepper, SimTime, Transport};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// MAWI simulation shape.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MawiConfig {
    /// Master seed.
    pub seed: u64,
    /// First simulated day.
    pub start_day: u64,
    /// One past the last simulated day (the paper analyzes 439 days).
    pub end_day: u64,
    /// Downstream (WIDE-side) prefixes observable at the link.
    pub downstream: Vec<Ipv6Prefix>,
    /// Background flows per daily window.
    pub background_flows_per_day: usize,
    /// Recurring ICMPv6 scanner count.
    pub icmpv6_scanners: usize,
    /// Recurring TCP scanner count (besides AS#1).
    pub tcp_scanners: usize,
    /// Packets of the December-24 peak (scaled from ~192 M visible).
    pub dec24_packets: u64,
    /// Packets of the July-6 ICMPv6 peak.
    pub jul6_packets: u64,
    /// Size of the synthetic public IPv6 hitlist.
    pub hitlist_size: usize,
    /// Ephemeral small-scale scanners per day: sources probing only 6–60
    /// destinations. Invisible under the paper's 100-destination definition
    /// but detected with the original Fukuda–Heidemann threshold of 5 — the
    /// order-of-magnitude gap between the two curves of Fig. 5.
    pub small_scanners_per_day: usize,
}

impl Default for MawiConfig {
    fn default() -> Self {
        MawiConfig {
            seed: 42,
            start_day: 0,
            end_day: 439,
            // The WIDE downstream allocations (2001:200::/32,
            // 2001:df0::/32, 2403:8080::/32), constructed from raw bits so
            // the default is panic-free by construction.
            downstream: vec![
                Ipv6Prefix::new(0x2001_0200 << 96, 32),
                Ipv6Prefix::new(0x2001_0df0 << 96, 32),
                Ipv6Prefix::new(0x2403_8080 << 96, 32),
            ],
            background_flows_per_day: 40,
            icmpv6_scanners: 5,
            tcp_scanners: 3,
            dec24_packets: 50_000,
            jul6_packets: 12_000,
            hitlist_size: 4_000,
            small_scanners_per_day: 55,
        }
    }
}

impl MawiConfig {
    /// A short window for tests.
    pub fn small() -> Self {
        MawiConfig {
            end_day: 30,
            background_flows_per_day: 15,
            dec24_packets: 5_000,
            jul6_packets: 2_000,
            hitlist_size: 1_500,
            small_scanners_per_day: 25,
            ..Default::default()
        }
    }
}

/// The assembled MAWI world.
#[derive(Debug, Clone)]
pub struct MawiWorld {
    config: MawiConfig,
    /// Scanner actors visible at the vantage.
    pub actors: Vec<ScannerActor>,
    /// The synthetic public IPv6 hitlist (low-Hamming addresses in the
    /// downstream space) — the overlap reference of Appendix A.2.
    pub hitlist: Vec<u128>,
    /// Source address of the AS#1 scanner (for cross-vantage checks).
    pub as1_source: u128,
    /// The /124 holding the July-6 AS#3 sources.
    pub jul6_prefix: Ipv6Prefix,
    /// Source of the December-24 scanner.
    pub dec24_source: u128,
}

/// A daily-window schedule: one session per day pinned to the capture
/// window.
fn window_schedule(start_day: u64, end_day: u64, packets: u64) -> Schedule {
    Schedule {
        start_day,
        end_day,
        sessions_per_week: 7.0,
        session_hours: WINDOW_LEN_MS as f64 / 3_600_000.0,
        packets_per_session: packets,
        pin_start_ms_in_day: Some(WINDOW_START_MS),
    }
}

impl MawiWorld {
    /// Builds the MAWI world. If `cdn_fleet` is given, the AS#1 and AS#3
    /// source identities are taken from it, so cross-vantage analyses can
    /// confirm "the most active MAWI source is the most active CDN source".
    pub fn build(config: MawiConfig, cdn_fleet: Option<&Fleet>) -> MawiWorld {
        let mut rng = SmallRng::seed_from_u64(config.seed ^ 0x3a91);
        let mut actors = Vec::new();

        // Synthetic public hitlist: structured addresses in downstream space.
        let mut hitlist: Vec<u128> = Vec::with_capacity(config.hitlist_size);
        for i in 0..config.hitlist_size {
            let p = config.downstream[i % config.downstream.len()];
            // Downstream prefixes are at most /64, so the subnet always
            // exists; fall back to the prefix itself rather than panic if a
            // user config ever violates that.
            let sub = p.nth_subnet(64, rng.gen_range(0..1u128 << 16)).unwrap_or(p);
            hitlist.push(lumen6_addr::gen::low_weight_iid(
                &mut rng,
                (sub.bits() >> 64) as u64,
                5,
            ));
        }
        hitlist.sort_unstable();
        hitlist.dedup();

        // AS#1: same source identity as the CDN fleet when available.
        let as1_source = cdn_fleet
            .and_then(|f| {
                f.actors
                    .iter()
                    .find(|a| a.name == "as1-datacenter-cn")
                    .map(|a| match &a.sources {
                        SourceSampler::Single(s) => *s,
                        _ => unreachable!("AS1 is single-source"),
                    })
            })
            .unwrap_or(0x2001_0db0_0000_0000_0000_0000_0000_0001);
        let as1_asn = cdn_fleet
            .and_then(|f| f.truth.first().map(|t| t.asn))
            .unwrap_or(64_601);

        let switch_day = SimTime::from_date(2021, 5, 27).day_index();
        let may27 = switch_day; // hitlist day == port-switch day (§A.2)
        let sweep = |iid, subnets| TargetSampler::PrefixSweep {
            prefixes: config.downstream.clone(),
            iid,
            subnets_per_prefix: subnets,
        };
        // AS#1 pre-switch: many ports, structured sweep (only if the window
        // covers those days).
        if config.start_day < may27.min(config.end_day) {
            actors.push(ScannerActor {
                name: "mawi-as1-pre".into(),
                asn: as1_asn,
                sources: SourceSampler::Single(as1_source),
                targets: sweep(IidMode::LowHamming(8), 1 << 15),
                // Progressive sweep: ~8 of 444 ports per day, so per-port
                // destination counts stay above the detector's bar at
                // simulation scale while hundreds of ports accrue over weeks.
                ports: PortSampler::DailyRotate {
                    proto: Transport::Tcp,
                    pool: PortSampler::common_tcp_ports(444),
                    per_day: 8,
                },
                schedule: window_schedule(config.start_day, may27.min(config.end_day), 3_000),
                probe_len: 60,
            });
        }
        // AS#1 hitlist day (2021-05-27): far fewer unique targets, all from
        // the hitlist, now with the reduced port set.
        if (config.start_day..config.end_day).contains(&may27) {
            actors.push(ScannerActor {
                name: "mawi-as1-hitlist-day".into(),
                asn: as1_asn,
                sources: SourceSampler::Single(as1_source),
                // A seed-set refresh probes a small slice of the hitlist:
                // unique targets collapse (the paper: 50k+ -> 2.3k) while
                // the overlap with the hitlist jumps to ~100%.
                targets: TargetSampler::Hitlist(hitlist.iter().copied().take(600).collect()),
                ports: PortSampler::Set(Transport::Tcp, vec![22, 80, 443, 3389, 8080, 8443]),
                schedule: window_schedule(may27, may27 + 1, 3_000),
                probe_len: 60,
            });
        }
        // AS#1 post-switch: six ports, structured sweep.
        if config.end_day > may27 + 1 {
            actors.push(ScannerActor {
                name: "mawi-as1-post".into(),
                asn: as1_asn,
                sources: SourceSampler::Single(as1_source),
                targets: sweep(IidMode::LowHamming(8), 1 << 15),
                ports: PortSampler::Set(Transport::Tcp, vec![22, 80, 443, 3389, 8080, 8443]),
                schedule: window_schedule((may27 + 1).max(config.start_day), config.end_day, 2_000),
                probe_len: 60,
            });
        }

        // July 6 ICMPv6 event: 7 sources within one /124 of AS#3.
        let jul6 = SimTime::from_date(2021, 7, 6).day_index();
        let jul6_base: u128 = cdn_fleet
            .and_then(|f| f.truth.get(2).map(|t| t.prefix.first_addr()))
            .unwrap_or(0x2001_0db3_0000_0000_0000_0000_0000_0000)
            | 0xe0;
        let jul6_prefix = Ipv6Prefix::new(jul6_base, 124);
        if (config.start_day..config.end_day).contains(&jul6) {
            actors.push(ScannerActor {
                name: "mawi-as3-jul6".into(),
                asn: cdn_fleet
                    .and_then(|f| f.truth.get(2).map(|t| t.asn))
                    .unwrap_or(64_603),
                sources: SourceSampler::Pool((1..=7u128).map(|i| jul6_base | i).collect()),
                targets: sweep(IidMode::LowHamming(8), 1 << 15),
                ports: PortSampler::Icmpv6Echo,
                schedule: window_schedule(jul6, jul6 + 1, config.jul6_packets),
                probe_len: 96,
            });
        }

        // December 24 peak: single /128, random IIDs, a distinct /64 per
        // packet (subnets_per_prefix is large enough that collisions are
        // negligible), enormous rate.
        let dec24 = SimTime::from_date(2021, 12, 24).day_index();
        let dec24_source: u128 = 0x2600_1f00_0000_0000_0000_0000_0000_0042;
        if (config.start_day..config.end_day).contains(&dec24) {
            actors.push(ScannerActor {
                name: "mawi-cloud-dec24".into(),
                asn: 64_700,
                sources: SourceSampler::Single(dec24_source),
                targets: sweep(IidMode::Random, 1 << 30),
                ports: PortSampler::Icmpv6Echo,
                schedule: window_schedule(dec24, dec24 + 1, config.dec24_packets),
                probe_len: 104,
            });
        }

        // Recurring ICMPv6 scanners: active most days, moderate volume.
        for i in 0..config.icmpv6_scanners {
            let net: u64 = 0x2a00_0000_0000_0000 | ((i as u64 + 1) << 32);
            actors.push(ScannerActor {
                name: format!("mawi-icmp-{i}"),
                asn: 64_800 + i as u32,
                sources: SourceSampler::Single(((net as u128) << 64) | 0x1),
                targets: sweep(IidMode::LowHamming(10), 1 << 14),
                ports: PortSampler::Icmpv6Echo,
                schedule: Schedule {
                    // Active ~35% of days each: with five scanners, some
                    // ICMPv6 scan shows on ~88% of days (paper: 78%), and
                    // on a sizable share of days they outnumber the TCP
                    // scanners (paper: 236 of 439 days).
                    sessions_per_week: 2.45,
                    ..window_schedule(config.start_day, config.end_day, 150)
                },
                probe_len: 96,
            });
        }
        // Recurring TCP scanners.
        for i in 0..config.tcp_scanners {
            let net: u64 = 0x2c0f_0000_0000_0000 | ((i as u64 + 1) << 32);
            actors.push(ScannerActor {
                name: format!("mawi-tcp-{i}"),
                asn: 64_900 + i as u32,
                sources: SourceSampler::Single(((net as u128) << 64) | 0x2),
                targets: sweep(IidMode::LowHamming(9), 1 << 14),
                ports: PortSampler::Single(Transport::Tcp, [22u16, 443, 23, 8080][i % 4]),
                schedule: Schedule {
                    sessions_per_week: 2.1,
                    ..window_schedule(config.start_day, config.end_day, 150)
                },
                probe_len: 60,
            });
        }

        MawiWorld {
            config,
            actors,
            hitlist,
            as1_source,
            jul6_prefix,
            dec24_source,
        }
    }

    /// The build configuration.
    pub fn config(&self) -> &MawiConfig {
        &self.config
    }

    /// The vantage [`FleetSource`] generates the link trace from: the
    /// actors at their indices, then background traffic, then the small
    /// scanners, with no capture filter, at 1x, merged in (timestamp,
    /// stream index) order over those streams.
    pub fn vantage(&self) -> Vantage {
        let c = &self.config;
        let background = Background::new(
            c.downstream.clone(),
            c.background_flows_per_day,
            c.start_day,
            c.end_day,
            c.seed,
        );
        Vantage {
            actors: self.actors.clone().into(),
            seed: c.seed,
            intensity: 1.0,
            fixed: vec![
                ("background", Box::new(background)),
                ("small_scanners", Box::new(self.small_scanners())),
            ],
            capture: None,
        }
    }

    /// The full link trace (scanners + background) as a [`Source`] of
    /// time-sorted records, generated on the caller's thread; every record
    /// falls inside some daily capture window.
    ///
    /// [`Source`]: lumen6_trace::Source
    pub fn source(&self) -> FleetSource {
        FleetSource::from_vantage(self.vantage(), 1)
    }

    /// The ephemeral small-scale scanners' recipe.
    fn small_scanners(&self) -> SmallScanners {
        let c = &self.config;
        SmallScanners {
            downstream: c.downstream.clone(),
            per_day: c.small_scanners_per_day,
            days: c.start_day..c.end_day,
            rng: SmallRng::seed_from_u64(c.seed ^ 0x5a11),
        }
    }
}

/// Ephemeral small-scale scanners (see
/// [`MawiConfig::small_scanners_per_day`]): one-port probes of 6–60
/// distinct destinations with constant packet length, inside the capture
/// window, a day at a time in stable time order: a flow per probe.
#[derive(Debug, Clone)]
struct SmallScanners {
    downstream: Vec<Ipv6Prefix>,
    per_day: usize,
    days: Range<u64>,
    rng: SmallRng,
}

impl DayStepper for SmallScanners {
    fn step(&mut self, out: &mut DayRows) -> bool {
        let Some(day) = self.days.next() else {
            return false;
        };
        let (downstream, rng) = (&self.downstream, &mut self.rng);
        // Every probe is clamped into the day's capture window, so the days
        // in turn are the whole stream's stable time sort.
        out.open_day(day);
        let (ws, we) = crate::capture_window(day);
        for _ in 0..self.per_day {
            let net: u64 = 0x2a0e_0000_0000_0000 | (rng.gen::<u64>() >> 12);
            let src = ((net as u128) << 64) | u128::from(rng.gen::<u16>());
            let n = rng.gen_range(6..60u64);
            let dport = [22u16, 23, 80, 443, 8080, 2323][rng.gen_range(0usize..6)];
            let p = downstream[rng.gen_range(0..downstream.len())];
            let t0 = rng.gen_range(ws..we - 1);
            for k in 0..n {
                let sub = p.nth_subnet(64, rng.gen_range(0..1u128 << 16)).unwrap_or(p);
                let dst = lumen6_addr::gen::low_weight_iid(rng, (sub.bits() >> 64) as u64, 6);
                let flow = out.flow(src, dst);
                let ts = (t0 + k * rng.gen_range(100u64..2_000)).min(we - 1);
                let sport = rng.gen_range(32_768..61_000);
                out.push(ts, flow, Transport::Tcp, sport, dport, 60);
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lumen6_detect::{AggLevel, MawiDetector};
    use lumen6_trace::{PacketRecord, RecordBatch, Source};

    /// The full link trace, drained from [`MawiWorld::source`]: every
    /// record at once, for tests that index it.
    fn trace(world: &MawiWorld) -> Vec<PacketRecord> {
        let (mut source, mut out, mut batch) = (world.source(), Vec::new(), RecordBatch::new());
        while source
            .fill(&mut batch, 65_536)
            .expect("generation cannot fail")
            > 0
        {
            out.extend(batch.iter());
        }
        out
    }

    #[test]
    fn default_downstream_matches_textual_prefixes() {
        // The defaults are built from raw bits (panic-free); pin them to
        // the textual WIDE allocations they stand for.
        let want: Vec<Ipv6Prefix> = ["2001:200::/32", "2001:df0::/32", "2403:8080::/32"]
            .iter()
            .map(|s| s.parse().unwrap())
            .collect();
        assert_eq!(MawiConfig::default().downstream, want);
    }

    #[test]
    fn builds_with_and_without_fleet() {
        let w = MawiWorld::build(MawiConfig::small(), None);
        assert!(!w.actors.is_empty());
        assert!(!w.hitlist.is_empty());
        let fleet_world =
            lumen6_scanners::fleet::World::build(lumen6_scanners::FleetConfig::small());
        let w2 = MawiWorld::build(MawiConfig::small(), Some(&fleet_world.fleet));
        // AS1 identity shared with the CDN fleet.
        assert!(fleet_world.fleet.truth[0]
            .prefix
            .contains_addr(w2.as1_source));
    }

    #[test]
    fn trace_stays_inside_windows() {
        let w = MawiWorld::build(MawiConfig::small(), None);
        let trace = trace(&w);
        assert!(!trace.is_empty());
        for r in &trace {
            let day = r.ts_ms / lumen6_trace::DAY_MS;
            let (s, e) = crate::capture_window(day);
            assert!(
                r.ts_ms >= s && r.ts_ms < e,
                "record at {} outside window",
                r.ts_ms
            );
        }
    }

    #[test]
    fn as1_detected_most_days() {
        let w = MawiWorld::build(MawiConfig::small(), None);
        let trace = trace(&w);
        let det = MawiDetector::new(lumen6_detect::MawiConfig::paper(AggLevel::L64));
        let mut days_with_as1 = 0;
        for day in 0..30 {
            let (start, end) = crate::capture_window(day);
            let at = |t: u64| trace.partition_point(|r| r.ts_ms < t);
            let scans = det.detect(&trace[at(start)..at(end)]);
            if scans.iter().any(|s| s.source.contains_addr(w.as1_source)) {
                days_with_as1 += 1;
            }
        }
        assert!(
            days_with_as1 >= 25,
            "AS1 visible on {days_with_as1} of 30 days"
        );
    }

    #[test]
    fn hitlist_addresses_have_low_weight() {
        let w = MawiWorld::build(MawiConfig::small(), None);
        let mean: f64 = w
            .hitlist
            .iter()
            .map(|&a| f64::from(lumen6_addr::hamming_weight_iid(a)))
            .sum::<f64>()
            / w.hitlist.len() as f64;
        assert!(mean < 5.0, "hitlist mean IID weight {mean}");
    }

    #[test]
    fn dec24_packets_have_random_iids_and_unique_64s() {
        let mut cfg = MawiConfig::small();
        cfg.start_day = 355;
        cfg.end_day = 360; // covers 2021-12-24 (day 357)
        let w = MawiWorld::build(cfg, None);
        let trace = trace(&w);
        let dec: Vec<_> = trace.iter().filter(|r| r.src == w.dec24_source).collect();
        assert!(dec.len() >= 4_000);
        let dist = lumen6_addr::HammingDistribution::from_addrs(dec.iter().map(|r| r.dst));
        assert!(dist.looks_random(), "mean {}", dist.mean());
        // Nearly every packet targets a distinct /64.
        let distinct64: std::collections::HashSet<u64> =
            dec.iter().map(|r| (r.dst >> 64) as u64).collect();
        assert!(distinct64.len() * 100 >= dec.len() * 95);
    }

    #[test]
    fn jul6_sources_share_the_124() {
        let mut cfg = MawiConfig::small();
        cfg.start_day = 180;
        cfg.end_day = 190; // covers 2021-07-06 (day 186)
        let w = MawiWorld::build(cfg, None);
        let trace = trace(&w);
        let jul: std::collections::HashSet<u128> = trace
            .iter()
            .filter(|r| w.jul6_prefix.contains_addr(r.src))
            .map(|r| r.src)
            .collect();
        assert_eq!(jul.len(), 7, "seven /128 sources in the /124");
        assert!(trace
            .iter()
            .filter(|r| w.jul6_prefix.contains_addr(r.src))
            .all(|r| r.proto == Transport::Icmpv6));
    }
}
