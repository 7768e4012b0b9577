//! Composable samplers for scan-source addresses, target addresses, and
//! destination ports.

use lumen6_addr::{gen, Ipv6Prefix};
use lumen6_trace::Transport;
use rand::rngs::SmallRng;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// How a scanner chooses the source address of each probe.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SourceSampler {
    /// Every probe from one fixed address (the paper's AS#1).
    Single(u128),
    /// Probes rotate over a fixed pool of addresses (AS#2: 5 addresses in
    /// one /64; AS#3: 12).
    Pool(Vec<u128>),
    /// A base address with the lowest `bits` bits randomized per probe
    /// (AS#9 varied the lowest 7–9 bits).
    VaryLowBits {
        /// The base /128.
        base: u128,
        /// Number of low bits randomized.
        bits: u8,
    },
    /// A fresh uniformly random address inside the prefix for every probe
    /// (AS#18 sourcing from its entire /32).
    RandomInPrefix(Ipv6Prefix),
    /// The pool used in contiguous time slices: address `i` owns the probe
    /// stream during slice `i`, cycling round-robin. Models scan tools that
    /// rotate their source address every so often — each /128 produces
    /// short, individually qualifying scan runs while the covering /64's
    /// run spans the whole session (the §3.1 duration-vs-aggregation
    /// effect).
    TimeSliced {
        /// The rotating address pool.
        pool: Vec<u128>,
        /// Slice length in milliseconds.
        slice_ms: u64,
    },
    /// A two-level spread: pick one of `subnets`, then one of the
    /// `hosts_per_subnet` deterministic host addresses inside it. Models
    /// actors with a bounded set of machines spread over many prefixes
    /// (AS#18's ~1 100 active /48s; multi-tenant clouds).
    SpreadSubnets {
        /// The sub-prefixes hosts live in.
        subnets: Vec<Ipv6Prefix>,
        /// Distinct host addresses per subnet.
        hosts_per_subnet: u32,
    },
}

impl SourceSampler {
    /// Whether [`sample`](Self::sample) can draw: an empty pool panics it.
    pub fn is_drawable(&self) -> bool {
        match self {
            Self::Pool(pool) | Self::TimeSliced { pool, .. } => !pool.is_empty(),
            Self::SpreadSubnets {
                subnets,
                hosts_per_subnet,
            } => !subnets.is_empty() && *hosts_per_subnet > 0,
            Self::Single(_) | Self::VaryLowBits { .. } | Self::RandomInPrefix(_) => true,
        }
    }

    /// Draws one source address for a probe sent at `ts_ms`.
    pub fn sample(&self, rng: &mut SmallRng, ts_ms: u64) -> u128 {
        match self {
            SourceSampler::Single(a) => *a,
            SourceSampler::Pool(pool) => pool[rng.gen_range(0..pool.len())],
            SourceSampler::TimeSliced { pool, slice_ms } => {
                let idx = (ts_ms / slice_ms.max(&1)) as usize % pool.len();
                pool[idx]
            }
            SourceSampler::VaryLowBits { base, bits } => gen::vary_low_bits(rng, *base, *bits),
            SourceSampler::RandomInPrefix(p) => gen::random_in_prefix(rng, *p),
            SourceSampler::SpreadSubnets {
                subnets,
                hosts_per_subnet,
            } => {
                let sub = subnets[rng.gen_range(0..subnets.len())];
                let host = rng.gen_range(0..*hosts_per_subnet);
                // Deterministic host address: low bits carry the host index
                // with a subnet-dependent offset, keeping IIDs structured.
                sub.bits() | (u128::from(host) + 1)
            }
        }
    }

    /// A pool of `count` addresses inside one /64, with small structured
    /// IIDs — convenience constructor for the "k addresses in one /64"
    /// actors.
    pub fn pool_in_64(net64: u64, count: u32) -> SourceSampler {
        SourceSampler::Pool(
            (1..=u128::from(count))
                .map(|i| ((net64 as u128) << 64) | (0x10 + i))
                .collect(),
        )
    }
}

/// IID structure of generated target addresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum IidMode {
    /// Low-Hamming-weight, hitlist-like IIDs (structured target generation;
    /// the AS#1 / AS#3 pattern in Fig. 7).
    LowHamming(u32),
    /// Uniformly random IIDs (the December-24 scanner: Gaussian Hamming
    /// weight).
    Random,
}

/// How a scanner chooses target addresses.
///
/// The address pools are shared slices: every actor drawing from the
/// telescope's pools holds the same allocation, so a fleet's memory does
/// not grow with actors × telescope size.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TargetSampler {
    /// Sweep a fixed list (a DNS-derived hitlist). Probes draw uniformly.
    Hitlist(Arc<[u128]>),
    /// Mostly hitlist, but with probability `explore_prob` follow a hit
    /// with a probe to a *nearby* address (same /(128-span)): the §3.3
    /// "found via DNS, then probe the neighborhood" behavior.
    HitlistNearby {
        /// The seed hitlist.
        hitlist: Arc<[u128]>,
        /// Probability of emitting a nearby follow-up probe.
        explore_prob: f64,
        /// Neighborhood size in low bits (4 → within a /124).
        span_bits: u8,
    },
    /// Draw from two pools: with probability `hidden_frac` from `hidden`
    /// (not-in-DNS pair members), otherwise from `exposed`. Models AS#18's
    /// 50% not-in-DNS targeting.
    PairMix {
        /// DNS-exposed pool.
        exposed: Arc<[u128]>,
        /// Not-in-DNS pool.
        hidden: Arc<[u128]>,
        /// Fraction of probes drawn from the hidden pool.
        hidden_frac: f64,
    },
    /// Probe a DNS-discovered address and, with probability `explore_prob`,
    /// follow up on its not-in-DNS *pair partner* (an address nearby in
    /// address space, within the same /123 at the telescope). This is the
    /// §3.3 "target found via DNS, then scanner probes other addresses that
    /// are nearby" behavior, with both probes landing on telescope
    /// addresses so the firewall actually logs them.
    PairExplore {
        /// (exposed, hidden) telescope address pairs.
        pairs: Arc<[(u128, u128)]>,
        /// Probability of the nearby follow-up probe.
        explore_prob: f64,
    },
    /// Sweep destination prefixes with generated IIDs: pick a prefix, pick
    /// a /64 within it, generate an IID. `dsts_per_64` bounds how many
    /// distinct /64 offsets are used per prefix (the paper measures a
    /// median of 2 targets per destination /64 for AS#1/AS#3, and exactly 1
    /// for the December-24 scanner).
    PrefixSweep {
        /// Destination networks to sweep.
        prefixes: Vec<Ipv6Prefix>,
        /// IID generation mode.
        iid: IidMode,
        /// Distinct /64 subnets sampled per prefix.
        subnets_per_prefix: u32,
    },
}

impl TargetSampler {
    /// Stable snake_case strategy name, used as the metric label in
    /// `scanners.fleet.packets_emitted.<kind>`.
    pub fn kind(&self) -> &'static str {
        match self {
            TargetSampler::Hitlist(_) => "hitlist",
            TargetSampler::HitlistNearby { .. } => "hitlist_nearby",
            TargetSampler::PairMix { .. } => "pair_mix",
            TargetSampler::PairExplore { .. } => "pair_explore",
            TargetSampler::PrefixSweep { .. } => "prefix_sweep",
        }
    }

    /// Whether [`sample`](Self::sample) can draw: it panics on an empty
    /// pool and on a probability outside [0, 1] (NaN included). Checked for
    /// definitions from outside the program ([`crate::ScannerActor::validate`]).
    pub fn is_drawable(&self) -> bool {
        let prob = |p: &f64| (0.0..=1.0).contains(p);
        match self {
            TargetSampler::Hitlist(list) => !list.is_empty(),
            TargetSampler::HitlistNearby {
                hitlist,
                explore_prob,
                ..
            } => !hitlist.is_empty() && prob(explore_prob),
            TargetSampler::PairMix {
                exposed,
                hidden,
                hidden_frac,
            } => prob(hidden_frac) && !exposed.is_empty() && !hidden.is_empty(),
            TargetSampler::PairExplore {
                pairs,
                explore_prob,
            } => !pairs.is_empty() && prob(explore_prob),
            TargetSampler::PrefixSweep {
                prefixes,
                subnets_per_prefix,
                ..
            } => !prefixes.is_empty() && *subnets_per_prefix > 0,
        }
    }

    /// Draws the next target(s): usually one, sometimes two (a hit followed
    /// by a nearby exploration probe, which must come *after* the hit).
    pub fn sample(&self, rng: &mut SmallRng, out: &mut Vec<u128>) {
        match self {
            TargetSampler::Hitlist(list) => {
                out.push(list[rng.gen_range(0..list.len())]);
            }
            TargetSampler::HitlistNearby {
                hitlist,
                explore_prob,
                span_bits,
            } => {
                let hit = hitlist[rng.gen_range(0..hitlist.len())];
                out.push(hit);
                if rng.gen_bool(*explore_prob) {
                    out.push(gen::nearby_addr(rng, hit, *span_bits));
                }
            }
            TargetSampler::PairMix {
                exposed,
                hidden,
                hidden_frac,
            } => {
                let pool = if rng.gen_bool(*hidden_frac) {
                    hidden
                } else {
                    exposed
                };
                out.push(pool[rng.gen_range(0..pool.len())]);
            }
            TargetSampler::PairExplore {
                pairs,
                explore_prob,
            } => {
                let (exposed, hidden) = pairs[rng.gen_range(0..pairs.len())];
                out.push(exposed);
                if rng.gen_bool(*explore_prob) {
                    out.push(hidden);
                }
            }
            TargetSampler::PrefixSweep {
                prefixes,
                iid,
                subnets_per_prefix,
            } => {
                let p = prefixes[rng.gen_range(0..prefixes.len())];
                let sub = rng.gen_range(0..u128::from(*subnets_per_prefix));
                let p64 = p.nth_subnet(64, sub).unwrap_or_else(|| p.aggregate(64));
                let net64 = (p64.bits() >> 64) as u64;
                let addr = match iid {
                    IidMode::LowHamming(w) => gen::low_weight_iid(rng, net64, *w),
                    IidMode::Random => gen::random_iid(rng, net64),
                };
                out.push(addr);
            }
        }
    }
}

/// How a scanner chooses destination ports.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum PortSampler {
    /// One service only (AS#18 probed just TCP/22).
    Single(Transport, u16),
    /// A fixed set, drawn uniformly (AS#2's ≈635 ports).
    Set(Transport, Vec<u16>),
    /// A uniform sweep of `1..=max` (AS#3's ~45 K TCP ports).
    UniformRange(Transport, u16),
    /// Strategy switch at an absolute time: AS#1 scanned ~444 ports until
    /// May 2021, then only {22, 3389, 8080, 8443}.
    SwitchAt {
        /// Switch time (ms since epoch).
        at_ms: u64,
        /// Strategy before the switch.
        before: Box<PortSampler>,
        /// Strategy after the switch.
        after: Box<PortSampler>,
    },
    /// ICMPv6 echo requests (no ports; type 128 code 0).
    Icmpv6Echo,
    /// A progressive port sweep: each day the scanner concentrates on a
    /// different `per_day`-sized window of the pool (the paper's A.3 notes
    /// an entity scanning "different port numbers progressively in distinct
    /// scanning episodes"). Keeps per-port destination counts high enough
    /// to register in per-port detectors while still covering hundreds of
    /// ports over weeks.
    DailyRotate {
        /// Transport protocol.
        proto: Transport,
        /// The full port pool rotated through.
        pool: Vec<u16>,
        /// Ports targeted per day.
        per_day: usize,
    },
}

impl PortSampler {
    /// Whether [`sample`](Self::sample) can draw: an empty port set or
    /// range panics it, on either side of a switch.
    pub fn is_drawable(&self) -> bool {
        match self {
            Self::Set(_, ports) | Self::DailyRotate { pool: ports, .. } => !ports.is_empty(),
            Self::UniformRange(_, max) => *max > 0,
            Self::SwitchAt { before, after, .. } => before.is_drawable() && after.is_drawable(),
            Self::Single(..) | Self::Icmpv6Echo => true,
        }
    }

    /// Draws (protocol, source-port-irrelevant destination port) for a probe
    /// at time `ts_ms`.
    pub fn sample(&self, rng: &mut SmallRng, ts_ms: u64) -> (Transport, u16) {
        match self {
            PortSampler::Single(t, p) => (*t, *p),
            PortSampler::Set(t, ports) => (*t, ports[rng.gen_range(0..ports.len())]),
            PortSampler::UniformRange(t, max) => (*t, rng.gen_range(1..=*max)),
            PortSampler::SwitchAt {
                at_ms,
                before,
                after,
            } => {
                if ts_ms < *at_ms {
                    before.sample(rng, ts_ms)
                } else {
                    after.sample(rng, ts_ms)
                }
            }
            PortSampler::Icmpv6Echo => (Transport::Icmpv6, 0),
            PortSampler::DailyRotate {
                proto,
                pool,
                per_day,
            } => {
                let day = ts_ms / lumen6_trace::DAY_MS;
                // splitmix-style day hash selects the window offset.
                let mut h = day.wrapping_mul(0x9e37_79b9_7f4a_7c15);
                h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                let per = (*per_day).clamp(1, pool.len());
                let offset = (h as usize) % pool.len();
                let j = rng.gen_range(0..per);
                (*proto, pool[(offset + j) % pool.len()])
            }
        }
    }

    /// The first `n` well-known-ish TCP ports used by the multi-port
    /// actors: a deterministic blend of the paper's Table 3 services padded
    /// with low registered ports.
    pub fn common_tcp_ports(n: usize) -> Vec<u16> {
        const HEAD: [u16; 22] = [
            22, 23, 25, 21, 110, 143, 993, 995, 1433, 3128, 3306, 3389, 5900, 8000, 8080, 8081,
            8443, 8888, 53, 111, 139, 445,
        ];
        let mut v: Vec<u16> = HEAD.to_vec();
        let mut next = 1024u16;
        while v.len() < n {
            if !HEAD.contains(&next) {
                v.push(next);
            }
            next = next.wrapping_add(7);
        }
        v.truncate(n);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(5)
    }

    #[test]
    fn single_source_is_constant() {
        let mut r = rng();
        let s = SourceSampler::Single(42);
        assert!((0..50).all(|_| s.sample(&mut r, 0) == 42));
    }

    #[test]
    fn pool_draws_only_pool_members() {
        let mut r = rng();
        let s = SourceSampler::pool_in_64(0xabcd, 5);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..500 {
            let a = s.sample(&mut r, 0);
            assert_eq!((a >> 64) as u64, 0xabcd);
            seen.insert(a);
        }
        assert_eq!(seen.len(), 5);
    }

    #[test]
    fn vary_low_bits_bounded_spread() {
        let mut r = rng();
        let s = SourceSampler::VaryLowBits {
            base: 0x5000,
            bits: 9,
        };
        let seen: std::collections::HashSet<u128> =
            (0..2000).map(|_| s.sample(&mut r, 0)).collect();
        assert!(
            seen.len() > 400,
            "9 bits should give ~512 distinct: {}",
            seen.len()
        );
        assert!(seen.iter().all(|&a| a >> 9 == 0x5000 >> 9));
    }

    #[test]
    fn random_in_prefix_spreads_widely() {
        let mut r = rng();
        let p: Ipv6Prefix = "2001:db8::/32".parse().unwrap();
        let s = SourceSampler::RandomInPrefix(p);
        let seen48: std::collections::HashSet<u128> =
            (0..200).map(|_| s.sample(&mut r, 0) >> 80).collect();
        assert!(seen48.len() > 150, "sources land in many /48s");
    }

    #[test]
    fn spread_subnets_bounded_hosts() {
        let mut r = rng();
        let subnets: Vec<Ipv6Prefix> = (0..4u128)
            .map(|i| Ipv6Prefix::new(0x2001_0db8_0000_0000_0000_0000_0000_0000 | i << 64, 64))
            .collect();
        let s = SourceSampler::SpreadSubnets {
            subnets: subnets.clone(),
            hosts_per_subnet: 3,
        };
        let seen: std::collections::HashSet<u128> =
            (0..1000).map(|_| s.sample(&mut r, 0)).collect();
        assert_eq!(seen.len(), 12);
        for a in seen {
            assert!(subnets.iter().any(|p| p.contains_addr(a)));
        }
    }

    #[test]
    fn hitlist_sampler_stays_in_list() {
        let mut r = rng();
        let list = vec![10u128, 20, 30];
        let t = TargetSampler::Hitlist(list.clone().into());
        let mut out = Vec::new();
        for _ in 0..100 {
            t.sample(&mut r, &mut out);
        }
        assert!(out.iter().all(|a| list.contains(a)));
    }

    #[test]
    fn nearby_explorer_emits_hit_then_neighbor() {
        let mut r = rng();
        let t = TargetSampler::HitlistNearby {
            hitlist: vec![0x1000].into(),
            explore_prob: 1.0,
            span_bits: 4,
        };
        let mut out = Vec::new();
        t.sample(&mut r, &mut out);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0], 0x1000);
        assert_ne!(out[1], 0x1000);
        assert_eq!(out[1] >> 4, 0x1000 >> 4, "neighbor within the /124");
    }

    #[test]
    fn pair_explore_emits_exposed_then_partner() {
        let mut r = rng();
        let t = TargetSampler::PairExplore {
            pairs: vec![(0x100, 0x10f), (0x200, 0x203)].into(),
            explore_prob: 1.0,
        };
        let mut out = Vec::new();
        t.sample(&mut r, &mut out);
        assert_eq!(out.len(), 2);
        assert!(out[0] == 0x100 || out[0] == 0x200);
        assert_eq!(out[1], if out[0] == 0x100 { 0x10f } else { 0x203 });
    }

    #[test]
    fn pair_mix_respects_fraction() {
        let mut r = rng();
        let t = TargetSampler::PairMix {
            exposed: vec![1].into(),
            hidden: vec![2].into(),
            hidden_frac: 0.5,
        };
        let mut out = Vec::new();
        for _ in 0..2000 {
            t.sample(&mut r, &mut out);
        }
        let hidden = out.iter().filter(|&&a| a == 2).count() as f64 / out.len() as f64;
        assert!((hidden - 0.5).abs() < 0.05, "hidden fraction {hidden}");
    }

    #[test]
    fn prefix_sweep_iid_modes_differ_in_weight() {
        let mut r = rng();
        let p: Ipv6Prefix = "2001:db8::/48".parse().unwrap();
        let mk = |iid| TargetSampler::PrefixSweep {
            prefixes: vec![p],
            iid,
            subnets_per_prefix: 16,
        };
        let mut low = Vec::new();
        let mut random = Vec::new();
        for _ in 0..1000 {
            mk(IidMode::LowHamming(6)).sample(&mut r, &mut low);
            mk(IidMode::Random).sample(&mut r, &mut random);
        }
        let w = |v: &[u128]| {
            v.iter()
                .map(|&a| f64::from(lumen6_addr::hamming_weight_iid(a)))
                .sum::<f64>()
                / v.len() as f64
        };
        assert!(w(&low) < 7.0);
        assert!((w(&random) - 32.0).abs() < 2.0);
        assert!(low.iter().all(|&a| p.contains_addr(a)));
    }

    #[test]
    fn port_switch_honors_time() {
        let mut r = rng();
        let s = PortSampler::SwitchAt {
            at_ms: 1000,
            before: Box::new(PortSampler::Single(Transport::Tcp, 1)),
            after: Box::new(PortSampler::Single(Transport::Tcp, 2)),
        };
        assert_eq!(s.sample(&mut r, 0).1, 1);
        assert_eq!(s.sample(&mut r, 999).1, 1);
        assert_eq!(s.sample(&mut r, 1000).1, 2);
    }

    #[test]
    fn uniform_range_covers_the_space() {
        let mut r = rng();
        let s = PortSampler::UniformRange(Transport::Tcp, 45_000);
        let seen: std::collections::HashSet<u16> =
            (0..20_000).map(|_| s.sample(&mut r, 0).1).collect();
        assert!(seen.len() > 15_000);
        assert!(seen.iter().all(|&p| (1..=45_000).contains(&p)));
    }

    #[test]
    fn common_ports_deterministic_and_deduped() {
        let a = PortSampler::common_tcp_ports(444);
        let b = PortSampler::common_tcp_ports(444);
        assert_eq!(a, b);
        assert_eq!(a.len(), 444);
        let set: std::collections::HashSet<u16> = a.iter().copied().collect();
        assert_eq!(set.len(), 444, "no duplicate ports");
        assert!(a.contains(&22) && a.contains(&8443));
    }

    #[test]
    fn daily_rotate_concentrates_then_moves_on() {
        let mut r = rng();
        let s = PortSampler::DailyRotate {
            proto: Transport::Tcp,
            pool: PortSampler::common_tcp_ports(400),
            per_day: 8,
        };
        let day0: std::collections::HashSet<u16> =
            (0..500).map(|_| s.sample(&mut r, 1000).1).collect();
        let day1: std::collections::HashSet<u16> = (0..500)
            .map(|_| s.sample(&mut r, lumen6_trace::DAY_MS + 1000).1)
            .collect();
        assert_eq!(day0.len(), 8, "exactly the daily window");
        assert_eq!(day1.len(), 8);
        assert_ne!(day0, day1, "the window moves between days");
        // Over many days the coverage grows far beyond one window.
        let mut all = std::collections::HashSet::new();
        for d in 0..40u64 {
            for _ in 0..100 {
                all.insert(s.sample(&mut r, d * lumen6_trace::DAY_MS).1);
            }
        }
        assert!(all.len() > 100, "covered {} ports over 40 days", all.len());
    }

    #[test]
    fn icmpv6_echo_sampler() {
        let mut r = rng();
        assert_eq!(
            PortSampler::Icmpv6Echo.sample(&mut r, 0),
            (Transport::Icmpv6, 0)
        );
    }
}
