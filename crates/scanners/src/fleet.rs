//! The calibrated scanner fleet: ground truth for the paper's Table 2.
//!
//! [`Fleet::paper`] builds scanner actors reproducing, at configurable
//! scale, the twenty source ASes of the paper's Table 2 together with their
//! distinguishing behaviors:
//!
//! - **AS#1** — Chinese datacenter, a single /128, 39% of scan packets,
//!   ~444 ports until 2021-05-27, then only TCP 22/3389/8080/8443.
//! - **AS#2** — Chinese datacenter, 5 addresses in one /64, ~635 ports,
//!   continuously active (its run never breaks: the >128-day scan).
//! - **AS#3** — US cybersecurity company, 12 addresses, sweeps ~45 K TCP
//!   ports.
//! - **AS#4–#8, #10–#12** — clouds/datacenters with tens to hundreds of
//!   /128 sources over a few /64s and /48s; each /128 scans in discrete
//!   episodes so it individually qualifies (Table 2's /128 column).
//! - **AS#6** — multi-tenant cloud with sub-/96 customer allocations;
//!   includes the Appendix A.4 pair: two /64s in *different* /48s with
//!   nearly identical target sets and a 3× packet ratio.
//! - **AS#9** — global transit; a security company varying the low 7–9
//!   source bits in two /64s, active only from November 2021 (the /128
//!   uptick of Fig. 2).
//! - **AS#18** — German cloud/transit; sources spread across an entire /32,
//!   one address per /64, probing only TCP/22, 50% not-in-DNS targets.
//!   Most of its /64s stay *below* 100 destinations (they surface when the
//!   threshold is relaxed to 50 — the §2.2 sensitivity blow-up), some /48s
//!   qualify although none of their /64s does, and only the /32 aggregate
//!   captures the full activity.
//!
//! Scale note: packet volumes are scaled so the whole 15-month trace is a
//! few hundred thousand to ~1.5 M packets. *Structure* (source counts per
//! aggregation) is preserved outright where feasible; AS#9, AS#11, and
//! AS#18 have their source counts reduced ~10× because each retained /128
//! must still emit enough packets to qualify individually. EXPERIMENTS.md
//! records the resulting distortions.

use crate::actor::{ScannerActor, Schedule};
use crate::samplers::{PortSampler, SourceSampler, TargetSampler};
use lumen6_addr::cast::sat_u32;
use lumen6_addr::Ipv6Prefix;
use lumen6_netmodel::{AsType, InternetRegistry};
use lumen6_telescope::artifacts::ArtifactConfig;
use lumen6_telescope::{CdnDeployment, DeploymentConfig};
pub use lumen6_trace::scale_intensity;
use lumen6_trace::{PacketRecord, SimTime, Transport};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Fleet scale and window.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetConfig {
    /// Master seed.
    pub seed: u64,
    /// First simulated day (0 = 2021-01-01).
    pub start_day: u64,
    /// One past the last simulated day (439 = through 2022-03-15).
    pub end_day: u64,
    /// Multiplier on every actor's per-session packet budget (1.0 = the
    /// calibrated default; tests use less).
    pub intensity: f64,
    /// Telescope deployment shape.
    pub deployment: DeploymentConfig,
    /// Artifact traffic mix.
    pub artifacts: ArtifactConfig,
    /// Ephemeral noise sources per day.
    pub noise_sources_per_day: usize,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            seed: 42,
            start_day: 0,
            end_day: 439,
            intensity: 1.0,
            deployment: DeploymentConfig::default(),
            artifacts: ArtifactConfig::default(),
            noise_sources_per_day: 60,
        }
    }
}

impl FleetConfig {
    /// A small, fast configuration for tests: 6 weeks, tiny telescope.
    pub fn small() -> Self {
        FleetConfig {
            end_day: 42,
            deployment: DeploymentConfig {
                machines: 400,
                ases: 20,
                dns_pairs: 300,
                ..Default::default()
            },
            artifacts: ArtifactConfig {
                smtp_sources_per_day: 8,
                isakmp_sources_per_day: 5,
                netbios_sources_per_day: 2,
                ..Default::default()
            },
            noise_sources_per_day: 15,
            ..Default::default()
        }
    }
}

/// Cumulative emission due after the first `drawn` of `base` probes when a
/// stream scales to `scaled` total packets — the Bresenham repeat schedule
/// of every stream `--intensity` scales: a session's probes
/// ([`ScannerActor::draw_session`]) and the artifact and noise records
/// ([`crate::FleetSource`]'s fixed streams). Record `i` is emitted
/// `due(i + 1) - due(i)` times, adjacent, so order and timestamps are kept.
/// Monotone in `drawn`, exactly `scaled` at `drawn == base`, and the
/// identity when `scaled == base`. Callers guarantee `base > 0` and
/// `drawn ≤ base`, so the quotient is at most `scaled` and the saturation
/// never bites.
pub(crate) fn emission_due(scaled: u64, base: u64, drawn: u64) -> u64 {
    let due = u128::from(scaled) * u128::from(drawn) / u128::from(base);
    u64::try_from(due).unwrap_or(u64::MAX)
}

/// Ground truth for one Table 2 row.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GroundTruth {
    /// Table 2 rank (1-based).
    pub rank: usize,
    /// Assigned AS number.
    pub asn: u32,
    /// Network type.
    pub as_type: AsType,
    /// Country label.
    pub country: String,
    /// The paper's packet count for this AS, in millions (for comparison).
    pub paper_packets_m: f64,
    /// The paper's (/48, /64, /128) source counts.
    pub paper_sources: (u64, u64, u64),
    /// The AS's allocated prefix in the simulation.
    pub prefix: Ipv6Prefix,
}

/// The assembled fleet.
#[derive(Debug, Clone)]
pub struct Fleet {
    /// All scanner actors (many ASes are modeled as multiple mini-actors),
    /// one allocation every fused source over the world shares.
    pub actors: Arc<[ScannerActor]>,
    /// Per-AS ground truth, rank order.
    pub truth: Vec<GroundTruth>,
}

/// The full simulated world: registry, telescope, fleet. Nothing mutates it
/// after [`World::build`], so clones (each generator lane's) share the parts.
#[derive(Debug, Clone)]
pub struct World {
    /// AS registry and routing table (attribution substrate).
    pub registry: Arc<InternetRegistry>,
    /// The CDN telescope.
    pub deployment: Arc<CdnDeployment>,
    /// The scanner fleet.
    pub fleet: Arc<Fleet>,
    config: FleetConfig,
}

/// Target-pool views of the telescope used when building actors. Each pool
/// is one shared allocation: every actor drawing from it clones the `Arc`,
/// so the fleet holds one copy of the telescope, not one per actor.
#[derive(Debug, Clone)]
pub struct Pools {
    /// DNS-exposed telescope addresses.
    pub exposed: Arc<[u128]>,
    /// Telescope addresses never exposed via DNS.
    pub hidden: Arc<[u128]>,
    /// The in-DNS / not-in-DNS address pairs (for explorer actors).
    pub pairs: Arc<[(u128, u128)]>,
}

impl Pools {
    /// The pools of `deployment`, each sorted by address.
    fn of(deployment: &CdnDeployment) -> Pools {
        let (exposed, hidden): (Vec<u128>, Vec<u128>) = deployment
            .all_addrs()
            .into_iter()
            .partition(|&a| deployment.is_in_dns(a));
        Pools {
            exposed: exposed.into(),
            hidden: hidden.into(),
            pairs: deployment.pairs().into(),
        }
    }

    /// Bytes the three pools hold.
    fn bytes(&self) -> usize {
        std::mem::size_of_val(&*self.exposed)
            + std::mem::size_of_val(&*self.hidden)
            + std::mem::size_of_val(&*self.pairs)
    }
}

impl World {
    /// Builds the world: telescope, registry entries, calibrated fleet.
    pub fn build(config: FleetConfig) -> World {
        let mut registry = InternetRegistry::new();
        let deployment = CdnDeployment::build(&config.deployment, &mut registry, config.seed);
        let pools = Pools::of(&deployment);
        lumen6_obs::MetricsRegistry::global()
            .gauge("scanners.world.target_pool_bytes")
            .set(pools.bytes() as i64);
        let fleet = Fleet::paper(&config, &mut registry, &pools);
        World {
            registry: Arc::new(registry),
            deployment: Arc::new(deployment),
            fleet: Arc::new(fleet),
            config,
        }
    }

    /// The build configuration.
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// Generates the complete *firewall-logged* CDN trace: scanner traffic
    /// plus artifacts plus noise, passed through the capture filter,
    /// time-sorted. This is the input to the paper's pipeline (prefilter →
    /// aggregate → detect), collected from the one code that defines it:
    /// an inline-lane [`crate::FleetSource`] over this world.
    pub fn cdn_trace(&self) -> Vec<PacketRecord> {
        let mut source = crate::FleetSource::new(self.clone());
        let (mut out, mut batch) = (Vec::new(), lumen6_trace::RecordBatch::new());
        while source.produce(Some(&mut batch), 65_536) > 0 {
            out.extend(batch.iter());
            batch.clear();
        }
        out
    }
}

impl Fleet {
    /// Builds the calibrated Table 2 fleet. See the module docs.
    pub fn paper(config: &FleetConfig, registry: &mut InternetRegistry, pools: &Pools) -> Fleet {
        Builder {
            config,
            registry,
            pools,
            rng: SmallRng::seed_from_u64(config.seed ^ 0xf1ee_7000),
            actors: Vec::new(),
            truth: Vec::new(),
        }
        .build()
    }
}

struct Builder<'a> {
    config: &'a FleetConfig,
    registry: &'a mut InternetRegistry,
    pools: &'a Pools,
    rng: SmallRng,
    actors: Vec<ScannerActor>,
    truth: Vec<GroundTruth>,
}

impl Builder<'_> {
    fn build(mut self) -> Fleet {
        self.as1();
        self.as2();
        self.as3();
        self.as4();
        self.as5();
        self.as6();
        self.as7();
        self.as8();
        self.as9();
        self.as10();
        self.as11();
        self.as12();
        self.small_as(
            13,
            AsType::Isp,
            "VN",
            2.5,
            (1, 1, 1),
            1,
            1,
            0.5,
            170,
            Some(23),
        );
        self.small_as(
            14,
            AsType::Datacenter,
            "CN",
            1.6,
            (1, 1, 2),
            1,
            2,
            0.35,
            130,
            None,
        );
        self.small_as(
            15,
            AsType::Research,
            "DE",
            1.1,
            (1, 1, 1),
            1,
            1,
            0.4,
            140,
            None,
        );
        self.small_as(
            16,
            AsType::Isp,
            "RU",
            0.9,
            (1, 1, 2),
            1,
            2,
            0.3,
            115,
            Some(5900),
        );
        self.small_as(
            17,
            AsType::University,
            "DE",
            0.8,
            (1, 1, 2),
            1,
            2,
            0.3,
            110,
            None,
        );
        self.as18();
        self.small_as(
            19,
            AsType::Isp,
            "RU",
            0.6,
            (1, 1, 1),
            1,
            1,
            0.25,
            115,
            Some(8081),
        );
        self.small_as(
            20,
            AsType::University,
            "DE",
            0.5,
            (1, 1, 1),
            1,
            1,
            0.2,
            105,
            None,
        );
        Fleet {
            actors: self.actors.into(),
            truth: self.truth,
        }
    }

    /// The paper's full measurement window in weeks (439 days). Session
    /// budgets of episodic actors are expressed per *nominal* window, so
    /// packet shares stay window-invariant when experiments shorten the
    /// simulated range.
    fn nominal_weeks() -> f64 {
        439.0 / 7.0
    }

    fn asn(rank: usize) -> u32 {
        64_600 + sat_u32(rank)
    }

    fn register(
        &mut self,
        rank: usize,
        ty: AsType,
        country: &str,
        packets_m: f64,
        sources: (u64, u64, u64),
    ) -> Ipv6Prefix {
        let asn = Self::asn(rank);
        let prefix = self.registry.register_with_allocation(
            asn,
            ty,
            country,
            &format!("scan-as-{rank}"),
            sat_u32(rank),
        );
        let prefix = prefix.expect("fleet ranks fit the allocation layout");
        self.truth.push(GroundTruth {
            rank,
            asn,
            as_type: ty,
            country: country.to_string(),
            paper_packets_m: packets_m,
            paper_sources: sources,
            prefix,
        });
        prefix
    }

    /// Target pool: mostly DNS-exposed, `hidden_frac` not-in-DNS.
    fn targets(&self, hidden_frac: f64) -> TargetSampler {
        TargetSampler::PairMix {
            exposed: Arc::clone(&self.pools.exposed),
            hidden: Arc::clone(&self.pools.hidden),
            hidden_frac,
        }
    }

    fn push(&mut self, actor: ScannerActor) {
        self.actors.push(actor);
    }

    // ------------------------------------------------------------------
    // The heavy hitters.
    // ------------------------------------------------------------------

    /// AS#1: Chinese datacenter, single /128, 39% of packets, 444 → 4 ports.
    fn as1(&mut self) {
        let prefix = self.register(1, AsType::Datacenter, "CN", 839.0, (1, 1, 1));
        let src = prefix.nth_subnet(64, 1).expect("subnet").bits() | 0x1;
        let switch = SimTime::from_date(2021, 5, 27).ms();
        self.push(ScannerActor {
            name: "as1-datacenter-cn".into(),
            asn: Self::asn(1),
            sources: SourceSampler::Single(src),
            targets: self.targets(0.15),
            ports: PortSampler::SwitchAt {
                at_ms: switch,
                before: Box::new(PortSampler::Set(
                    Transport::Tcp,
                    PortSampler::common_tcp_ports(444),
                )),
                after: Box::new(PortSampler::Set(Transport::Tcp, vec![22, 3389, 8080, 8443])),
            },
            schedule: Schedule::continuous(self.config.start_day, self.config.end_day, 1500),
            probe_len: 60,
        });
    }

    /// AS#2: Chinese datacenter, 5 /128s in one /64, ~635 ports, one
    /// unbroken >128-day scan (24 h sessions, no gaps).
    fn as2(&mut self) {
        let prefix = self.register(2, AsType::Datacenter, "CN", 744.0, (1, 1, 5));
        let net64 = (prefix.nth_subnet(64, 7).expect("subnet").bits() >> 64) as u64;
        self.push(ScannerActor {
            name: "as2-datacenter-cn".into(),
            asn: Self::asn(2),
            sources: SourceSampler::pool_in_64(net64, 5),
            targets: self.targets(0.10),
            ports: PortSampler::Set(Transport::Tcp, PortSampler::common_tcp_ports(635)),
            schedule: Schedule {
                start_day: self.config.start_day,
                end_day: self.config.end_day,
                sessions_per_week: 7.0,
                session_hours: 24.0,
                packets_per_session: 1300,
                pin_start_ms_in_day: None,
            },
            probe_len: 64,
        });
    }

    /// AS#3: US cybersecurity, 12 /128s, sweeps ~45 K TCP ports.
    ///
    /// The addresses take contiguous ~100-second turns inside each session
    /// (the `TimeSliced` sampler), so every /128 produces short runs that
    /// individually clear 100 destinations — matching the paper's Table 2
    /// (12 /128 sources) *and* its §3.1 observation that /128 scans are
    /// dominated by short ones (median 94 s).
    fn as3(&mut self) {
        let prefix = self.register(3, AsType::Cybersecurity, "US", 275.0, (1, 1, 12));
        let net64 = (prefix.nth_subnet(64, 3).expect("subnet").bits() >> 64) as u64;
        let pool: Vec<u128> = (1..=12u128)
            .map(|i| ((net64 as u128) << 64) | (0x10 + i))
            .collect();
        self.push(ScannerActor {
            name: "as3-cybersec-us".into(),
            asn: Self::asn(3),
            sources: SourceSampler::TimeSliced {
                pool,
                slice_ms: 100_000,
            },
            targets: self.targets(0.20),
            ports: PortSampler::UniformRange(Transport::Tcp, 45_000),
            schedule: Schedule {
                start_day: self.config.start_day,
                end_day: self.config.end_day,
                // Twice-weekly 20-minute bursts: 12 address turns of ~100 s
                // each, ~115 probes per turn.
                sessions_per_week: 2.0,
                session_hours: 0.34,
                packets_per_session: 1400,
                pin_start_ms_in_day: None,
            },
            probe_len: 60,
        });
    }

    // ------------------------------------------------------------------
    // Episodic multi-source clouds: modeled as mini-actors, one per /128,
    // so each /128 individually reaches the 100-destination bar (the
    // paper's Table 2 /128 columns).
    // ------------------------------------------------------------------

    /// Spreads `n128` mini-actors over `layout` = (48s, 64s): /64 subnets
    /// are distributed round-robin over the /48s, and /128s round-robin
    /// over the /64s.
    #[allow(clippy::too_many_arguments)]
    fn cloud_minis(
        &mut self,
        rank: usize,
        prefix: Ipv6Prefix,
        n48: u64,
        n64: u64,
        n128: u64,
        sessions_total: f64,
        pkts_per_session: u64,
        hidden_frac: f64,
        ports_lo: usize,
        ports_hi: usize,
        explore: Option<f64>,
    ) {
        let all_ports = PortSampler::common_tcp_ports(20);
        for i in 0..n128 {
            // Layout: /64 j of n64 lives in /48 (j mod n48); minis are
            // assigned to /64s round-robin, so exactly n64 distinct /64s
            // and n48 distinct /48s appear.
            let j = i % n64;
            let sub48 = prefix.nth_subnet(48, (j % n48) as u128 + 1).expect("48");
            let sub64 = sub48.nth_subnet(64, (j / n48) as u128 + 1).expect("64");
            // Deterministic host address with a structured IID.
            let src = sub64.bits() | (0x100 + i as u128);
            // Per-mini port subset: keeps Table 3's "no clear-cut top port"
            // effect — each /64 targets a different well-known blend.
            let n_ports = self.rng.gen_range(ports_lo..=ports_hi);
            let mut ports: Vec<u16> = all_ports.clone();
            for k in (1..ports.len()).rev() {
                ports.swap(k, self.rng.gen_range(0..=k));
            }
            ports.truncate(n_ports);
            // MSSQL probing is especially widespread across sources
            // (Table 3: TCP/1433 tops the per-/64 ranking).
            if !ports.contains(&1433) && self.rng.gen_bool(0.45) {
                ports[0] = 1433;
            }
            let jitter = self.rng.gen_range(0.75..1.3);
            let burst_hours = self.rng.gen_range(0.05..0.5);
            // Explorer actors discover targets via DNS and probe the hidden
            // pair partner afterwards (§3.3); the rest draw from the pools.
            let targets = match explore {
                Some(prob) => TargetSampler::PairExplore {
                    pairs: Arc::clone(&self.pools.pairs),
                    explore_prob: prob,
                },
                None => self.targets(hidden_frac),
            };
            self.push(ScannerActor {
                name: format!("as{rank}-mini-{i}"),
                asn: Self::asn(rank),
                sources: SourceSampler::Single(src),
                targets,
                ports: PortSampler::Set(Transport::Tcp, ports),
                schedule: Schedule {
                    start_day: self.config.start_day,
                    end_day: self.config.end_day,
                    sessions_per_week: sessions_total / Self::nominal_weeks(),
                    // Bursty episodes: a 150-destination sweep takes minutes,
                    // not hours (§3.1: /128 scans are dominated by short ones).
                    session_hours: burst_hours,
                    packets_per_session: (pkts_per_session as f64 * jitter) as u64,
                    pin_start_ms_in_day: None,
                },
                probe_len: 60,
            });
        }
    }

    /// AS#4: global cloud, 512 /128s over 2 /64s (2 /48s).
    fn as4(&mut self) {
        let prefix = self.register(4, AsType::Cloud, "US/global", 78.0, (2, 2, 512));
        self.cloud_minis(4, prefix, 2, 2, 512, 1.0, 140, 0.0, 3, 8, None);
    }

    /// AS#5: German cloud, 59 /64s over 3 /48s, one address each.
    fn as5(&mut self) {
        let prefix = self.register(5, AsType::Cloud, "DE", 48.0, (3, 59, 59));
        self.cloud_minis(5, prefix, 3, 59, 59, 1.5, 150, 0.0, 4, 12, None);
    }

    /// AS#6: multi-tenant global cloud (Appendix A.4): 205 /128s over 15
    /// /64s and 10 /48s, plus the near-identical pair of /64s in different
    /// /48s (one with 3× the probes of the other).
    fn as6(&mut self) {
        let prefix = self.register(6, AsType::Cloud, "US/global", 45.0, (10, 15, 205));
        self.cloud_minis(6, prefix, 10, 13, 175, 1.0, 120, 0.0, 3, 10, None);
        // The A.4 pair: tenants in /48 #11 and #12, same target blend
        // (identical hidden fraction, near-identical pools), full port
        // coverage, active across the whole window, 3× packet ratio.
        for (k, mult) in [(0u64, 1u64), (1, 3)] {
            let sub48 = prefix.nth_subnet(48, 11 + k as u128).expect("48");
            let sub64 = sub48.nth_subnet(64, 1).expect("64");
            self.push(ScannerActor {
                name: format!("as6-a4-pair-{k}"),
                asn: Self::asn(6),
                sources: SourceSampler::pool_in_64((sub64.bits() >> 64) as u64, 15),
                targets: self.targets(0.47),
                ports: PortSampler::Set(Transport::Tcp, PortSampler::common_tcp_ports(20)),
                schedule: Schedule {
                    start_day: self.config.start_day,
                    end_day: self.config.end_day,
                    sessions_per_week: 1.2,
                    session_hours: 6.0,
                    packets_per_session: 150 * mult,
                    pin_start_ms_in_day: None,
                },
                probe_len: 60,
            });
        }
    }

    /// AS#7: global cloud, 123 /128s over 9 /64s / 9 /48s.
    fn as7(&mut self) {
        let prefix = self.register(7, AsType::Cloud, "US/global", 39.0, (9, 9, 123));
        self.cloud_minis(7, prefix, 9, 9, 123, 1.0, 140, 0.0, 3, 9, Some(0.6));
    }

    /// AS#8: Chinese cloud, 53 /128s over 5 /64s / 5 /48s.
    fn as8(&mut self) {
        let prefix = self.register(8, AsType::Cloud, "CN", 30.0, (5, 5, 53));
        self.cloud_minis(8, prefix, 5, 5, 53, 1.2, 140, 0.0, 3, 8, None);
    }

    /// AS#9: global transit; a US security company varying the lowest 7–9
    /// source bits in two /64s. Active only from November 2021 — the Fig. 2
    /// /128-source uptick. Scaled: ~120 distinct /128s (paper: 956).
    fn as9(&mut self) {
        let prefix = self.register(9, AsType::Transit, "global", 11.0, (1, 2, 956));
        let start = SimTime::from_date(2021, 11, 1)
            .day_index()
            .clamp(self.config.start_day, self.config.end_day);
        let active_weeks = ((self.config.end_day - start) as f64 / 7.0).max(0.5);
        let sub48 = prefix.nth_subnet(48, 5).expect("48");
        for k in 0..2u64 {
            let sub64 = sub48.nth_subnet(64, 1 + k as u128).expect("64");
            // 60 mini /128s per /64, addresses spread across the low 9 bits
            // (the paper: "varying the lowest 7 - 9 bits"). Each mini is one
            // /128 reused across its own sessions, so it qualifies
            // individually — the Fig. 2 /128 uptick.
            for i in 0..60u64 {
                let src = sub64.bits() | u128::from(i * 8 + (k * 3) + 1); // low 9 bits
                self.push(ScannerActor {
                    name: format!("as9-sec-{k}-{i}"),
                    asn: Self::asn(9),
                    sources: SourceSampler::Single(src),
                    targets: self.targets(0.25),
                    ports: PortSampler::Set(Transport::Tcp, vec![22, 80, 443, 3389, 8080, 8443]),
                    schedule: Schedule {
                        start_day: start,
                        end_day: self.config.end_day,
                        // ~4 qualifying sessions per /128 over its active window.
                        sessions_per_week: 4.0 / active_weeks,
                        session_hours: 2.0,
                        packets_per_session: 150,
                        pin_start_ms_in_day: None,
                    },
                    probe_len: 60,
                });
            }
        }
    }

    /// AS#10: Chinese cloud, 7 /128s in one /64.
    fn as10(&mut self) {
        let prefix = self.register(10, AsType::Cloud, "CN", 10.0, (1, 1, 7));
        self.cloud_minis(10, prefix, 1, 1, 7, 2.0, 150, 0.0, 3, 8, None);
    }

    /// AS#11: global cloud, one /64 with many /128s (scaled 353 → 90).
    fn as11(&mut self) {
        let prefix = self.register(11, AsType::Cloud, "US/global", 4.7, (1, 1, 353));
        self.cloud_minis(11, prefix, 1, 1, 90, 1.0, 130, 0.0, 3, 8, None);
    }

    /// AS#12: Chinese datacenter, 19 /128s over 12 /64s / 9 /48s.
    fn as12(&mut self) {
        let prefix = self.register(12, AsType::Datacenter, "CN", 3.1, (9, 12, 19));
        self.cloud_minis(12, prefix, 9, 12, 19, 1.2, 140, 0.1, 3, 8, None);
    }

    /// Single-source (or two-address) tail actors, ranks 13–17 and 19–20.
    #[allow(clippy::too_many_arguments)]
    fn small_as(
        &mut self,
        rank: usize,
        ty: AsType,
        country: &str,
        packets_m: f64,
        sources: (u64, u64, u64),
        n64: u64,
        n128: u64,
        sessions_per_week: f64,
        pkts: u64,
        single_port: Option<u16>,
    ) {
        let prefix = self.register(rank, ty, country, packets_m, sources);
        for i in 0..n128 {
            let sub64 = prefix.nth_subnet(64, (i % n64) as u128 + 1).expect("64");
            let src = sub64.bits() | (0x20 + i as u128);
            self.push(ScannerActor {
                name: format!("as{rank}-{i}"),
                asn: Self::asn(rank),
                sources: SourceSampler::Single(src),
                targets: self.targets(0.0),
                ports: match single_port {
                    // Botnet-style single-vulnerability scanners do exist in
                    // the tail (Fig. 4's single-port bucket).
                    Some(p) => PortSampler::Single(Transport::Tcp, p),
                    None => PortSampler::Set(
                        Transport::Tcp,
                        vec![22, 23, 8080, 1433, 3389, 21, 8000, 110],
                    ),
                },
                schedule: Schedule {
                    start_day: self.config.start_day,
                    end_day: self.config.end_day,
                    sessions_per_week,
                    session_hours: 4.0,
                    packets_per_session: pkts,
                    pin_start_ms_in_day: None,
                },
                probe_len: 60,
            });
        }
    }

    /// AS#18: the /32-spread scanner. Three groups of one-address /64
    /// sources (scaled ~10× down from the paper's 1 057):
    ///
    /// - 106 "qualifying" /64s: one session each, ≥ 100 destinations.
    /// - 70 "paired" /48s: two /64s each with 60–90 destinations probing in
    ///   the same session window — the /48 qualifies, neither /64 does, so
    ///   detected /48s exceed detected /64s (Table 2 footnote).
    /// - 600 "solo" sub-threshold /64s (50–95 destinations): invisible at
    ///   the paper's threshold, they surface when it is relaxed to 50
    ///   (the §2.2 sensitivity blow-up) and in the /32 aggregate.
    fn as18(&mut self) {
        let alloc = self.register(18, AsType::CloudTransit, "DE", 0.6, (1092, 1057, 1057));
        // The scanning entity's /32 inside the provider allocation.
        let slash32 = alloc.nth_subnet(32, 0).expect("/32");
        let mut idx = 0u64;
        let window = (self.config.end_day - self.config.start_day).max(1);
        // Qualifying /64s: /48 indices 1..=106, one /64 each, one scan each
        // on a deterministic day (spread across the window).
        for q in 0..106u64 {
            let dsts = 125 + self.rng.gen_range(0u64..70);
            let day = self.config.start_day + q * window / 106 % window;
            let hour_ms = self.rng.gen_range(0..20u64) * 3_600_000;
            self.spawn_as18(slash32, idx, 1 + q as u128, 1, dsts, Some((day, hour_ms)));
            idx += 1;
        }
        // Paired /48s: indices 200..=269, two /64s each, sub-threshold
        // destinations; the pair probes in the SAME session window, so the
        // /48 aggregate qualifies although neither /64 does.
        for p in 0..70u64 {
            let day = self.config.start_day + self.rng.gen_range(0..window);
            let hour_ms = self.rng.gen_range(0..20u64) * 3_600_000;
            for h in 0..2u64 {
                let dsts = 62 + self.rng.gen_range(0u64..28);
                self.spawn_as18(
                    slash32,
                    idx,
                    200 + p as u128,
                    1 + h as u128,
                    dsts,
                    Some((day, hour_ms)),
                );
                idx += 1;
            }
        }
        // Solo sub-threshold /64s: /48 indices 1000.., 50–95 destinations,
        // one scan each on a deterministic day.
        for sol in 0..600u64 {
            let dsts = 52 + self.rng.gen_range(0u64..43);
            // Four solo sources probe per active day: individually below the
            // threshold, but the day's /32 aggregate comfortably qualifies —
            // which is why the /32 view captures far more of this actor's
            // traffic than the /48 view (§3.2: 3× in the paper).
            let day = self.config.start_day + (sol / 4) * window * 4 / 600 % window;
            let hour_ms = self.rng.gen_range(0..20u64) * 3_600_000;
            self.spawn_as18(
                slash32,
                idx,
                1000 + sol as u128,
                1,
                dsts,
                Some((day, hour_ms)),
            );
            idx += 1;
        }
    }

    /// One AS#18 mini source: a single address in its own /64, TCP/22 only,
    /// 50% not-in-DNS targets, one ~90-minute session in the window. The
    /// paired /48 group pins (day, start-time) so both /64s of a /48 scan
    /// simultaneously and their union forms one /48 run.
    fn spawn_as18(
        &mut self,
        slash32: Ipv6Prefix,
        idx: u64,
        sub48_idx: u128,
        sub64_idx: u128,
        dsts: u64,
        pin: Option<(u64, u64)>,
    ) {
        let sub48 = slash32.nth_subnet(48, sub48_idx).expect("48");
        let sub64 = sub48.nth_subnet(64, sub64_idx).expect("64");
        let src = sub64.bits() | u128::from(self.rng.gen_range(0x10u64..0xffff));
        // Targets are drawn from a large pool, so distinct destinations ≈
        // packets; emitting exactly `dsts` packets keeps the sub-threshold
        // groups strictly below the 100-destination bar.
        let pkts = dsts;
        let (start_day, end_day, pin_ms) = match pin {
            Some((d, ms)) => (d, d + 1, Some(ms)),
            None => (self.config.start_day, self.config.end_day, None),
        };
        // Pinned (single-day) minis scan exactly once on their day; the
        // rest spread their single session over the nominal window.
        let weeks = match pin {
            Some(_) => 1.0 / 7.0,
            None => Self::nominal_weeks(),
        };
        self.push(ScannerActor {
            name: format!("as18-{idx}"),
            asn: Self::asn(18),
            sources: SourceSampler::Single(src),
            targets: self.targets(0.5),
            ports: PortSampler::Single(Transport::Tcp, 22),
            schedule: Schedule {
                start_day,
                end_day,
                // One session over the (possibly pinned single-day) window.
                sessions_per_week: (1.0 / weeks).min(7.0),
                session_hours: 1.5,
                packets_per_session: pkts,
                pin_start_ms_in_day: pin_ms,
            },
            probe_len: 60,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emission_due_schedule_at_paper_volume_and_the_u64_limits() {
        const MAX: u64 = u64::MAX;
        // (scaled, base): the identity, the paper's 1250x and its inverse,
        // and totals and bases up to the u64 limit, where `scaled * drawn`
        // needs all 128 bits.
        let cases = [
            (1, 1),
            (7, 7),
            (1250, 1),
            (1250 * 5_369_860, 5_369_860),
            (5_369_860, 1250 * 5_369_860),
            (0, 9),
            (MAX, 1),
            (MAX, 3),
            (MAX, MAX),
            (MAX - 1, MAX),
            (1, MAX),
            (MAX / 1250, MAX / 1250 / 1250),
        ];
        for (scaled, base) in cases {
            let due = |drawn| emission_due(scaled, base, drawn);
            assert_eq!(due(base), scaled, "due(base), {scaled}/{base}");
            assert_eq!(due(0), 0, "due(0), {scaled}/{base}");
            // Monotone and within `scaled` along a spread of `drawn` ≤
            // `base`, both ends and their neighbours included.
            let at = |k: u128| u64::try_from(u128::from(base) * k / 64).expect("≤ base");
            let mut drawn: Vec<u64> = (0..=64).map(at).collect();
            drawn.extend([1, 2, base.saturating_sub(1), base / 1250, base / 3]);
            drawn.retain(|&d| d <= base);
            drawn.sort_unstable();
            for w in drawn.windows(2) {
                assert!(due(w[0]) <= due(w[1]), "monotone at {w:?}, {scaled}/{base}");
            }
            assert!(drawn.iter().all(|&d| due(d) <= scaled), "{scaled}/{base}");
        }
        // 1250x of a base stream: every record is due exactly 1250 times.
        let base = 5_369_860;
        for drawn in [0, 1, 2, 4_096, base - 1, base] {
            assert_eq!(emission_due(1250 * base, base, drawn), 1250 * drawn);
        }
        // The inverse ratio keeps one record in 1250, at its last copy.
        let scaled = 4_296;
        let base = 1250 * scaled;
        assert_eq!(emission_due(scaled, base, 1249), 0);
        assert_eq!(emission_due(scaled, base, 1250), 1);
        assert_eq!(emission_due(scaled, base, base - 1), scaled - 1);
    }

    #[test]
    fn world_builds_and_registers_all_20_ases() {
        let world = World::build(FleetConfig::small());
        assert_eq!(world.fleet.truth.len(), 20);
        let ranks: Vec<usize> = world.fleet.truth.iter().map(|t| t.rank).collect();
        assert_eq!(ranks, (1..=20).collect::<Vec<_>>());
        for t in &world.fleet.truth {
            assert_eq!(
                world.registry.origin_asn(t.prefix.first_addr() + 1),
                Some(t.asn)
            );
            assert_eq!(
                world.registry.as_info(t.asn).unwrap().descriptor(),
                format!("{} ({})", t.as_type.label(), t.country)
            );
        }
    }

    #[test]
    fn actor_sources_live_inside_their_as_prefix() {
        let world = World::build(FleetConfig::small());
        let mut rng = SmallRng::seed_from_u64(3);
        for actor in world.fleet.actors.iter() {
            let truth = world
                .fleet
                .truth
                .iter()
                .find(|t| t.asn == actor.asn)
                .expect("actor AS registered");
            for _ in 0..5 {
                let src = actor.sources.sample(&mut rng, 0);
                assert!(
                    truth.prefix.contains_addr(src),
                    "{} source {:x} outside {}",
                    actor.name,
                    src,
                    truth.prefix
                );
            }
        }
    }

    #[test]
    fn cdn_trace_is_sorted_and_on_telescope() {
        let mut cfg = FleetConfig::small();
        cfg.end_day = 7;
        let world = World::build(cfg);
        let trace = world.cdn_trace();
        assert!(trace.len() > 10_000, "got {}", trace.len());
        assert!(trace.windows(2).all(|w| w[0].ts_ms <= w[1].ts_ms));
        assert!(trace
            .iter()
            .all(|r| world.deployment.is_telescope_addr(r.dst)));
        // Capture filter applied: no served ports, no ICMPv6.
        assert!(trace
            .iter()
            .all(|r| !(r.proto == Transport::Tcp && (r.dport == 80 || r.dport == 443))));
        assert!(trace.iter().all(|r| r.proto != Transport::Icmpv6));
    }

    #[test]
    fn trace_is_deterministic() {
        let mut cfg = FleetConfig::small();
        cfg.end_day = 3;
        let a = World::build(cfg.clone()).cdn_trace();
        let b = World::build(cfg).cdn_trace();
        assert_eq!(a, b);
    }

    #[test]
    fn as1_dominates_packets() {
        let mut cfg = FleetConfig::small();
        cfg.end_day = 14;
        let world = World::build(cfg);
        let trace = world.cdn_trace();
        // Per-AS packet counts over the scanner fleet only (artifacts and
        // noise are not scan traffic). AS#18 is excluded: its fixed source
        // structure is preserved regardless of window length, so it
        // over-weights short test windows by design.
        let mut per_as: Vec<(usize, usize)> = world
            .fleet
            .truth
            .iter()
            .filter(|t| t.rank != 18)
            .map(|t| {
                (
                    t.rank,
                    trace
                        .iter()
                        .filter(|r| t.prefix.contains_addr(r.src))
                        .count(),
                )
            })
            .collect();
        let total: usize = per_as.iter().map(|(_, n)| n).sum();
        per_as.sort_by_key(|&(_, n)| std::cmp::Reverse(n));
        // The top two are AS#1 and AS#2 (in some order) and they dominate.
        let top2_ranks: Vec<usize> = per_as[..2].iter().map(|(r, _)| *r).collect();
        assert!(
            top2_ranks.contains(&1) && top2_ranks.contains(&2),
            "{per_as:?}"
        );
        let top2: usize = per_as[..2].iter().map(|(_, n)| n).sum();
        assert!(top2 * 2 > total, "top-2 {} of {}", top2, total);
    }

    #[test]
    fn as1_switches_ports_in_may() {
        let cfg = FleetConfig {
            deployment: DeploymentConfig::tiny(),
            start_day: 140,
            end_day: 154, // around 2021-05-27 (day 146)
            ..Default::default()
        };
        let world = World::build(cfg);
        let as1 = &world.fleet.actors[0];
        let recs = as1.generate_scaled(1, 1.0);
        let switch = SimTime::from_date(2021, 5, 27).ms();
        let before: std::collections::HashSet<u16> = recs
            .iter()
            .filter(|r| r.ts_ms < switch)
            .map(|r| r.dport)
            .collect();
        let after: std::collections::HashSet<u16> = recs
            .iter()
            .filter(|r| r.ts_ms >= switch)
            .map(|r| r.dport)
            .collect();
        assert!(before.len() > 100, "{} ports before", before.len());
        assert_eq!(
            {
                let mut v: Vec<u16> = after.into_iter().collect();
                v.sort_unstable();
                v
            },
            vec![22, 3389, 8080, 8443]
        );
    }

    #[test]
    fn as9_only_active_from_november() {
        let world = World::build(FleetConfig::default());
        let nov1 = SimTime::from_date(2021, 11, 1).day_index();
        for a in world
            .fleet
            .actors
            .iter()
            .filter(|a| a.name.starts_with("as9-"))
        {
            assert_eq!(a.schedule.start_day, nov1);
        }
    }

    #[test]
    fn scale_intensity_is_exact_integer_arithmetic() {
        // Identity at 1.0 — including above 2^53, where the old f64
        // round-trip silently lost the low bits.
        assert_eq!(scale_intensity(1500, 1.0), 1500);
        let big = (1u64 << 53) + 1;
        assert_eq!(scale_intensity(big, 1.0), big);
        assert_eq!(
            ((big as f64 * 1.0).round() as u64),
            big - 1,
            "the f64 path this replaces really was lossy"
        );
        // Fractional downscale (the paper's 1:1250): no .max(1) floor, so
        // sub-packet sessions scale to zero instead of inflating totals.
        let down = 1.0 / 1250.0;
        assert_eq!(scale_intensity(1500, down), 1); // 1.2 -> 1
        assert_eq!(scale_intensity(1250, down), 1); // 1.0 -> 1
        assert_eq!(scale_intensity(150, down), 0); // 0.12 -> 0 (was 1)
        assert_eq!(scale_intensity(624, down), 0); // 0.4992 -> 0
        assert_eq!(scale_intensity(625, down), 1); // 0.5 rounds away from zero
                                                   // Integral upscale is exact multiplication.
        assert_eq!(scale_intensity(1500, 1250.0), 1_875_000);
        assert_eq!(scale_intensity(big, 4.0), big * 4);
        // Saturation and degenerate factors.
        assert_eq!(scale_intensity(u64::MAX, 2.0), u64::MAX);
        assert_eq!(scale_intensity(1, f64::MAX), u64::MAX);
        assert_eq!(scale_intensity(1500, 0.0), 0);
        assert_eq!(scale_intensity(1500, -1.0), 0);
        assert_eq!(scale_intensity(1500, f64::NAN), 0);
        assert_eq!(scale_intensity(0, 5.0), 0);
    }

    #[test]
    fn fleet_budget_pinned_at_reference_intensities() {
        // Schedules carry the calibrated 1x budgets; intensity scales the
        // budget at generation time (per session, exact integer
        // arithmetic). The schedules themselves are intensity-independent.
        let world = World::build(FleetConfig::small());
        // Sessions x scaled packets per actor, not expanded.
        let scheduled_packets = |intensity: f64| -> u64 {
            world
                .fleet
                .actors
                .iter()
                .map(|a| {
                    let s = &a.schedule;
                    let days = s.end_day - s.start_day;
                    let sessions = (days as f64 / 7.0 * s.sessions_per_week).round() as u64;
                    sessions * scale_intensity(s.packets_per_session, intensity)
                })
                .sum()
        };
        let base = scheduled_packets(1.0);
        // Intensity 1250.0 is an exactly representable integer scale, so the
        // per-session budget scales exactly 1250x — no f64 drift.
        assert_eq!(scheduled_packets(1250.0), base * 1250);
        // At 1:1250 most mini-actor sessions round to zero packets; the old
        // .max(1) floor would have produced >= one packet per actor
        // (= actors.len() at minimum), inflating the downscaled total.
        let tiny = scheduled_packets(1.0 / 1250.0);
        let actors = world.fleet.actors.len() as u64;
        assert!(tiny < actors, "floor removed: {tiny} < {actors} actors");
        // Emission honors the scaled budget exactly: AS#1 is continuous at
        // 1500 packets/session, so record counts pin per-session scaling
        // through `generate_scaled` itself.
        let as1 = world
            .fleet
            .actors
            .iter()
            .find(|a| a.name == "as1-datacenter-cn")
            .expect("fleet has AS#1");
        let sessions = as1.generate_scaled(7, 1.0).len() as u64 / 1500;
        assert!(sessions > 0);
        assert_eq!(as1.generate_scaled(7, 3.0).len() as u64, sessions * 4500);
        // scale_intensity(1500, 1/1250) = 1.2 -> 1 packet per session.
        assert_eq!(as1.generate_scaled(7, 1.0 / 1250.0).len() as u64, sessions);
    }

    #[test]
    fn every_actor_shares_one_copy_of_each_target_pool() {
        // One allocation per pool, whatever the actor count: an actor that
        // held its own copy would make the fleet O(actors × telescope).
        let world = World::build(FleetConfig::default());
        let (mut mixes, mut explorers) = (Vec::new(), Vec::new());
        for actor in world.fleet.actors.iter() {
            match &actor.targets {
                TargetSampler::PairMix {
                    exposed, hidden, ..
                } => mixes.push((exposed, hidden)),
                TargetSampler::PairExplore { pairs, .. } => explorers.push(pairs),
                _ => {}
            }
        }
        assert!(mixes.len() > 1_000, "{} pair-mix actors", mixes.len());
        assert!(explorers.len() > 100, "{} explorers", explorers.len());
        let (exposed, hidden) = mixes[0];
        assert!(mixes
            .iter()
            .all(|(e, h)| Arc::ptr_eq(e, exposed) && Arc::ptr_eq(h, hidden)));
        assert!(explorers.iter().all(|p| Arc::ptr_eq(p, explorers[0])));
        // And the pools are the telescope's, split by DNS exposure.
        let dep = &world.deployment;
        assert_eq!(exposed.len() + hidden.len(), dep.telescope_size());
        assert!(exposed.iter().all(|&a| dep.is_in_dns(a)));
        assert!(hidden.iter().all(|&a| !dep.is_in_dns(a)));
        assert_eq!(**exposed, *dep.dns_hitlist());
        assert_eq!(**explorers[0], *dep.pairs());
    }

    #[test]
    fn as18_minis_use_one_address_per_64_across_the_32() {
        let world = World::build(FleetConfig::default());
        let as18: Vec<&ScannerActor> = world
            .fleet
            .actors
            .iter()
            .filter(|a| a.name.starts_with("as18-"))
            .collect();
        assert_eq!(as18.len(), 106 + 140 + 600);
        let mut prefixes64 = std::collections::HashSet::new();
        for a in &as18 {
            match a.sources {
                SourceSampler::Single(src) => {
                    assert!(prefixes64.insert(src >> 64), "one source per /64");
                }
                _ => panic!("AS18 minis are single-address"),
            }
            assert_eq!(a.ports, PortSampler::Single(Transport::Tcp, 22));
        }
    }
}
