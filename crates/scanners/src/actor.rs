//! The scanner actor: samplers plus a temporal schedule, generating a
//! packet stream.

use crate::fleet::{emission_due, scale_intensity};
use crate::samplers::{PortSampler, SourceSampler, TargetSampler};
use lumen6_trace::{PacketRecord, DAY_MS, HOUR_MS};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// When an actor scans, and how hard.
///
/// Activity is organized in *sessions*: contiguous scanning episodes of
/// `session_hours`, with packets spread uniformly inside. Between sessions
/// the actor is silent, so with the paper's one-hour inter-arrival timeout
/// each session resolves into (at most) one scan event.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Schedule {
    /// First active day (index from the epoch).
    pub start_day: u64,
    /// One past the last active day.
    pub end_day: u64,
    /// Expected scanning sessions per week (Poisson-ish via per-day
    /// Bernoulli draws; values ≥ 7 mean one session every day, plus
    /// extras).
    pub sessions_per_week: f64,
    /// Session length in hours.
    pub session_hours: f64,
    /// Packets emitted per session.
    pub packets_per_session: u64,
    /// If set, sessions start at exactly this millisecond offset within the
    /// day instead of a random time. Used to coordinate actors that must
    /// scan simultaneously (e.g. two /64s of one /48 whose *combined*
    /// traffic forms a single scan run).
    pub pin_start_ms_in_day: Option<u64>,
}

impl Schedule {
    /// A continuous scanner active every day of `[start_day, end_day)`.
    pub fn continuous(start_day: u64, end_day: u64, packets_per_day: u64) -> Schedule {
        Schedule {
            start_day,
            end_day,
            sessions_per_week: 7.0,
            session_hours: 20.0,
            packets_per_session: packets_per_day,
            pin_start_ms_in_day: None,
        }
    }

    /// Expands the schedule into concrete sessions.
    pub fn sessions(&self, rng: &mut SmallRng) -> Vec<Session> {
        let mut out = Vec::new();
        let daily_prob = (self.sessions_per_week / 7.0).min(1.0);
        let extra = (self.sessions_per_week / 7.0 - 1.0).max(0.0);
        for day in self.start_day..self.end_day {
            let mut n = u64::from(rng.gen_bool(daily_prob));
            // Fractional surplus beyond one session per day.
            n += extra as u64 + u64::from(rng.gen_bool(extra.fract()));
            for _ in 0..n {
                let span = (self.session_hours * HOUR_MS as f64) as u64;
                let latest_start = DAY_MS.saturating_sub(span.min(DAY_MS)).max(1);
                let offset = match self.pin_start_ms_in_day {
                    Some(pin) => pin.min(latest_start - 1),
                    None => rng.gen_range(0..latest_start),
                };
                let start = day * DAY_MS + offset;
                out.push(Session {
                    start_ms: start,
                    duration_ms: span.max(1),
                    packets: self.packets_per_session,
                });
            }
        }
        out
    }
}

/// One concrete scanning episode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Session {
    /// Episode start (ms since epoch).
    pub start_ms: u64,
    /// Episode length in ms.
    pub duration_ms: u64,
    /// Packets emitted.
    pub packets: u64,
}

/// A complete scanner actor.
///
/// Serializable: custom fleets can be defined as JSON and fed to the
/// `lumen6 generate custom --fleet` command.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScannerActor {
    /// Human-readable name (e.g. `as1-datacenter-cn`).
    pub name: String,
    /// Origin AS number (for ground-truth bookkeeping).
    pub asn: u32,
    /// Source-address strategy.
    pub sources: SourceSampler,
    /// Target-address strategy.
    pub targets: TargetSampler,
    /// Port strategy.
    pub ports: PortSampler,
    /// Temporal schedule.
    pub schedule: Schedule,
    /// Probe packet length (constant per actor — scan probes are uniform,
    /// which is exactly what the MAWI detector's entropy criterion keys on).
    pub probe_len: u16,
}

impl ScannerActor {
    /// Generates this actor's complete packet stream, time-sorted, at the
    /// calibrated (1×) volume.
    ///
    /// Determinism: the stream is a pure function of the actor definition
    /// and `seed`.
    pub fn generate(&self, seed: u64) -> Vec<PacketRecord> {
        self.generate_scaled(seed, 1.0)
    }

    /// Generates the packet stream with emitted volume scaled by
    /// `intensity`, over an *intensity-invariant probe footprint*.
    ///
    /// The probe sequence — targets, source addresses, ports, timestamps —
    /// is drawn at the schedule's calibrated base rate regardless of
    /// `intensity` (the RNG consumes the identical draw sequence at every
    /// intensity). Each drawn probe is then emitted a whole number of
    /// times, distributed evenly (Bresenham) so a session's total is
    /// exactly [`scale_intensity`]`(session.packets, intensity)`. Repeats
    /// share their probe's timestamp.
    ///
    /// This is what makes `intensity` a pure *volume* knob: distinct
    /// sources, distinct destinations, ports, and the inter-probe gap
    /// structure — everything threshold- and eventization-relevant in the
    /// detection pipeline — are identical at 1×, 10×, and 100×, while
    /// packet counts scale exactly. (Scaling the draw count instead would
    /// push deliberately sub-threshold actors over the 100-destination
    /// bar and let variable-source actors express more addresses,
    /// distorting Table 1 / Fig. 2 shapes.) Fractional intensities emit an
    /// evenly-spaced subset of the base footprint.
    pub fn generate_scaled(&self, seed: u64, intensity: f64) -> Vec<PacketRecord> {
        let mut rng = self.rng(seed);
        let mut out = Vec::new();
        let mut targets_buf = Vec::with_capacity(2);
        for s in &self.schedule.sessions(&mut rng) {
            self.draw_session(&mut rng, s, intensity, &mut targets_buf, |rec, reps| {
                out.extend(std::iter::repeat_n(rec, reps as usize));
            });
        }
        lumen6_trace::sort_by_time(&mut out);
        out
    }

    /// Checks a definition from outside the program (a `generate custom`
    /// fleet file) for what generation would panic on, wrap, silently
    /// misread or never finish. The message names the actor and the field.
    pub fn validate(&self) -> Result<(), String> {
        let s = &self.schedule;
        // A day holds at most `rate / 7 + 1` sessions. The streamed engine
        // draws every session up front and holds a whole session's probes
        // while it releases them, so the scheduled total bounds both what
        // generation holds and how long it runs.
        let days = s.end_day.saturating_sub(s.start_day) as f64;
        let packets = (s.sessions_per_week / 7.0 + 1.0) * days * s.packets_per_session as f64;
        // The last session may start at the window's last millisecond and
        // run its full span; a day of slack covers follow-up probe offsets.
        let span = s.session_hours * HOUR_MS as f64;
        let end_ms = s.end_day.checked_add(1).and_then(|d| d.checked_mul(DAY_MS));
        let fits = span >= 0.0 && end_ms.is_some_and(|ms| ms.checked_add(span as u64).is_some());
        let why = if !fits {
            "schedule.end_day and session_hours must keep timestamps within u64 ms"
        } else if !(s.sessions_per_week >= 0.0 && packets <= u32::MAX as f64) {
            "schedule.sessions_per_week must be a non-negative rate that, times \
             packets_per_session, schedules at most 2^32 packets"
        } else if !self.sources.is_drawable() {
            "sources must draw from non-empty pools"
        } else if !self.targets.is_drawable() {
            "targets must draw from non-empty pools, with probabilities within [0, 1]"
        } else if !self.ports.is_drawable() {
            "ports must draw from a non-empty set or range"
        } else {
            return Ok(());
        };
        Err(format!("actor {:?}: {why}", self.name))
    }

    /// The actor's generator state for `seed`, before the schedule draws.
    ///
    /// The actor's name is mixed into the seed: actors of the same AS (e.g.
    /// the per-/128 mini-actors of a cloud) must have independent streams,
    /// or they would scan the same days and probe the same target sequences
    /// in lockstep.
    pub(crate) fn rng(&self, seed: u64) -> SmallRng {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325; // FNV-1a
        for b in self.name.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x1000_0000_01b3);
        }
        SmallRng::seed_from_u64(seed ^ (u64::from(self.asn) << 32) ^ h)
    }

    /// Draws one session's probes in emission order, handing each probe
    /// that is due at least once to `emit(record, copies)`. This is the only
    /// definition of the per-probe draw sequence; callers differ in what
    /// they do with the copies (`generate_scaled` pushes and sorts them, the
    /// fused source queues one run-length-encoded entry).
    pub(crate) fn draw_session(
        &self,
        rng: &mut SmallRng,
        s: &Session,
        intensity: f64,
        targets_buf: &mut Vec<u128>,
        mut emit: impl FnMut(PacketRecord, u64),
    ) {
        let scaled = scale_intensity(s.packets, intensity);
        let mut drawn = 0u64;
        let mut emitted = 0u64;
        while drawn < s.packets {
            targets_buf.clear();
            self.targets.sample(rng, targets_buf);
            // Offset within the session; follow-up (nearby) probes get
            // strictly later timestamps than their seed probe.
            let base = s.start_ms + rng.gen_range(0..s.duration_ms);
            for (k, &dst) in targets_buf.iter().enumerate() {
                if drawn >= s.packets {
                    break;
                }
                let ts = base + (k as u64) * rng.gen_range(50u64..2_000);
                let (proto, dport) = self.ports.sample(rng, ts);
                let rec = PacketRecord {
                    ts_ms: ts,
                    src: self.sources.sample(rng, ts),
                    dst,
                    proto,
                    sport: if proto == lumen6_trace::Transport::Icmpv6 {
                        128
                    } else {
                        rng.gen_range(32_768..61_000)
                    },
                    dport,
                    len: self.probe_len,
                };
                drawn += 1;
                // Cumulative emission due after `drawn` of `s.packets`
                // base probes: rounds so the session total is exactly
                // `scaled`, spreading repeats (or drops) evenly.
                let due = emission_due(scaled, s.packets, drawn);
                if due > emitted {
                    emit(rec, due - emitted);
                }
                emitted = due;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::samplers::IidMode;
    use lumen6_addr::Ipv6Prefix;
    use lumen6_trace::Transport;

    fn actor() -> ScannerActor {
        ScannerActor {
            name: "test".into(),
            asn: 64500,
            sources: SourceSampler::Single(0x5001),
            targets: TargetSampler::Hitlist((1..=400u128).map(|i| i << 8).collect()),
            ports: PortSampler::Single(Transport::Tcp, 22),
            schedule: Schedule::continuous(0, 7, 500),
            probe_len: 60,
        }
    }

    #[test]
    fn generates_scheduled_volume() {
        let recs = actor().generate(1);
        assert_eq!(recs.len(), 7 * 500);
        assert!(recs.windows(2).all(|w| w[0].ts_ms <= w[1].ts_ms));
        assert!(recs.iter().all(|r| r.src == 0x5001 && r.dport == 22));
        assert!(recs.iter().all(|r| r.ts_ms < 8 * DAY_MS));
    }

    #[test]
    fn deterministic_per_seed() {
        let a = actor().generate(9);
        let b = actor().generate(9);
        assert_eq!(a, b);
        let c = actor().generate(10);
        assert_ne!(a, c);
    }

    #[test]
    fn intensity_scales_volume_over_an_invariant_footprint() {
        let a = actor();
        let base = a.generate(3);
        // Integral upscale: every base probe repeated exactly 10×, at its
        // own timestamp — deduplicating adjacent repeats recovers the base
        // stream bit-for-bit.
        let up = a.generate_scaled(3, 10.0);
        assert_eq!(up.len(), base.len() * 10);
        let mut dedup = up.clone();
        dedup.dedup();
        assert_eq!(dedup, base);
        // Fractional downscale: an evenly-spaced subset of the base
        // footprint — no source or destination outside the 1× sets.
        let down = a.generate_scaled(3, 0.4);
        assert_eq!(down.len(), (base.len() * 2) / 5);
        let dsts: std::collections::HashSet<u128> = base.iter().map(|r| r.dst).collect();
        let srcs: std::collections::HashSet<u128> = base.iter().map(|r| r.src).collect();
        assert!(down.iter().all(|r| dsts.contains(&r.dst)));
        assert!(down.iter().all(|r| srcs.contains(&r.src)));
        // And 1.0 is the identity.
        assert_eq!(a.generate_scaled(3, 1.0), base);
    }

    #[test]
    fn schedule_window_respected() {
        let mut a = actor();
        a.schedule = Schedule::continuous(10, 12, 100);
        let recs = a.generate(1);
        assert!(recs
            .iter()
            .all(|r| r.ts_ms >= 10 * DAY_MS && r.ts_ms < 12 * DAY_MS));
    }

    #[test]
    fn burst_is_single_day() {
        // Dec 22-ish, 15 minutes.
        let s = Schedule {
            start_day: 355,
            end_day: 356,
            sessions_per_week: 7.0,
            session_hours: 0.25,
            packets_per_session: 10_000,
            pin_start_ms_in_day: None,
        };
        let mut rng = SmallRng::seed_from_u64(3);
        let sessions = s.sessions(&mut rng);
        assert_eq!(sessions.len(), 1);
        assert_eq!(sessions[0].packets, 10_000);
        assert!(sessions[0].duration_ms <= 15 * 60 * 1000);
    }

    #[test]
    fn sparse_schedule_produces_fewer_sessions() {
        let s = Schedule {
            start_day: 0,
            end_day: 70,
            sessions_per_week: 1.0,
            session_hours: 2.0,
            packets_per_session: 10,
            pin_start_ms_in_day: None,
        };
        let mut rng = SmallRng::seed_from_u64(3);
        let sessions = s.sessions(&mut rng);
        // ~10 expected over 10 weeks; allow wide tolerance.
        assert!((3..=25).contains(&sessions.len()), "{}", sessions.len());
    }

    #[test]
    fn actor_detected_by_pipeline() {
        // End-to-end sanity: a hitlist scanner shows up as scan events.
        let recs = actor().generate(4);
        let report = lumen6_detect::detector::detect(
            &recs,
            lumen6_detect::ScanDetectorConfig::paper(lumen6_detect::AggLevel::L128),
        );
        assert!(report.scans() >= 1);
        assert_eq!(report.sources(), 1);
        assert_eq!(report.packets(), recs.len() as u64);
    }

    #[test]
    fn random_iid_sweeper_has_gaussian_weights() {
        let mut a = actor();
        a.targets = TargetSampler::PrefixSweep {
            prefixes: vec!["2001:db8::/32".parse::<Ipv6Prefix>().unwrap()],
            iid: IidMode::Random,
            subnets_per_prefix: 1 << 16,
        };
        let recs = a.generate(2);
        let dist = lumen6_addr::HammingDistribution::from_addrs(recs.iter().map(|r| r.dst));
        assert!(dist.looks_random());
    }

    #[test]
    fn icmpv6_actor_emits_echo() {
        let mut a = actor();
        a.ports = PortSampler::Icmpv6Echo;
        let recs = a.generate(2);
        assert!(recs
            .iter()
            .all(|r| r.proto == Transport::Icmpv6 && r.sport == 128));
    }

    #[test]
    fn validate_passes_the_built_fleet_and_names_what_sampling_would_panic_on() {
        let world = crate::World::build(crate::FleetConfig::small());
        for a in world.fleet.actors.iter().chain([&actor()]) {
            assert_eq!(a.validate(), Ok(()), "{}", a.name);
        }
        type Spoil = fn(&mut ScannerActor);
        let cases: [(Spoil, &str); 10] = [
            (|a| a.sources = SourceSampler::Pool(Vec::new()), "sources"),
            (
                |a| {
                    a.sources = SourceSampler::TimeSliced {
                        pool: Vec::new(),
                        slice_ms: 1,
                    }
                },
                "sources",
            ),
            (
                |a| {
                    a.sources = SourceSampler::SpreadSubnets {
                        subnets: vec![Ipv6Prefix::DEFAULT],
                        hosts_per_subnet: 0,
                    }
                },
                "sources",
            ),
            (
                |a| a.targets = TargetSampler::Hitlist(Vec::new().into()),
                "targets",
            ),
            (
                |a| a.ports = PortSampler::UniformRange(Transport::Udp, 0),
                "ports",
            ),
            (
                |a| {
                    a.ports = PortSampler::DailyRotate {
                        proto: Transport::Tcp,
                        pool: Vec::new(),
                        per_day: 4,
                    }
                },
                "ports",
            ),
            (
                // The empty set hides behind a switch that has not happened.
                |a| {
                    a.ports = PortSampler::SwitchAt {
                        at_ms: u64::MAX,
                        before: Box::new(PortSampler::Icmpv6Echo),
                        after: Box::new(PortSampler::Set(Transport::Tcp, Vec::new())),
                    }
                },
                "ports",
            ),
            (
                |a| a.schedule.sessions_per_week = f64::NAN,
                "sessions_per_week",
            ),
            // Countable, and more sessions than memory: 1e15 a week.
            (|a| a.schedule.sessions_per_week = 1e15, "sessions_per_week"),
            (
                |a| a.schedule.packets_per_session = u64::MAX,
                "packets_per_session",
            ),
        ];
        for (i, (spoil, field)) in cases.into_iter().enumerate() {
            let mut a = actor();
            spoil(&mut a);
            let err = a.validate().expect_err("spoiled");
            assert!(
                err.contains("\"test\"") && err.contains(field),
                "case {i}: {err}"
            );
        }
    }
}
