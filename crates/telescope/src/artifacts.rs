//! CDN connection-artifact generators (paper §2.1, Appendix A.1).
//!
//! Client-facing CDN addresses attract traffic that mimics scanning:
//!
//! - **SMTP fallback**: a mail server delivering to a domain hosted on the
//!   CDN without an MX record falls back to the AAAA record and retries the
//!   same (address, TCP/25) pair over and over. Because the CDN mapping
//!   process maps a client to a potentially large set of machines over
//!   time (footnote 7), the retries fan out across many destination IPs —
//!   a single source hitting many destinations, the signature of a scan.
//! - **IPsec/ISAKMP retries**: hosts sending ISAKMP (UDP/500) to every CDN
//!   machine they get mapped to.
//! - **NetBIOS-style chatter**: misconfigured web clients emitting name
//!   resolution with every outgoing connection.
//!
//! All generators repeat each (destination, port) pair far more than 5
//! times per day, so the paper's 5-duplicate filter removes them; they
//! exist to exercise that filter and to populate the dense low-destination
//! corner of Fig. 1.

use crate::deployment::CdnDeployment;
use lumen6_trace::{DayRows, DayStepper, Transport, DAY_MS, HOUR_MS};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::ops::Range;
use std::sync::Arc;

/// Artifact traffic mix over a time range.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ArtifactConfig {
    /// Number of SMTP-fallback sources active per day.
    pub smtp_sources_per_day: usize,
    /// Number of ISAKMP retry sources active per day.
    pub isakmp_sources_per_day: usize,
    /// Number of NetBIOS-style chatter sources active per day.
    pub netbios_sources_per_day: usize,
    /// Machines a source is mapped to (destination fan-out).
    pub mapped_machines: usize,
    /// Retries per (destination, port) per day — must exceed 5 for the
    /// artifact filter to catch the behavior.
    pub retries_per_dst: u64,
}

impl Default for ArtifactConfig {
    fn default() -> Self {
        ArtifactConfig {
            smtp_sources_per_day: 28,
            isakmp_sources_per_day: 42,
            netbios_sources_per_day: 10,
            mapped_machines: 8,
            retries_per_dst: 12,
        }
    }
}

/// The CDN mapping process: the deterministic set of machines a client is
/// mapped to on a given day. Hash-based so a client's mapping is stable
/// within a day but drifts across days, growing the set of machines a
/// retrying client ends up contacting — the phenomenon of footnote 7.
pub fn mapped_machines(
    deployment: &CdnDeployment,
    client_src: u128,
    day: u64,
    count: usize,
) -> Vec<u128> {
    let machines = deployment.machines();
    if machines.is_empty() {
        return Vec::new();
    }
    let mut out = Vec::with_capacity(count);
    let mut h = client_src ^ (u128::from(day) << 64) ^ 0x6d61_7070;
    for _ in 0..count {
        // splitmix-style step.
        h = h
            .wrapping_mul(0x9e37_79b9_7f4a_7c15_9e37_79b9_7f4a_7c15)
            .wrapping_add(0x5851_f42d_4c95_7f2d);
        let idx = ((h >> 64) as usize) % machines.len();
        out.push(machines[idx].client_facing);
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// The artifact mix for the day range `[day_start, day_end)`, a day at a
/// time in stable time order: a flow per (source, mapped machine) pair, its
/// retries as rows.
///
/// Sources are minted fresh per day from residential-looking /64s outside
/// the CDN space (high bits 0x26xx, eyeball-style), so day-over-day they
/// look like a churning population.
#[derive(Debug, Clone)]
pub struct Artifacts {
    deployment: Arc<CdnDeployment>,
    config: ArtifactConfig,
    days: Range<u64>,
    rng: SmallRng,
}

impl Artifacts {
    /// The stream's recipe: it has drawn nothing yet.
    pub fn new(
        deployment: Arc<CdnDeployment>,
        config: ArtifactConfig,
        day_start: u64,
        day_end: u64,
        seed: u64,
    ) -> Artifacts {
        Artifacts {
            deployment,
            config,
            days: day_start..day_end,
            rng: SmallRng::seed_from_u64(seed ^ 0xa27f_ac75),
        }
    }
}

impl DayStepper for Artifacts {
    fn step(&mut self, out: &mut DayRows) -> bool {
        let Some(day) = self.days.next() else {
            return false;
        };
        let (config, rng) = (&self.config, &mut self.rng);
        // Every record of the day is clamped into the day, so the days in
        // turn are the whole stream's stable time sort.
        out.open_day(day);
        let t0 = day * DAY_MS;
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
                let dsts = mapped_machines(&self.deployment, src, day, config.mapped_machines);
                // Retries spread over the day.
                for dst in dsts {
                    let flow = out.flow(src, dst);
                    let base = t0 + rng.gen_range(0..4 * HOUR_MS);
                    for k in 0..config.retries_per_dst {
                        let ts = base + k * rng.gen_range(60_000u64..120_000);
                        let sport = rng.gen_range(1024..65535);
                        out.push(ts.min(t0 + DAY_MS - 1), flow, proto, sport, dport, len);
                    }
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deployment::DeploymentConfig;
    use lumen6_detect::{ArtifactFilter, ScanDetectorConfig};
    use lumen6_netmodel::InternetRegistry;

    /// The stream of `[day_start, day_end)`, every day expanded.
    fn generate(
        deployment: &Arc<CdnDeployment>,
        config: &ArtifactConfig,
        day_start: u64,
        day_end: u64,
        seed: u64,
    ) -> Vec<lumen6_trace::PacketRecord> {
        let deployment = Arc::clone(deployment);
        let mut stepper = Artifacts::new(deployment, config.clone(), day_start, day_end, seed);
        let (mut day, mut out) = (DayRows::default(), Vec::new());
        while stepper.step(&mut day) {
            out.extend(day.sorted().map(|(_, r)| r));
        }
        out
    }

    fn deployment() -> Arc<CdnDeployment> {
        let mut reg = InternetRegistry::new();
        Arc::new(CdnDeployment::build(&DeploymentConfig::tiny(), &mut reg, 1))
    }

    #[test]
    fn mapping_is_deterministic_and_bounded() {
        let dep = deployment();
        let a = mapped_machines(&dep, 42, 3, 8);
        let b = mapped_machines(&dep, 42, 3, 8);
        assert_eq!(a, b);
        assert!(!a.is_empty() && a.len() <= 8);
        assert!(a.iter().all(|&d| dep.is_telescope_addr(d)));
    }

    #[test]
    fn mapping_drifts_across_days() {
        let dep = deployment();
        let d3 = mapped_machines(&dep, 42, 3, 8);
        let d4 = mapped_machines(&dep, 42, 4, 8);
        assert_ne!(d3, d4);
    }

    #[test]
    fn generated_artifacts_hit_telescope_on_artifact_ports() {
        let dep = deployment();
        let recs = generate(&dep, &ArtifactConfig::default(), 0, 2, 7);
        assert!(!recs.is_empty());
        assert!(recs.iter().all(|r| dep.is_telescope_addr(r.dst)));
        assert!(recs.iter().all(|r| matches!(
            (r.proto, r.dport),
            (Transport::Tcp, 25) | (Transport::Udp, 500) | (Transport::Udp, 137)
        )));
        // Time-sorted and inside the window.
        assert!(recs.windows(2).all(|w| w[0].ts_ms <= w[1].ts_ms));
        assert!(recs.iter().all(|r| r.ts_ms < 2 * DAY_MS));
    }

    #[test]
    fn artifact_filter_removes_the_bulk() {
        let dep = deployment();
        let recs = generate(&dep, &ArtifactConfig::default(), 0, 2, 7);
        let (kept, report) = ArtifactFilter::default().filter(&recs);
        assert!(
            report.removed_fraction() > 0.9,
            "only {}% removed",
            report.removed_fraction() * 100.0
        );
        assert!(kept.len() < recs.len() / 10);
        // The dominant removed services are the paper's A.1 pair.
        let top: Vec<_> = report.top_services(2).iter().map(|(s, _)| *s).collect();
        assert!(top.contains(&(Transport::Udp, 500)) || top.contains(&(Transport::Tcp, 25)));
    }

    #[test]
    fn artifacts_do_not_register_as_large_scale_scans() {
        // Even WITHOUT the artifact filter, the fan-out of a single artifact
        // source (≈ mapped_machines) stays far below the 100-destination
        // scan threshold; with the filter, nothing remains at all.
        let dep = deployment();
        let recs = generate(&dep, &ArtifactConfig::default(), 0, 1, 7);
        let report = lumen6_detect::detector::detect(&recs, ScanDetectorConfig::default());
        assert_eq!(report.scans(), 0);
    }

    #[test]
    fn each_day_stays_in_its_window_so_the_stream_is_sorted() {
        // The per-day sort is the whole stream's stable sort only if no
        // record leaves the day it was generated for.
        let dep = deployment();
        let config = ArtifactConfig::default();
        for seed in [7, 1234] {
            for day in 3..9 {
                let recs = generate(&dep, &config, day, day + 1, seed);
                assert!(!recs.is_empty(), "seed {seed}: day {day} is empty");
                assert!(
                    recs.iter()
                        .all(|r| (day * DAY_MS..(day + 1) * DAY_MS).contains(&r.ts_ms)),
                    "seed {seed}: a record left day {day}"
                );
            }
            let recs = generate(&dep, &config, 3, 9, seed);
            assert!(recs.windows(2).all(|w| w[0].ts_ms <= w[1].ts_ms));
        }
    }

    #[test]
    fn empty_day_range_yields_nothing() {
        let dep = deployment();
        assert!(generate(&dep, &ArtifactConfig::default(), 5, 5, 7).is_empty());
    }
}
