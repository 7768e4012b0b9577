//! Low-volume background noise sources.
//!
//! The dense cluster near the origin of the paper's Fig. 1 heatmap: the
//! majority of source /64s contact very few destinations with very few
//! packets and are neither scans nor repetitive-enough artifacts — stray
//! unsolicited traffic. This generator mints ephemeral sources that send a
//! handful of packets to one or a few telescope addresses and disappear.

use lumen6_trace::{DayRows, DayStepper, Transport, DAY_MS};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::ops::Range;
use std::sync::Arc;

/// `sources_per_day` ephemeral noise sources for each day of `[day_start,
/// day_end)`, targeting addresses drawn from the telescope's, a day at a
/// time in stable time order: a flow per drawn destination, its packets as
/// rows.
#[derive(Debug, Clone)]
pub struct Noise {
    telescope_addrs: Arc<[u128]>,
    sources_per_day: usize,
    days: Range<u64>,
    rng: SmallRng,
}

impl Noise {
    /// The stream's recipe: it has drawn nothing yet.
    pub fn new(
        telescope_addrs: Arc<[u128]>,
        sources_per_day: usize,
        day_start: u64,
        day_end: u64,
        seed: u64,
    ) -> Noise {
        assert!(!telescope_addrs.is_empty(), "need telescope addresses");
        Noise {
            telescope_addrs,
            sources_per_day,
            days: day_start..day_end,
            rng: SmallRng::seed_from_u64(seed ^ 0x0153_e5e5),
        }
    }
}

impl DayStepper for Noise {
    fn step(&mut self, out: &mut DayRows) -> bool {
        let Some(day) = self.days.next() else {
            return false;
        };
        let (telescope_addrs, rng) = (&self.telescope_addrs, &mut self.rng);
        // A source starts at least an hour before midnight and sends for at
        // most 19 minutes, so the day's records stay in the day: the days
        // in turn are the whole stream's stable time sort.
        out.open_day(day);
        for _ in 0..self.sources_per_day {
            // Random source /64 anywhere in 2000::/3-ish space.
            let net64: u64 = 0x2000_0000_0000_0000 | (rng.gen::<u64>() >> 3);
            let src = ((net64 as u128) << 64) | u128::from(rng.gen::<u64>());
            let n_dsts = rng.gen_range(1..=5usize);
            let flows: Vec<u32> = (0..n_dsts)
                .map(|_| {
                    let dst = telescope_addrs[rng.gen_range(0..telescope_addrs.len())];
                    out.flow(src, dst)
                })
                .collect();
            let packets = rng.gen_range(1..=20u64);
            let t0 = day * DAY_MS + rng.gen_range(0..DAY_MS - 3_600_000);
            for k in 0..packets {
                let flow = flows[rng.gen_range(0..flows.len())];
                let proto = if rng.gen_bool(0.7) {
                    Transport::Tcp
                } else {
                    Transport::Udp
                };
                let ts = t0 + k * rng.gen_range(1_000u64..60_000);
                let sport = rng.gen_range(1024..65000);
                let dport =
                    [53u16, 123, 161, 1900, 5060, 6881, 3074, 27015][rng.gen_range(0usize..8)];
                out.push(ts, flow, proto, sport, dport, rng.gen_range(40..1400));
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lumen6_trace::PacketRecord;

    /// The stream of `[day_start, day_end)`, every day expanded.
    fn generate(
        telescope_addrs: &[u128],
        sources_per_day: usize,
        day_start: u64,
        day_end: u64,
        seed: u64,
    ) -> Vec<PacketRecord> {
        let addrs = telescope_addrs.into();
        let mut stepper = Noise::new(addrs, sources_per_day, day_start, day_end, seed);
        let (mut day, mut out) = (DayRows::default(), Vec::new());
        while stepper.step(&mut day) {
            out.extend(day.sorted().map(|(_, r)| r));
        }
        out
    }

    #[test]
    fn noise_is_low_volume_per_source() {
        let telescope: Vec<u128> = (1..=100u128).map(|i| i << 16).collect();
        let recs = generate(&telescope, 30, 0, 3, 11);
        assert!(!recs.is_empty());
        // Group by source: every source touches ≤ 5 destinations.
        let mut per_src: std::collections::HashMap<u128, std::collections::HashSet<u128>> =
            Default::default();
        for r in &recs {
            per_src.entry(r.src).or_default().insert(r.dst);
        }
        assert_eq!(per_src.len(), 90, "one entry per minted source");
        assert!(per_src.values().all(|d| d.len() <= 5));
        assert!(recs.windows(2).all(|w| w[0].ts_ms <= w[1].ts_ms));
    }

    #[test]
    fn noise_never_qualifies_as_scan() {
        let telescope: Vec<u128> = (1..=500u128).map(|i| i << 16).collect();
        let recs = generate(&telescope, 50, 0, 5, 7);
        let report =
            lumen6_detect::detector::detect(&recs, lumen6_detect::ScanDetectorConfig::default());
        assert_eq!(report.scans(), 0);
    }

    #[test]
    fn each_day_stays_in_its_window_so_the_stream_is_sorted() {
        // The per-day sort is the whole stream's stable sort only if no
        // record leaves the day it was generated for.
        let telescope: Vec<u128> = (1..=100u128).map(|i| i << 16).collect();
        for seed in [11, 4242] {
            for day in 2..8 {
                let recs = generate(&telescope, 200, day, day + 1, seed);
                assert!(!recs.is_empty(), "seed {seed}: day {day} is empty");
                assert!(
                    recs.iter()
                        .all(|r| (day * DAY_MS..(day + 1) * DAY_MS).contains(&r.ts_ms)),
                    "seed {seed}: a record left day {day}"
                );
            }
            let recs = generate(&telescope, 200, 2, 8, seed);
            assert!(recs.windows(2).all(|w| w[0].ts_ms <= w[1].ts_ms));
        }
    }

    #[test]
    fn deterministic() {
        let telescope: Vec<u128> = (1..=10u128).collect();
        assert_eq!(
            generate(&telescope, 5, 0, 2, 3),
            generate(&telescope, 5, 0, 2, 3)
        );
    }

    #[test]
    #[should_panic(expected = "telescope addresses")]
    fn empty_telescope_panics() {
        generate(&[], 1, 0, 1, 0);
    }
}
