//! Background cross-traffic at the transit link.
//!
//! Real traffic the Fukuda–Heidemann criteria must reject: flows exchange
//! many packets with the *same* destination (tripping the
//! packets-per-destination cap) and variable packet lengths (tripping the
//! entropy criterion), even when a busy server contacts over 100 clients.

use crate::capture_window;
use lumen6_addr::{gen, Ipv6Prefix};
use lumen6_trace::{DayRows, DayStepper, Transport};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::ops::Range;

/// Background flows inside each day's capture window, a day at a time in
/// stable time order: a flow per (remote, local) pair, its packets as rows.
///
/// `flows_per_day` flows each exchange 5–40 packets of varying length
/// between a remote host and a downstream host. A few "busy servers" also
/// appear, touching >100 destinations — with high length entropy, so the
/// detector must still reject them.
#[derive(Debug, Clone)]
pub struct Background {
    downstream: Vec<Ipv6Prefix>,
    flows_per_day: usize,
    days: Range<u64>,
    rng: SmallRng,
}

impl Background {
    /// The stream's recipe: it has drawn nothing yet.
    pub fn new(
        downstream: Vec<Ipv6Prefix>,
        flows_per_day: usize,
        start_day: u64,
        end_day: u64,
        seed: u64,
    ) -> Background {
        assert!(!downstream.is_empty(), "need downstream prefixes");
        Background {
            downstream,
            flows_per_day,
            days: start_day..end_day,
            rng: SmallRng::seed_from_u64(seed ^ 0xbac0),
        }
    }
}

impl DayStepper for Background {
    fn step(&mut self, out: &mut DayRows) -> bool {
        let Some(day) = self.days.next() else {
            return false;
        };
        let (downstream, rng) = (&self.downstream, &mut self.rng);
        // Every record is clamped into the day's capture window, so the
        // days in turn are the whole stream's stable time sort.
        out.open_day(day);
        let (ws, we) = capture_window(day);
        // Ordinary flows.
        for _ in 0..self.flows_per_day {
            let p = downstream[rng.gen_range(0..downstream.len())];
            let local = gen::random_in_prefix(rng, p);
            let remote_net: u64 = 0x2400_0000_0000_0000 | (rng.gen::<u64>() >> 8);
            let remote = gen::random_iid(rng, remote_net);
            let flow = out.flow(remote, local);
            let dport = [443u16, 80, 53, 8443, 993][rng.gen_range(0usize..5)];
            let n = rng.gen_range(5..40u64);
            let t0 = rng.gen_range(ws..we - 1);
            for k in 0..n {
                let ts = (t0 + k * rng.gen_range(5u64..2_000)).min(we - 1);
                let sport = rng.gen_range(1024..65000);
                out.push(
                    ts,
                    flow,
                    Transport::Tcp,
                    sport,
                    dport,
                    rng.gen_range(40..1500),
                );
            }
        }
        // A couple of busy remote servers touching many destinations with
        // high length variance (e.g. a node pushing data to many clients).
        // The second one keeps a FIXED destination port: it satisfies every
        // Fukuda–Heidemann criterion except length entropy, which is the
        // only thing standing between it and a false positive.
        for fixed_port in [false, true] {
            let remote_net: u64 = 0x2400_0000_0000_0000 | (rng.gen::<u64>() >> 8);
            let remote = gen::random_iid(rng, remote_net);
            let p = downstream[rng.gen_range(0..downstream.len())];
            let t0 = rng.gen_range(ws..we - 1);
            for k in 0..150u64 {
                let local = gen::random_in_prefix(rng, p);
                let flow = out.flow(remote, local);
                let ts = (t0 + k * rng.gen_range(5u64..500)).min(we - 1);
                let dport = if fixed_port {
                    4500
                } else {
                    rng.gen_range(1024..65000)
                };
                out.push(
                    ts,
                    flow,
                    Transport::Tcp,
                    443,
                    dport,
                    rng.gen_range(40..1500),
                );
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lumen6_detect::{AggLevel, MawiConfig, MawiDetector};

    /// The stream of `[start_day, end_day)`, every day expanded.
    fn generate(
        downstream: &[Ipv6Prefix],
        flows_per_day: usize,
        start_day: u64,
        end_day: u64,
        seed: u64,
    ) -> Vec<lumen6_trace::PacketRecord> {
        let downstream = downstream.to_vec();
        let mut stepper = Background::new(downstream, flows_per_day, start_day, end_day, seed);
        let (mut day, mut out) = (DayRows::default(), Vec::new());
        while stepper.step(&mut day) {
            out.extend(day.sorted().map(|(_, r)| r));
        }
        out
    }

    fn downstream() -> Vec<Ipv6Prefix> {
        vec!["2001:db8::/32".parse().unwrap()]
    }

    #[test]
    fn background_stays_in_windows() {
        let recs = generate(&downstream(), 20, 0, 3, 5);
        assert!(!recs.is_empty());
        for r in &recs {
            let day = r.ts_ms / lumen6_trace::DAY_MS;
            let (s, e) = capture_window(day);
            assert!(r.ts_ms >= s && r.ts_ms < e);
        }
    }

    #[test]
    fn background_is_rejected_by_the_detector() {
        let recs = generate(&downstream(), 60, 0, 2, 5);
        for day in 0..2 {
            let (s, e) = capture_window(day);
            let at = |t: u64| recs.partition_point(|r| r.ts_ms < t);
            let day = &recs[at(s)..at(e)];
            let scans = MawiDetector::new(MawiConfig::loose(AggLevel::L64)).detect(day);
            assert!(
                scans.is_empty(),
                "background must not register as scans: {scans:?}"
            );
        }
    }

    #[test]
    fn deterministic() {
        assert_eq!(
            generate(&downstream(), 10, 0, 2, 9),
            generate(&downstream(), 10, 0, 2, 9)
        );
    }
}
