//! The public-trace cross-check (§4): per-day detection over a MAWI-style
//! transit vantage with the extended Fukuda–Heidemann definition, plus the
//! Hamming-weight view of scanner target generation.
//!
//! The trace is never held: the world's source is drained a closed capture
//! window at a time, and each window is grouped once and read at both
//! destination thresholds.
//!
//! ```sh
//! cargo run --release --example mawi_detect
//! ```

use lumen6::addr::HammingDistribution;
use lumen6::detect::{AggLevel, MawiConfig as FhConfig, MawiDetector, MawiScan};
use lumen6::mawi::{each_window, MawiConfig, MawiWorld};

fn main() {
    let config = MawiConfig::small();
    let days = config.end_day;
    let world = MawiWorld::build(config, None);
    let detector = |min_dsts| {
        MawiDetector::new(FhConfig {
            agg: AggLevel::L64,
            min_dsts,
            ..Default::default()
        })
    };

    // Detection per daily window, both destination thresholds; and the
    // targets of the structured AS#1 sweep and the random-IID Dec-24 peak.
    let thresholds = [100u64, 5];
    let (mut daily, mut icmp_days) = ([Vec::new(), Vec::new()], [0; 2]);
    let (mut packets, mut as1_targets, mut dec24_targets) = (0, Vec::new(), Vec::new());
    each_window(&mut world.source(), |_, window| {
        packets += window.len();
        let rows = (0..window.rows()).map(|i| (window.get(i), window.count(i)));
        let groups = detector(0).group(rows);
        for (k, &min_dsts) in thresholds.iter().enumerate() {
            let scans = detector(min_dsts).scans(&groups);
            icmp_days[k] += usize::from(scans.iter().any(MawiScan::is_icmpv6));
            daily[k].push(scans.len());
        }
        for r in window.iter() {
            if r.src == world.as1_source {
                as1_targets.push(r.dst);
            } else if r.src == world.dec24_source {
                dec24_targets.push(r.dst);
            }
        }
    })
    .expect("generation cannot fail");

    println!("MAWI-style trace: {packets} packets over {days} daily 15-minute windows");
    for (k, min_dsts) in thresholds.into_iter().enumerate() {
        daily[k].sort_unstable();
        println!(
            "min {min_dsts:>3} destinations: median {} scan sources/day (ICMPv6 on {} days)",
            daily[k][daily[k].len() / 2],
            icmp_days[k]
        );
    }

    // Target-generation fingerprinting: structured (low Hamming weight)
    // sweeps vs the random-IID scanner.
    let structured = HammingDistribution::from_addrs(as1_targets);
    println!(
        "\nAS#1 targets: mean IID Hamming weight {:.1} -> {}",
        structured.mean(),
        if structured.looks_random() {
            "random"
        } else {
            "structured (hitlist-like)"
        }
    );

    let dec24 = lumen6::trace::SimTime::from_date(2021, 12, 24);
    if dec24.day_index() < days {
        let random = HammingDistribution::from_addrs(dec24_targets);
        println!(
            "Dec-24 scanner: mean IID Hamming weight {:.1} -> {}",
            random.mean(),
            if random.looks_random() {
                "random (Gaussian)"
            } else {
                "structured"
            }
        );
    }
}
