//! The adaptive-aggregation IDS (§5 discussion, implemented): resolve the
//! right aggregation level per actor instead of fixing a mask, and estimate
//! blocklisting collateral.
//!
//! Three adversarial workloads:
//! 1. a heavy single /128 — must alert as exactly that /128;
//! 2. an AS#18-style scanner spreading one-packet sources across a /32 —
//!    invisible at any fixed fine mask, must alert as the /32;
//! 3. a multi-tenant cloud /64 with two scanning tenants among hundreds of
//!    benign ones — must alert the two /128s, not the whole /64.
//!
//! ```sh
//! cargo run --release --example adaptive_ids
//! ```

use lumen6::detect::adaptive::{AdaptiveConfig, AdaptiveIds};
use lumen6::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn main() {
    let mut rng = SmallRng::seed_from_u64(7);
    let mut window: Vec<PacketRecord> = Vec::new();

    // 1. Heavy single host: 300 destinations.
    let heavy: u128 = "2001:db8:1::1"
        .parse::<std::net::Ipv6Addr>()
        .unwrap()
        .into();
    for i in 0..300u64 {
        window.push(PacketRecord::tcp(
            i * 10,
            heavy,
            0xa000 + u128::from(i),
            1,
            22,
            60,
        ));
    }

    // 2. /32-spread scanner: 800 one-packet sources across random /48s of
    // 2001:db9::/32.
    let spread: Ipv6Prefix = "2001:db9::/32".parse().unwrap();
    for i in 0..800u64 {
        let src = lumen6::addr::gen::random_in_prefix(&mut rng, spread);
        window.push(PacketRecord::tcp(
            100_000 + i * 5,
            src,
            0xb000 + u128::from(i),
            1,
            22,
            60,
        ));
    }

    // 3. Multi-tenant cloud /64: two scanning tenants + 300 benign hosts.
    let cloud: Ipv6Prefix = "2001:dba:0:1::/64".parse().unwrap();
    for (t, tenant) in [(0u64, cloud.bits() | 0x11), (1, cloud.bits() | 0x22)] {
        for i in 0..200u64 {
            window.push(PacketRecord::tcp(
                200_000 + t * 50_000 + i * 7,
                tenant,
                0xc000 + u128::from(t) * 0x1000 + u128::from(i),
                1,
                443,
                60,
            ));
        }
    }
    for i in 0..300u64 {
        let benign = cloud.bits() | (0x8000 + u128::from(i));
        window.push(PacketRecord::tcp(
            250_000 + i * 11,
            benign,
            0xdddd,
            1,
            80,
            120,
        ));
    }

    lumen6::trace::sort_by_time(&mut window);

    // One window of rows, each record a row of one copy.
    let rows = window.iter().map(|&r| (r, 1));
    let alerts = AdaptiveIds::new(AdaptiveConfig::default()).analyze_counted(rows);
    println!("{} alerts:\n", alerts.len());
    for a in &alerts {
        println!(
            "  {} (/{}) — {} packets, {} destinations, {} contributing sources",
            a.prefix,
            a.prefix.len(),
            a.packets,
            a.distinct_dsts,
            a.contributing_srcs
        );
        println!(
            "      collateral if blocklisted: {} low-activity sources{}",
            a.collateral_srcs,
            if a.subsumed.is_empty() {
                String::new()
            } else {
                format!("; subsumed finer alerts: {}", a.subsumed.len())
            }
        );
    }

    // The headline checks.
    assert!(alerts
        .iter()
        .any(|a| a.prefix.len() == 128 && a.prefix.bits() == heavy));
    assert!(alerts.iter().any(|a| a.prefix == spread));
    let cloud_alerts: Vec<_> = alerts
        .iter()
        .filter(|a| cloud.contains(&a.prefix))
        .collect();
    assert_eq!(cloud_alerts.len(), 2, "tenants alert individually");
    assert!(cloud_alerts
        .iter()
        .all(|a| a.prefix.len() == 128 && a.collateral_srcs == 0));
    println!("\nall three workloads resolved at the right aggregation level ✓");
}
