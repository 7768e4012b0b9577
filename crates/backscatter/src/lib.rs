//! DNS-backscatter scan detection — the third vantage point.
//!
//! Fukuda & Heidemann ("Who Knocks at the IPv6 Door?", IMC 2018 — the
//! paper's reference \[12\]) detect IPv6 scanning *without* seeing the scan
//! traffic: when a scanner probes networks around the world, firewalls,
//! mail servers, and IDSes near the targets perform **reverse DNS (PTR)
//! lookups of the scanner's source address**. The authoritative name server
//! for the scanner's reverse zone therefore observes queries about that
//! address arriving from *many unrelated resolvers* — backscatter. A benign
//! host's address is looked up by the handful of resolvers belonging to
//! services it actually uses; a scanner's address is looked up by the whole
//! world.
//!
//! This crate provides both halves at simulation scale:
//!
//! - [`generate_backscatter`]: given the packet stream scanners emit toward
//!   their victims, produce the PTR-query stream an authority for the
//!   scanners' reverse zones would record (each victim network's resolver
//!   looks up a probing source with a configurable probability, with
//!   per-resolver caching). [`backscatter_queries`] draws it a packet at
//!   a time, so a stream need not be resident.
//! - [`BackscatterDetector`]: the querier-diversity classifier — an address
//!   (or covering prefix, aggregation matters here exactly as in §2.2 of
//!   the paper) whose PTR queries arrive from at least `min_queriers`
//!   distinct resolvers within the window is flagged as a scanner.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use lumen6_addr::Ipv6Prefix;
use lumen6_trace::PacketRecord;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::borrow::Borrow;
use std::collections::{HashMap, HashSet};

/// One PTR query observed at the scanners' reverse-zone authority.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PtrQuery {
    /// Query arrival time (ms since epoch).
    pub ts_ms: u64,
    /// The recursive resolver that asked.
    pub resolver: u128,
    /// The address being looked up (a scan source, usually).
    pub target: u128,
}

/// Backscatter generation parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BackscatterConfig {
    /// Probability that a probed network's middlebox performs a PTR lookup
    /// for a given unsolicited packet (before caching).
    pub lookup_probability: f64,
    /// Resolvers cache negative/positive PTR answers: repeat lookups of the
    /// same target by the same resolver within this window are suppressed.
    pub cache_ttl_ms: u64,
    /// Query latency added to the probe timestamp (fixed small delay).
    pub latency_ms: u64,
}

impl Default for BackscatterConfig {
    fn default() -> Self {
        BackscatterConfig {
            lookup_probability: 0.2,
            cache_ttl_ms: 3_600_000,
            latency_ms: 50,
        }
    }
}

/// Derives the resolver address responsible for a victim: one recursive
/// resolver per destination /64 (a site-level resolver — the /64 is the
/// universal subnet unit, so this is the finest realistic granularity).
fn resolver_of(dst: u128) -> u128 {
    // Stable, distinct, and visibly "a resolver": ::53 in the victim site.
    (Ipv6Prefix::new(dst, 64).bits()) | 0x53
}

/// The PTR-query stream for victim-side packets, drawn a packet at a time:
/// each packet arriving at a victim — each copy of a counted row — draws
/// once from the seeded RNG, then meets its resolver's cache, which holds
/// one entry per (resolver, target) however many packets arrive.
///
/// `records` is the traffic arriving at victims (e.g. the telescope trace);
/// the queries are what the *scanners'* reverse-zone authority sees, in
/// packet order.
pub fn backscatter_queries(
    records: impl IntoIterator<Item = impl Borrow<PacketRecord>>,
    config: &BackscatterConfig,
    seed: u64,
) -> impl Iterator<Item = PtrQuery> {
    let config = config.clone();
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xba55_ca77);
    // (resolver, target) -> expiry of the cached answer.
    let mut cache: HashMap<(u128, u128), u64> = HashMap::new();
    records.into_iter().filter_map(move |r| {
        let r = r.borrow();
        if !rng.gen_bool(config.lookup_probability) {
            return None;
        }
        let resolver = resolver_of(r.dst);
        match cache.get(&(resolver, r.src)) {
            Some(&expiry) if r.ts_ms < expiry => return None,
            _ => {}
        }
        cache.insert((resolver, r.src), r.ts_ms + config.cache_ttl_ms);
        Some(PtrQuery {
            ts_ms: r.ts_ms + config.latency_ms,
            resolver,
            target: r.src,
        })
    })
}

/// The [`backscatter_queries`] of a resident trace, time-sorted.
pub fn generate_backscatter(
    records: &[PacketRecord],
    config: &BackscatterConfig,
    seed: u64,
) -> Vec<PtrQuery> {
    let mut out: Vec<PtrQuery> = backscatter_queries(records, config, seed).collect();
    out.sort_by_key(|q| q.ts_ms);
    out
}

/// A backscatter-detected scanner.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BackscatterScanner {
    /// The flagged source prefix (at the detector's aggregation).
    pub source: Ipv6Prefix,
    /// Distinct resolvers that asked about it.
    pub queriers: u64,
    /// Total queries observed.
    pub queries: u64,
    /// First query time.
    pub first_ms: u64,
    /// Last query time.
    pub last_ms: u64,
}

/// Querier-diversity detector over PTR query streams.
///
/// ```
/// use lumen6_backscatter::{generate_backscatter, BackscatterConfig, BackscatterDetector};
/// use lumen6_trace::PacketRecord;
///
/// // A scanner probing 500 different victim sites...
/// let traffic: Vec<PacketRecord> = (0..500u64)
///     .map(|i| PacketRecord::tcp(i * 500, 0x2001, (i as u128) << 64 | 1, 1, 22, 60))
///     .collect();
/// // ...draws PTR lookups from hundreds of distinct resolvers.
/// let queries = generate_backscatter(&traffic, &BackscatterConfig::default(), 1);
/// let flagged = BackscatterDetector::default().detect(&queries);
/// assert_eq!(flagged.len(), 1);
/// assert!(flagged[0].queriers >= 20);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BackscatterDetector {
    /// Source aggregation applied to the queried address (the same /128 vs
    /// /64 question as for direct detection: a scanner rotating source
    /// addresses spreads its backscatter across the whole prefix).
    pub agg_len: u8,
    /// Minimum distinct resolvers to flag a source.
    pub min_queriers: u64,
}

impl Default for BackscatterDetector {
    fn default() -> Self {
        BackscatterDetector {
            agg_len: 64,
            min_queriers: 20,
        }
    }
}

impl BackscatterDetector {
    /// Runs detection over a query window — resident or streamed, each
    /// query seen once.
    pub fn detect(
        &self,
        queries: impl IntoIterator<Item = impl Borrow<PtrQuery>>,
    ) -> Vec<BackscatterScanner> {
        let mut per: HashMap<Ipv6Prefix, (HashSet<u128>, u64, u64, u64)> = HashMap::new();
        for q in queries {
            let q = q.borrow();
            let src = Ipv6Prefix::new(q.target, self.agg_len);
            let e = per
                .entry(src)
                .or_insert_with(|| (HashSet::new(), 0, q.ts_ms, q.ts_ms));
            e.0.insert(q.resolver);
            e.1 += 1;
            e.2 = e.2.min(q.ts_ms);
            e.3 = e.3.max(q.ts_ms);
        }
        let mut out: Vec<BackscatterScanner> = per
            .into_iter()
            .filter(|(_, (queriers, _, _, _))| queriers.len() as u64 >= self.min_queriers)
            .map(
                |(source, (queriers, queries, first, last))| BackscatterScanner {
                    source,
                    queriers: queriers.len() as u64,
                    queries,
                    first_ms: first,
                    last_ms: last,
                },
            )
            .collect();
        out.sort_by(|a, b| b.queriers.cmp(&a.queriers).then(a.source.cmp(&b.source)));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scanner probing many distinct victim /48s.
    fn scan_traffic(src: u128, victims: u64) -> Vec<PacketRecord> {
        (0..victims)
            .map(|i| PacketRecord::tcp(i * 500, src, (u128::from(i) << 80) | 1, 1, 22, 60))
            .collect()
    }

    /// A benign client talking repeatedly to two services.
    fn benign_traffic(src: u128) -> Vec<PacketRecord> {
        (0..200u64)
            .map(|i| PacketRecord::tcp(i * 700, src, (u128::from(i % 2) << 80) | 9, 1, 443, 60))
            .collect()
    }

    #[test]
    fn scanner_draws_many_queriers_benign_does_not() {
        let scanner = 0x2001_0db8_0000_0000_0000_0000_0000_0001u128;
        let benign = 0x2001_0db9_0000_0000_0000_0000_0000_0001u128;
        let mut traffic = scan_traffic(scanner, 500);
        traffic.extend(benign_traffic(benign));
        lumen6_trace::sort_by_time(&mut traffic);

        let queries = generate_backscatter(&traffic, &BackscatterConfig::default(), 1);
        assert!(!queries.is_empty());
        let detected = BackscatterDetector::default().detect(&queries);
        assert_eq!(detected.len(), 1, "{detected:?}");
        assert!(detected[0].source.contains_addr(scanner));
        assert!(detected[0].queriers >= 20);
    }

    #[test]
    fn caching_suppresses_repeat_lookups() {
        // One victim probed 1000 times: at most one query per resolver per
        // TTL window.
        let scanner = 1u128;
        let traffic: Vec<PacketRecord> = (0..1000u64)
            .map(|i| PacketRecord::tcp(i * 1000, scanner, 0xbeef, 1, 22, 60))
            .collect();
        let config = BackscatterConfig {
            lookup_probability: 1.0,
            cache_ttl_ms: 3_600_000,
            latency_ms: 0,
        };
        let queries = generate_backscatter(&traffic, &config, 2);
        // 1000 s of probes < 1 h TTL → exactly one query.
        assert_eq!(queries.len(), 1);
    }

    #[test]
    fn cache_expiry_allows_requery() {
        let scanner = 1u128;
        let traffic = vec![
            PacketRecord::tcp(0, scanner, 0xbeef, 1, 22, 60),
            PacketRecord::tcp(7_200_000, scanner, 0xbeef, 1, 22, 60),
        ];
        let config = BackscatterConfig {
            lookup_probability: 1.0,
            cache_ttl_ms: 3_600_000,
            latency_ms: 0,
        };
        assert_eq!(generate_backscatter(&traffic, &config, 3).len(), 2);
    }

    #[test]
    fn source_rotation_is_invisible_without_aggregation() {
        // The §2.2 lesson replayed at the DNS authority: a scanner rotating
        // /128s inside its /64 spreads its backscatter thin.
        let base = 0x2001_0db8_0000_0000_0000_0000_0000_0000u128;
        let traffic: Vec<PacketRecord> = (0..400u64)
            .map(|i| {
                PacketRecord::tcp(
                    i * 500,
                    base | u128::from(i),
                    (u128::from(i) << 80) | 1,
                    1,
                    22,
                    60,
                )
            })
            .collect();
        let config = BackscatterConfig {
            lookup_probability: 1.0,
            ..Default::default()
        };
        let queries = generate_backscatter(&traffic, &config, 4);
        let at128 = BackscatterDetector {
            agg_len: 128,
            min_queriers: 20,
        };
        assert!(at128.detect(&queries).is_empty(), "invisible per /128");
        let at64 = BackscatterDetector::default();
        let detected = at64.detect(&queries);
        assert_eq!(detected.len(), 1);
        assert_eq!(detected[0].source, Ipv6Prefix::new(base, 64));
        assert!(detected[0].queriers >= 300);
    }

    #[test]
    fn queries_are_time_sorted_with_latency() {
        let traffic = scan_traffic(7, 100);
        let queries = generate_backscatter(&traffic, &BackscatterConfig::default(), 5);
        assert!(queries.windows(2).all(|w| w[0].ts_ms <= w[1].ts_ms));
        assert!(
            queries.iter().all(|q| q.ts_ms % 500 == 50),
            "latency applied"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let traffic = scan_traffic(9, 300);
        let a = generate_backscatter(&traffic, &BackscatterConfig::default(), 7);
        let b = generate_backscatter(&traffic, &BackscatterConfig::default(), 7);
        assert_eq!(a, b);
        let c = generate_backscatter(&traffic, &BackscatterConfig::default(), 8);
        assert_ne!(a, c);
    }

    #[test]
    fn empty_traffic_empty_queries() {
        assert!(generate_backscatter(&[], &BackscatterConfig::default(), 1).is_empty());
        assert!(BackscatterDetector::default()
            .detect(std::iter::empty::<PtrQuery>())
            .is_empty());
    }

    #[test]
    fn fleet_scanners_visible_via_backscatter() {
        // End to end: the calibrated fleet's heavy scanners are detectable
        // from the DNS authority's viewpoint alone.
        let mut cfg = lumen6_scanners::FleetConfig::small();
        cfg.end_day = 7;
        let world = lumen6_scanners::World::build(cfg);
        let trace = world.cdn_trace();
        let queries = generate_backscatter(&trace, &BackscatterConfig::default(), 11);
        let detected = BackscatterDetector {
            agg_len: 64,
            min_queriers: 30,
        }
        .detect(&queries);
        assert!(!detected.is_empty());
        // The top backscatter source is one of the heavy fleet scanners.
        let top = &detected[0];
        let owner = world
            .fleet
            .truth
            .iter()
            .find(|t| t.prefix.contains(&top.source));
        assert!(
            owner.is_some(),
            "top backscatter source {top:?} is a fleet scanner"
        );
        assert!(owner.unwrap().rank <= 3);
    }
}
