//! Scan-traffic concentration: top-k source packet shares (Fig. 3, Fig. 6).

use crate::series::Bucket;
use lumen6_addr::Ipv6Prefix;
use lumen6_detect::event::ScanReport;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Overall top-k share: fraction of all scan packets contributed by the k
/// most active sources across the entire report (the paper: top-2 ≈ 70%).
pub fn overall_topk_share(report: &ScanReport, k: usize) -> f64 {
    let by_source = report.packets_by_source();
    let total: u64 = by_source.iter().map(|(_, n)| n).sum();
    let top: u64 = by_source.iter().take(k).map(|(_, n)| n).sum();
    crate::stats::share(top, total)
}

/// Per-bucket top-k share and the identity of the top source.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BucketShare {
    /// Bucket index.
    pub bucket: u64,
    /// Packets in the bucket.
    pub packets: f64,
    /// Fraction contributed by the top-k sources of *this bucket*.
    pub topk_share: f64,
    /// The single most active source of the bucket, if any.
    pub top_source: Option<Ipv6Prefix>,
}

/// Computes per-bucket top-k shares. The top sources are re-ranked per
/// bucket (the paper notes the weekly #1 and #2 are not always the same
/// entities). Packets of events spanning buckets are split proportionally.
pub fn per_bucket_topk(
    report: &ScanReport,
    bucket: Bucket,
    n_buckets: u64,
    k: usize,
) -> Vec<BucketShare> {
    let w = bucket.width_ms();
    let mut per: Vec<HashMap<Ipv6Prefix, f64>> = vec![HashMap::new(); n_buckets as usize];
    for e in &report.events {
        let first = (e.start_ms / w).min(n_buckets.saturating_sub(1));
        let last = (e.end_ms / w).min(n_buckets.saturating_sub(1));
        let duration = (e.end_ms - e.start_ms) as f64;
        for b in first..=last {
            let frac = if duration == 0.0 {
                if b == first {
                    1.0
                } else {
                    0.0
                }
            } else {
                let lo = (b * w).max(e.start_ms);
                let hi = ((b + 1) * w).min(e.end_ms);
                hi.saturating_sub(lo) as f64 / duration
            };
            if frac > 0.0 {
                *per[b as usize].entry(e.source).or_default() += e.packets as f64 * frac;
            }
        }
    }
    per.into_iter()
        .enumerate()
        .map(|(b, m)| {
            let mut v: Vec<(Ipv6Prefix, f64)> = m.into_iter().collect();
            v.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
            let total: f64 = v.iter().map(|(_, n)| n).sum();
            let top: f64 = v.iter().take(k).map(|(_, n)| n).sum();
            BucketShare {
                bucket: b as u64,
                packets: total,
                topk_share: if total > 0.0 { top / total } else { 0.0 },
                top_source: v.first().map(|(s, _)| *s),
            }
        })
        .collect()
}

/// Mean of the per-bucket top-k share over buckets with traffic (the paper:
/// weekly top-2 averages 92%).
pub fn mean_topk_share(shares: &[BucketShare]) -> f64 {
    let active: Vec<&BucketShare> = shares.iter().filter(|s| s.packets > 0.0).collect();
    if active.is_empty() {
        return 0.0;
    }
    active.iter().map(|s| s.topk_share).sum::<f64>() / active.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use lumen6_detect::event::ScanEvent;
    use lumen6_detect::AggLevel;
    use lumen6_trace::{Transport, WEEK_MS};

    fn ev(src: &str, start: u64, end: u64, packets: u64) -> ScanEvent {
        ScanEvent {
            source: src.parse().unwrap(),
            agg: AggLevel::L64,
            start_ms: start,
            end_ms: end,
            packets,
            distinct_dsts: 100,
            distinct_srcs: 1,
            ports: vec![((Transport::Tcp, 22), packets)],
            dsts: None,
        }
    }

    #[test]
    fn overall_share() {
        let r = ScanReport::new(vec![
            ev("2001:db8::/64", 0, 10, 700),
            ev("2001:db8:1::/64", 0, 10, 200),
            ev("2001:db8:2::/64", 0, 10, 100),
        ]);
        assert!((overall_topk_share(&r, 1) - 0.7).abs() < 1e-12);
        assert!((overall_topk_share(&r, 2) - 0.9).abs() < 1e-12);
        assert_eq!(overall_topk_share(&r, 10), 1.0);
    }

    #[test]
    fn empty_report_zero_share() {
        let r = ScanReport::default();
        assert_eq!(overall_topk_share(&r, 2), 0.0);
    }

    #[test]
    fn zero_duration_events_do_not_panic_the_ranking() {
        // Single-burst scans (start == end) exercise the duration-zero
        // split path; with several tied sources the per-bucket sort must
        // stay total (the old `partial_cmp().unwrap()` panicked on any
        // non-finite packet value reaching it).
        let r = ScanReport::new(vec![
            ev("2001:db8::/64", 1000, 1000, 0),
            ev("2001:db8:1::/64", 1000, 1000, 0),
            ev("2001:db8:2::/64", 1000, 1000, 50),
        ]);
        let shares = per_bucket_topk(&r, Bucket::Weekly, 2, 1);
        assert_eq!(shares.len(), 2);
        assert_eq!(shares[0].top_source.unwrap().to_string(), "2001:db8:2::/64");
        assert_eq!(shares[1].packets, 0.0);
    }

    #[test]
    fn per_bucket_reranks_top_source() {
        // Week 0: A dominates. Week 1: B dominates.
        let r = ScanReport::new(vec![
            ev("2001:db8::/64", 0, 1000, 900),
            ev("2001:db8:1::/64", 500, 1500, 100),
            ev("2001:db8::/64", WEEK_MS + 10, WEEK_MS + 20, 50),
            ev("2001:db8:1::/64", WEEK_MS + 10, WEEK_MS + 20, 800),
        ]);
        let shares = per_bucket_topk(&r, Bucket::Weekly, 2, 1);
        assert_eq!(shares[0].top_source.unwrap().to_string(), "2001:db8::/64");
        assert_eq!(shares[1].top_source.unwrap().to_string(), "2001:db8:1::/64");
        assert!(shares[0].topk_share > 0.85);
        assert!(shares[1].topk_share > 0.90);
    }

    #[test]
    fn mean_share_ignores_empty_buckets() {
        let r = ScanReport::new(vec![ev("2001:db8::/64", 0, 1000, 100)]);
        let shares = per_bucket_topk(&r, Bucket::Weekly, 10, 1);
        assert_eq!(mean_topk_share(&shares), 1.0);
    }

    #[test]
    fn per_bucket_packet_totals_match_series() {
        let r = ScanReport::new(vec![
            ev("2001:db8::/64", 0, 2 * WEEK_MS, 100),
            ev("2001:db8:1::/64", 10, 20, 40),
        ]);
        let shares = per_bucket_topk(&r, Bucket::Weekly, 3, 2);
        let total: f64 = shares.iter().map(|s| s.packets).sum();
        assert!((total - 140.0).abs() < 1e-9);
    }
}
