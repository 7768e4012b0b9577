//! Strategy-shift detection in a scanner's behavior over time.
//!
//! The paper observes AS#1 "changes strategy and only TCP ports 22, 3389,
//! 8080, and 8443 are seen starting in May 2021" — a change point in the
//! per-day targeted-port sets. This module detects such shifts generically:
//! given one set of targeted services per time bucket, it finds the split
//! that minimizes within-segment diversity, scored by the Jaccard
//! similarity of each bucket's set to its segment's union.

use lumen6_trace::Transport;
use serde::{Deserialize, Serialize};
use std::borrow::Borrow;
use std::collections::BTreeSet;

/// A detected change point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PortShift {
    /// First bucket of the new regime.
    pub bucket: usize,
    /// Mean within-segment Jaccard before the shift.
    pub before_coherence: f64,
    /// Mean within-segment Jaccard after the shift.
    pub after_coherence: f64,
    /// Jaccard similarity between the two regimes' port unions — low means
    /// a genuine strategy change, not a gradual drift.
    pub cross_similarity: f64,
    /// Size of the pre-shift port union.
    pub ports_before: usize,
    /// Size of the post-shift port union.
    pub ports_after: usize,
}

type Service = (Transport, u16);

fn jaccard(a: &BTreeSet<Service>, b: &BTreeSet<Service>) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    let inter = a.intersection(b).count();
    let union = a.len() + b.len() - inter;
    inter as f64 / union as f64
}

fn segment_score(buckets: &[BTreeSet<Service>]) -> (f64, BTreeSet<Service>) {
    let mut union = BTreeSet::new();
    for b in buckets {
        union.extend(b.iter().copied());
    }
    if buckets.is_empty() {
        return (1.0, union);
    }
    let score = buckets.iter().map(|b| jaccard(b, &union)).sum::<f64>() / buckets.len() as f64;
    (score, union)
}

/// Finds the best single change point in a sequence of per-bucket service
/// sets. Returns `None` when fewer than `2 * min_segment` non-empty buckets
/// exist or when no split separates the regimes (cross-similarity above
/// `max_cross_similarity`).
pub fn detect_port_shift(
    buckets: &[BTreeSet<Service>],
    min_segment: usize,
    max_cross_similarity: f64,
) -> Option<PortShift> {
    let min_segment = min_segment.max(1);
    if buckets.len() < 2 * min_segment {
        return None;
    }
    let mut best: Option<PortShift> = None;
    for split in min_segment..=(buckets.len() - min_segment) {
        let (before_score, before_union) = segment_score(&buckets[..split]);
        let (after_score, after_union) = segment_score(&buckets[split..]);
        let cross = jaccard(&before_union, &after_union);
        let quality = before_score + after_score - 2.0 * cross;
        let candidate = PortShift {
            bucket: split,
            before_coherence: before_score,
            after_coherence: after_score,
            cross_similarity: cross,
            ports_before: before_union.len(),
            ports_after: after_union.len(),
        };
        let better = match &best {
            None => true,
            Some(b) => quality > b.before_coherence + b.after_coherence - 2.0 * b.cross_similarity,
        };
        if better {
            best = Some(candidate);
        }
    }
    best.filter(|b| b.cross_similarity <= max_cross_similarity)
}

/// Convenience: builds per-bucket service sets for one source from raw
/// records (bucket = `width_ms` windows from the epoch).
pub fn service_sets_per_bucket(
    records: impl IntoIterator<Item = impl Borrow<lumen6_trace::PacketRecord>>,
    source: lumen6_addr::Ipv6Prefix,
    width_ms: u64,
    n_buckets: usize,
) -> Vec<BTreeSet<Service>> {
    let mut out = vec![BTreeSet::new(); n_buckets];
    for r in records {
        let r = r.borrow();
        if source.contains_addr(r.src) {
            let b = (r.ts_ms / width_ms) as usize;
            if b < n_buckets {
                out[b].insert((r.proto, r.dport));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(ports: &[u16]) -> BTreeSet<Service> {
        ports.iter().map(|&p| (Transport::Tcp, p)).collect()
    }

    #[test]
    fn clean_switch_detected_at_the_right_bucket() {
        // 10 buckets of a wide port set, then 10 of {22, 3389, 8080, 8443}.
        let wide: Vec<u16> = (1..=200).collect();
        let mut buckets: Vec<BTreeSet<Service>> = (0..10).map(|_| set(&wide)).collect();
        buckets.extend((0..10).map(|_| set(&[22, 3389, 8080, 8443])));
        let shift = detect_port_shift(&buckets, 3, 0.5).expect("shift found");
        assert_eq!(shift.bucket, 10);
        assert!(shift.before_coherence > 0.99);
        assert!(shift.after_coherence > 0.99);
        assert!(shift.cross_similarity < 0.05);
        assert_eq!(shift.ports_before, 200);
        assert_eq!(shift.ports_after, 4);
    }

    #[test]
    fn stable_behavior_yields_no_shift() {
        let buckets: Vec<BTreeSet<Service>> = (0..20).map(|_| set(&[22, 80, 443])).collect();
        assert!(detect_port_shift(&buckets, 3, 0.5).is_none());
    }

    #[test]
    fn noisy_switch_still_found() {
        // Daily port samples: subsets of the regime's pool.
        let wide: Vec<u16> = (1..=100).collect();
        let narrow = [22u16, 3389, 8080, 8443];
        let mut buckets = Vec::new();
        for d in 0..12 {
            let sample: Vec<u16> = wide.iter().copied().skip(d % 5).step_by(2).collect();
            buckets.push(set(&sample));
        }
        for d in 0..12 {
            let sample: Vec<u16> = narrow.iter().copied().skip(d % 2).collect();
            buckets.push(set(&sample));
        }
        let shift = detect_port_shift(&buckets, 4, 0.5).expect("shift found");
        assert!((10..=14).contains(&shift.bucket), "bucket {}", shift.bucket);
        assert!(shift.ports_after <= 4);
    }

    #[test]
    fn too_few_buckets_is_none() {
        let buckets: Vec<BTreeSet<Service>> = (0..5).map(|_| set(&[22])).collect();
        assert!(detect_port_shift(&buckets, 3, 0.9).is_none());
    }

    #[test]
    fn service_sets_builder_buckets_by_time_and_source() {
        let src: lumen6_addr::Ipv6Prefix = "2001:db8::/64".parse().unwrap();
        let records = vec![
            lumen6_trace::PacketRecord::tcp(10, src.bits() | 1, 1, 1, 22, 60),
            lumen6_trace::PacketRecord::tcp(1_010, src.bits() | 2, 1, 1, 80, 60),
            lumen6_trace::PacketRecord::tcp(1_020, 0xffff, 1, 1, 443, 60), // other source
            lumen6_trace::PacketRecord::tcp(9_999_999, src.bits() | 1, 1, 1, 23, 60), // out of range
        ];
        let sets = service_sets_per_bucket(&records, src, 1_000, 3);
        assert_eq!(sets[0], set(&[22]));
        assert_eq!(sets[1], set(&[80]));
        assert!(sets[2].is_empty());
    }
}
