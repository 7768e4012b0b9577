//! The Fig. 1 heatmap: per-source (destinations targeted × packets logged).
//!
//! Computed over *raw* firewall logs (before artifact filtering and scan
//! detection), grouped by source /64 — the paper's first-order view of who
//! contacts the telescope: a dense cluster of low-destination sources near
//! the origin, and a small number of sources targeting many destinations.

use lumen6_detect::AggLevel;
use lumen6_trace::PacketRecord;
use serde::{Deserialize, Serialize};
use std::borrow::Borrow;
use std::collections::{HashMap, HashSet};

/// Per-source raw statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SourcePoint {
    /// Distinct destination addresses contacted.
    pub dsts: u64,
    /// Packets logged.
    pub packets: u64,
}

/// Computes per-source statistics over a trace slice at the given
/// aggregation (Fig. 1 uses /64).
pub fn source_points(
    records: impl IntoIterator<Item = impl Borrow<PacketRecord>>,
    agg: AggLevel,
) -> Vec<SourcePoint> {
    let mut map: HashMap<u128, (HashSet<u128>, u64)> = HashMap::new();
    for r in records {
        let r = r.borrow();
        let s = agg.source_of(r.src).bits();
        let e = map.entry(s).or_default();
        e.0.insert(r.dst);
        e.1 += 1;
    }
    let mut v: Vec<SourcePoint> = map
        .into_values()
        .map(|(d, p)| SourcePoint {
            dsts: d.len() as u64,
            packets: p,
        })
        .collect();
    v.sort_by_key(|p| (p.dsts, p.packets));
    v
}

/// A log-log binned 2-D histogram of source points.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Heatmap {
    /// Number of bins per axis.
    pub bins: usize,
    /// `cells[y][x]` = number of sources in (packet-bin y, dst-bin x).
    pub cells: Vec<Vec<u64>>,
    /// Upper edge (inclusive) of each destination bin.
    pub dst_edges: Vec<u64>,
    /// Upper edge (inclusive) of each packet bin.
    pub pkt_edges: Vec<u64>,
    /// Total sources binned.
    pub sources: u64,
}

impl Heatmap {
    /// Builds a `bins × bins` log₂-binned heatmap.
    ///
    /// The edge sequence 1, 2, 4, … tops out at 65 strictly increasing
    /// values over `u64` (2⁰..2⁶³ plus a final `u64::MAX` catch-all), so
    /// `bins` is capped there — asking for more would only duplicate the
    /// saturated top edge and collapse every high bucket into one. The
    /// `bins` field of the result records the effective count.
    pub fn build(points: &[SourcePoint], bins: usize) -> Heatmap {
        assert!(bins >= 2, "need at least 2 bins");
        let bins = bins.min(65);
        let edges: Vec<u64> = (0..bins)
            .map(|i| if i < 64 { 1u64 << i } else { u64::MAX })
            .collect();
        let mut cells = vec![vec![0u64; bins]; bins];
        let bin_of = |v: u64| -> usize { edges.iter().position(|&e| v <= e).unwrap_or(bins - 1) };
        for p in points {
            cells[bin_of(p.packets)][bin_of(p.dsts.max(1))] += 1;
        }
        Heatmap {
            bins,
            cells,
            dst_edges: edges.clone(),
            pkt_edges: edges,
            sources: points.len() as u64,
        }
    }

    /// Sources in bins whose destination count is at most `dsts` and packet
    /// count at most `packets` — the "cluster near the origin" mass.
    pub fn mass_below(&self, dsts: u64, packets: u64) -> u64 {
        let dx = self
            .dst_edges
            .iter()
            .position(|&e| e >= dsts)
            .unwrap_or(self.bins - 1);
        let py = self
            .pkt_edges
            .iter()
            .position(|&e| e >= packets)
            .unwrap_or(self.bins - 1);
        self.cells[..=py]
            .iter()
            .map(|row| row[..=dx].iter().sum::<u64>())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(src: u128, dst: u128) -> PacketRecord {
        PacketRecord::tcp(0, src, dst, 1, 22, 60)
    }

    #[test]
    fn points_group_by_64() {
        let a: u128 = 1 << 64; // /64 A, two /128s
        let records = vec![
            rec(a | 1, 100),
            rec(a | 2, 100),
            rec(a | 2, 200),
            rec(2 << 64, 300), // /64 B
        ];
        let pts = source_points(&records, AggLevel::L64);
        assert_eq!(pts.len(), 2);
        assert_eq!(
            pts[0],
            SourcePoint {
                dsts: 1,
                packets: 1
            }
        );
        assert_eq!(
            pts[1],
            SourcePoint {
                dsts: 2,
                packets: 3
            }
        );
    }

    #[test]
    fn heatmap_bins_and_total() {
        let pts = vec![
            SourcePoint {
                dsts: 1,
                packets: 1,
            },
            SourcePoint {
                dsts: 1,
                packets: 2,
            },
            SourcePoint {
                dsts: 1000,
                packets: 100_000,
            },
        ];
        let h = Heatmap::build(&pts, 20);
        assert_eq!(h.sources, 3);
        let total: u64 = h.cells.iter().flatten().sum();
        assert_eq!(total, 3);
        // The two tiny sources sit at the origin.
        assert_eq!(h.mass_below(2, 2), 2);
        assert_eq!(h.mass_below(1 << 19, u64::MAX >> 1), 3);
    }

    #[test]
    fn origin_cluster_dominates_mixed_population() {
        // 95 tiny sources + 5 heavy scanners: the origin mass is ≥ 95%.
        let mut pts: Vec<SourcePoint> = (0..95)
            .map(|i| SourcePoint {
                dsts: 1 + i % 3,
                packets: 1 + i % 7,
            })
            .collect();
        pts.extend((0..5).map(|_| SourcePoint {
            dsts: 5_000,
            packets: 80_000,
        }));
        let h = Heatmap::build(&pts, 24);
        assert_eq!(h.mass_below(8, 8), 95);
    }

    #[test]
    fn zero_dst_clamped() {
        // Degenerate safety: a point with dsts = 0 (cannot occur from
        // source_points, but the API is total).
        let h = Heatmap::build(
            &[SourcePoint {
                dsts: 0,
                packets: 1,
            }],
            4,
        );
        assert_eq!(h.sources, 1);
    }

    #[test]
    #[should_panic(expected = "at least 2 bins")]
    fn one_bin_rejected() {
        Heatmap::build(&[], 1);
    }

    #[test]
    fn oversized_bin_count_caps_without_duplicate_edges() {
        // bins = 70 used to produce six duplicate u64::MAX edges (from
        // `2u64.saturating_pow(i)` for i >= 64), collapsing every
        // high-magnitude bucket into one. The edge sequence must be
        // strictly increasing and the huge point must land in its own top
        // bucket, distinct from a merely-large one.
        let pts = vec![
            SourcePoint {
                dsts: 1,
                packets: 1,
            },
            SourcePoint {
                dsts: 1 << 40,
                packets: 1 << 40,
            },
            SourcePoint {
                dsts: u64::MAX,
                packets: u64::MAX,
            },
        ];
        let h = Heatmap::build(&pts, 70);
        assert_eq!(h.bins, 65, "bins capped at the number of distinct edges");
        assert_eq!(h.dst_edges.len(), 65);
        assert!(
            h.dst_edges.windows(2).all(|w| w[0] < w[1]),
            "edges strictly increasing"
        );
        assert_eq!(*h.dst_edges.last().unwrap(), u64::MAX);
        let total: u64 = h.cells.iter().flatten().sum();
        assert_eq!(total, 3);
        // The 2^40-sized and u64::MAX-sized sources occupy different cells.
        assert_eq!(h.cells[40][40], 1);
        assert_eq!(h.cells[64][64], 1);
    }
}
