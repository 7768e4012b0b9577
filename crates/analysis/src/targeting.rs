//! Targeted-address analysis (§3.3): which probed addresses exist in DNS,
//! and whether not-in-DNS targets were preceded by a nearby in-DNS probe.

use lumen6_addr::Ipv6Prefix;
use lumen6_detect::event::ScanReport;
use lumen6_detect::AggLevel;
use lumen6_trace::PacketRecord;
use serde::{Deserialize, Serialize};
use std::borrow::Borrow;
use std::collections::{HashMap, HashSet};

/// Per-source in-DNS / not-in-DNS target counts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SourceDns {
    /// The scan source.
    pub source: Ipv6Prefix,
    /// Distinct probed addresses present in DNS.
    pub in_dns: u64,
    /// Distinct probed addresses not present in DNS.
    pub not_in_dns: u64,
}

impl SourceDns {
    /// Fraction of this source's targets that are *not* in DNS.
    pub fn not_in_dns_frac(&self) -> f64 {
        crate::stats::share(self.not_in_dns, self.in_dns + self.not_in_dns)
    }

    /// Total distinct targets.
    pub fn total(&self) -> u64 {
        self.in_dns + self.not_in_dns
    }
}

/// Computes per-source DNS breakdowns from a report whose events retained
/// destination sets (`keep_dsts`). Events without destination sets are
/// skipped.
pub fn dns_breakdown<F>(report: &ScanReport, is_in_dns: F) -> Vec<SourceDns>
where
    F: Fn(u128) -> bool,
{
    let mut per: HashMap<Ipv6Prefix, (HashSet<u128>, HashSet<u128>)> = HashMap::new();
    for e in &report.events {
        let Some(dsts) = e.dsts.as_ref() else {
            continue;
        };
        let entry = per.entry(e.source).or_default();
        for &d in dsts {
            if is_in_dns(d) {
                entry.0.insert(d);
            } else {
                entry.1.insert(d);
            }
        }
    }
    let mut v: Vec<SourceDns> = per
        .into_iter()
        .map(|(source, (dns, not))| SourceDns {
            source,
            in_dns: dns.len() as u64,
            not_in_dns: not.len() as u64,
        })
        .collect();
    v.sort_by_key(|s| s.source);
    v
}

/// Summary of the §3.3 findings over per-source breakdowns.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DnsSummary {
    /// Number of sources analyzed.
    pub sources: usize,
    /// Fraction of sources whose targets are *all* in DNS (paper: 75%).
    pub all_in_dns_frac: f64,
    /// Fraction of sources with ≥ 33% not-in-DNS targets (paper: 10%).
    pub heavy_not_in_dns_frac: f64,
    /// Spearman-style sign: do larger scans have a higher not-in-DNS
    /// fraction? Positive means yes (the paper's observation).
    pub size_vs_hidden_correlation: f64,
}

/// Summarizes breakdowns.
pub fn summarize_dns(breakdowns: &[SourceDns]) -> DnsSummary {
    let n = breakdowns.len();
    if n == 0 {
        return DnsSummary {
            sources: 0,
            all_in_dns_frac: 0.0,
            heavy_not_in_dns_frac: 0.0,
            size_vs_hidden_correlation: 0.0,
        };
    }
    let all_in = breakdowns.iter().filter(|b| b.not_in_dns == 0).count();
    let heavy = breakdowns
        .iter()
        .filter(|b| b.not_in_dns_frac() >= 1.0 / 3.0)
        .count();
    DnsSummary {
        sources: n,
        all_in_dns_frac: all_in as f64 / n as f64,
        heavy_not_in_dns_frac: heavy as f64 / n as f64,
        size_vs_hidden_correlation: rank_correlation(
            &breakdowns
                .iter()
                .map(|b| b.total() as f64)
                .collect::<Vec<_>>(),
            &breakdowns
                .iter()
                .map(SourceDns::not_in_dns_frac)
                .collect::<Vec<_>>(),
        ),
    }
}

/// Spearman rank correlation (simple average-rank implementation).
fn rank_correlation(x: &[f64], y: &[f64]) -> f64 {
    fn ranks(v: &[f64]) -> Vec<f64> {
        let mut idx: Vec<usize> = (0..v.len()).collect();
        idx.sort_by(|&a, &b| v[a].total_cmp(&v[b]));
        let mut r = vec![0f64; v.len()];
        let mut i = 0;
        while i < idx.len() {
            let mut j = i;
            while j + 1 < idx.len() && v[idx[j + 1]] == v[idx[i]] {
                j += 1;
            }
            let avg = (i + j) as f64 / 2.0;
            for &k in &idx[i..=j] {
                r[k] = avg;
            }
            i = j + 1;
        }
        r
    }
    if x.len() < 2 {
        return 0.0;
    }
    let rx = ranks(x);
    let ry = ranks(y);
    let mx = rx.iter().sum::<f64>() / rx.len() as f64;
    let my = ry.iter().sum::<f64>() / ry.len() as f64;
    let cov: f64 = rx.iter().zip(&ry).map(|(a, b)| (a - mx) * (b - my)).sum();
    let vx: f64 = rx.iter().map(|a| (a - mx).powi(2)).sum();
    let vy: f64 = ry.iter().map(|b| (b - my).powi(2)).sum();
    if vx == 0.0 || vy == 0.0 {
        0.0
    } else {
        cov / (vx * vy).sqrt()
    }
}

/// Per-source result of the nearby-prior-probe analysis: for each
/// not-in-DNS target, was there a previous probe from the same source to an
/// in-DNS address in the same /(128-span)?
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NearbyPrior {
    /// The scan source.
    pub source: Ipv6Prefix,
    /// Not-in-DNS targets examined.
    pub hidden_targets: u64,
    /// Per span (in low bits, e.g. 4 → /124): count with a nearby prior
    /// in-DNS probe.
    pub with_prior: Vec<(u8, u64)>,
}

impl NearbyPrior {
    /// Fraction of hidden targets with a nearby prior for the given span.
    pub fn fraction(&self, span: u8) -> f64 {
        let hit = self
            .with_prior
            .iter()
            .find(|(s, _)| *s == span)
            .map(|(_, n)| *n)
            .unwrap_or(0);
        crate::stats::share(hit, self.hidden_targets)
    }
}

/// Runs the nearby-prior analysis over raw (time-sorted) records for the
/// given sources. `spans` are neighborhood sizes in low bits; the paper uses
/// 4, 8, 12, 16 (/124, /120, /116, /112).
pub fn nearby_prior_analysis<F>(
    records: impl IntoIterator<Item = impl Borrow<PacketRecord>>,
    sources: &[Ipv6Prefix],
    agg: AggLevel,
    is_in_dns: F,
    spans: &[u8],
) -> Vec<NearbyPrior>
where
    F: Fn(u128) -> bool,
{
    let wanted: HashSet<Ipv6Prefix> = sources.iter().copied().collect();
    // Per source, per span: set of in-DNS neighborhoods already probed.
    let mut seen: HashMap<Ipv6Prefix, Vec<HashSet<u128>>> = HashMap::new();
    let mut result: HashMap<Ipv6Prefix, NearbyPrior> = HashMap::new();

    for r in records {
        let r = r.borrow();
        let s = agg.source_of(r.src);
        if !wanted.contains(&s) {
            continue;
        }
        let entry = seen
            .entry(s)
            .or_insert_with(|| vec![HashSet::new(); spans.len()]);
        if is_in_dns(r.dst) {
            for (i, &span) in spans.iter().enumerate() {
                entry[i].insert(r.dst >> span);
            }
        } else {
            let res = result.entry(s).or_insert_with(|| NearbyPrior {
                source: s,
                hidden_targets: 0,
                with_prior: spans.iter().map(|&sp| (sp, 0)).collect(),
            });
            res.hidden_targets += 1;
            for (i, &span) in spans.iter().enumerate() {
                if entry[i].contains(&(r.dst >> span)) {
                    res.with_prior[i].1 += 1;
                }
            }
        }
    }
    let mut v: Vec<NearbyPrior> = result.into_values().collect();
    v.sort_by_key(|n| n.source);
    v
}

/// Median number of targeted addresses per destination /64 (§4: AS#1 and
/// AS#3 target far-apart addresses, median 2 per /64; the Dec-24 scanner
/// exactly 1).
pub fn targets_per_dst64(targets: &[u128]) -> u64 {
    let mut per: HashMap<u64, u64> = HashMap::new();
    for &t in targets {
        *per.entry((t >> 64) as u64).or_default() += 1;
    }
    let mut counts: Vec<u64> = per.into_values().collect();
    counts.sort_unstable();
    crate::stats::median_sorted(&counts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lumen6_detect::event::ScanEvent;
    use lumen6_trace::Transport;

    fn ev(src: &str, dsts: Vec<u128>) -> ScanEvent {
        ScanEvent {
            source: src.parse().unwrap(),
            agg: AggLevel::L64,
            start_ms: 0,
            end_ms: 10,
            packets: dsts.len() as u64,
            distinct_dsts: dsts.len() as u64,
            distinct_srcs: 1,
            ports: vec![((Transport::Tcp, 22), dsts.len() as u64)],
            dsts: Some(dsts),
        }
    }

    #[test]
    fn rank_correlation_tolerates_nan_inputs() {
        // A zero-duration event can yield a 0/0 = NaN rate upstream; the
        // rank sort previously used `partial_cmp().unwrap()` and panicked.
        // NaN ranks are arbitrary but the function must stay total.
        let nan = f64::NAN;
        let rho = rank_correlation(&[1.0, nan, 2.0, 0.5], &[0.1, 0.2, 0.3, 0.4]);
        assert!(rho.is_finite());
        // NaN-free inputs still rank correctly.
        let rho = rank_correlation(&[1.0, 2.0, 3.0], &[10.0, 20.0, 30.0]);
        assert!((rho - 1.0).abs() < 1e-12);
    }

    #[test]
    fn summarize_dns_handles_degenerate_sources() {
        // Sources with zero targets produce 0-fraction breakdowns and must
        // not panic the correlation ranking.
        let breakdowns = vec![
            SourceDns {
                source: "2001:db8::/64".parse().unwrap(),
                in_dns: 0,
                not_in_dns: 0,
            },
            SourceDns {
                source: "2001:db8:1::/64".parse().unwrap(),
                in_dns: 5,
                not_in_dns: 5,
            },
        ];
        let s = summarize_dns(&breakdowns);
        assert_eq!(s.sources, 2);
        assert!(s.size_vs_hidden_correlation.is_finite());
    }

    /// in-DNS = even addresses.
    fn in_dns(a: u128) -> bool {
        a.is_multiple_of(2)
    }

    #[test]
    fn breakdown_counts_distinct_targets() {
        let r = ScanReport::new(vec![
            ev("2001:db8::/64", vec![2, 4, 6, 3]),
            ev("2001:db8::/64", vec![2, 5]), // overlap on 2
        ]);
        let b = dns_breakdown(&r, in_dns);
        assert_eq!(b.len(), 1);
        assert_eq!(b[0].in_dns, 3);
        assert_eq!(b[0].not_in_dns, 2);
        assert!((b[0].not_in_dns_frac() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn events_without_dsts_skipped() {
        let mut e = ev("2001:db8::/64", vec![2]);
        e.dsts = None;
        let b = dns_breakdown(&ScanReport::new(vec![e]), in_dns);
        assert!(b.is_empty());
    }

    #[test]
    fn summary_fractions() {
        let r = ScanReport::new(vec![
            ev("2001:db8:0::/64", vec![2, 4]),    // all in DNS
            ev("2001:db8:1::/64", vec![2, 4, 6]), // all in DNS
            ev("2001:db8:2::/64", vec![2, 4, 8, 10, 12, 14, 16, 18, 20, 3]), // 10% hidden
            ev("2001:db8:3::/64", vec![2, 3, 5]), // 67% hidden
        ]);
        let s = summarize_dns(&dns_breakdown(&r, in_dns));
        assert_eq!(s.sources, 4);
        assert!((s.all_in_dns_frac - 0.5).abs() < 1e-12);
        assert!((s.heavy_not_in_dns_frac - 0.25).abs() < 1e-12);
    }

    #[test]
    fn correlation_positive_when_bigger_scans_hide_more() {
        let breakdowns = vec![
            SourceDns {
                source: "2001:db8::/64".parse().unwrap(),
                in_dns: 10,
                not_in_dns: 0,
            },
            SourceDns {
                source: "2001:db8:1::/64".parse().unwrap(),
                in_dns: 50,
                not_in_dns: 10,
            },
            SourceDns {
                source: "2001:db8:2::/64".parse().unwrap(),
                in_dns: 100,
                not_in_dns: 100,
            },
        ];
        let s = summarize_dns(&breakdowns);
        assert!(s.size_vs_hidden_correlation > 0.9);
    }

    #[test]
    fn nearby_prior_detects_explorers() {
        // Source probes the in-DNS 0x100, then the hidden 0x10f (same /120),
        // then the hidden 0xff00 (no prior neighborhood).
        let src: Ipv6Prefix = "2001:db8::/64".parse().unwrap();
        let s = src.bits() | 1;
        let records = vec![
            PacketRecord::tcp(0, s, 0x100, 1, 22, 60),
            PacketRecord::tcp(10, s, 0x10f, 1, 22, 60),
            PacketRecord::tcp(20, s, 0xff01, 1, 22, 60),
        ];
        let out = nearby_prior_analysis(&records, &[src], AggLevel::L64, in_dns, &[4, 8]);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].hidden_targets, 2);
        // /124 (span 4): 0x10f >> 4 = 0x10 == 0x100 >> 4 → prior found.
        assert!((out[0].fraction(4) - 0.5).abs() < 1e-12);
        assert!((out[0].fraction(8) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn nearby_prior_requires_temporal_order() {
        // Hidden target BEFORE the in-DNS neighbor: no prior.
        let src: Ipv6Prefix = "2001:db8::/64".parse().unwrap();
        let s = src.bits() | 1;
        let records = vec![
            PacketRecord::tcp(0, s, 0x10f, 1, 22, 60),
            PacketRecord::tcp(10, s, 0x100, 1, 22, 60),
        ];
        let out = nearby_prior_analysis(&records, &[src], AggLevel::L64, in_dns, &[4]);
        assert_eq!(out[0].fraction(4), 0.0);
    }

    #[test]
    fn nearby_prior_ignores_other_sources() {
        let src: Ipv6Prefix = "2001:db8::/64".parse().unwrap();
        let other = 0xffff_0000_0000_0000_0000_0000_0000_0001u128;
        let records = vec![
            PacketRecord::tcp(0, other, 0x100, 1, 22, 60), // other source's hit
            PacketRecord::tcp(10, src.bits() | 1, 0x10f, 1, 22, 60),
        ];
        let out = nearby_prior_analysis(&records, &[src], AggLevel::L64, in_dns, &[4]);
        assert_eq!(out[0].fraction(4), 0.0);
    }

    #[test]
    fn targets_per_64_median() {
        // Three /64s with 1, 2, and 5 targets.
        let mut t = vec![1u128 << 64];
        t.extend([2u128 << 64 | 1, 2u128 << 64 | 2]);
        t.extend((1..=5u128).map(|i| (3u128 << 64) | i));
        assert_eq!(targets_per_dst64(&t), 2);
        // Spread scanner: every packet a distinct /64 → median 1.
        let spread: Vec<u128> = (0..100u128).map(|i| i << 64).collect();
        assert_eq!(targets_per_dst64(&spread), 1);
    }
}
