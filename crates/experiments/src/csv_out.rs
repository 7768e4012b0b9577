//! CSV export of the figure series — so the paper's plots can be
//! regenerated with any plotting tool (`lumen6 experiments --csv DIR ...`).

use crate::mawi_exp::targets;
use crate::{CdnLab, MawiLab};
use lumen6_addr::HammingDistribution;
use lumen6_analysis::{concentration, heatmap, portbuckets, series};
use lumen6_detect::AggLevel;
use lumen6_report::to_csv;
use lumen6_trace::{write_atomic, SimTime};
use std::io::{self, Write as _};
use std::path::Path;

/// Publishes `dir/name` by rename, like every other output file — a reader
/// never sees a torn CSV — and records it in `written`.
fn write(dir: &Path, written: &mut Vec<String>, name: &str, content: &str) -> io::Result<()> {
    std::fs::create_dir_all(dir)?;
    write_atomic(&dir.join(name), |file| file.write_all(content.as_bytes()))?;
    written.push(name.into());
    Ok(())
}

/// Writes every CDN figure series into `dir`.
pub fn export_cdn(lab: &CdnLab, dir: &Path) -> io::Result<Vec<String>> {
    let mut written = Vec::new();
    let n_weeks = lab.world.config().end_day.div_ceil(7);

    // fig1: heatmap cells.
    let points = heatmap::source_points(lab.trace.iter(), AggLevel::L64);
    let h = heatmap::Heatmap::build(&points, 24);
    let mut rows = Vec::new();
    for (y, row) in h.cells.iter().enumerate() {
        for (x, &n) in row.iter().enumerate() {
            if n > 0 {
                rows.push(vec![
                    h.dst_edges[x].to_string(),
                    h.pkt_edges[y].to_string(),
                    n.to_string(),
                ]);
            }
        }
    }
    write(
        dir,
        &mut written,
        "fig1_heatmap.csv",
        &to_csv(&["dsts_bin", "pkts_bin", "sources"], &rows),
    )?;

    // fig2: weekly sources per aggregation.
    let mut per_level = Vec::new();
    for lvl in [AggLevel::L128, AggLevel::L64, AggLevel::L48] {
        per_level.push(series::series(
            &lab.reports[&lvl],
            series::Bucket::Weekly,
            n_weeks,
        ));
    }
    let rows: Vec<Vec<String>> = (0..n_weeks as usize)
        .map(|w| {
            vec![
                w.to_string(),
                per_level[0][w].sources.to_string(),
                per_level[1][w].sources.to_string(),
                per_level[2][w].sources.to_string(),
            ]
        })
        .collect();
    write(
        dir,
        &mut written,
        "fig2_weekly_sources.csv",
        &to_csv(&["week", "s128", "s64", "s48"], &rows),
    )?;

    // fig3: weekly packets and top-2 share.
    let shares = concentration::per_bucket_topk(
        &lab.reports[&AggLevel::L64],
        series::Bucket::Weekly,
        n_weeks,
        2,
    );
    let rows: Vec<Vec<String>> = shares
        .iter()
        .map(|s| {
            vec![
                s.bucket.to_string(),
                format!("{:.0}", s.packets),
                format!("{:.4}", s.topk_share),
            ]
        })
        .collect();
    write(
        dir,
        &mut written,
        "fig3_weekly_packets.csv",
        &to_csv(&["week", "packets", "top2_share"], &rows),
    )?;

    // fig4 + fig8: port buckets per aggregation.
    let as18 = lab.as18_prefix();
    for (name, lvl, exclude) in [
        ("fig4_ports_64.csv", AggLevel::L64, true),
        ("fig8_ports_128.csv", AggLevel::L128, false),
        ("fig8_ports_48.csv", AggLevel::L48, false),
    ] {
        let rows_pb =
            portbuckets::port_buckets(&lab.reports[&lvl], |s| exclude && as18.contains(s));
        let rows: Vec<Vec<String>> = rows_pb
            .iter()
            .map(|r| {
                vec![
                    r.class.label().to_string(),
                    format!("{:.4}", r.scans),
                    format!("{:.4}", r.sources),
                    format!("{:.4}", r.packets),
                ]
            })
            .collect();
        write(
            dir,
            &mut written,
            name,
            &to_csv(&["bucket", "scans", "sources", "packets"], &rows),
        )?;
    }
    Ok(written)
}

/// Writes every MAWI figure series into `dir`.
pub fn export_mawi(lab: &MawiLab, dir: &Path) -> io::Result<Vec<String>> {
    let mut written = Vec::new();
    let (start, end) = (lab.world.config().start_day, lab.world.config().end_day);

    // fig5 + fig6: daily sources (both thresholds) and packets/top shares.
    let loose = lab.daily_scans(AggLevel::L64, 5);
    let mut rows5 = Vec::new();
    let mut rows6 = Vec::new();
    for ((day, s), (_, l)) in lab.daily_scans(AggLevel::L64, 100).iter().zip(loose) {
        rows5.push(vec![
            day.to_string(),
            s.len().to_string(),
            l.len().to_string(),
        ]);
        let mut pkts: Vec<u64> = s.iter().map(|x| x.packets).collect();
        pkts.sort_unstable_by(|a, b| b.cmp(a));
        let total: u64 = pkts.iter().sum();
        let share = |k: usize| {
            if total == 0 {
                0.0
            } else {
                pkts.iter().take(k).sum::<u64>() as f64 / total as f64
            }
        };
        rows6.push(vec![
            day.to_string(),
            total.to_string(),
            format!("{:.4}", share(1)),
            format!("{:.4}", share(2)),
            format!("{:.4}", share(3)),
        ]);
    }
    write(
        dir,
        &mut written,
        "fig5_daily_sources.csv",
        &to_csv(&["day", "min100", "min5"], &rows5),
    )?;
    write(
        dir,
        &mut written,
        "fig6_daily_share.csv",
        &to_csv(&["day", "packets", "top1", "top2", "top3"], &rows6),
    )?;

    // fig7: Hamming weight histograms for the selected sources/days.
    let may27 = SimTime::from_date(2021, 5, 27).day_index();
    let dec24 = SimTime::from_date(2021, 12, 24).day_index();
    let jul6 = SimTime::from_date(2021, 7, 6).day_index();
    let mut rows = Vec::new();
    let mut add = |label: &str, day: u64, from: &dyn Fn(u128) -> bool| {
        if !(start..end).contains(&day) {
            return;
        }
        let d = HammingDistribution::from_addrs(targets(lab, day, from));
        for (w, &c) in d.histogram().iter().enumerate() {
            if c > 0 {
                rows.push(vec![label.to_string(), w.to_string(), c.to_string()]);
            }
        }
    };
    let (as1, dec_src) = (lab.world.as1_source, lab.world.dec24_source);
    add("as1_may27", may27, &|s| s == as1);
    add("as1_may28", may27 + 1, &|s| s == as1);
    add("as3_jul6", jul6, &|s| {
        lab.world.jul6_prefix.contains_addr(s)
    });
    add("cloud_dec24", dec24, &|s| s == dec_src);
    write(
        dir,
        &mut written,
        "fig7_hamming.csv",
        &to_csv(&["series", "weight", "count"], &rows),
    )?;
    Ok(written)
}
