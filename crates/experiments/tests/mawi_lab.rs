//! The MAWI lab reads each day's groups at two thresholds: its per-day
//! scans must be what a fresh detection of each day's capture window
//! finds, and a threshold must be a view that leaves the groups as they
//! were.

use lumen6_detect::{AggLevel, MawiConfig as FhConfig, MawiDetector, MawiScan};
use lumen6_experiments::MawiLab;
use lumen6_mawi::{capture_window, MawiConfig};
use lumen6_trace::{PacketRecord, SimTime};

#[path = "../../mawi/tests/reference/mod.rs"]
mod reference;

const AGGS: [AggLevel; 3] = [AggLevel::L128, AggLevel::L64, AggLevel::L48];

/// The capture window of each day in `[start_day, end_day)`, as a slice of
/// the time-sorted `records`.
fn split_days(
    records: &[PacketRecord],
    start_day: u64,
    end_day: u64,
) -> Vec<(u64, &[PacketRecord])> {
    let at = |t: u64| records.partition_point(|r| r.ts_ms < t);
    (start_day..end_day)
        .map(|day| {
            let (s, e) = capture_window(day);
            (day, &records[at(s)..at(e)])
        })
        .collect()
}

fn detector(agg: AggLevel, min_dsts: u64) -> MawiDetector {
    MawiDetector::new(FhConfig {
        agg,
        min_dsts,
        ..Default::default()
    })
}

/// Days 2021-05-25 to 05-29: the hitlist switch and the days around it, so
/// the lab keeps three event days' records and skips two.
fn config() -> MawiConfig {
    let may27 = SimTime::from_date(2021, 5, 27).day_index();
    MawiConfig {
        start_day: may27 - 2,
        end_day: may27 + 3,
        ..MawiConfig::small()
    }
}

#[test]
fn lab_scans_are_a_fresh_detection_of_every_day() {
    let (config, may27) = (config(), SimTime::from_date(2021, 5, 27).day_index());
    let lab = MawiLab::build(config.clone(), None);
    let trace = reference::mawi_trace(&lab.world);
    let days = split_days(&trace, config.start_day, config.end_day);
    for agg in AGGS {
        for min in [100, 5] {
            let want: Vec<(u64, Vec<MawiScan>)> = days
                .iter()
                .map(|&(day, slice)| (day, detector(agg, min).detect(slice)))
                .collect();
            assert!(want.iter().all(|(_, scans)| !scans.is_empty()));
            assert_eq!(lab.daily_scans(agg, min), want, "{agg}, ≥{min} dsts");
        }
    }
    for (day, slice) in days {
        let kept = (may27 - 1..=may27 + 1).contains(&day);
        let want: &[PacketRecord] = if kept { slice } else { &[] };
        assert_eq!(lab.window(day), want, "day {day}");
    }
}

#[test]
fn a_threshold_is_a_view_that_leaves_the_groups_as_they_were() {
    let lab = MawiLab::build(config(), None);
    let trace = reference::mawi_trace(&lab.world);
    let may27 = SimTime::from_date(2021, 5, 27).day_index();
    let (_, window) = split_days(&trace, may27, may27 + 1)[0];
    for agg in AGGS {
        let (strict, loose) = (
            detector(agg, 100).detect(window),
            detector(agg, 5).detect(window),
        );
        assert!(
            loose.len() > strict.len(),
            "{agg}: 5 must find more than 100"
        );
        let rows = || window.iter().map(|&r| (r, 1));
        let groups = detector(agg, 100).group(rows());
        assert_eq!(detector(agg, 100).scans(&groups), strict, "{agg}");
        assert_eq!(detector(agg, 5).scans(&groups), loose, "{agg}");
        let groups = detector(agg, 5).group(rows());
        assert_eq!(detector(agg, 5).scans(&groups), loose, "{agg}");
        assert_eq!(detector(agg, 100).scans(&groups), strict, "{agg}");
    }
}
