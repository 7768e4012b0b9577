//! Experiment harness: regenerates every table and figure of the paper from
//! the simulated world.
//!
//! Each experiment is a function taking a prepared lab ([`CdnLab`] or
//! [`MawiLab`]) and returning the rendered report text; `lumen6
//! experiments` dispatches on the names. The per-experiment index lives in
//! DESIGN.md; measured-vs-paper numbers are recorded in EXPERIMENTS.md.
//!
//! Both labs are built from a source in one pass: the CDN lab holds the
//! trace's counted rows, and the MAWI lab holds per-day scans and the event
//! days' records, grouping each day once per aggregation level and reading
//! each grouping at both destination thresholds.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cdn;
pub mod csv_out;
pub mod ext;
pub mod mawi_exp;

use lumen6_detect::{
    AggLevel, ArtifactFilter, Backend, DetectorBuilder, FilterReport, MawiConfig as MawiFhConfig,
    MawiDetector, MawiScan, ScanDetectorConfig, ScanReport, DEFAULT_SESSION_BATCH,
};
use lumen6_mawi::{MawiConfig, MawiWorld};
use lumen6_scanners::{FleetConfig, FleetSource, World};
use lumen6_trace::{CodecError, PacketRecord, RecordBatch, Source};
use std::collections::BTreeMap;

/// The levels a lab's reports cover: the paper's three, and /32 for the
/// AS#18 analysis. Destination sets are kept only by a second /64 pass.
const LEVELS: [AggLevel; 4] = [AggLevel::L128, AggLevel::L64, AggLevel::L48, AggLevel::L32];

/// Reports over time-sorted counted rows, handed to a detector from
/// [`DetectorBuilder::build`] — the dispatch `lumen6 detect` goes through —
/// a batch of rows at a time.
fn detect(
    mode: Backend,
    rows: &RecordBatch,
    levels: &[AggLevel],
    base: ScanDetectorConfig,
) -> BTreeMap<AggLevel, ScanReport> {
    let mut det = DetectorBuilder::new(base).levels(levels).build(mode);
    let mut batch = RecordBatch::new();
    for lo in (0..rows.rows()).step_by(DEFAULT_SESSION_BATCH) {
        batch.clear();
        batch.extend_from_range(rows, lo..rows.rows().min(lo + DEFAULT_SESSION_BATCH));
        det.observe_batch(&batch);
    }
    det.finish()
}

/// Every record of time-sorted `rows` in `[from_ms, to_ms)`, each copy of
/// a counted row in turn.
fn between(
    rows: &RecordBatch,
    from_ms: u64,
    to_ms: u64,
) -> impl Iterator<Item = PacketRecord> + '_ {
    let ts = rows.ts_ms();
    let (lo, hi) = (
        ts.partition_point(|&t| t < from_ms),
        ts.partition_point(|&t| t < to_ms),
    );
    (lo..hi).flat_map(move |i| std::iter::repeat_n(rows.get(i), rows.count(i) as usize))
}

/// The prepared CDN-side experiment context: world, traces, and the three
/// per-level scan reports (destinations retained at /64 for the targeting
/// analyses).
///
/// The traces are counted rows: a row stands for its copies, so at any
/// integer intensity the lab holds the rows of the 1x trace.
pub struct CdnLab {
    /// The simulated world (registry, telescope, fleet ground truth).
    pub world: World,
    /// The raw firewall-logged trace (before artifact filtering).
    pub trace: RecordBatch,
    /// The artifact-filtered trace the detection pipeline runs on.
    pub filtered: RecordBatch,
    /// What the artifact filter removed (Appendix A.1).
    pub filter_report: FilterReport,
    /// Scan reports at /128, /64, /48 (and /32 for the AS#18 analysis).
    pub reports: BTreeMap<AggLevel, ScanReport>,
}

impl CdnLab {
    /// Builds the lab over `world`'s generated trace ([`CdnLab::new`] over
    /// a [`FleetSource`]).
    pub fn build_with(config: FleetConfig, mode: Backend) -> CdnLab {
        let world = World::build(config);
        let mut source = FleetSource::new(world.clone());
        CdnLab::new(world, &mut source, mode).expect("generation cannot fail")
    }

    /// Builds the lab from the trace `source` delivers — `world`'s
    /// generated one, or a recorded file — drained into counted rows: the
    /// A.1 filter a UTC day at a time, its threshold scaled with the
    /// world's intensity, then detection at the paper's three levels plus
    /// /32 on the given backend. Sequential and threaded modes produce
    /// identical reports. A decode error ends the build.
    pub fn new(world: World, source: &mut dyn Source, mode: Backend) -> Result<CdnLab, CodecError> {
        let (mut trace, mut batch) = (RecordBatch::new(), RecordBatch::new());
        while source.fill(&mut batch, DEFAULT_SESSION_BATCH)? > 0 {
            trace.extend_from_batch(&batch);
        }
        let prefilter = ArtifactFilter::at_intensity(world.config().intensity);
        let (filtered, filter_report) = prefilter.filter_rows(&trace);
        let mut reports = detect(mode, &filtered, &LEVELS, ScanDetectorConfig::default());
        // Re-run /64 with destination retention (needed by `targets`/`a4`).
        let with_dsts = ScanDetectorConfig::paper(AggLevel::L64).with_dsts();
        let mut with_dsts = detect(mode, &filtered, &[AggLevel::L64], with_dsts);
        reports.insert(
            AggLevel::L64,
            with_dsts.remove(&AggLevel::L64).unwrap_or_default(),
        );
        Ok(CdnLab {
            world,
            trace,
            filtered,
            filter_report,
            reports,
        })
    }

    /// The AS#18 allocation prefix (for the paper's exclusion rules).
    pub fn as18_prefix(&self) -> lumen6_addr::Ipv6Prefix {
        self.world
            .fleet
            .truth
            .iter()
            .find(|t| t.rank == 18)
            .expect("fleet always has 20 ASes")
            .prefix
    }
}

/// The aggregation levels the MAWI lab groups each day at (Fig. 5's three).
const MAWI_AGGS: [AggLevel; 3] = [AggLevel::L128, AggLevel::L64, AggLevel::L48];

/// The destination thresholds it reads each grouping at: the paper's 100
/// and Fukuda–Heidemann's 5 (Fig. 5, App. A.2).
const MAWI_MIN_DSTS: [u64; 2] = [100, 5];

/// One day and the scans detected in its capture window.
type DayScans = (u64, Vec<MawiScan>);

/// The prepared MAWI-side context: per-day scans, and the records of the
/// days the experiments read record by record.
///
/// The lab never holds the trace. It drains [`MawiWorld::source`] once, a
/// closed capture window at a time ([`lumen6_mawi::each_window`]), groups
/// each window once per level of [`MAWI_AGGS`] and reads every grouping at
/// each threshold of [`MAWI_MIN_DSTS`].
pub struct MawiLab {
    /// The MAWI world.
    pub world: MawiWorld,
    /// Per-day scans at each (level, threshold): one entry per day of the
    /// world's range, empty for a day without traffic.
    daily: BTreeMap<(AggLevel, u64), Vec<DayScans>>,
    /// The capture windows of [`mawi_exp::event_days`], every copy a
    /// record.
    events: BTreeMap<u64, Vec<PacketRecord>>,
}

impl MawiLab {
    /// Builds the MAWI lab, sharing scanner identities with a CDN fleet
    /// when given.
    pub fn build(config: MawiConfig, cdn: Option<&World>) -> MawiLab {
        let world = MawiWorld::build(config, cdn.map(|w| &*w.fleet));
        let (start, end) = (world.config().start_day, world.config().end_day);
        let no_scans: Vec<DayScans> = (start..end).map(|d| (d, Vec::new())).collect();
        let mut daily: BTreeMap<_, _> = MAWI_AGGS
            .iter()
            .flat_map(|&agg| MAWI_MIN_DSTS.map(|min| ((agg, min), no_scans.clone())))
            .collect();
        let (event_days, mut events) = (mawi_exp::event_days(), BTreeMap::new());
        let detector = |agg, min_dsts| {
            MawiDetector::new(MawiFhConfig {
                agg,
                min_dsts,
                ..Default::default()
            })
        };
        let each = |day: u64, rows: &RecordBatch| {
            let Some(at) = day.checked_sub(start).filter(|_| day < end) else {
                return;
            };
            for agg in MAWI_AGGS {
                let rows = (0..rows.rows()).map(|i| (rows.get(i), rows.count(i)));
                // Grouping reads the level alone, not the threshold.
                let groups = detector(agg, 0).group(rows);
                for min in MAWI_MIN_DSTS {
                    let days = daily.get_mut(&(agg, min)).expect("every pair is keyed");
                    days[at as usize].1 = detector(agg, min).scans(&groups);
                }
            }
            if event_days.contains(&day) {
                events.insert(day, rows.iter().collect());
            }
        };
        lumen6_mawi::each_window(&mut world.source(), each).expect("generation cannot fail");
        MawiLab {
            world,
            daily,
            events,
        }
    }

    /// The scans of every day of the world's range, in day order, at one
    /// aggregation level and destination threshold.
    ///
    /// # Panics
    /// At a level or threshold the lab does not detect at: /128, /64 or /48,
    /// at 100 or 5 destinations.
    pub fn daily_scans(&self, agg: AggLevel, min_dsts: u64) -> &[DayScans] {
        let at = self.daily.get(&(agg, min_dsts));
        at.expect("the MAWI lab detects at /128, /64, /48 × 100, 5 only")
    }

    /// The records of one event day's capture window; empty for any other
    /// day.
    pub fn window(&self, day: u64) -> &[PacketRecord] {
        self.events.get(&day).map_or(&[], Vec::as_slice)
    }
}

/// All CDN experiment names, in paper order.
pub const CDN_EXPERIMENTS: &[&str] = &[
    "fig1",
    "table1",
    "sensitivity",
    "fig2",
    "fig3",
    "table2",
    "durations",
    "fig4",
    "table3",
    "targets",
    "fig8",
    "a1",
    "a4",
    "ext_adaptive",
    "ext_fingerprint",
    "ext_tga",
    "ext_portshift",
    "ext_backscatter",
    "ext_seeds",
];

/// All MAWI experiment names, in paper order.
pub const MAWI_EXPERIMENTS: &[&str] = &["fig5", "fig6", "icmpv6", "fig7", "hitlist"];

/// Runs one CDN experiment by name.
pub fn run_cdn(name: &str, lab: &CdnLab) -> Option<String> {
    Some(match name {
        "fig1" => cdn::fig1_heatmap(lab),
        "table1" => cdn::table1_totals(lab),
        "sensitivity" => cdn::sensitivity(lab),
        "fig2" => cdn::fig2_weekly_sources(lab),
        "fig3" => cdn::fig3_weekly_packets(lab),
        "table2" => cdn::table2_top_as(lab),
        "durations" => cdn::durations(lab),
        "fig4" => cdn::fig4_port_buckets(lab),
        "table3" => cdn::table3_top_ports(lab),
        "targets" => cdn::targets(lab),
        "fig8" => cdn::fig8_port_buckets_aggs(lab),
        "a1" => cdn::a1_artifacts(lab),
        "a4" => cdn::a4_cloud_pair(lab),
        "ext_adaptive" => ext::ext_adaptive(lab),
        "ext_fingerprint" => ext::ext_fingerprint(lab),
        "ext_tga" => ext::ext_tga(lab),
        "ext_portshift" => ext::ext_portshift(lab),
        "ext_backscatter" => ext::ext_backscatter(lab),
        "ext_seeds" => ext::ext_seeds(lab),
        _ => return None,
    })
}

/// Runs one MAWI experiment by name.
pub fn run_mawi(name: &str, lab: &MawiLab) -> Option<String> {
    Some(match name {
        "fig5" => mawi_exp::fig5_daily_sources(lab),
        "fig6" => mawi_exp::fig6_share(lab),
        "icmpv6" => mawi_exp::icmpv6_days(lab),
        "fig7" => mawi_exp::fig7_hamming(lab),
        "hitlist" => mawi_exp::hitlist_overlap(lab),
        _ => return None,
    })
}
