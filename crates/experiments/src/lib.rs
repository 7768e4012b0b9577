//! Experiment harness: regenerates every table and figure of the paper from
//! the simulated world.
//!
//! Each experiment is a function taking a prepared lab ([`CdnLab`] or
//! [`MawiLab`]) and returning the rendered report text; `lumen6
//! experiments` dispatches on the names. The per-experiment index lives in
//! DESIGN.md; measured-vs-paper numbers are recorded in EXPERIMENTS.md.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cdn;
pub mod csv_out;
pub mod ext;
pub mod mawi_exp;

use lumen6_detect::{
    observe_slice, AggLevel, ArtifactFilter, Backend, DetectorBuilder, FilterReport,
    ScanDetectorConfig, ScanReport, Session, SessionConfig, SessionError, SessionOutcome,
    DEFAULT_SESSION_BATCH,
};
use lumen6_mawi::{MawiConfig, MawiWorld};
use lumen6_scanners::{FleetConfig, World};
use lumen6_trace::PacketRecord;
use std::collections::BTreeMap;

/// The levels a lab's reports cover: the paper's three, and /32 for the
/// AS#18 analysis. Destination sets are kept only by a second /64 pass.
const LEVELS: [AggLevel; 4] = [AggLevel::L128, AggLevel::L64, AggLevel::L48, AggLevel::L32];

/// Reports over a resident slice, through [`DetectorBuilder::build`] — the
/// single dispatch point shared with `lumen6 detect`.
fn run_mode(
    mode: Backend,
    records: &[PacketRecord],
    levels: &[AggLevel],
    base: ScanDetectorConfig,
) -> BTreeMap<AggLevel, ScanReport> {
    let mut det = DetectorBuilder::new(base).levels(levels).build(mode);
    observe_slice(det.as_mut(), records, DEFAULT_SESSION_BATCH);
    det.finish()
}

/// The prepared CDN-side experiment context: world, traces, and the three
/// per-level scan reports (destinations retained at /64 for the targeting
/// analyses).
pub struct CdnLab {
    /// The simulated world (registry, telescope, fleet ground truth).
    pub world: World,
    /// The raw firewall-logged trace (before artifact filtering).
    pub trace: Vec<PacketRecord>,
    /// The artifact-filtered trace the detection pipeline runs on.
    pub filtered: Vec<PacketRecord>,
    /// What the artifact filter removed (Appendix A.1).
    pub filter_report: FilterReport,
    /// Scan reports at /128, /64, /48 (and /32 for the AS#18 analysis).
    pub reports: BTreeMap<AggLevel, ScanReport>,
}

impl CdnLab {
    /// Builds the lab with the default (threaded) detection backend.
    pub fn build(config: FleetConfig) -> CdnLab {
        CdnLab::build_with(config, Backend::default())
    }

    /// Builds the lab: generates the trace, filters artifacts, runs
    /// detection at the paper's three levels plus /32 using the given
    /// backend. Sequential and threaded modes produce identical reports.
    pub fn build_with(config: FleetConfig, mode: Backend) -> CdnLab {
        let world = World::build(config);
        let trace = world.cdn_trace();
        // The A.1 duplicate threshold scales with the fleet's intensity.
        let prefilter = ArtifactFilter::at_intensity(world.config().intensity);
        let (filtered, filter_report) = prefilter.filter(&trace);
        let mut reports = run_mode(mode, &filtered, &LEVELS, ScanDetectorConfig::default());
        // Re-run /64 with destination retention (needed by `targets`/`a4`).
        let mut with_dsts = run_mode(
            mode,
            &filtered,
            &[AggLevel::L64],
            ScanDetectorConfig::paper(AggLevel::L64).with_dsts(),
        );
        reports.insert(
            AggLevel::L64,
            with_dsts.remove(&AggLevel::L64).unwrap_or_default(),
        );
        CdnLab {
            world,
            trace,
            filtered,
            filter_report,
            reports,
        }
    }

    /// Builds a lab by streaming an L6TR trace from disk in bounded memory
    /// through a strict (abort-on-decode-error) [`Session`]; the full trace
    /// is never resident.
    ///
    /// The artifact prefilter and the destination-retaining /64 pass both
    /// need state proportional to the trace, so this constructor skips
    /// them: `trace` and `filtered` stay empty, `filter_report` is empty,
    /// and `reports[L64]` carries no destination sets. Only the
    /// [`STREAM_SAFE`] experiments are meaningful on a lab built this way.
    pub fn from_trace_file(
        path: &std::path::Path,
        config: FleetConfig,
        mode: Backend,
    ) -> Result<CdnLab, SessionError> {
        let world = World::build(config);
        let session = Session::new(
            DetectorBuilder::new(ScanDetectorConfig::default()).levels(&LEVELS),
            mode,
            SessionConfig {
                strict: true,
                ..Default::default()
            },
        );
        let reports = match session.run(path)? {
            SessionOutcome::Finished(rep) => rep.reports,
            // No checkpoint policy is configured, so the session can only
            // finish or fail.
            SessionOutcome::Stopped { .. } => unreachable!("no checkpoint policy"),
        };
        Ok(CdnLab {
            world,
            trace: Vec::new(),
            filtered: Vec::new(),
            filter_report: FilterReport::default(),
            reports,
        })
    }

    /// A reduced lab for quick runs and tests (6 weeks, small telescope).
    pub fn small(seed: u64) -> CdnLab {
        CdnLab::build(FleetConfig {
            seed,
            ..FleetConfig::small()
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

/// The prepared MAWI-side context.
pub struct MawiLab {
    /// The MAWI world.
    pub world: MawiWorld,
    /// The full link trace (windowed per day).
    pub trace: Vec<PacketRecord>,
}

impl MawiLab {
    /// Builds the MAWI lab, sharing scanner identities with a CDN fleet
    /// when given.
    pub fn build(config: MawiConfig, cdn: Option<&World>) -> MawiLab {
        let world = MawiWorld::build(config, cdn.map(|w| &*w.fleet));
        let trace = world.trace();
        MawiLab { world, trace }
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

/// The CDN experiments that read only `reports` and `world` metadata, and
/// so run on a lab streamed by [`CdnLab::from_trace_file`].
pub const STREAM_SAFE: &[&str] = &["table1", "fig2"];

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
