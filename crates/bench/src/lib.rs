//! Shared fixtures for the benchmark suite: pre-built small worlds and
//! traces so individual benches measure the pipeline stage, not world
//! generation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use lumen6_detect::{
    observe_slice, AggLevel, ArtifactFilter, Backend, DetectorBuilder, ScanDetectorConfig,
    ScanReport,
};
use lumen6_mawi::{MawiConfig, MawiWorld};
use lumen6_scanners::{FleetConfig, World};
use lumen6_trace::PacketRecord;
use std::collections::BTreeMap;

/// Records per columnar batch on the batched ingest paths.
pub const BATCH: usize = 8_192;

/// The multi-level workload the pipeline benches run — the paper's three
/// aggregation levels over a resident slice on the caller's thread, through
/// the detect crate's slice driver.
pub fn detect_levels(records: &[PacketRecord]) -> BTreeMap<AggLevel, ScanReport> {
    let mut det = DetectorBuilder::new(ScanDetectorConfig::default())
        .levels(&AggLevel::PAPER_LEVELS)
        .build(Backend::Sequential);
    observe_slice(det.as_mut(), records, BATCH);
    det.finish()
}

/// A bench-sized CDN fixture: 3 weeks, small telescope.
pub struct CdnFixture {
    /// The world (registry, deployment, fleet).
    pub world: World,
    /// Raw captured trace.
    pub trace: Vec<PacketRecord>,
    /// Artifact-filtered trace.
    pub filtered: Vec<PacketRecord>,
}

impl CdnFixture {
    /// Builds the fixture (deterministic, seed 42).
    pub fn new() -> CdnFixture {
        let mut cfg = FleetConfig::small();
        cfg.end_day = 21;
        let world = World::build(cfg);
        let trace = world.cdn_trace();
        let (filtered, _) = ArtifactFilter::default().filter(&trace);
        CdnFixture {
            world,
            trace,
            filtered,
        }
    }
}

impl Default for CdnFixture {
    fn default() -> Self {
        Self::new()
    }
}

/// A bench-sized MAWI fixture: 3 weeks of daily windows.
pub struct MawiFixture {
    /// The MAWI world.
    pub world: MawiWorld,
    /// The windowed link trace.
    pub trace: Vec<PacketRecord>,
}

impl MawiFixture {
    /// Builds the fixture.
    pub fn new() -> MawiFixture {
        let mut cfg = MawiConfig::small();
        cfg.end_day = 21;
        let world = MawiWorld::build(cfg, None);
        let trace = world.trace();
        MawiFixture { world, trace }
    }
}

impl Default for MawiFixture {
    fn default() -> Self {
        Self::new()
    }
}
