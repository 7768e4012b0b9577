//! Large-scale IPv6 scan detection — the paper's core methodology as a
//! reusable library.
//!
//! The pipeline stages, in the order the paper applies them (§2):
//!
//! 1. **Artifact prefiltering** ([`prefilter`]): remove CDN connection
//!    artifacts — /64 sources whose daily traffic is >30% "5-duplicate"
//!    packets (same destination IP and port hit more than 5 times in a day).
//! 2. **Source aggregation** ([`aggregate`]): treat the traffic source as
//!    the /128 address itself or the covering /64, /48 (or any) prefix.
//!    Aggregation happens *before* detection, so a /48 can qualify as a scan
//!    source even when none of its /64s does.
//! 3. **Scan eventization** ([`detector`]): a *scan* is a source targeting
//!    at least `min_dsts` (default 100) distinct destination addresses with
//!    packet inter-arrival never exceeding `timeout` (default 3 600 s).
//! 4. **Characterization** ([`portclass`]): single-port vs multi-port scan
//!    tagging via the fraction of packets on the most common port
//!    (footnote 9 of the paper).
//!
//! Additional detectors and machinery:
//!
//! - [`mawi`]: the extended Fukuda–Heidemann detector used for the public
//!   MAWI traces (§4): per-port scans with a packets-per-destination cap and
//!   a packet-length entropy criterion, merged per source.
//! - [`multi`]: one-pass simultaneous detection at several aggregation
//!   levels (an IDS cannot afford one trace pass per level).
//! - [`parallel`]: the threaded pipeline — one [`multi`] detector on a
//!   worker thread behind a bounded batch channel, so ingest overlaps
//!   detection; its output is identical to [`multi`]'s.
//! - [`adaptive`]: the adaptive-aggregation IDS sketched in the paper's
//!   discussion (§5): start non-aggregated, promote to coarser prefixes when
//!   sibling density indicates a spread source, and report the collateral
//!   damage a blocklist entry at that aggregation would cause.
//! - [`sketch`]: a from-scratch HyperLogLog for memory-bounded distinct
//!   destination counting (the production-deployment variant of the exact
//!   `HashSet` the offline analysis uses).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adaptive;
pub mod aggregate;
pub mod blocklist;
pub mod checkpoint_codec;
pub mod detector;
pub mod event;
pub mod fingerprint;
pub mod fxhash;
pub mod ids;
pub mod kernels;
pub mod mawi;
pub mod multi;
pub mod parallel;
pub mod portclass;
pub mod prefilter;
pub mod session;
pub mod sketch;
pub mod snapshot;

pub use aggregate::AggLevel;
pub use blocklist::{Blocklist, BlocklistConfig};
pub use detector::{ScanDetector, ScanDetectorConfig};
pub use event::{ScanEvent, ScanReport};
pub use fingerprint::Fingerprint;
pub use fxhash::{FxBuildHasher, FxHashMap, FxHashSet};
pub use ids::{Ids, IdsAction, IdsConfig};
pub use mawi::{MawiConfig, MawiDetector, MawiScan};
pub use parallel::ThreadedDetector;
pub use portclass::{classify_ports, PortClass};
pub use prefilter::{ArtifactFilter, ArtifactFilterConfig, FilterReport};
pub use session::{
    observe_slice, Backend, Checkpoint, CheckpointPolicy, Detect, DetectorBuilder, ReorderBuffer,
    Session, SessionConfig, SessionError, SessionOutcome, SessionReport, Step,
    DEFAULT_SESSION_BATCH,
};
pub use sketch::{HyperLogLog, SketchConfig};
pub use snapshot::{DetectorSnapshot, LevelState, SnapshotError};

/// One-line import for the unified detection API: the [`Detect`] trait,
/// the [`DetectorBuilder`], the [`observe_slice`] driver, session/checkpoint
/// types, and the configuration types they take.
pub mod prelude {
    pub use crate::aggregate::AggLevel;
    pub use crate::detector::{ScanDetector, ScanDetectorConfig};
    pub use crate::event::{ScanEvent, ScanReport};
    pub use crate::multi::MultiLevelDetector;
    pub use crate::parallel::ThreadedDetector;
    pub use crate::session::{
        observe_slice, Backend, Checkpoint, CheckpointPolicy, Detect, DetectorBuilder,
        ReorderBuffer, Session, SessionConfig, SessionError, SessionOutcome, SessionReport, Step,
    };
    pub use crate::sketch::SketchConfig;
    pub use crate::snapshot::{DetectorSnapshot, LevelState, SnapshotError};
    pub use lumen6_trace::{FileStreamSource, MaterializedSource, Source};
}
