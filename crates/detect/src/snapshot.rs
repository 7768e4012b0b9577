//! Versioned, serializable detector state for checkpoint/resume.
//!
//! A long-running ingest (the paper's vantage point covers 15 months) must
//! survive restarts without losing the open per-source activity runs, or
//! every crash silently truncates scans in progress. This module defines a
//! *uniform* state representation — [`DetectorSnapshot`], a set of
//! per-aggregation-level [`LevelState`]s — that every detector
//! ([`ScanDetector`](crate::ScanDetector),
//! [`MultiLevelDetector`](crate::multi::MultiLevelDetector), and the
//! threaded pipeline) can produce and restore from. Because the format is
//! backend-agnostic, a checkpoint taken from a threaded run can be resumed
//! sequentially and vice versa — checkpoints written by the sharded
//! pipeline of earlier builds included, since they hold the same uniform
//! form.
//!
//! Determinism: everything order-sensitive is sorted before serialization
//! (run lists by source, destination sets ascending, `pending` events by
//! `(start_ms, source)`), so two snapshots of equal logical state serialize
//! identically even though the live detectors use hash maps internally and
//! close events in arrival order: a sequential and a threaded run at one
//! stream position write the same checkpoint bytes
//! ([`crate::checkpoint_codec`]; the serde derives here remain for
//! version-1 JSON checkpoints and the analyzer's L004).

use crate::aggregate::AggLevel;
use crate::detector::{DetectorMemory, ScanDetectorConfig};
use crate::event::ScanEvent;
use crate::sketch::HyperLogLog;
use lumen6_addr::Ipv6Prefix;
use lumen6_trace::Transport;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Snapshot format version; bumped on any incompatible layout change.
/// Version 2 made `pending` order canonical and the checkpoint body binary;
/// [`Checkpoint::load`](crate::Checkpoint::load) upgrades version 1.
pub const SNAPSHOT_VERSION: u32 = 2;

/// Complete detector state: one [`LevelState`] per aggregation level, in
/// ascending level order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DetectorSnapshot {
    /// Format version ([`SNAPSHOT_VERSION`] at write time).
    pub version: u32,
    /// Per-level detector state, sorted by aggregation level.
    pub levels: Vec<LevelState>,
}

impl DetectorSnapshot {
    /// Wraps per-level states, normalizing order (levels ascending, each
    /// level [`normalize`](LevelState::normalize)d) and stamping the version.
    pub fn new(mut levels: Vec<LevelState>) -> Self {
        levels.sort_by_key(|l| l.config.agg);
        levels.iter_mut().for_each(LevelState::normalize);
        DetectorSnapshot {
            version: SNAPSHOT_VERSION,
            levels,
        }
    }

    /// The aggregation levels present in this snapshot.
    pub fn levels(&self) -> Vec<AggLevel> {
        self.levels.iter().map(|l| l.config.agg).collect()
    }

    /// Fails unless the snapshot's version is the current one.
    pub fn check_version(&self) -> Result<(), SnapshotError> {
        if self.version != SNAPSHOT_VERSION {
            return Err(SnapshotError(format!(
                "snapshot version {} unsupported (expected {})",
                self.version, SNAPSHOT_VERSION
            )));
        }
        Ok(())
    }
}

/// State of one single-level detector: configuration, counters, all open
/// activity runs, and scan events already closed mid-stream but not yet
/// reported.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LevelState {
    /// The detector's configuration (aggregation level included).
    pub config: ScanDetectorConfig,
    /// Packets observed at this level so far.
    pub observed: u64,
    /// Activity runs ever opened at this level.
    pub runs_opened: u64,
    /// Open per-source runs, sorted by source prefix.
    pub runs: Vec<RunState>,
    /// Mid-stream events closed before the snapshot, sorted by
    /// `(start_ms, source)`.
    pub pending: Vec<ScanEvent>,
}

impl LevelState {
    /// Sorts runs by source and pending events by `(start_ms, source)` —
    /// the key `finish` sorts reports by, so reports cannot move — making
    /// the serialized form independent of hash-map order and backend.
    pub fn normalize(&mut self) {
        self.runs.sort_by_key(|r| r.source);
        self.pending.sort_by_key(|e| (e.start_ms, e.source));
    }

    /// What the level holds: open runs, their set and histogram entries,
    /// events pending.
    pub fn memory(&self) -> DetectorMemory {
        let mut m = DetectorMemory {
            open_runs: self.runs.len(),
            pending_events: self.pending.len(),
            ..Default::default()
        };
        for run in &self.runs {
            match &run.dsts {
                CounterState::Exact(set) => m.exact_dst_entries += set.len(),
                CounterState::Sketch(_) => m.sketched_runs += 1,
            }
            m.port_entries += run.ports.len();
        }
        m
    }
}

/// One open activity run, the serializable twin of the detector-internal
/// `SourceRun`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunState {
    /// Aggregated source prefix owning the run.
    pub source: Ipv6Prefix,
    /// Timestamp of the run's first packet (ms).
    pub start_ms: u64,
    /// Timestamp of the run's last packet (ms).
    pub last_ms: u64,
    /// Packets accumulated.
    pub packets: u64,
    /// Distinct destination counter.
    pub dsts: CounterState,
    /// Retained destination list (when `keep_dsts`), sorted ascending.
    pub dst_list: Option<Vec<u128>>,
    /// Distinct /128-source counter within the aggregate.
    pub srcs: CounterState,
    /// Packet counts per (protocol, destination port), sorted by key.
    pub ports: Vec<((Transport, u16), u64)>,
}

/// Serializable state of a [`DistinctCounter`](crate::sketch::DistinctCounter):
/// the exact set is stored as a sorted vector so equal sets serialize
/// identically (hash-set iteration order is not deterministic).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum CounterState {
    /// Exact distinct set, sorted ascending.
    Exact(Vec<u128>),
    /// Spilled HyperLogLog sketch.
    Sketch(HyperLogLog),
}

impl From<&crate::sketch::DistinctCounter> for CounterState {
    fn from(c: &crate::sketch::DistinctCounter) -> Self {
        match c {
            crate::sketch::DistinctCounter::Exact(set) => {
                let mut v: Vec<u128> = set.iter().copied().collect();
                v.sort_unstable();
                CounterState::Exact(v)
            }
            crate::sketch::DistinctCounter::Sketch(hll) => CounterState::Sketch(hll.clone()),
        }
    }
}

impl From<&CounterState> for crate::sketch::DistinctCounter {
    fn from(s: &CounterState) -> Self {
        match s {
            CounterState::Exact(v) => {
                crate::sketch::DistinctCounter::Exact(v.iter().copied().collect())
            }
            CounterState::Sketch(hll) => crate::sketch::DistinctCounter::Sketch(hll.clone()),
        }
    }
}

/// Snapshot validation or restore failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotError(pub String);

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "snapshot error: {}", self.0)
    }
}

impl std::error::Error for SnapshotError {}
