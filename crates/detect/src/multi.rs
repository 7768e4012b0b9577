//! One-pass simultaneous detection at several aggregation levels.
//!
//! The paper's Table 1 and Fig. 2 report /128, /64, and /48 results side by
//! side, and its discussion (§5) suggests IDSes "track simultaneously
//! various aggregations". Re-reading a multi-month trace once per level is
//! wasteful; [`MultiLevelDetector`] fans each batch out to one
//! [`ScanDetector`] per level in a single pass. The ablation bench
//! `adaptive_vs_fixed` compares this against the naive multi-pass loop.

use crate::aggregate::AggLevel;
use crate::detector::{ScanDetector, ScanDetectorConfig};
use crate::event::{ScanEvent, ScanReport};
use crate::snapshot::LevelState;
use lumen6_trace::RecordBatch;
use std::collections::BTreeMap;

/// Simultaneous multi-level scan detection.
#[derive(Debug)]
pub struct MultiLevelDetector {
    /// One detector per level, each with the events it closed mid-stream
    /// (in arrival order) — what the trait-level `observe_batch`, which
    /// returns nothing, holds back for [`finish`](Self::finish).
    levels: Vec<(ScanDetector, Vec<ScanEvent>)>,
    /// The current batch's run index, derived once for every level; scratch.
    runs: Vec<(u32, u32)>,
}

impl MultiLevelDetector {
    /// Creates one detector per level, sharing the base configuration
    /// (whose own `agg` field is overridden per level).
    pub fn new(levels: &[AggLevel], base: ScanDetectorConfig) -> Self {
        let levels = levels
            .iter()
            .map(|&agg| {
                let cfg = ScanDetectorConfig {
                    agg,
                    ..base.clone()
                };
                (ScanDetector::new(cfg), Vec::new())
            })
            .collect();
        let runs = Vec::new();
        MultiLevelDetector { levels, runs }
    }

    /// The paper's three levels with the paper's scan definition.
    pub fn paper() -> Self {
        Self::new(&AggLevel::PAPER_LEVELS, ScanDetectorConfig::default())
    }

    /// The configured aggregation levels, in detection order.
    pub fn levels(&self) -> Vec<AggLevel> {
        self.levels
            .iter()
            .map(|(det, _)| det.config().agg)
            .collect()
    }

    /// Packets observed so far (every level sees every packet).
    pub fn observed(&self) -> u64 {
        self.levels.first().map_or(0, |(det, _)| det.observed())
    }

    /// Feeds a columnar batch to every level via the grouped batch path
    /// (see [`ScanDetector::observe_batch`]): the batch is cut into runs of
    /// identical records once ([`kernels::run_index`](crate::kernels::run_index)
    /// — which records repeat does not depend on the level), and each
    /// level's grouping pass amortizes run-state lookups across them.
    pub fn observe_batch(&mut self, batch: &RecordBatch) {
        crate::kernels::run_index(batch, &mut self.runs);
        for (det, pending) in &mut self.levels {
            pending.extend(det.observe_runs(batch, &self.runs));
        }
    }

    /// Closes runs idle since before `now - timeout` at every level,
    /// collecting qualifying events into the pending set that
    /// [`finish`](Self::finish) reports. Report-neutral: an event closed
    /// here is identical to the one `finish` would eventually emit, so
    /// flushing at any cadence never changes the final reports.
    pub fn flush_idle(&mut self, now_ms: u64) {
        for (det, pending) in &mut self.levels {
            pending.extend(det.flush_idle(now_ms));
        }
    }

    /// Serializable per-level snapshot of the complete detector state,
    /// including mid-stream pending events, in canonical order.
    pub fn state(&self) -> Vec<LevelState> {
        let mut levels: Vec<LevelState> = self
            .levels
            .iter()
            .map(|(det, pending)| LevelState {
                pending: pending.clone(),
                ..det.state()
            })
            .collect();
        levels.iter_mut().for_each(LevelState::normalize);
        levels
    }

    /// Rebuilds a multi-level detector from per-level snapshots (each
    /// state's embedded configuration, including its level, is
    /// authoritative).
    pub fn from_state(states: &[LevelState]) -> Self {
        let levels = states
            .iter()
            .map(|st| (ScanDetector::from_state(st), st.pending.clone()))
            .collect();
        let runs = Vec::new();
        MultiLevelDetector { levels, runs }
    }

    /// Ends the stream and returns the per-level reports.
    ///
    /// Flushes per-level telemetry (`detect.multi.l<len>.runs_opened` /
    /// `.events_closed`) to the global metrics registry — counts accumulate
    /// as plain integers during the stream, so observation stays free of
    /// atomics.
    pub fn finish(self) -> BTreeMap<AggLevel, ScanReport> {
        let reg = lumen6_obs::MetricsRegistry::global();
        let mut out = BTreeMap::new();
        for (det, mut events) in self.levels {
            let (lvl, opened) = (det.config().agg, det.runs_opened());
            events.extend(det.finish());
            events.sort_by_key(|e| (e.start_ms, e.source));
            reg.counter(&format!("detect.multi.l{}.runs_opened", lvl.len()))
                .add(opened);
            reg.counter(&format!("detect.multi.l{}.events_closed", lvl.len()))
                .add(events.len() as u64);
            out.insert(lvl, ScanReport::new(events));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::detect;
    use crate::session::observe_slice;
    use lumen6_trace::PacketRecord;

    fn detect_levels(
        records: &[PacketRecord],
        levels: &[AggLevel],
        base: ScanDetectorConfig,
    ) -> BTreeMap<AggLevel, ScanReport> {
        let mut det = MultiLevelDetector::new(levels, base);
        observe_slice(&mut det, records, 64);
        det.finish()
    }

    fn spread_scan() -> Vec<PacketRecord> {
        // 100 /128s across one /64, each one packet to a distinct dst, plus
        // one heavy /128 hitting 150 dsts.
        let base: u128 = 0x2001_0db8_0000_0000_0000_0000_0000_0000;
        let heavy: u128 = 0x2001_0db9_0000_0000_0000_0000_0000_0001;
        let mut recs: Vec<PacketRecord> = (0..100u64)
            .map(|i| PacketRecord::tcp(i * 1000, base + i as u128, 0xa000 + i as u128, 1, 22, 60))
            .collect();
        recs.extend(
            (0..150u64).map(|i| PacketRecord::tcp(i * 900, heavy, 0xb000 + i as u128, 1, 22, 60)),
        );
        lumen6_trace::sort_by_time(&mut recs);
        recs
    }

    #[test]
    fn single_pass_equals_multi_pass() {
        let recs = spread_scan();
        let multi = detect_levels(
            &recs,
            &AggLevel::PAPER_LEVELS,
            ScanDetectorConfig::default(),
        );
        for lvl in AggLevel::PAPER_LEVELS {
            let single = detect(&recs, ScanDetectorConfig::paper(lvl));
            let m = &multi[&lvl];
            assert_eq!(m.scans(), single.scans(), "level {lvl}");
            assert_eq!(m.packets(), single.packets(), "level {lvl}");
            assert_eq!(m.source_set(), single.source_set(), "level {lvl}");
        }
    }

    #[test]
    fn levels_see_different_pictures() {
        let recs = spread_scan();
        let multi = detect_levels(
            &recs,
            &AggLevel::PAPER_LEVELS,
            ScanDetectorConfig::default(),
        );
        // /128: only the heavy source qualifies. /64: heavy + spread = 2.
        assert_eq!(multi[&AggLevel::L128].scans(), 1);
        assert_eq!(multi[&AggLevel::L64].scans(), 2);
        assert_eq!(multi[&AggLevel::L48].scans(), 2);
    }

    #[test]
    fn empty_input() {
        let multi = detect_levels(&[], &AggLevel::PAPER_LEVELS, ScanDetectorConfig::default());
        assert!(multi.values().all(|r| r.scans() == 0));
    }

    #[test]
    fn mid_stream_events_are_collected() {
        // Two bursts separated by more than the timeout: the first event is
        // emitted mid-stream and must appear in the final report.
        let mut recs: Vec<PacketRecord> = (0..100u64)
            .map(|i| PacketRecord::tcp(i * 1000, 1, 0xa000 + i as u128, 1, 22, 60))
            .collect();
        recs.extend(
            (0..100u64)
                .map(|i| PacketRecord::tcp(8_000_000 + i * 1000, 1, 0xa000 + i as u128, 1, 22, 60)),
        );
        let multi = detect_levels(&recs, &[AggLevel::L128], ScanDetectorConfig::default());
        assert_eq!(multi[&AggLevel::L128].scans(), 2);
    }
}
