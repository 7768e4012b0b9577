//! One-pass simultaneous detection at several aggregation levels.
//!
//! The paper reports /128, /64 and /48 side by side (Table 1, Fig. 2), and
//! its §5 asks IDSes to "track simultaneously various aggregations".
//! [`MultiLevelDetector`] feeds each batch to one [`ScanDetector`] per level
//! in one pass the levels share (DESIGN.md, "Nested levels share one pass";
//! proptest `shared_pass_equals_independent_levels`).

use crate::aggregate::AggLevel;
use crate::detector::{ScanDetector, ScanDetectorConfig};
use crate::event::{ScanEvent, ScanReport};
use crate::fxhash::FxHashMap;
use crate::session::Detect;
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
    pass: Pass,
}

/// The shared pass: level order, arrival clock, and grouping scratch kept
/// across batches (it allocates nothing in steady state). Never serialized.
#[derive(Debug, Default)]
struct Pass {
    /// Indices into `levels`, finest first.
    order: Vec<usize>,
    /// Rows fed before this batch (0 on the clock is before the pass).
    clock: u64,
    runs: Vec<(u32, u32)>,
    index: FxHashMap<u128, usize>,
    /// This level's groups (masked source, row list, whether the list took
    /// other groups' rows) and the next coarser level's.
    groups: Vec<(u128, usize, bool)>,
    coarser: Vec<(u128, usize, bool)>,
    /// Row lists in arrival order, one per finest group; `used` hold rows.
    lists: Vec<Vec<(u32, u32)>>,
    used: usize,
    /// Each run's source that differs from its predecessor's, masked to
    /// this level: the last-source memo's misses.
    misses: Vec<u128>,
    /// Per row: when its run at the last level replayed opened, and what
    /// the row added to that run.
    tags: Vec<u64>,
}

/// The network mask for a prefix length: the top `len` bits set, as
/// `Ipv6Prefix::new` masks (lengths above 128 are a full /128 mask).
fn level_mask(len: u8) -> u128 {
    u128::MAX
        .checked_shl(128 - u32::from(len.min(128)))
        .unwrap_or(0)
}

/// Cuts a batch into *runs* — maximal stretches of adjacent records equal
/// in the five columns the run state reads (`sport` and `len` never are) —
/// as `(first row, records)`, the unit the shared pass steps by.
/// A counted row is a run by construction, so the compare is paid per row,
/// never per copy; a row that repeats its predecessor (a count-less batch of
/// duplicates, a run a lane cut in two) folds into its run while the sum
/// fits. The whole source address is compared: which records repeat does
/// not depend on the level. `out` is cleared first.
fn run_index(batch: &RecordBatch, out: &mut Vec<(u32, u32)>) {
    let (ts, src, dst) = (batch.ts_ms(), batch.src(), batch.dst());
    let (proto, dport) = (batch.proto(), batch.dport());
    out.clear();
    for i in 0..batch.rows() {
        let count = batch.count(i);
        if let (Some(p), Some(run)) = (i.checked_sub(1), out.last_mut()) {
            // Destination first: it is what a scanner varies.
            let repeats = dst[i] == dst[p]
                && ts[i] == ts[p]
                && src[i] == src[p]
                && dport[i] == dport[p]
                && proto[i] == proto[p];
            if let (true, Some(sum)) = (repeats, run.1.checked_add(count)) {
                run.1 = sum;
                continue;
            }
        }
        out.push((i as u32, count));
    }
}

impl Pass {
    /// Groups the batch's runs by source at the finest level, keeping
    /// arrival order within each group; consecutive same-source runs (the
    /// common shape of scan traffic) skip the map.
    fn group(&mut self, batch: &RecordBatch, len: u8) {
        run_index(batch, &mut self.runs);
        self.tags.resize(self.tags.len().max(batch.rows()), 0);
        let (src, mask) = (batch.src(), level_mask(len));
        let mut last = None;
        for &(i, count) in &self.runs {
            let key = src[i as usize] & mask;
            let g = match last {
                Some((k, g)) if k == key => g,
                _ => {
                    let next = self.groups.len();
                    let g = *self.index.entry(key).or_insert(next);
                    if g == next {
                        self.groups.push((key, next, false));
                        if self.lists.len() == self.used {
                            self.lists.push(Vec::new());
                        }
                        self.used += 1;
                    }
                    self.misses.push(key);
                    g
                }
            };
            self.lists[g].push((i, count));
            last = Some((key, g));
        }
    }

    /// Derives the next coarser level's groups from the current ones, one
    /// mask and one map lookup per group: a lone child lends its row list
    /// as it is; several merge into the first one's list, put back in row
    /// order — arrival order is what a source's timeout test reads.
    fn coarsen(&mut self, len: u8) {
        let mask = level_mask(len);
        self.index.clear();
        for &(key, list, _) in &self.groups {
            let next = self.coarser.len();
            let cg = *self.index.entry(key & mask).or_insert(next);
            if cg == next {
                self.coarser.push((key & mask, list, false));
            } else {
                let into = self.coarser[cg].1;
                let rows = std::mem::take(&mut self.lists[list]);
                self.lists[into].extend_from_slice(&rows);
                self.lists[list] = rows;
                self.coarser[cg].2 = true;
            }
        }
        for &(_, list, merged) in &self.coarser {
            if merged {
                // Stable: each child's rows are a sorted run to merge.
                self.lists[list].sort_by_key(|&(i, _)| i);
            }
        }
        self.misses.iter_mut().for_each(|k| *k &= mask);
        self.misses.dedup();
        std::mem::swap(&mut self.groups, &mut self.coarser);
        self.coarser.clear();
    }
}

impl MultiLevelDetector {
    /// Creates one detector per level, sharing the base configuration
    /// (whose own `agg` field is overridden per level).
    pub fn new(levels: &[AggLevel], base: ScanDetectorConfig) -> Self {
        let b = &base;
        let det = |agg| ScanDetector::new(ScanDetectorConfig { agg, ..b.clone() });
        Self::over(levels.iter().map(|&agg| (det(agg), Vec::new())).collect())
    }

    fn over(levels: Vec<(ScanDetector, Vec<ScanEvent>)>) -> Self {
        let mut pass = Pass::default();
        let order = &mut pass.order;
        order.extend(0..levels.len());
        order.sort_by_key(|&i| std::cmp::Reverse(levels[i].0.config().agg));
        MultiLevelDetector { levels, pass }
    }

    /// Each level's detector, in detection order.
    pub fn detectors(&self) -> impl Iterator<Item = &ScanDetector> {
        self.levels.iter().map(|(det, _)| det)
    }

    /// Rebuilds a multi-level detector from per-level snapshots (each
    /// state's embedded configuration, including its level, is
    /// authoritative).
    pub fn from_state(states: &[LevelState]) -> Self {
        let det = |st: &LevelState| (ScanDetector::from_state(st), st.pending.clone());
        Self::over(states.iter().map(det).collect())
    }
}

impl Detect for MultiLevelDetector {
    /// One pass, finest level first: the batch is cut into runs
    /// ([`run_index`]) and grouped by source once, and each coarser level
    /// derives its groups from the finer ones. Each level tags every row
    /// with when its run opened and what the row added to it, so the next
    /// coarser run, open since then, skips the inserts that add nothing.
    fn observe_batch(&mut self, batch: &RecordBatch) {
        let pass = &mut self.pass;
        for k in 0..pass.order.len() {
            let (det, pending) = &mut self.levels[pass.order[k]];
            let len = det.config().agg.len();
            if k == 0 {
                pass.group(batch, len);
            } else {
                pass.coarsen(len);
            }
            let stats = (batch.len() - pass.misses.len(), pass.runs.len());
            let lists = &pass.lists;
            let groups = pass.groups.iter().map(|&(key, l, _)| (key, &lists[l][..]));
            det.replay(
                batch,
                groups,
                &mut pass.tags,
                (pass.clock + 1, k == 0),
                stats,
                pending,
            );
        }
        pass.lists[..pass.used].iter_mut().for_each(Vec::clear);
        (pass.used, pass.clock) = (0, pass.clock + batch.rows() as u64);
        pass.index.clear();
        pass.groups.clear();
        pass.misses.clear();
    }

    /// Closes idle runs at every level with one `now_ms`, collecting
    /// qualifying events into the pending set that `finish` reports.
    fn flush_idle(&mut self, now_ms: u64) {
        for (det, pending) in &mut self.levels {
            pending.extend(det.flush_idle(now_ms));
        }
    }

    /// Pending events included, in canonical order.
    fn state(&mut self) -> Vec<LevelState> {
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

    /// Flushes the `detect.multi.l<len>.{runs_opened,events_closed}`
    /// counters, plain integers until now: observation takes no atomics.
    fn finish(self: Box<Self>) -> BTreeMap<AggLevel, ScanReport> {
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
    use lumen6_addr::Ipv6Prefix;
    use lumen6_trace::PacketRecord;

    /// The reports of a detector at `levels` handed `records` in batches
    /// of 64.
    fn detect_levels(
        records: &[PacketRecord],
        levels: &[AggLevel],
        base: ScanDetectorConfig,
    ) -> BTreeMap<AggLevel, ScanReport> {
        let mut det = MultiLevelDetector::new(levels, base);
        for part in records.chunks(64) {
            det.observe_batch(&part.iter().copied().collect());
        }
        Box::new(det).finish()
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

    /// The one level of a one-level detector, after `batch`.
    fn one_level(cfg: ScanDetectorConfig, batch: &RecordBatch) -> MultiLevelDetector {
        let mut det = MultiLevelDetector::new(&[cfg.agg], cfg);
        det.observe_batch(batch);
        det
    }

    #[test]
    fn batch_memo_counts_consecutive_same_source_lookups() {
        let recs: Vec<PacketRecord> = (0..100u64)
            .map(|i| PacketRecord::tcp(i * 1000, 7, 0xdd00 + u128::from(i), 40000, 22, 60))
            .collect();
        let det = one_level(
            ScanDetectorConfig::paper(AggLevel::L128),
            &recs.iter().copied().collect(),
        );
        let (records, memo_hits, _) = det.levels[0].0.batch_stats();
        assert_eq!(records, 100);
        assert_eq!(memo_hits, 99, "every record after the first memo-hits");
    }

    #[test]
    fn a_run_is_accounted_once_and_equals_its_copies() {
        use crate::sketch::SketchConfig;
        use lumen6_trace::Transport;
        // Twenty destinations, five adjacent copies of each, then seven
        // near-duplicates of the last row, each differing from its
        // predecessor in one column. The five columns the run state reads
        // break the run; `sport` and `len` extend it. With spill at 16 the
        // first copy of the 17th destination's run crosses the threshold
        // and its other four find the sketch.
        let row = |i: u64| PacketRecord::tcp(i * 1000, 1, 0xdd00 + u128::from(i), 40000, 22, 60);
        let mut recs: Vec<PacketRecord> = (0..20)
            .flat_map(|i| std::iter::repeat_n(row(i), 5))
            .collect();
        let edits: [fn(&mut PacketRecord); 7] = [
            |r| r.ts_ms += 1,
            |r| r.src += 1,
            |r| r.dst += 1,
            |r| r.proto = Transport::Udp,
            |r| r.dport += 1,
            |r| r.sport += 1,
            |r| r.len += 1,
        ];
        for edit in edits {
            let mut next = recs[recs.len() - 1];
            edit(&mut next);
            recs.push(next);
        }
        for sketch in [None, Some(SketchConfig::spill_at(16))] {
            let cfg = ScanDetectorConfig {
                sketch,
                ..ScanDetectorConfig::paper(AggLevel::L64)
            };
            let mut by_row = MultiLevelDetector::new(&[cfg.agg], cfg.clone());
            for &r in &recs {
                by_row.observe_batch(&std::iter::once(r).collect());
            }
            let mut grouped = one_level(cfg, &recs.iter().copied().collect());
            assert_eq!(grouped.state(), by_row.state());
            assert!(grouped.state()[0].pending.is_empty());
            // 20 + 5 runs: `sport` and `len` must not cut.
            assert_eq!(grouped.levels[0].0.batch_stats(), (107, 106, 20 + 5));
        }
    }

    #[test]
    fn level_mask_matches_prefix_new() {
        let addr: u128 = 0x2001_0db8_1234_5678_9abc_def0_1122_3344;
        for len in [0u8, 1, 32, 48, 64, 96, 127, 128] {
            assert_eq!(
                addr & level_mask(len),
                Ipv6Prefix::new(addr, len).bits(),
                "/{len}"
            );
        }
        assert_eq!(level_mask(200), u128::MAX);
    }

    #[test]
    fn run_index_folds_repeats_and_carries_counts() {
        use lumen6_trace::{PacketRecord, Transport};
        let row = |i: u64| PacketRecord::tcp(i, 1, 0xdd00 + u128::from(i), 40000, 22, 60);
        // 3 x row 0, 1 x row 1, 4 x row 2 (cut 1 + 3), then seven rows each
        // differing from its predecessor in one column: the five the run
        // state reads cut, `sport` and `len` do not.
        let edits: [fn(&mut PacketRecord); 7] = [
            |r| r.ts_ms += 1,
            |r| r.src += 1,
            |r| r.dst += 1,
            |r| r.proto = Transport::Udp,
            |r| r.dport += 1,
            |r| r.sport += 1,
            |r| r.len += 1,
        ];
        let mut counted = RecordBatch::new();
        for (i, n) in [(0, 3), (1, 1), (2, 1), (2, 3)] {
            counted.push_n(row(i), n);
        }
        let mut next = row(2);
        for edit in edits {
            edit(&mut next);
            counted.push(next);
        }
        let expanded: RecordBatch = counted.iter().collect();
        assert_eq!((counted.rows(), expanded.rows()), (11, 15));
        let (mut a, mut b) = (Vec::new(), Vec::new());
        run_index(&counted, &mut a);
        run_index(&expanded, &mut b);
        let counts = |runs: &[(u32, u32)]| runs.iter().map(|r| r.1).collect::<Vec<_>>();
        assert_eq!(counts(&a), [3, 1, 4, 1, 1, 1, 1, 3]);
        assert_eq!(counts(&a), counts(&b));
        assert_eq!(a[2].0, 2, "a run is named by its first row");
        // Counts that would overflow stay apart.
        let mut huge = RecordBatch::new();
        huge.push_n(row(0), u32::MAX as usize + 7);
        run_index(&huge, &mut a);
        assert_eq!(a, [(0, u32::MAX), (1, 7)]);
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
            let single = &detect_levels(&recs, &[lvl], ScanDetectorConfig::paper(lvl))[&lvl];
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
