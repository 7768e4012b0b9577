//! The streaming large-scale scan detector (paper §2.2).
//!
//! A *scan* is a maximal sequence of packets from one aggregated source in
//! which consecutive packets are never more than `timeout` apart, targeting
//! at least `min_dsts` distinct destination addresses. The defaults are the
//! paper's: 100 destinations, 3 600 s timeout. Aggregation is applied to the
//! source address *before* detection, so a /48 can qualify while none of its
//! /64s does.
//!
//! The detector is a push-based stream processor. Production paths feed it
//! columnar batches via [`ScanDetector::observe_batch`], which returns the
//! events of every activity run a record in the batch closed (by exceeding
//! the timeout) and that qualified as a scan. [`ScanDetector::observe`] is
//! the same rule stated one packet at a time — the reference the grouped
//! path is tested against. Call [`ScanDetector::finish`] at end of stream to
//! flush all open runs. [`ScanDetector::flush_idle`] lets a long-running IDS
//! garbage-collect idle state without ending the stream.

use crate::aggregate::AggLevel;
use crate::event::{ScanEvent, ScanReport};
use crate::fxhash::{FxHashMap, FxHashSet};
use crate::sketch::{DistinctCounter, SketchConfig};
use crate::snapshot::{CounterState, LevelState, RunState};
use lumen6_addr::Ipv6Prefix;
use lumen6_trace::{PacketRecord, RecordBatch, Transport};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Configuration of the large-scale scan definition.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScanDetectorConfig {
    /// Source aggregation level applied before detection.
    pub agg: AggLevel,
    /// Minimum distinct destination addresses for a run to qualify as a
    /// scan. The paper uses 100 (and studies 50 in the sensitivity analysis;
    /// related work used 25 or 5).
    pub min_dsts: u64,
    /// Maximum packet inter-arrival time within one scan, in milliseconds.
    /// The paper uses one hour (3 600 000 ms) and studies 30 and 15 minutes.
    pub timeout_ms: u64,
    /// Retain the full destination-address set on emitted events (needed for
    /// targeting analysis; costs memory, so off for IDS use).
    pub keep_dsts: bool,
    /// If set, per-source distinct counters spill from exact sets to
    /// HyperLogLog sketches per [`SketchConfig`]. Sketched events cannot
    /// retain destination sets. Deserialization also accepts the legacy
    /// `[spill_threshold, precision]` tuple encoding.
    pub sketch: Option<SketchConfig>,
}

impl Default for ScanDetectorConfig {
    fn default() -> Self {
        ScanDetectorConfig {
            agg: AggLevel::L64,
            min_dsts: 100,
            timeout_ms: 3_600_000,
            keep_dsts: false,
            sketch: None,
        }
    }
}

impl ScanDetectorConfig {
    /// The paper's configuration at a given aggregation level.
    pub fn paper(agg: AggLevel) -> Self {
        ScanDetectorConfig {
            agg,
            ..Default::default()
        }
    }

    /// Same configuration with destination retention enabled.
    pub fn with_dsts(mut self) -> Self {
        self.keep_dsts = true;
        self
    }

    /// The `(spill_threshold, precision)` pair threaded into every per-run
    /// [`DistinctCounter::insert`] — the single authority for the sketch
    /// fallback, replacing the two hard-coded `(usize::MAX, 12)` sites the
    /// observe paths used to carry separately.
    ///
    /// With `sketch: None` the detector is exact: the `usize::MAX` spill
    /// threshold means no counter ever spills, so the accompanying
    /// precision (the default 12) exists only to give the hot path a
    /// concrete value and never builds a sketch. With `sketch: Some(..)`
    /// both values come from the config, precision clamped to the supported
    /// `4..=16`.
    ///
    /// Precision trades estimate error for memory: a sketch holds
    /// `2^precision` one-byte registers with ≈`1.04/sqrt(2^precision)`
    /// relative error — 12 → 4 KiB at ≈1.6%, 14 → 16 KiB at ≈0.8%,
    /// 16 → 64 KiB at ≈0.4%. At paper-scale intensities (~100x more
    /// distinct sources) the 1.6% default visibly skews Table 1 source
    /// counts, so high-intensity sketched runs should raise it
    /// (`--sketch-precision` on the CLI).
    pub fn sketch_params(&self) -> (usize, u8) {
        self.sketch
            .map_or((usize::MAX, crate::sketch::DEFAULT_PRECISION), |s| {
                let s = s.clamped();
                (s.spill_threshold, s.precision)
            })
    }

    /// Normalizes the configuration: clamps any sketch precision into the
    /// supported range. Applied when a detector is constructed or restored
    /// from a snapshot, so out-of-range values from hand-edited configs or
    /// foreign checkpoints never linger in live state (where they would
    /// poison [`HyperLogLog::merge`](crate::HyperLogLog::merge) later).
    #[must_use]
    fn normalized(mut self) -> Self {
        self.sketch = self.sketch.map(SketchConfig::clamped);
        self
    }
}

/// Per-source accumulation state for one activity run.
#[derive(Debug)]
struct SourceRun {
    start_ms: u64,
    last_ms: u64,
    packets: u64,
    dsts: DistinctCounter,
    dst_list: Option<FxHashSet<u128>>,
    srcs: DistinctCounter,
    ports: FxHashMap<(Transport, u16), u64>,
}

impl SourceRun {
    fn new(ts: u64, keep_dsts: bool) -> Self {
        SourceRun {
            start_ms: ts,
            last_ms: ts,
            packets: 0,
            dsts: DistinctCounter::new(),
            dst_list: keep_dsts.then(FxHashSet::default),
            srcs: DistinctCounter::new(),
            ports: FxHashMap::default(),
        }
    }

    /// Accounts `n` adjacent copies of one packet to the run — the single
    /// run update both [`ScanDetector::observe`] and
    /// [`ScanDetector::observe_batch`] apply. Equal to `n` calls at
    /// `n = 1`: only the two packet counts add up; the timestamp maximum
    /// and the set inserts are idempotent, and whether a counter spills to
    /// a sketch is decided by the first copy (the rest find the set, or the
    /// registers, unchanged).
    #[inline]
    fn record(&mut self, r: &PacketRecord, n: u64, spill: usize, precision: u8) {
        self.last_ms = self.last_ms.max(r.ts_ms);
        self.packets += n;
        self.dsts.insert(r.dst, spill, precision);
        if let Some(list) = self.dst_list.as_mut() {
            list.insert(r.dst);
        }
        self.srcs.insert(r.src, spill, precision);
        *self.ports.entry((r.proto, r.dport)).or_default() += n;
    }
}

/// Reusable grouping scratch for [`ScanDetector::observe_batch`]: index
/// vectors and closure buffers survive across batches so the batched path
/// allocates nothing in steady state. Never serialized — it carries no
/// detector state between batches.
#[derive(Debug, Default)]
struct BatchScratch {
    /// Masked source → position in `groups` for the batch being processed.
    index: FxHashMap<u128, usize>,
    /// Per-source runs in arrival order: (first row, records).
    groups: Vec<(u128, Vec<(u32, u32)>)>,
    /// Recycled index vectors.
    pool: Vec<Vec<(u32, u32)>>,
    /// Closed events tagged with the batch index of the closing record, so
    /// emission order can be restored to exact arrival order.
    closed: Vec<(u32, ScanEvent)>,
}

/// Memory footprint of one detection level (what an operator dashboards:
/// per-source state is the thing that grows under attack), read off a
/// [`LevelState`] by [`LevelState::memory`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DetectorMemory {
    /// Sources with an open activity run.
    pub open_runs: usize,
    /// Exact destination-set entries held across all runs.
    pub exact_dst_entries: usize,
    /// Runs whose destination counter spilled to a HyperLogLog sketch.
    pub sketched_runs: usize,
    /// Distinct (service → count) histogram entries across all runs.
    pub port_entries: usize,
    /// Events closed mid-stream and held for the final report.
    pub pending_events: usize,
}

impl DetectorMemory {
    /// Sets the `detect.multi.l<len>.*` gauges of `level` in `reg`.
    pub fn publish(&self, reg: &lumen6_obs::MetricsRegistry, level: AggLevel) {
        for (name, n) in [
            ("open_runs", self.open_runs),
            ("exact_dst_entries", self.exact_dst_entries),
            ("port_entries", self.port_entries),
            ("pending_events", self.pending_events),
        ] {
            reg.gauge(&format!("detect.multi.l{}.{name}", level.len()))
                .set(i64::try_from(n).unwrap_or(i64::MAX));
        }
    }
}

/// Streaming large-scale scan detector. See the module docs for usage.
///
/// ```
/// use lumen6_detect::{ScanDetector, ScanDetectorConfig, AggLevel};
/// use lumen6_trace::PacketRecord;
///
/// let mut det = ScanDetector::new(ScanDetectorConfig::paper(AggLevel::L64));
/// // 150 probes to distinct destinations, one second apart.
/// for i in 0..150u64 {
///     let pkt = PacketRecord::tcp(i * 1_000, 0x2001, 0xd000 + i as u128, 1, 22, 60);
///     assert!(det.observe(&pkt).is_none()); // still within one run
/// }
/// let events = det.finish();
/// assert_eq!(events.len(), 1);
/// assert_eq!(events[0].distinct_dsts, 150);
/// ```
#[derive(Debug)]
pub struct ScanDetector {
    config: ScanDetectorConfig,
    runs: FxHashMap<Ipv6Prefix, SourceRun>,
    observed: u64,
    runs_opened: u64,
    scratch: BatchScratch,
    /// Batched-path statistics: records ingested via `observe_batch`, how
    /// many of them hit the last-source memo (consecutive records from
    /// the same aggregated source, the common shape of scan traffic), and
    /// how many runs — distinct adjacent rows — they were accounted as.
    batch_records: u64,
    memo_hits: u64,
    batch_runs: u64,
}

impl ScanDetector {
    /// Creates a detector with the given configuration.
    pub fn new(config: ScanDetectorConfig) -> Self {
        ScanDetector {
            config: config.normalized(),
            runs: FxHashMap::default(),
            observed: 0,
            runs_opened: 0,
            scratch: BatchScratch::default(),
            batch_records: 0,
            memo_hits: 0,
            batch_runs: 0,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &ScanDetectorConfig {
        &self.config
    }

    /// Number of packets observed so far.
    pub fn observed(&self) -> u64 {
        self.observed
    }

    /// Number of sources with an open activity run (IDS memory footprint).
    pub fn open_runs(&self) -> usize {
        self.runs.len()
    }

    /// Total activity runs ever opened (first packet of a new source, or
    /// the first packet after a timeout split).
    pub fn runs_opened(&self) -> u64 {
        self.runs_opened
    }

    /// Feeds one packet. Returns a scan event if this packet's arrival
    /// closed a qualifying previous run of the same source (i.e. the gap to
    /// the source's last packet exceeded the timeout).
    ///
    /// This is the reference statement of the paper's rule, not an ingest
    /// route: sessions, the daemon, the CLI and the experiment harness feed
    /// [`observe_batch`](Self::observe_batch) only, and the proptest
    /// `observe_batch_matches_observe_under_any_cuts`
    /// (`crates/detect/tests/proptests.rs`) holds that grouped path to this
    /// one: same events, same order, same [`state`](Self::state).
    ///
    /// Records are expected in non-decreasing time order; a timestamp below
    /// a source's last seen time is tolerated and treated as simultaneous
    /// (gap zero), which keeps the detector robust to mildly disordered
    /// input without growing events backwards in time.
    pub fn observe(&mut self, r: &PacketRecord) -> Option<ScanEvent> {
        let source = self.config.agg.source_of(r.src);
        self.observed += 1;
        let (spill, precision) = self.config.sketch_params();

        let mut closed = None;
        let run = match self.runs.entry(source) {
            std::collections::hash_map::Entry::Occupied(mut occ) => {
                let gap = r.ts_ms.saturating_sub(occ.get().last_ms);
                if gap > self.config.timeout_ms {
                    let old = std::mem::replace(
                        occ.get_mut(),
                        SourceRun::new(r.ts_ms, self.config.keep_dsts),
                    );
                    self.runs_opened += 1;
                    closed = Self::emit(&self.config, source, old);
                }
                occ.into_mut()
            }
            std::collections::hash_map::Entry::Vacant(vac) => {
                self.runs_opened += 1;
                vac.insert(SourceRun::new(r.ts_ms, self.config.keep_dsts))
            }
        };
        run.record(r, 1, spill, precision);
        closed
    }

    /// Feeds a decoded [`RecordBatch`] (struct-of-arrays) through the
    /// batched hot path. Returns every scan event closed by records in the
    /// batch, in exact arrival order — byte-for-byte the same events, state,
    /// and ordering as feeding each record through
    /// [`observe`](Self::observe) individually.
    ///
    /// The batch is cut into runs of identical records
    /// ([`kernels::run_index`](crate::kernels::run_index)) and grouped by
    /// aggregated source prefix first, so the per-source run state is
    /// looked up in the runs map once per (source, batch) and updated once
    /// per run instead of once per packet; a last-source memo makes the
    /// grouping itself O(1) per run for bursty scan traffic.
    pub fn observe_batch(&mut self, batch: &RecordBatch) -> Vec<ScanEvent> {
        let mut runs = Vec::new();
        crate::kernels::run_index(batch, &mut runs);
        self.observe_runs(batch, &runs)
    }

    /// [`observe_batch`](Self::observe_batch) given the batch's run index:
    /// [`MultiLevelDetector`](crate::multi::MultiLevelDetector), the product
    /// route, derives it once for all its levels.
    pub(crate) fn observe_runs(
        &mut self,
        batch: &RecordBatch,
        runs: &[(u32, u32)],
    ) -> Vec<ScanEvent> {
        let n = batch.len();
        let (spill, precision) = self.config.sketch_params();
        let keep = self.config.keep_dsts;
        let timeout = self.config.timeout_ms;
        let agg = self.config.agg;
        let mut scratch = std::mem::take(&mut self.scratch);
        let BatchScratch {
            index,
            groups,
            pool,
            closed,
        } = &mut scratch;

        // Phase 1: group the runs by source masked down to the aggregation
        // level, preserving arrival order within each group. Consecutive
        // same-source runs (the dominant pattern under scan traffic) skip
        // the map entirely; every other record counts as a memo hit.
        let (src, mask) = (batch.src(), crate::kernels::level_mask(agg.len()));
        let mut last: Option<(u128, usize)> = None;
        let mut memo_hits = n as u64;
        for &(i, count) in runs {
            let key = src[i as usize] & mask;
            let gi = match last {
                Some((k, g)) if k == key => g,
                _ => {
                    memo_hits -= 1;
                    *index.entry(key).or_insert_with(|| {
                        let g = groups.len();
                        groups.push((key, pool.pop().unwrap_or_default()));
                        g
                    })
                }
            };
            groups[gi].1.push((i, count));
            last = Some((key, gi));
        }

        // Phase 2: one runs-map lookup per (source, batch), then replay the
        // group's runs against the held run state — one timeout test per
        // run: its later copies arrive at gap zero. Per-source state depends
        // only on that source's subsequence, so processing groups out of
        // arrival order cannot change any run or counter.
        let mut opened = 0u64;
        for (key, idxs) in groups.iter_mut() {
            // The key bits are already masked, so this re-mask is identity.
            let source = Ipv6Prefix::new(*key, agg.len());
            let run = match self.runs.entry(source) {
                std::collections::hash_map::Entry::Occupied(occ) => occ.into_mut(),
                std::collections::hash_map::Entry::Vacant(vac) => {
                    opened += 1;
                    let first_ts = batch.ts_ms()[idxs[0].0 as usize];
                    vac.insert(SourceRun::new(first_ts, keep))
                }
            };
            for &(i, count) in idxs.iter() {
                let r = batch.get(i as usize);
                debug_assert_eq!(source, agg.source_of(r.src));
                let gap = r.ts_ms.saturating_sub(run.last_ms);
                if gap > timeout {
                    let old = std::mem::replace(run, SourceRun::new(r.ts_ms, keep));
                    opened += 1;
                    if let Some(e) = Self::emit(&self.config, source, old) {
                        closed.push((i, e));
                    }
                }
                run.record(&r, u64::from(count), spill, precision);
            }
        }

        // Phase 3: restore exact arrival order for the closure events (a
        // record closes at most one run, so sorting by batch index alone is
        // total) and recycle the scratch buffers.
        closed.sort_unstable_by_key(|&(i, _)| i);
        let out: Vec<ScanEvent> = closed.drain(..).map(|(_, e)| e).collect();
        for (_, mut v) in groups.drain(..) {
            v.clear();
            pool.push(v);
        }
        index.clear();
        self.scratch = scratch;
        self.observed += n as u64;
        self.runs_opened += opened;
        self.batch_records += n as u64;
        self.memo_hits += memo_hits;
        self.batch_runs += runs.len() as u64;
        out
    }

    /// Records ingested through the batched path, how many hit the
    /// last-source memo, and how many runs they were accounted as — the
    /// `detect.batch.*` counters.
    pub fn batch_stats(&self) -> (u64, u64, u64) {
        (self.batch_records, self.memo_hits, self.batch_runs)
    }

    /// Closes and returns qualifying runs idle since before
    /// `now - timeout`. Lets a long-running deployment bound state size. One
    /// pass over the run map: a session calls this once per timeout of
    /// stream time.
    pub fn flush_idle(&mut self, now_ms: u64) -> Vec<ScanEvent> {
        let deadline = now_ms.saturating_sub(self.config.timeout_ms);
        let (config, mut out) = (&self.config, Vec::new());
        self.runs.retain(|&source, run| {
            let live = run.last_ms >= deadline;
            if !live {
                let run = std::mem::replace(run, SourceRun::new(0, false));
                out.extend(Self::emit(config, source, run));
            }
            live
        });
        out
    }

    /// Ends the stream: closes every open run and returns the qualifying
    /// events, sorted by (start time, source) for determinism.
    ///
    /// If the batch path was used, flushes its telemetry
    /// (`detect.batch.records` / `detect.batch.memo_hits` /
    /// `detect.batch.runs`) to the global metrics registry — accumulated
    /// as plain integers during the stream so the hot path stays free of
    /// atomics.
    pub fn finish(mut self) -> Vec<ScanEvent> {
        if self.batch_records > 0 {
            let reg = lumen6_obs::MetricsRegistry::global();
            reg.counter("detect.batch.records").add(self.batch_records);
            reg.counter("detect.batch.memo_hits").add(self.memo_hits);
            reg.counter("detect.batch.runs").add(self.batch_runs);
        }
        let mut out: Vec<ScanEvent> = self
            .runs
            .drain()
            .filter_map(|(s, run)| Self::emit(&self.config, s, run))
            .collect();
        out.sort_by_key(|e| (e.start_ms, e.source));
        out
    }

    fn emit(config: &ScanDetectorConfig, source: Ipv6Prefix, run: SourceRun) -> Option<ScanEvent> {
        let distinct = run.dsts.count();
        if distinct < config.min_dsts {
            return None;
        }
        let ports: BTreeMap<(Transport, u16), u64> = run.ports.into_iter().collect();
        let dsts = run.dst_list.map(|set| {
            let mut v: Vec<u128> = set.into_iter().collect();
            v.sort_unstable();
            v
        });
        Some(ScanEvent {
            source,
            agg: config.agg,
            start_ms: run.start_ms,
            end_ms: run.last_ms,
            packets: run.packets,
            distinct_dsts: distinct,
            distinct_srcs: run.srcs.count(),
            ports: ports.into_iter().collect(),
            dsts,
        })
    }

    /// Serializable snapshot of the complete detector state: configuration,
    /// counters and every open run. Closed events are returned to the
    /// caller as they happen, so `pending` is empty here; the multi-level
    /// detector that collects them fills it in. Order-sensitive collections
    /// are sorted, so two detectors in the same logical state produce
    /// identical snapshots.
    pub fn state(&self) -> LevelState {
        let mut runs: Vec<RunState> = self
            .runs
            .iter()
            .map(|(source, run)| RunState {
                source: *source,
                start_ms: run.start_ms,
                last_ms: run.last_ms,
                packets: run.packets,
                dsts: CounterState::from(&run.dsts),
                dst_list: run.dst_list.as_ref().map(|set| {
                    let mut v: Vec<u128> = set.iter().copied().collect();
                    v.sort_unstable();
                    v
                }),
                srcs: CounterState::from(&run.srcs),
                ports: {
                    let mut v: Vec<((Transport, u16), u64)> =
                        run.ports.iter().map(|(&k, &n)| (k, n)).collect();
                    v.sort_unstable_by_key(|&(k, _)| k);
                    v
                },
            })
            .collect();
        runs.sort_by_key(|r| r.source);
        LevelState {
            config: self.config.clone(),
            observed: self.observed,
            runs_opened: self.runs_opened,
            runs,
            pending: Vec::new(),
        }
    }

    /// Rebuilds a detector from a [`state`](Self::state) snapshot. The
    /// snapshot's embedded configuration is authoritative; its `pending`
    /// events belong to whoever collects this detector's output.
    pub fn from_state(state: &LevelState) -> Self {
        let runs = state
            .runs
            .iter()
            .map(|r| {
                (
                    r.source,
                    SourceRun {
                        start_ms: r.start_ms,
                        last_ms: r.last_ms,
                        packets: r.packets,
                        dsts: DistinctCounter::from(&r.dsts),
                        dst_list: r.dst_list.as_ref().map(|v| v.iter().copied().collect()),
                        srcs: DistinctCounter::from(&r.srcs),
                        ports: r.ports.iter().copied().collect(),
                    },
                )
            })
            .collect();
        ScanDetector {
            config: state.config.clone().normalized(),
            runs,
            observed: state.observed,
            runs_opened: state.runs_opened,
            scratch: BatchScratch::default(),
            batch_records: 0,
            memo_hits: 0,
            batch_runs: 0,
        }
    }
}

/// Runs the per-record reference ([`ScanDetector::observe`]) over a
/// complete, time-sorted slice and returns the full report (mid-stream
/// closures plus end-of-stream flush). Examples, benches and tests use it as
/// the oracle; product paths go through
/// [`DetectorBuilder`](crate::DetectorBuilder) and
/// [`observe_slice`](crate::observe_slice), and the root `tests/ingest.rs`
/// holds a [`Session`](crate::Session) to this function level by level.
pub fn detect(records: &[PacketRecord], config: ScanDetectorConfig) -> ScanReport {
    let mut det = ScanDetector::new(config);
    let mut events = Vec::new();
    for r in records {
        if let Some(e) = det.observe(r) {
            events.push(e);
        }
    }
    events.extend(det.finish());
    events.sort_by_key(|e| (e.start_ms, e.source));
    ScanReport::new(events)
}

#[cfg(test)]
mod tests {
    use super::*;

    const HOUR: u64 = 3_600_000;

    /// `n` packets from `src`, one per second, to distinct destinations.
    fn burst(src: u128, t0: u64, n: u64, dport: u16) -> Vec<PacketRecord> {
        (0..n)
            .map(|i| PacketRecord::tcp(t0 + i * 1000, src, 0xdd00 + i as u128, 40000, dport, 60))
            .collect()
    }

    #[test]
    fn hundred_destinations_qualifies() {
        let recs = burst(1, 0, 100, 22);
        let report = detect(&recs, ScanDetectorConfig::paper(AggLevel::L128));
        assert_eq!(report.scans(), 1);
        let e = &report.events[0];
        assert_eq!(e.packets, 100);
        assert_eq!(e.distinct_dsts, 100);
        assert_eq!(e.distinct_srcs, 1);
        assert_eq!(e.start_ms, 0);
        assert_eq!(e.end_ms, 99_000);
    }

    #[test]
    fn ninety_nine_destinations_does_not() {
        let recs = burst(1, 0, 99, 22);
        let report = detect(&recs, ScanDetectorConfig::paper(AggLevel::L128));
        assert_eq!(report.scans(), 0);
    }

    #[test]
    fn repeated_destinations_do_not_count_twice() {
        // 200 packets but only 50 distinct destinations.
        let mut recs = Vec::new();
        for i in 0..200u64 {
            recs.push(PacketRecord::tcp(i * 1000, 1, (i % 50) as u128, 1, 22, 60));
        }
        let report = detect(&recs, ScanDetectorConfig::paper(AggLevel::L128));
        assert_eq!(report.scans(), 0);
    }

    #[test]
    fn timeout_splits_events() {
        let mut recs = burst(1, 0, 100, 22);
        recs.extend(burst(1, 100_000 + HOUR + 1, 100, 22));
        let report = detect(&recs, ScanDetectorConfig::paper(AggLevel::L128));
        assert_eq!(report.scans(), 2);
        assert_eq!(report.sources(), 1);
    }

    #[test]
    fn gap_exactly_at_timeout_does_not_split() {
        // Last packet of first burst at t=99_000; next packet exactly
        // `timeout` later must stay in the same event (strictly-greater gap
        // splits).
        let mut recs = burst(1, 0, 100, 22);
        recs.extend(burst(1, 99_000 + HOUR, 100, 23));
        let report = detect(&recs, ScanDetectorConfig::paper(AggLevel::L128));
        assert_eq!(report.scans(), 1);
        assert_eq!(report.events[0].packets, 200);
    }

    #[test]
    fn gap_one_ms_over_timeout_splits() {
        let mut recs = burst(1, 0, 100, 22);
        recs.extend(burst(1, 99_000 + HOUR + 1, 100, 22));
        let report = detect(&recs, ScanDetectorConfig::paper(AggLevel::L128));
        assert_eq!(report.scans(), 2);
    }

    #[test]
    fn batch_memo_counts_consecutive_same_source_lookups() {
        let recs = burst(7, 0, 100, 22);
        let mut det = ScanDetector::new(ScanDetectorConfig::paper(AggLevel::L128));
        det.observe_batch(&recs.iter().copied().collect());
        let (records, memo_hits, _) = det.batch_stats();
        assert_eq!(records, 100);
        assert_eq!(memo_hits, 99, "every record after the first memo-hits");
    }

    #[test]
    fn a_run_is_accounted_once_and_equals_its_copies() {
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
            let mut reference = ScanDetector::new(cfg.clone());
            for r in &recs {
                assert!(reference.observe(r).is_none());
            }
            let mut grouped = ScanDetector::new(cfg);
            assert!(grouped
                .observe_batch(&recs.iter().copied().collect())
                .is_empty());
            assert_eq!(grouped.state(), reference.state());
            // 20 + 5 runs: `sport` and `len` must not cut.
            assert_eq!(grouped.batch_stats(), (107, 106, 20 + 5));
        }
    }

    #[test]
    fn mid_stream_emission_on_gap() {
        let mut det = ScanDetector::new(ScanDetectorConfig::paper(AggLevel::L128));
        for r in burst(1, 0, 100, 22) {
            assert!(det.observe(&r).is_none());
        }
        // First packet after the timeout closes and emits the run.
        let r = PacketRecord::tcp(99_000 + HOUR + 1, 1, 9, 1, 22, 60);
        let e = det.observe(&r).expect("qualifying run closes");
        assert_eq!(e.distinct_dsts, 100);
        // The trailing single packet does not qualify.
        assert!(det.finish().is_empty());
    }

    #[test]
    fn aggregation_merges_spread_sources() {
        // 100 distinct /128 sources in one /64, each sending ONE packet to a
        // distinct destination: invisible at /128, a scan at /64. This is
        // the paper's central methodological point.
        let base: u128 = 0x2001_0db8_0000_0000_0000_0000_0000_0000;
        let recs: Vec<PacketRecord> = (0..100u64)
            .map(|i| PacketRecord::tcp(i * 1000, base + i as u128, 0xee00 + i as u128, 1, 22, 60))
            .collect();
        let at128 = detect(&recs, ScanDetectorConfig::paper(AggLevel::L128));
        assert_eq!(at128.scans(), 0);
        let at64 = detect(&recs, ScanDetectorConfig::paper(AggLevel::L64));
        assert_eq!(at64.scans(), 1);
        assert_eq!(at64.events[0].distinct_srcs, 100);
        assert_eq!(at64.events[0].source.len(), 64);
    }

    #[test]
    fn forty_eight_can_qualify_when_no_64_does() {
        // Two /64s in one /48, each targeting 60 destinations: no /64 scan,
        // one /48 scan (Table 2, AS#18 situation).
        let p64a: u128 = 0x2001_0db8_0001_0000_0000_0000_0000_0001;
        let p64b: u128 = 0x2001_0db8_0001_0001_0000_0000_0000_0001;
        let mut recs = burst(p64a, 0, 60, 22);
        recs.extend(burst(p64b, 500, 60, 22));
        // Distinct destinations across the two bursts:
        for (i, r) in recs.iter_mut().enumerate() {
            r.dst = 0xaa00 + i as u128;
        }
        lumen6_trace::sort_by_time(&mut recs);
        assert_eq!(
            detect(&recs, ScanDetectorConfig::paper(AggLevel::L64)).scans(),
            0
        );
        let at48 = detect(&recs, ScanDetectorConfig::paper(AggLevel::L48));
        assert_eq!(at48.scans(), 1);
        assert_eq!(at48.events[0].distinct_dsts, 120);
    }

    #[test]
    fn keep_dsts_returns_sorted_targets() {
        let recs = burst(1, 0, 100, 22);
        let report = detect(&recs, ScanDetectorConfig::paper(AggLevel::L128).with_dsts());
        let dsts = report.events[0].dsts.as_ref().unwrap();
        assert_eq!(dsts.len(), 100);
        assert!(dsts.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(dsts[0], 0xdd00);
    }

    #[test]
    fn ports_histogram_accumulates() {
        let mut recs = burst(1, 0, 100, 22);
        recs.extend(burst(1, 100_000, 50, 443));
        let report = detect(&recs, ScanDetectorConfig::paper(AggLevel::L128));
        let e = &report.events[0];
        assert_eq!(e.num_ports(), 2);
        assert!(e.targets(Transport::Tcp, 22));
        assert_eq!(e.top_port().unwrap(), ((Transport::Tcp, 22), 100));
    }

    #[test]
    fn flush_idle_bounds_state() {
        let mut det = ScanDetector::new(ScanDetectorConfig::paper(AggLevel::L128));
        for r in burst(1, 0, 100, 22) {
            det.observe(&r);
        }
        for r in burst(2, HOUR, 5, 22) {
            det.observe(&r);
        }
        assert_eq!(det.open_runs(), 2);
        // Source 1 idle since 99s; flush at a time where only it is expired.
        let flushed = det.flush_idle(99_000 + HOUR + 1);
        assert_eq!(flushed.len(), 1);
        assert_eq!(det.open_runs(), 1);
        // Non-qualifying idle runs are dropped silently.
        let flushed2 = det.flush_idle(HOUR + 5_000 + HOUR + 1);
        assert!(flushed2.is_empty());
        assert_eq!(det.open_runs(), 0);
    }

    #[test]
    fn out_of_order_timestamp_tolerated() {
        let mut recs = burst(1, 10_000, 100, 22);
        // A straggler 5 s in the past.
        recs.push(PacketRecord::tcp(5_000, 1, 0xffff, 1, 22, 60));
        let report = detect(&recs, ScanDetectorConfig::paper(AggLevel::L128));
        assert_eq!(report.scans(), 1);
        let e = &report.events[0];
        assert_eq!(e.packets, 101);
        // Event does not extend backwards past its first-seen packet.
        assert_eq!(e.start_ms, 10_000);
    }

    #[test]
    fn sketched_detection_close_to_exact() {
        let recs = burst(1, 0, 5_000, 22);
        let exact = detect(&recs, ScanDetectorConfig::paper(AggLevel::L128));
        let mut cfg = ScanDetectorConfig::paper(AggLevel::L128);
        cfg.sketch = Some(SketchConfig::spill_at(256));
        let sketched = detect(&recs, cfg);
        assert_eq!(exact.scans(), 1);
        assert_eq!(sketched.scans(), 1);
        let a = exact.events[0].distinct_dsts as f64;
        let b = sketched.events[0].distinct_dsts as f64;
        assert!((a - b).abs() / a < 0.05, "exact={a} sketched={b}");
    }

    #[test]
    fn min_dsts_five_matches_loose_definition() {
        let recs = burst(1, 0, 7, 22);
        let mut cfg = ScanDetectorConfig::paper(AggLevel::L128);
        cfg.min_dsts = 5;
        assert_eq!(detect(&recs, cfg).scans(), 1);
        assert_eq!(
            detect(&recs, ScanDetectorConfig::paper(AggLevel::L128)).scans(),
            0
        );
    }

    #[test]
    fn memory_snapshot_tracks_state_and_spills() {
        let mut cfg = ScanDetectorConfig::paper(AggLevel::L128);
        cfg.sketch = Some(SketchConfig::spill_at(64));
        let mut det = ScanDetector::new(cfg);
        // Source 1: 200 distinct destinations → spills past 64.
        for r in burst(1, 0, 200, 22) {
            det.observe(&r);
        }
        // Source 2: 10 destinations → stays exact.
        for r in burst(2, 0, 10, 23) {
            det.observe(&r);
        }
        let m = det.state().memory();
        assert_eq!(m.open_runs, 2);
        assert_eq!(m.sketched_runs, 1);
        assert_eq!(m.exact_dst_entries, 10);
        assert_eq!(m.port_entries, 2);
        // Sketch caps the per-source footprint: the spilled run no longer
        // contributes destination entries.
        let empty = ScanDetector::new(ScanDetectorConfig::default());
        assert_eq!(empty.state().memory(), DetectorMemory::default());
    }

    #[test]
    fn empty_input_empty_report() {
        let report = detect(&[], ScanDetectorConfig::default());
        assert_eq!(report.scans(), 0);
        assert_eq!(report.packets(), 0);
    }

    #[test]
    fn construction_and_restore_clamp_sketch_precision() {
        use crate::sketch::{DEFAULT_PRECISION, MAX_PRECISION};
        let cfg = ScanDetectorConfig {
            sketch: Some(SketchConfig {
                spill_threshold: 64,
                precision: 99,
            }),
            ..Default::default()
        };
        let det = ScanDetector::new(cfg);
        assert_eq!(
            det.config().sketch.map(|s| s.precision),
            Some(MAX_PRECISION)
        );
        // Simulate a foreign snapshot carrying an unclamped precision: the
        // restore boundary must normalize it too, so a restored detector
        // can always merge sketches with a freshly built one.
        let mut state = det.state();
        state.config.sketch = Some(SketchConfig {
            spill_threshold: 64,
            precision: 99,
        });
        let back = ScanDetector::from_state(&state);
        assert_eq!(back.config().sketch_params(), (64, MAX_PRECISION));
        // And the exact (no-sketch) default never spills.
        assert_eq!(
            ScanDetectorConfig::default().sketch_params(),
            (usize::MAX, DEFAULT_PRECISION)
        );
    }
}
