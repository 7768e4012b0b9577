//! The streaming large-scale scan detector (paper §2.2).
//!
//! A *scan* is a maximal sequence of packets from one aggregated source in
//! which consecutive packets are never more than `timeout` apart, targeting
//! at least `min_dsts` distinct destination addresses. The defaults are the
//! paper's: 100 destinations, 3 600 s timeout. Aggregation is applied to the
//! source address *before* detection, so a /48 can qualify while none of its
//! /64s does.
//!
//! Edge rules: a run splits only when the gap to the source's latest
//! timestamp is strictly greater than the timeout, and qualifies at exactly
//! `min_dsts`. A timestamp below the source's latest is tolerated and
//! counts as gap zero, so mildly disordered input neither splits a run nor
//! grows it backwards in time. A row of count `n` weighs as `n` packets.
//!
//! The rule is stated once, in [`ScanDetector`]'s replay of a batch: the
//! one ingest route is
//! [`MultiLevelDetector::observe_batch`](crate::multi::MultiLevelDetector::observe_batch),
//! which groups each batch once for all its levels and hands each level its
//! groups to replay. [`detect`] is a one-level detector over a resident
//! slice. The tests hold that route to an oracle of their own,
//! `crates/detect/tests/oracle/mod.rs`, written from §2.2 alone.
//! [`Detect::flush_idle`](crate::Detect::flush_idle) lets a long-running
//! IDS garbage-collect idle state without ending the stream.

use crate::aggregate::AggLevel;
use crate::event::{ScanEvent, ScanReport};
use crate::fxhash::{FxHashMap, FxHashSet};
use crate::multi::MultiLevelDetector;
use crate::session::{observe_slice, Detect, DEFAULT_SESSION_BATCH};
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

/// What a row may add to a run ([`SourceRun::record`]).
const NEW_DST: u8 = 1;
const NEW_SRC: u8 = 2;
const NEW_ANY: u8 = NEW_DST | NEW_SRC;

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
    /// The shared pass's clock at the run's first row; 0 for a run
    /// restored from a snapshot, which opened before the pass.
    opened: u64,
}

impl SourceRun {
    fn new(ts: u64, keep_dsts: bool, opened: u64) -> Self {
        SourceRun {
            start_ms: ts,
            last_ms: ts,
            packets: 0,
            dsts: DistinctCounter::new(),
            dst_list: keep_dsts.then(FxHashSet::default),
            srcs: DistinctCounter::new(),
            ports: FxHashMap::default(),
            opened,
        }
    }

    /// Accounts `n` adjacent copies of one packet to the run — the single
    /// run update of every level's replay.
    /// Equal to `n` calls at `n = 1`: only the two packet counts add up; the
    /// timestamp maximum and the set inserts are idempotent, and whether a
    /// counter spills to a sketch is decided by the first copy. Makes the
    /// inserts `ask` names and returns those that may have added something
    /// (a sketch cannot tell, so it may); a coarser level asks only for what
    /// added something to a finer run inside its own, so a skip changes
    /// nothing (DESIGN.md, "Nested levels share one pass").
    #[inline]
    fn record(&mut self, r: &PacketRecord, n: u64, ask: u8, spill: usize, precision: u8) -> u8 {
        self.last_ms = self.last_ms.max(r.ts_ms);
        self.packets += n;
        *self.ports.entry((r.proto, r.dport)).or_default() += n;
        let dst = ask & NEW_DST != 0 && {
            let new = self.dsts.insert(r.dst, spill, precision);
            self.dst_list
                .as_mut()
                .map_or(new, |list| list.insert(r.dst) && new)
        };
        let src = ask & NEW_SRC != 0 && self.srcs.insert(r.src, spill, precision);
        u8::from(dst) | u8::from(src) << 1
    }
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

/// One aggregation level's detection state: the open run of every source
/// and the counters the `detect.*` metrics read. A
/// [`MultiLevelDetector`](crate::multi::MultiLevelDetector) holds one per
/// level and is the only way to feed it.
#[derive(Debug)]
pub struct ScanDetector {
    config: ScanDetectorConfig,
    runs: FxHashMap<Ipv6Prefix, SourceRun>,
    observed: u64,
    runs_opened: u64,
    /// Batched-path statistics: records replayed, how many of them hit the
    /// last-source memo (consecutive records from the same aggregated
    /// source, the common shape of scan traffic), and how many runs —
    /// distinct adjacent rows — they were accounted as.
    batch_records: u64,
    memo_hits: u64,
    batch_runs: u64,
}

impl ScanDetector {
    /// Creates a detector with the given configuration.
    pub(crate) fn new(config: ScanDetectorConfig) -> Self {
        ScanDetector {
            config: config.normalized(),
            runs: FxHashMap::default(),
            observed: 0,
            runs_opened: 0,
            batch_records: 0,
            memo_hits: 0,
            batch_runs: 0,
        }
    }

    /// The active configuration.
    pub(crate) fn config(&self) -> &ScanDetectorConfig {
        &self.config
    }

    /// Number of packets observed so far.
    pub(crate) fn observed(&self) -> u64 {
        self.observed
    }

    /// Total activity runs ever opened (first packet of a new source, or
    /// the first packet after a timeout split).
    pub(crate) fn runs_opened(&self) -> u64 {
        self.runs_opened
    }

    /// Replays one batch at this level, grouped by the shared pass in
    /// [`multi`](crate::multi): one runs-map lookup per group (a source's
    /// runs in arrival order), then one timeout test and one
    /// [`SourceRun::record`] per run.
    ///
    /// `tags` holds a word per batch row: each level writes where the row's
    /// run opened on the pass's clock (row `i` is at `base + i`), above the
    /// bits of what the row added to it; the next coarser level, if its run
    /// opened no later and so holds all of that run, makes only the inserts
    /// the bits name (the `finest` level has none to read). Closed events
    /// go to `pending` in arrival order; `(memo_hits, runs)` count the
    /// grouping.
    pub(crate) fn replay<'a>(
        &mut self,
        batch: &RecordBatch,
        groups: impl Iterator<Item = (u128, &'a [(u32, u32)])>,
        tags: &mut [u64],
        (base, finest): (u64, bool),
        (memo_hits, runs): (usize, usize),
        pending: &mut Vec<ScanEvent>,
    ) {
        let (spill, precision) = self.config.sketch_params();
        let (cfg, agg) = (&self.config, self.config.agg);
        // At /128 a run's source is its own address: inserted when it opens.
        let later = if agg.len() >= 128 { NEW_DST } else { NEW_ANY };
        let mut closed = Vec::new();
        for (key, idxs) in groups {
            // The key bits are already masked, so this re-mask is identity.
            let source = Ipv6Prefix::new(key, agg.len());
            let run = self.runs.entry(source).or_insert_with(|| {
                self.runs_opened += 1;
                let i = idxs[0].0;
                SourceRun::new(
                    batch.ts_ms()[i as usize],
                    cfg.keep_dsts,
                    base + u64::from(i),
                )
            });
            for &(i, count) in idxs {
                let (r, at, n) = (batch.get(i as usize), i as usize, u64::from(count));
                debug_assert_eq!(source, agg.source_of(r.src));
                if r.ts_ms.saturating_sub(run.last_ms) > cfg.timeout_ms {
                    let fresh = SourceRun::new(r.ts_ms, cfg.keep_dsts, base + u64::from(i));
                    let old = std::mem::replace(run, fresh);
                    self.runs_opened += 1;
                    closed.extend(Self::emit(cfg, source, old).map(|e| (i, e)));
                }
                // Only what the row added to the finer run it went into, if
                // this run holds all of that run; the finest knows nothing.
                let held = !finest && run.opened <= tags[at] >> 2;
                let mut ask = NEW_ANY & if held { tags[at] as u8 } else { NEW_ANY };
                if run.packets > 0 {
                    ask &= later;
                }
                let new = run.record(&r, n, ask, spill, precision);
                // A run older than the pass cannot vouch for its rows.
                let new = if run.opened == 0 { NEW_ANY } else { new };
                tags[at] = run.opened << 2 | u64::from(new);
            }
        }
        closed.sort_unstable_by_key(|&(i, _)| i);
        pending.extend(closed.into_iter().map(|(_, e)| e));
        let n = batch.len() as u64;
        self.observed += n;
        self.batch_records += n;
        self.memo_hits += memo_hits as u64;
        self.batch_runs += runs as u64;
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
    pub(crate) fn flush_idle(&mut self, now_ms: u64) -> Vec<ScanEvent> {
        let deadline = now_ms.saturating_sub(self.config.timeout_ms);
        let (config, mut out) = (&self.config, Vec::new());
        self.runs.retain(|&source, run| {
            let live = run.last_ms >= deadline;
            if !live {
                let run = std::mem::replace(run, SourceRun::new(0, false, 0));
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
    pub(crate) fn finish(mut self) -> Vec<ScanEvent> {
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
    pub(crate) fn state(&self) -> LevelState {
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
    pub(crate) fn from_state(state: &LevelState) -> Self {
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
                        opened: 0,
                    },
                )
            })
            .collect();
        ScanDetector {
            config: state.config.clone().normalized(),
            runs,
            observed: state.observed,
            runs_opened: state.runs_opened,
            batch_records: 0,
            memo_hits: 0,
            batch_runs: 0,
        }
    }
}

/// Detects the scans in a complete, time-sorted slice at one level and
/// returns the full report (mid-stream closures plus end-of-stream flush):
/// a one-level [`MultiLevelDetector`] fed through [`observe_slice`], then
/// finished. Streams go through a [`Session`](crate::Session).
///
/// ```
/// use lumen6_detect::detector::detect;
/// use lumen6_detect::{AggLevel, ScanDetectorConfig};
/// use lumen6_trace::PacketRecord;
///
/// // 150 probes to distinct destinations, one second apart: one run.
/// let probes: Vec<PacketRecord> = (0..150u64)
///     .map(|i| PacketRecord::tcp(i * 1_000, 0x2001, 0xd000 + u128::from(i), 1, 22, 60))
///     .collect();
/// let report = detect(&probes, ScanDetectorConfig::paper(AggLevel::L64));
/// assert_eq!(report.scans(), 1);
/// assert_eq!(report.events[0].distinct_dsts, 150);
/// ```
pub fn detect(records: &[PacketRecord], config: ScanDetectorConfig) -> ScanReport {
    let agg = config.agg;
    let mut det = MultiLevelDetector::new(&[agg], config);
    observe_slice(&mut det, records, DEFAULT_SESSION_BATCH);
    Box::new(det).finish().remove(&agg).unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;

    const HOUR: u64 = 3_600_000;

    /// A one-level detector fed `recs` one row per batch.
    fn fed(cfg: ScanDetectorConfig, recs: &[PacketRecord]) -> MultiLevelDetector {
        let mut det = MultiLevelDetector::new(&[cfg.agg], cfg);
        observe_slice(&mut det, recs, 1);
        det
    }

    /// `n` packets from `src`, one per second, to distinct destinations.
    fn burst(src: u128, t0: u64, n: u64, dport: u16) -> Vec<PacketRecord> {
        (0..n)
            .map(|i| PacketRecord::tcp(t0 + i * 1000, src, 0xdd00 + i as u128, 40000, dport, 60))
            .collect()
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
    fn mid_stream_emission_on_gap() {
        let mut det = fed(
            ScanDetectorConfig::paper(AggLevel::L128),
            &burst(1, 0, 100, 22),
        );
        assert!(det.state()[0].pending.is_empty());
        // First packet after the timeout closes the run: its event is
        // held for the report.
        let r = PacketRecord::tcp(99_000 + HOUR + 1, 1, 9, 1, 22, 60);
        observe_slice(&mut det, &[r], 1);
        let closed = det.state().remove(0).pending;
        assert_eq!(closed.len(), 1);
        assert_eq!(closed[0].distinct_dsts, 100);
        // The trailing single packet does not qualify.
        assert_eq!(Box::new(det).finish()[&AggLevel::L128].events, closed);
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
        assert_eq!(
            e.ports,
            vec![((Transport::Tcp, 22), 100), ((Transport::Tcp, 443), 50)]
        );
    }

    #[test]
    fn flush_idle_bounds_state() {
        let mut det = fed(
            ScanDetectorConfig::paper(AggLevel::L128),
            &burst(1, 0, 100, 22),
        );
        observe_slice(&mut det, &burst(2, HOUR, 5, 22), 1);
        let held = |det: &mut MultiLevelDetector| det.state()[0].memory();
        assert_eq!(held(&mut det).open_runs, 2);
        // Source 1 idle since 99s; flush at a time where only it is expired.
        det.flush_idle(99_000 + HOUR + 1);
        assert_eq!(
            (held(&mut det).open_runs, held(&mut det).pending_events),
            (1, 1)
        );
        // Non-qualifying idle runs are dropped silently.
        det.flush_idle(HOUR + 5_000 + HOUR + 1);
        assert_eq!(
            (held(&mut det).open_runs, held(&mut det).pending_events),
            (0, 1)
        );
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
        // Source 1: 200 distinct destinations → spills past 64.
        let mut det = fed(cfg, &burst(1, 0, 200, 22));
        // Source 2: 10 destinations → stays exact.
        observe_slice(&mut det, &burst(2, 0, 10, 23), 1);
        let m = det.state()[0].memory();
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
