//! Threaded multi-level scan detection: one [`MultiLevelDetector`] on one
//! worker thread — a pipeline stage, so the caller's ingest (trace decode,
//! fused generation, the reorder buffer) overlaps detection.
//!
//! The stream is not split. Eventization state is keyed by aggregated
//! source, and scan traffic is concentrated: the paper's two largest /64
//! sources carry 70 % of all scan packets (Fig. 3), so per-source shards
//! cannot balance, and a router thread would touch every row once more. On
//! 2 cores one worker beat two shards in 6 of 6 `detect --trace` runs and
//! in 4 of 6 `fused-par` pairs; hosts with more cores are unmeasured
//! (DESIGN.md, "Parallel pipeline").
//!
//! The caller copies each columnar [`RecordBatch`] it is given into a
//! staging batch and ships it to the worker once it holds `BATCH` records,
//! over a channel `DEPTH` batches deep; the worker feeds it to the
//! detector's grouped [`observe_batch`](MultiLevelDetector::observe_batch)
//! and returns the emptied batch through a recycle channel, so the steady
//! state allocates nothing. An idle flush rides in-band as a mark on the
//! staged rows ([`observe_cut_at`]), and a snapshot is a rendezvous: the
//! worker replies once it has consumed everything queued before the
//! request. State and reports are the worker's detector's own, so a
//! threaded and a sequential run at one stream position write the same
//! checkpoint bytes and the same reports (the property-tested backend
//! grid, see `crates/detect/tests/proptests.rs`).
//!
//! ```
//! use lumen6_detect::prelude::*;
//! use lumen6_trace::PacketRecord;
//!
//! let recs: Vec<PacketRecord> = (0..200u64)
//!     .map(|i| PacketRecord::tcp(i * 1000, 7, 0xd000 + i as u128, 1, 22, 60))
//!     .collect();
//! let mut det = DetectorBuilder::new(ScanDetectorConfig::default())
//!     .levels(&AggLevel::PAPER_LEVELS)
//!     .build(Backend::Threaded);
//! observe_slice(det.as_mut(), &recs, 4096);
//! assert_eq!(det.finish()[&AggLevel::L128].scans(), 1);
//! ```

use crate::aggregate::AggLevel;
use crate::detector::ScanDetectorConfig;
use crate::event::ScanReport;
use crate::multi::MultiLevelDetector;
use crate::session::{observe_cut_at, Detect};
use crate::snapshot::LevelState;
use lumen6_obs::MetricsRegistry;
use lumen6_trace::RecordBatch;
use std::collections::BTreeMap;
use std::sync::mpsc::{channel, sync_channel, Receiver, SyncSender, TrySendError};
use std::thread::JoinHandle;
use std::time::Instant;

/// Records per batch shipped to the worker. Batching amortizes channel
/// synchronization; the value does not affect results.
const BATCH: usize = 4096;

/// Batches in flight before the caller blocks on the worker. Bounds the
/// pipeline to `DEPTH + 2` batches: the channel's, the worker's and the
/// one staging.
const DEPTH: usize = 4;

type Reports = BTreeMap<AggLevel, ScanReport>;

/// Message to the worker: packets, and a request for its serializable state
/// mid-stream (for checkpointing) without tearing the pipeline down.
// Nearly every message is the large variant; boxing it would buy nothing.
#[allow(clippy::large_enum_variant)]
enum Msg {
    /// A columnar batch to observe, in stream order, and the idle flushes
    /// that fell due inside it: each `(rows_before, now_ms)` closes runs
    /// idle since before `now_ms - timeout` once that many of the rows are
    /// observed (see [`observe_cut_at`]). The worker returns the emptied
    /// batch through the recycle channel.
    Batch(RecordBatch, Vec<(u32, u64)>),
    /// Send the worker's per-level state back through the provided channel.
    Snapshot(SyncSender<Vec<LevelState>>),
}

/// A [`MultiLevelDetector`] on a worker thread, with the same push
/// interface: feed time-ordered columnar batches via
/// [`observe_batch`](Self::observe_batch), then [`finish`](Self::finish).
///
/// The worker is spawned on construction and joined by `finish`; dropping
/// without finishing shuts it down and discards its results.
#[derive(Debug)]
pub struct ThreadedDetector {
    sender: SyncSender<Msg>,
    /// `None` only once a panicked worker was joined to re-raise its panic.
    worker: Option<JoinHandle<Reports>>,
    /// Rows not yet shipped, and the idle flushes due inside them; they ship
    /// together, so a flush costs no send and cuts no batch short.
    staged: RecordBatch,
    marks: Vec<(u32, u64)>,
    /// Free list of empty batches, refilled from the worker's `recycle`
    /// channel before a fresh batch is ever allocated.
    spares: Vec<RecordBatch>,
    recycle: Receiver<RecordBatch>,
    levels: Vec<AggLevel>,
    observed: u64,
    // Telemetry as plain integers on the hot path, flushed in `finish`.
    batches_sent: u64,
    stalls: u64,
}

impl ThreadedDetector {
    /// A fresh [`MultiLevelDetector`] over `levels` with the shared base
    /// configuration, on its worker.
    pub fn new(levels: &[AggLevel], base: ScanDetectorConfig) -> Self {
        let owned = levels.to_vec();
        Self::spawn(levels.to_vec(), 0, move || {
            Box::new(MultiLevelDetector::new(&owned, base))
        })
    }

    /// The detector a uniform per-level snapshot describes (as produced by
    /// [`Detect::state`] on either backend), restored on its worker.
    pub fn from_state(states: &[LevelState]) -> Self {
        let levels = states.iter().map(|s| s.config.agg).collect();
        let observed = states.first().map_or(0, |s| s.observed);
        let states = states.to_vec();
        Self::spawn(levels, observed, move || {
            Box::new(MultiLevelDetector::from_state(&states))
        })
    }

    /// Spawns the worker, which builds its detector with `init`.
    fn spawn(
        levels: Vec<AggLevel>,
        observed: u64,
        init: impl FnOnce() -> Box<dyn Detect> + Send + 'static,
    ) -> Self {
        // lumen6: allow(L009, recycle channel is bounded by construction: batches in circulation never exceed DEPTH + 2, pinned by staging_batches_are_recycled_not_reallocated)
        let (recycle_tx, recycle) = channel::<RecordBatch>();
        let (sender, rx) = sync_channel::<Msg>(DEPTH);
        let worker = std::thread::spawn(move || {
            let started = Instant::now();
            let mut det = init();
            let mut piece = RecordBatch::new();
            while let Ok(msg) = rx.recv() {
                match msg {
                    // The send fails only once the caller is gone: nothing
                    // to recycle to, so the batch is simply dropped.
                    Msg::Batch(mut batch, marks) => {
                        observe_cut_at(det.as_mut(), &batch, marks, &mut piece, None);
                        batch.clear();
                        let _ = recycle_tx.send(batch);
                    }
                    Msg::Snapshot(reply) => {
                        let _ = reply.send(det.state());
                    }
                }
            }
            let reports = det.finish();
            MetricsRegistry::global()
                .histogram("detect.parallel.worker_wall_us")
                .record_duration(started.elapsed());
            reports
        });
        ThreadedDetector {
            sender,
            worker: Some(worker),
            staged: RecordBatch::with_capacity(BATCH),
            marks: Vec::new(),
            spares: Vec::new(),
            recycle,
            levels,
            observed,
            batches_sent: 0,
            stalls: 0,
        }
    }

    /// The configured aggregation levels.
    pub fn levels(&self) -> &[AggLevel] {
        &self.levels
    }

    /// Number of packets observed so far.
    pub fn observed(&self) -> u64 {
        self.observed
    }

    /// Stages a columnar batch — seven contiguous column copies, counts
    /// included — and ships the staging batch once it holds `BATCH`
    /// records. Packets must arrive in non-decreasing time order, as for
    /// the sequential detectors.
    pub fn observe_batch(&mut self, batch: &RecordBatch) {
        self.staged.extend_from_batch(batch);
        self.observed += batch.len() as u64;
        if self.staged.len() >= BATCH {
            self.ship();
        }
    }

    /// Closes runs idle since before `now - timeout`. Report-neutral, like
    /// [`MultiLevelDetector::flush_idle`]. Nothing is sent: the staged rows
    /// are marked at their current end, and the worker flushes on reaching
    /// the mark — the order a ship and a control message would give, with
    /// batches staying full.
    pub fn flush_idle(&mut self, now_ms: u64) {
        let rows = self.staged.rows() as u32;
        match self.marks.last_mut() {
            // No row between two flushes: the later closes both sets.
            Some(last) if last.0 == rows => last.1 = last.1.max(now_ms),
            _ => self.marks.push((rows, now_ms)),
        }
    }

    /// A channel that closed while the detector is live means the worker
    /// panicked. Joining it retrieves the original payload, so the root
    /// cause — not a secondary send or receive error — surfaces at the call
    /// site that observed the failure.
    fn propagate_worker_panic(&mut self) -> ! {
        join(self.worker.take());
        // lumen6: allow(L001, the worker's channel closed but the worker exited cleanly: unreachable by construction, and the caller has no error channel)
        panic!("detector worker channel closed but the worker exited cleanly");
    }

    /// An empty batch to stage into: the worker's returns first, a fresh
    /// allocation only while fewer than `DEPTH + 2` are in circulation.
    fn take_spare(&mut self) -> RecordBatch {
        self.spares.extend(self.recycle.try_iter());
        self.spares
            .pop()
            .unwrap_or_else(|| RecordBatch::with_capacity(BATCH))
    }

    /// Ships the staged rows and their flush marks, counting a stall when
    /// the bounded channel is full and the caller has to wait for the
    /// worker, then stages into a recycled batch.
    fn ship(&mut self) {
        let msg = Msg::Batch(
            std::mem::take(&mut self.staged),
            std::mem::take(&mut self.marks),
        );
        self.batches_sent += 1;
        match self.sender.try_send(msg) {
            Ok(()) => {}
            Err(TrySendError::Full(msg)) => {
                self.stalls += 1;
                if self.sender.send(msg).is_err() {
                    self.propagate_worker_panic();
                }
            }
            Err(TrySendError::Disconnected(_)) => self.propagate_worker_panic(),
        }
        self.staged = self.take_spare();
    }

    /// Ships whatever is staged, so the worker has seen the stream up to
    /// the current position.
    fn drain(&mut self) {
        if !self.staged.is_empty() || !self.marks.is_empty() {
            self.ship();
        }
    }

    /// The worker's per-level state at the current stream position, in the
    /// canonical form every backend produces. The pipeline keeps running.
    pub fn state(&mut self) -> Vec<LevelState> {
        self.drain();
        let (reply, state) = sync_channel(1);
        if self.sender.send(Msg::Snapshot(reply)).is_err() {
            self.propagate_worker_panic();
        }
        match state.recv() {
            Ok(levels) => levels,
            Err(_) => self.propagate_worker_panic(),
        }
    }

    /// Ends the stream: ships what is staged, closes the channel and joins
    /// the worker, whose per-level reports are already sorted by
    /// `(start_ms, source)`.
    pub fn finish(mut self) -> Reports {
        self.drain();
        let reg = MetricsRegistry::global();
        reg.counter("detect.parallel.batches_sent")
            .add(self.batches_sent);
        reg.counter("detect.parallel.channel_full_stalls")
            .add(self.stalls);
        let ThreadedDetector { sender, worker, .. } = self;
        // Closing the channel ends the worker's receive loop.
        drop(sender);
        // `worker` is `None` only after a worker panic was re-raised.
        join(worker).unwrap_or_default()
    }
}

/// Joins the worker, re-raising its own panic payload: the root cause, not
/// a generic "worker panicked" message.
fn join(worker: Option<JoinHandle<Reports>>) -> Option<Reports> {
    worker.map(|w| {
        w.join()
            .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lumen6_trace::PacketRecord;

    fn workload() -> Vec<PacketRecord> {
        // Several sources across distinct /48s and /64s, one spread /64,
        // a timeout split, and sub-threshold noise.
        let mut recs = Vec::new();
        for s in 0..6u64 {
            let src = ((0x2001_0db8_0000_0000u128 + u128::from(s)) << 64) | 0x1;
            for i in 0..120u64 {
                recs.push(PacketRecord::tcp(
                    s * 77 + i * 1000,
                    src,
                    0xa000 + u128::from(s) * 0x1000 + u128::from(i),
                    1,
                    22,
                    60,
                ));
            }
        }
        // Spread /64: 100 /128s, one packet each.
        for i in 0..100u64 {
            recs.push(PacketRecord::tcp(
                i * 500,
                0x2600_0000_0000_0000_0000_0000_0000_0000u128 + u128::from(i),
                0xb000 + u128::from(i),
                1,
                443,
                60,
            ));
        }
        // Second burst past the timeout for source 0.
        let src0 = (0x2001_0db8_0000_0000u128 << 64) | 0x1;
        for i in 0..110u64 {
            recs.push(PacketRecord::tcp(
                8_000_000 + i * 1000,
                src0,
                0xc000 + u128::from(i),
                1,
                22,
                60,
            ));
        }
        // Noise below min_dsts.
        for i in 0..40u64 {
            recs.push(PacketRecord::udp(
                i * 2000,
                0x99,
                0xd000 + u128::from(i),
                1,
                53,
                80,
            ));
        }
        lumen6_trace::sort_by_time(&mut recs);
        recs
    }

    #[test]
    fn staging_batches_are_recycled_not_reallocated() {
        // Sixteen batches' worth of records: after the rendezvous in
        // `state()` the worker has returned every batch it was sent, so the
        // free list holds all the batches the pipeline ever allocated — no
        // more than the `DEPTH + 2` in circulation, not one per ship.
        let recs: Vec<PacketRecord> = (0..16 * BATCH as u64)
            .map(|i| PacketRecord::tcp(i, 0x2001 << 64 | u128::from(i % 7), i.into(), 1, 22, 60))
            .collect();
        let mut det = ThreadedDetector::new(&AggLevel::PAPER_LEVELS, ScanDetectorConfig::default());
        let mut staged = RecordBatch::new();
        for part in recs.chunks(1024) {
            staged.clear();
            staged.extend(part.iter().copied());
            det.observe_batch(&staged);
        }
        assert!(det.batches_sent >= 16, "sent {}", det.batches_sent);
        det.state();
        let spare = det.take_spare();
        assert!(spare.is_empty(), "workers recycle cleared batches");
        assert!(
            !det.spares.is_empty(),
            "recycle channel returned no batches to the free list"
        );
        let allocated = det.spares.len() + 2;
        assert!(allocated <= DEPTH + 2, "{allocated} batches allocated");
        det.finish();
    }

    #[test]
    fn empty_stream_reports_every_level() {
        let det = ThreadedDetector::new(&AggLevel::PAPER_LEVELS, ScanDetectorConfig::default());
        let out = det.finish();
        assert_eq!(out.len(), 3);
        assert!(out.values().all(|r| r.scans() == 0));
    }

    /// A flush sends nothing and ships nothing early: it marks the staged
    /// rows, and two flushes with no row between them are one mark. The
    /// worker, cutting at the marks, ends up where a sequential detector
    /// flushed at the same points does.
    #[test]
    fn idle_flush_rides_with_the_staged_rows() {
        let recs = workload();
        let cfg = ScanDetectorConfig::default();
        let mut seq = MultiLevelDetector::new(&AggLevel::PAPER_LEVELS, cfg.clone());
        let mut par = ThreadedDetector::new(&AggLevel::PAPER_LEVELS, cfg);
        let mut staged = RecordBatch::new();
        let mut closed_mid_stream = false;
        for part in recs.chunks(50) {
            staged.clear();
            staged.extend(part.iter().copied());
            seq.observe_batch(&staged);
            par.observe_batch(&staged);
            let (now, sent) = (part[part.len() - 1].ts_ms, par.batches_sent);
            for now in [now, now + 1] {
                seq.flush_idle(now);
                par.flush_idle(now);
            }
            assert_eq!(par.batches_sent, sent, "a flush shipped a batch");
            let marks = &par.marks;
            assert_eq!(marks.last(), Some(&(par.staged.rows() as u32, now + 1)));
            assert!(marks.windows(2).all(|w| w[0].0 < w[1].0), "{marks:?}");
            closed_mid_stream |= seq.state().iter().any(|l| !l.pending.is_empty());
        }
        assert!(closed_mid_stream, "no flush closed a scan");
        assert_eq!(par.observed(), recs.len() as u64);
        assert_eq!(par.state(), seq.state());
        assert!(par.marks.is_empty(), "state() ships the marks");
        assert_eq!(par.finish(), seq.finish());
    }

    /// A detector that panics on its first batch.
    struct Panics;

    impl Detect for Panics {
        fn observe_batch(&mut self, _: &RecordBatch) {
            panic!("worker boom");
        }
        fn flush_idle(&mut self, _: u64) {}
        fn observed(&self) -> u64 {
            0
        }
        fn levels(&self) -> Vec<AggLevel> {
            Vec::new()
        }
        fn state(&mut self) -> Vec<LevelState> {
            Vec::new()
        }
        fn finish(self: Box<Self>) -> Reports {
            Reports::new()
        }
    }

    /// A worker's panic reaches the caller with the worker's own payload,
    /// whether the caller next ships, asks for state or finishes.
    #[test]
    fn a_worker_panic_surfaces_with_its_own_payload() {
        let one: RecordBatch = workload()[..1].iter().copied().collect();
        let calls: [&dyn Fn(ThreadedDetector); 3] = [
            &|mut det| loop {
                det.observe_batch(&one);
            },
            &|mut det| drop(det.state()),
            &|det| drop(det.finish()),
        ];
        for call in calls {
            let mut det = ThreadedDetector::spawn(Vec::new(), 0, || Box::new(Panics));
            det.observe_batch(&one);
            det.drain();
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| call(det)));
            let payload = caught.expect_err("the worker's panic surfaced");
            assert_eq!(payload.downcast_ref::<&str>(), Some(&"worker boom"));
        }
    }
}
