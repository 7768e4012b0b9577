//! Fault-tolerant streaming ingest: the unified [`Detect`] trait, the
//! [`DetectorBuilder`], out-of-order tolerance, and checkpoint/resume.
//!
//! The paper's vantage point captures continuously for 15 months; an ingest
//! that loses all in-memory run state on restart, or aborts on the first
//! corrupt record, cannot reproduce that operationally. This module wraps
//! any detector backend in a [`Session`] that survives all three failure
//! modes:
//!
//! 1. **Crashes** — [`Checkpoint`]s capture the complete pipeline state
//!    (detector runs and sketches, the reorder buffer, the trace byte
//!    offset) with an integrity checksum, written atomically (temp file +
//!    rename). A killed run resumed from its last checkpoint produces a
//!    report *byte-identical* to an uninterrupted run — a subprocess-tested
//!    invariant. The file is `L6CK v2`: a header line, then the binary body
//!    of [`crate::checkpoint_codec`], streamed to disk through the checksum.
//!    `L6CK v1` files (a JSON body) still load; none is written.
//! 2. **Reordering** — real multi-machine logs are never globally
//!    time-ordered. A bounded [`ReorderBuffer`] with a configurable
//!    watermark re-sorts slightly-late packets before the detector sees
//!    them; packets later than the watermark are counted and dropped,
//!    never silently mis-eventized.
//! 3. **Corrupt records** — recoverable decode errors (field overflows)
//!    quarantine-and-skip with per-kind `lumen6-obs` counters instead of
//!    aborting (framing errors still abort: stream alignment is lost).
//!
//! There is one ingest route: the source fills a columnar
//! [`RecordBatch`], the reorder buffer (when a watermark is set) releases
//! into another, an idle flush cuts that batch where it falls due, and
//! [`Detect::observe_batch`] — the only way a detector takes input — sees
//! the pieces. Nothing is held between steps, so a checkpoint or report
//! taken after any step covers every record pulled so far.
//!
//! The two detector backends — [`MultiLevelDetector`] and the threaded
//! pipeline — implement [`Detect`], so the CLI, the daemon and the
//! experiment harness dispatch through one code path chosen by
//! [`DetectorBuilder`]. Snapshots use one uniform, canonically ordered
//! per-level format: a threaded and a sequential run at the same stream
//! position write the same checkpoint bytes, and a checkpoint written by
//! either restores into the other.

use crate::aggregate::AggLevel;
use crate::checkpoint_codec;
use crate::detector::{DetectorMemory, ScanDetectorConfig};
use crate::event::ScanReport;
use crate::multi::MultiLevelDetector;
use crate::parallel::ThreadedDetector;
use crate::snapshot::{DetectorSnapshot, LevelState, SnapshotError};
use lumen6_obs::{Counter, Histogram, MetricsRegistry, StageTimer};
use lumen6_trace::{
    write_atomic, CodecError, FileStreamSource, FillOutcome, PacketRecord, RecordBatch, Source,
    TracePosition,
};
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::fmt;
use std::fs;
use std::io::{self, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

// ---------------------------------------------------------------------------
// The unified detector trait
// ---------------------------------------------------------------------------

/// The unified push interface over all detector backends.
///
/// `observe_batch` returns nothing: the threaded backend processes packets
/// on a worker thread and cannot return closed events synchronously, so every
/// implementation accumulates mid-stream events internally and reports them
/// from [`finish`].
///
/// [`finish`]: Detect::finish
pub trait Detect: Send {
    /// Feeds a columnar batch — the only way a detector ingests. Records
    /// must arrive in non-decreasing time order (wrap the detector in a
    /// [`Session`] with a watermark if they don't). How a stream is cut
    /// into batches never changes a report or a snapshot.
    fn observe_batch(&mut self, batch: &RecordBatch);

    /// Closes runs idle since before `now_ms - timeout`, bounding state
    /// size in a long-running deployment. Report-neutral: events closed
    /// here are identical to what [`finish`](Detect::finish) would emit.
    fn flush_idle(&mut self, now_ms: u64);

    /// The complete serializable per-level state (see
    /// [`LevelState`]). `&mut` because the threaded backend must ship what
    /// it staged to its worker to collect it; the sequential one does not
    /// mutate.
    fn state(&mut self) -> Vec<LevelState>;

    /// A versioned [`DetectorSnapshot`] wrapping [`state`](Detect::state).
    fn snapshot(&mut self) -> DetectorSnapshot {
        DetectorSnapshot::new(self.state())
    }

    /// Ends the stream and returns the per-level reports, each sorted by
    /// `(start_ms, source)`.
    fn finish(self: Box<Self>) -> BTreeMap<AggLevel, ScanReport>;
}

// ---------------------------------------------------------------------------
// DetectorBuilder
// ---------------------------------------------------------------------------

/// Which execution backend a [`DetectorBuilder`] realizes a detector on.
///
/// The backend is orthogonal to *what* is detected (configuration and
/// aggregation levels live on the builder): the sequential and threaded
/// pipelines produce identical reports and interchangeable snapshots, so
/// the choice is purely an execution-resource decision and is made at
/// [`build`](DetectorBuilder::build) /
/// [`restore`](DetectorBuilder::restore) time — including across a resume,
/// where the checkpoint may have been written by the other backend.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Backend {
    /// One [`MultiLevelDetector`] on the caller's thread.
    Sequential,
    /// The same detector on a worker thread, fed through a bounded batch
    /// channel (identical output, see [`crate::parallel`]).
    #[default]
    Threaded,
}

/// Chooses and constructs a detector backend behind the [`Detect`] trait —
/// the one code path `lumen6 detect`, `lumen6 serve`, and the experiment
/// harness dispatch through.
///
/// The builder holds the detection *shape* (base configuration and
/// aggregation levels); the execution [`Backend`] is passed to
/// [`build`](Self::build) so one builder can realize detectors on
/// different backends.
///
/// ```
/// use lumen6_detect::prelude::*;
/// use lumen6_trace::{PacketRecord, RecordBatch};
///
/// let batch: RecordBatch = (0..150u64)
///     .map(|i| PacketRecord::tcp(i * 1_000, 7, 0xd000 + u128::from(i), 1, 22, 60))
///     .collect();
/// let mut det = DetectorBuilder::new(ScanDetectorConfig::default())
///     .levels(&AggLevel::PAPER_LEVELS)
///     .build(Backend::Sequential);
/// det.observe_batch(&batch);
/// let reports = det.finish();
/// assert_eq!(reports[&AggLevel::L64].scans(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct DetectorBuilder {
    base: ScanDetectorConfig,
    levels: Vec<AggLevel>,
}

impl DetectorBuilder {
    /// A single-level builder at `base.agg`.
    pub fn new(base: ScanDetectorConfig) -> Self {
        let levels = vec![base.agg];
        DetectorBuilder { base, levels }
    }

    /// Detect at these aggregation levels (the base config's `agg` field is
    /// overridden per level).
    pub fn levels(mut self, levels: &[AggLevel]) -> Self {
        self.levels = levels.to_vec();
        self
    }

    /// Constructs a fresh [`MultiLevelDetector`] (over however many
    /// levels, one included) on the given backend.
    pub fn build(&self, backend: Backend) -> Box<dyn Detect> {
        let (levels, base) = (&self.levels, self.base.clone());
        match backend {
            Backend::Threaded => Box::new(ThreadedDetector::new(levels, base)),
            Backend::Sequential => Box::new(MultiLevelDetector::new(levels, base)),
        }
    }

    /// Reconstructs a detector from a snapshot on the given backend. The
    /// snapshot's embedded per-level configurations are authoritative
    /// (they were validated at checkpoint time); only the backend choice
    /// applies, which is what makes a checkpoint portable across backends.
    /// Its levels must share one `timeout_ms`, as a builder's do: one scan
    /// definition at several aggregations, what the shared pass is built for.
    pub fn restore(
        &self,
        backend: Backend,
        snapshot: &DetectorSnapshot,
    ) -> Result<Box<dyn Detect>, SnapshotError> {
        snapshot.check_version()?;
        let Some(first) = snapshot.levels.first() else {
            return Err(SnapshotError("snapshot has no levels".into()));
        };
        let timeout = first.config.timeout_ms;
        if snapshot
            .levels
            .iter()
            .any(|l| l.config.timeout_ms != timeout)
        {
            return Err(SnapshotError(
                "snapshot levels disagree on timeout_ms".into(),
            ));
        }
        Ok(match backend {
            Backend::Threaded => Box::new(ThreadedDetector::from_state(&snapshot.levels)),
            Backend::Sequential => Box::new(MultiLevelDetector::from_state(&snapshot.levels)),
        })
    }
}

// ---------------------------------------------------------------------------
// Out-of-order tolerance
// ---------------------------------------------------------------------------

/// Heap entry ordered by `(ts, seq)`: timestamp first, arrival order as the
/// tiebreaker so equal-timestamp packets release in arrival order.
#[derive(Debug, Clone, Copy)]
struct Entry {
    ts: u64,
    seq: u64,
    rec: PacketRecord,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        (self.ts, self.seq) == (other.ts, other.seq)
    }
}
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.ts, self.seq).cmp(&(other.ts, other.seq))
    }
}

/// Bounded reorder buffer with a time watermark.
///
/// Packets are held until the maximum timestamp seen exceeds theirs by more
/// than `watermark_ms`, then released in timestamp order — so the detector
/// always sees a non-decreasing stream as long as disorder stays within the
/// watermark. Packets arriving *later* than the watermark (timestamp below
/// `max_seen - watermark_ms`, i.e. after their release horizon has passed)
/// are counted and dropped: feeding them through would either corrupt run
/// accounting or force unbounded buffering.
///
/// A watermark of 0 disables the buffer entirely (pure passthrough, nothing
/// dropped), preserving the detectors' native mild-disorder tolerance for
/// sorted simulator output; a [`Session`] then skips the buffer and hands
/// the source's batch to the detector as it is.
#[derive(Debug)]
pub struct ReorderBuffer {
    watermark_ms: u64,
    heap: BinaryHeap<Reverse<Entry>>,
    seq: u64,
    max_ts: u64,
    late_dropped: u64,
}

impl ReorderBuffer {
    /// A buffer releasing packets `watermark_ms` behind the newest seen.
    pub fn new(watermark_ms: u64) -> Self {
        ReorderBuffer {
            watermark_ms,
            heap: BinaryHeap::new(),
            seq: 0,
            max_ts: 0,
            late_dropped: 0,
        }
    }

    /// The configured watermark.
    pub fn watermark_ms(&self) -> u64 {
        self.watermark_ms
    }

    /// Packets dropped for arriving beyond the watermark.
    pub fn late_dropped(&self) -> u64 {
        self.late_dropped
    }

    /// Feeds one packet; appends every packet whose release horizon passed
    /// to `out`, in timestamp order.
    pub fn push(&mut self, rec: PacketRecord, out: &mut RecordBatch) {
        if self.watermark_ms == 0 {
            out.push(rec);
            return;
        }
        let horizon = self.max_ts.saturating_sub(self.watermark_ms);
        if rec.ts_ms < horizon {
            self.late_dropped += 1;
            return;
        }
        self.heap.push(Reverse(Entry {
            ts: rec.ts_ms,
            seq: self.seq,
            rec,
        }));
        self.seq += 1;
        self.max_ts = self.max_ts.max(rec.ts_ms);
        let horizon = self.max_ts.saturating_sub(self.watermark_ms);
        while self.heap.peek().is_some_and(|Reverse(e)| e.ts <= horizon) {
            if let Some(Reverse(e)) = self.heap.pop() {
                // lumen6: allow(L009, out is the step's release batch, cleared before every step; volume per call is bounded by the heap, which the watermark caps)
                out.push(e.rec);
            }
        }
    }

    /// End of stream: releases everything still buffered, in order.
    pub fn drain(&mut self, out: &mut RecordBatch) {
        while let Some(Reverse(e)) = self.heap.pop() {
            // lumen6: allow(L009, end-of-stream flush of the remaining heap; bounded by the watermark and runs once)
            out.push(e.rec);
        }
    }

    /// Serializable state (entries sorted by release order).
    pub fn state(&self) -> ReorderState {
        let mut entries: Vec<Entry> = self.heap.iter().map(|Reverse(e)| *e).collect();
        entries.sort_unstable();
        ReorderState {
            watermark_ms: self.watermark_ms,
            max_ts: self.max_ts,
            late_dropped: self.late_dropped,
            entries: entries.into_iter().map(|e| e.rec).collect(),
        }
    }

    /// Rebuilds a buffer from serialized state; buffered entries keep their
    /// relative release order.
    pub fn from_state(st: &ReorderState) -> Self {
        let heap = st
            .entries
            .iter()
            .enumerate()
            .map(|(i, rec)| {
                Reverse(Entry {
                    ts: rec.ts_ms,
                    seq: i as u64,
                    rec: *rec,
                })
            })
            .collect();
        ReorderBuffer {
            watermark_ms: st.watermark_ms,
            heap,
            seq: st.entries.len() as u64,
            max_ts: st.max_ts,
            late_dropped: st.late_dropped,
        }
    }
}

/// Serialized [`ReorderBuffer`] contents, part of a [`Checkpoint`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReorderState {
    /// The configured watermark.
    pub watermark_ms: u64,
    /// Maximum timestamp seen so far.
    pub max_ts: u64,
    /// Packets dropped as beyond-watermark late.
    pub late_dropped: u64,
    /// Buffered packets in release order.
    pub entries: Vec<PacketRecord>,
}

// ---------------------------------------------------------------------------
// Checkpoints
// ---------------------------------------------------------------------------

/// Header magic for checkpoint files.
const CHECKPOINT_MAGIC: &str = "L6CK";
/// Framing versions: `v2` (the binary body of [`crate::checkpoint_codec`])
/// is what `save` writes; `v1` (a JSON body) is read, never written.
const FRAME_V2: &str = "v2";
const FRAME_V1: &str = "v1";

/// FNV-1a 64-bit, the checkpoint integrity checksum: folds `bytes` into `h`
/// (start from [`FNV_OFFSET`]), so a stream can be summed as it passes.
fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Passes a checkpoint body through to `inner`, checksumming and counting
/// the bytes on the way, so the body is never held whole to learn either.
struct BodyWriter<W: Write> {
    inner: W,
    sum: u64,
    len: u64,
}

impl<W: Write> Write for BodyWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.inner.write_all(buf)?;
        self.sum = fnv1a(self.sum, buf);
        self.len += buf.len() as u64;
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// The header line of a version-2 file: fixed width, so `save` can write it
/// before the body and patch checksum and length in once the body has passed.
fn frame_header(sum: u64, len: u64) -> String {
    format!("{CHECKPOINT_MAGIC} {FRAME_V2} {sum:016x} {len:020}\n")
}

/// The complete durable state of a [`Session`] at one stream position:
/// resuming from a checkpoint reproduces the uninterrupted run byte for
/// byte.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Checkpoint {
    /// Trace byte offset and delta-decode state to resume the reader at.
    pub position: TracePosition,
    /// Records pulled from the trace so far (including late-dropped ones).
    pub records_done: u64,
    /// Records skipped on recoverable decode errors so far.
    pub decode_skipped: u64,
    /// Detector state.
    pub detector: DetectorSnapshot,
    /// Reorder buffer contents.
    pub reorder: ReorderState,
    /// Checkpoints written before this one, plus one.
    pub checkpoints_written: u64,
    /// Simulation time of the last periodic idle flush (0 = none yet).
    pub last_flush_ms: u64,
}

impl Checkpoint {
    /// Writes the checkpoint as `L6CK v2 <fnv1a64> <len>\n` and the binary
    /// body, published by [`write_atomic`]: the body streams behind a
    /// placeholder header, checksummed and counted as it passes; the header
    /// is then patched and the file fsynced. A failed save leaves `path`,
    /// its `.prev` and no temp file behind — the previous checkpoint stays
    /// intact. Before the rename, any existing checkpoint is *copied* (not
    /// renamed — a crash between the two operations must leave `path` valid)
    /// to `prev_path`, so one generation survives even a corruption of the
    /// main file that slips past the atomic rename (torn disk writes);
    /// [`load_newest`](Self::load_newest) falls back to it.
    pub fn save(&self, path: &Path) -> Result<(), SessionError> {
        self.save_sized(path).map(|_| ())
    }

    fn save_sized(&self, path: &Path) -> Result<u64, SessionError> {
        write_atomic(path, |file| {
            let placeholder = frame_header(0, 0);
            file.write_all(placeholder.as_bytes())?;
            let mut body = BodyWriter {
                inner: &mut *file,
                sum: FNV_OFFSET,
                len: 0,
            };
            checkpoint_codec::encode(self, &mut body)?;
            let BodyWriter { sum, len, .. } = body;
            file.flush()?;
            let file = file.get_mut();
            file.seek(SeekFrom::Start(0))?;
            file.write_all(frame_header(sum, len).as_bytes())?;
            file.sync_all()?;
            if path.exists() {
                fs::copy(path, Self::prev_path(path))?;
            }
            Ok(placeholder.len() as u64 + len)
        })
    }

    /// Where [`save`](Self::save) keeps the previous checkpoint
    /// generation: `<path>.prev` (extension appended, not replaced).
    pub fn prev_path(path: &Path) -> PathBuf {
        let mut prev = path.as_os_str().to_os_string();
        prev.push(".prev");
        PathBuf::from(prev)
    }

    /// Loads the newest *valid* checkpoint at `path`: the main file when
    /// it verifies, else the `.prev` generation when the main file is
    /// corrupt (bad framing, checksum, or body). A missing main
    /// file is still an error — callers probe existence first, and a clean
    /// start must not silently resume from stale history.
    pub fn load_newest(path: &Path) -> Result<Self, SessionError> {
        match Self::load(path) {
            Err(SessionError::Corrupt(main_err)) => {
                let prev = Self::prev_path(path);
                if prev.exists() {
                    Self::load(&prev)
                } else {
                    Err(SessionError::Corrupt(main_err))
                }
            }
            other => other,
        }
    }

    /// Loads and verifies a checkpoint of either framing: the `v2` files
    /// [`save`](Self::save) writes, and the `v1` (JSON body) files earlier
    /// builds wrote, which come back upgraded — current snapshot version,
    /// canonical `pending` order — so the next save is an ordinary `v2`.
    pub fn load(path: &Path) -> Result<Self, SessionError> {
        let corrupt = SessionError::Corrupt;
        let data = fs::read(path)?;
        let newline = data.iter().position(|&b| b == b'\n');
        let newline = newline.ok_or_else(|| corrupt("missing checkpoint header".into()))?;
        let (header, body) = (&data[..newline], &data[newline + 1..]);
        // A header that is not text fails the field checks below.
        let header = String::from_utf8_lossy(header);
        let mut parts = header.split(' ');
        let mut field = || parts.next().unwrap_or_default();
        let (magic, version, checksum, len) = (field(), field(), field(), field());
        if magic != CHECKPOINT_MAGIC {
            return Err(corrupt(format!("bad checkpoint magic {magic:?}")));
        }
        if (version != FRAME_V1 && version != FRAME_V2) || parts.next().is_some() {
            return Err(corrupt(format!(
                "unsupported checkpoint framing {version:?}"
            )));
        }
        // Exactly the characters `save` prints: `parse` alone would also
        // take `+7` or `AB`, and a header with a flipped bit must not verify.
        let only = |s: &str, alphabet: &str| s.bytes().all(|b| alphabet.as_bytes().contains(&b));
        if !only(len, "0123456789") || len.parse::<usize>().ok() != Some(body.len()) {
            return Err(corrupt(format!(
                "checkpoint length mismatch: header says {len}, body is {}",
                body.len()
            )));
        }
        let expect = u64::from_str_radix(checksum, 16)
            .ok()
            .filter(|_| checksum.len() == 16 && only(checksum, "0123456789abcdef"))
            .ok_or_else(|| corrupt(format!("bad checkpoint checksum field {checksum:?}")))?;
        let actual = fnv1a(FNV_OFFSET, body);
        if actual != expect {
            return Err(corrupt(format!(
                "checkpoint checksum mismatch: header {expect:016x}, body {actual:016x}"
            )));
        }
        let ck = if version == FRAME_V1 {
            let json = std::str::from_utf8(body).map_err(|e| corrupt(e.to_string()))?;
            let ck: Checkpoint = serde_json::from_str(json).map_err(|e| corrupt(e.to_string()))?;
            // A v1 frame carries snapshot version 1 and no other.
            if ck.detector.version != 1 {
                let v = ck.detector.version;
                return Err(corrupt(format!("snapshot version {v} in a v1 checkpoint")));
            }
            Checkpoint {
                detector: DetectorSnapshot::new(ck.detector.levels),
                ..ck
            }
        } else {
            checkpoint_codec::decode(body).map_err(corrupt)?
        };
        ck.detector
            .check_version()
            .map_err(SessionError::Snapshot)?;
        Ok(ck)
    }
}

/// When and where a [`Session`] checkpoints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointPolicy {
    /// Checkpoint file path (also probed for auto-resume).
    pub path: PathBuf,
    /// Write a checkpoint every this many records. 0 disables periodic
    /// writes (the file is still probed for resume).
    pub every_records: u64,
    /// Stop the session (without finishing) after this many checkpoint
    /// writes — a deterministic stand-in for `kill -9` in resume tests.
    pub stop_after: Option<u64>,
}

// ---------------------------------------------------------------------------
// Session
// ---------------------------------------------------------------------------

/// Session-layer configuration, orthogonal to the detector configuration.
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// Reorder-buffer watermark; 0 = passthrough (sorted input).
    pub watermark_ms: u64,
    /// Checkpointing policy; `None` runs without durability.
    pub checkpoint: Option<CheckpointPolicy>,
    /// Call `flush_idle` whenever stream time advances this far past the
    /// last flush; 0 disables. Report-neutral at any cadence.
    pub flush_idle_every_ms: u64,
    /// Abort on recoverable decode errors instead of quarantine-and-skip.
    pub strict: bool,
    /// Records pulled from the source per [`Session::step`] (fewer when a
    /// checkpoint boundary or the source cuts the pull short); values ≤ 1
    /// pull one. Any value produces byte-identical reports and
    /// checkpoints; this only trades step latency against lookup
    /// amortization.
    pub batch: usize,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            watermark_ms: 0,
            checkpoint: None,
            flush_idle_every_ms: 0,
            strict: false,
            batch: DEFAULT_SESSION_BATCH,
        }
    }
}

/// Default [`SessionConfig::batch`]: large enough to amortize per-source
/// lookups on bursty scan traffic, small enough that a step stays short.
pub const DEFAULT_SESSION_BATCH: usize = 4096;

/// Outcome of [`Session::run`]: the stream finished, or the session stopped
/// deliberately after `stop_after` checkpoints.
#[derive(Debug)]
pub enum SessionOutcome {
    /// End of stream: final per-level reports and run statistics.
    Finished(SessionReport),
    /// Stopped by [`CheckpointPolicy::stop_after`]; resume from the
    /// checkpoint file to continue.
    Stopped {
        /// Checkpoints written over the session's whole life.
        checkpoints_written: u64,
        /// Records ingested over the session's whole life.
        records_done: u64,
    },
}

/// What one [`Session::step`] call did — the re-entrant analog of
/// [`SessionOutcome`], with the non-terminal states a scheduler needs to
/// multiplex many sessions on a bounded worker pool.
#[derive(Debug)]
pub enum Step {
    /// Ingested up to one batch of records; call again for more.
    Ingested(usize),
    /// The source has no data right now (a tailed file awaiting its
    /// writer). Re-poll later; stepping again immediately just spins.
    Pending,
    /// Stopped by [`CheckpointPolicy::stop_after`] (deliberate mid-stream
    /// stop for resume tests). Further steps continue the stream.
    Stopped {
        /// Checkpoints written over the session's whole life.
        checkpoints_written: u64,
        /// Records ingested over the session's whole life.
        records_done: u64,
    },
    /// End of stream: final reports. The session is finished; subsequent
    /// steps return [`SessionError::Done`].
    Finished(SessionReport),
}

/// Final output of a completed session.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionReport {
    /// Per-level scan reports, each sorted by `(start_ms, source)`.
    pub reports: BTreeMap<AggLevel, ScanReport>,
    /// Records ingested (including late-dropped).
    pub records: u64,
    /// Packets dropped as beyond-watermark late.
    pub late_dropped: u64,
    /// Records skipped on recoverable decode errors.
    pub decode_skipped: u64,
    /// Checkpoints written.
    pub checkpoints_written: u64,
}

/// Errors from [`Session`] runs and checkpoint IO.
#[derive(Debug)]
pub enum SessionError {
    /// Filesystem failure (trace or checkpoint file).
    Io(io::Error),
    /// Unrecoverable trace decode failure.
    Codec(CodecError),
    /// Snapshot version/shape mismatch on restore.
    Snapshot(SnapshotError),
    /// Checkpoint file failed framing or checksum validation.
    Corrupt(String),
    /// The session already delivered its final report; it cannot be
    /// stepped or reported again.
    Done,
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::Io(e) => write!(f, "session io error: {e}"),
            SessionError::Codec(e) => write!(f, "session decode error: {e}"),
            SessionError::Snapshot(e) => write!(f, "session restore error: {e}"),
            SessionError::Corrupt(m) => write!(f, "corrupt checkpoint: {m}"),
            SessionError::Done => write!(f, "session already finished"),
        }
    }
}

impl std::error::Error for SessionError {}

impl From<io::Error> for SessionError {
    fn from(e: io::Error) -> Self {
        SessionError::Io(e)
    }
}

impl From<CodecError> for SessionError {
    fn from(e: CodecError) -> Self {
        // Unwrap I/O failures (file missing, permission, disk) to the Io
        // variant so callers classify them as filesystem problems, exactly
        // as when the session opened files itself; only genuine decode
        // failures surface as Codec.
        match e {
            CodecError::Io(io) => SessionError::Io(io),
            other => SessionError::Codec(other),
        }
    }
}

/// Hands rows `rows` of `batch` to the detector (nothing, if there are
/// none), recording the size in records where a histogram is given: the
/// batch itself when that is all of it, a column copy of the rows into the
/// reused `piece` when an idle flush cut it.
fn feed<D: Detect + ?Sized>(
    det: &mut D,
    batch: &RecordBatch,
    rows: std::ops::Range<usize>,
    piece: &mut RecordBatch,
    batch_size: Option<&Histogram>,
) {
    if rows.is_empty() {
        return;
    }
    let batch = if rows.len() == batch.rows() {
        batch
    } else {
        piece.clear();
        piece.extend_from_range(batch, rows);
        piece
    };
    if let Some(sizes) = batch_size {
        sizes.record(batch.len() as u64);
    }
    det.observe_batch(batch);
}

/// Hands `batch` to the detector cut at `marks`, the idle flushes due inside
/// it in row order: for each `(row, now_ms)` the rows before `row` are
/// observed first, then `flush_idle(now_ms)` runs and the row opens the next
/// piece. The one statement of the cut: a session applies it to what it
/// pulled ([`idle_flushes_due`]), the threaded worker to the batch the
/// marks rode in with. A batch without marks is observed as it is.
pub(crate) fn observe_cut_at<D: Detect + ?Sized>(
    det: &mut D,
    batch: &RecordBatch,
    marks: impl IntoIterator<Item = (u32, u64)>,
    piece: &mut RecordBatch,
    batch_size: Option<&Histogram>,
) {
    let mut start = 0;
    for (row, now_ms) in marks {
        feed(det, batch, start..row as usize, piece, batch_size);
        start = row as usize;
        det.flush_idle(now_ms);
    }
    feed(det, batch, start..batch.rows(), piece, batch_size);
}

/// Where idle flushes fall due among rows with timestamps `ts`, as
/// `(row, now_ms)` marks: a row `every_ms` or more past the last flush is
/// one, and becomes the last flush. Each row is tested once against the
/// flush time current when it is reached — the points a
/// one-record-per-step session flushes at: a counted row's copies share its
/// timestamp, so the first answers for all — so detector state at every
/// checkpoint, and `last_flush`, do not depend on how the stream was cut
/// into batches. None when `every_ms` is 0.
fn idle_flushes_due<'a>(
    ts: &'a [u64],
    every_ms: u64,
    watermark_ms: u64,
    last_flush: &'a mut u64,
) -> impl Iterator<Item = (u32, u64)> + 'a {
    let rows = if every_ms == 0 { &[] } else { ts };
    rows.iter().enumerate().filter_map(move |(row, &ts)| {
        // `ts >= last_flush + every_ms` without the sum: timestamps come
        // from the trace, and one near `u64::MAX` must not wrap.
        if ts.saturating_sub(*last_flush) < every_ms {
            return None;
        }
        *last_flush = ts;
        // Flush at the watermark horizon: every future detector input is
        // ≥ `ts - watermark`, so closures here match what end-of-stream
        // finish would emit.
        Some((row as u32, ts.saturating_sub(watermark_ms)))
    })
}

/// Reads each level's footprint off `levels` and sets its
/// `detect.multi.l<len>.*` gauges.
fn publish_memory(levels: &[LevelState]) -> Vec<(AggLevel, DetectorMemory)> {
    let footprint = |l: &LevelState| {
        let memory = l.memory();
        memory.publish(MetricsRegistry::global(), l.config.agg);
        (l.config.agg, memory)
    };
    levels.iter().map(footprint).collect()
}

/// The live in-flight state of a started [`Session`]: detector, reorder
/// buffer, counters, and the three reused ingest buffers. No buffer
/// carries records from one step to the next: whatever a step pulls has
/// reached the reorder heap or the detector by the time the step returns.
/// None is sized from configuration — each grows, once, to what the source
/// actually fills.
struct RunState {
    det: Box<dyn Detect>,
    reorder: ReorderBuffer,
    /// Records pulled from the source over the session's whole life
    /// (including pre-resume history from the checkpoint).
    records_done: u64,
    ckpts: u64,
    /// Decode skips accumulated before this process attached (from the
    /// resumed checkpoint); the live source's own count is added on top.
    skipped_before: u64,
    /// Last observed `src.skipped()`, kept so [`Session::finish_now`] and
    /// [`Session::report_now`] can account skips without the source.
    src_skipped: u64,
    last_flush: u64,
    /// What the source filled this step.
    incoming: RecordBatch,
    /// What the reorder buffer released this step (unused at watermark 0).
    released: RecordBatch,
    /// The rows of one idle-flush cut piece (unused without idle flushes).
    piece: RecordBatch,
    /// Checkpointed position to [`Source::resume`] at on the first step.
    resume_at: Option<TracePosition>,
    /// `detect.session.source_fill_us`, `source.records`,
    /// `detect.session.batch_size`: looked up once, not once per step.
    fill_us: Histogram,
    source_records: Counter,
    batch_size: Histogram,
}

impl RunState {
    fn new(det: Box<dyn Detect>, reorder: ReorderBuffer) -> Self {
        let reg = MetricsRegistry::global();
        RunState {
            det,
            reorder,
            records_done: 0,
            ckpts: 0,
            skipped_before: 0,
            src_skipped: 0,
            last_flush: 0,
            incoming: RecordBatch::new(),
            released: RecordBatch::new(),
            piece: RecordBatch::new(),
            resume_at: None,
            fill_us: reg.histogram("detect.session.source_fill_us"),
            source_records: reg.counter("source.records"),
            batch_size: reg.histogram("detect.session.batch_size"),
        }
    }

    /// Writes the checkpoint of the current stream position to `path`, and
    /// what it cost — snapshot time, save time, file bytes — and holds (the
    /// per-level footprint returned, read off the snapshot in hand) to the
    /// metrics registry: once per checkpoint, nothing per record.
    fn save_checkpoint(
        &mut self,
        src: &mut dyn Source,
        path: &Path,
    ) -> Result<Vec<(AggLevel, DetectorMemory)>, SessionError> {
        let reg = MetricsRegistry::global();
        self.src_skipped = src.skipped();
        self.ckpts += 1;
        let snapshot_timer = reg.stage("detect.session.snapshot_us");
        let detector = self.det.snapshot();
        drop(snapshot_timer);
        let memory = publish_memory(&detector.levels);
        let ck = Checkpoint {
            position: src.position(),
            records_done: self.records_done,
            decode_skipped: self.skipped_before + self.src_skipped,
            detector,
            reorder: self.reorder.state(),
            checkpoints_written: self.ckpts,
            last_flush_ms: self.last_flush,
        };
        let save_timer = reg.stage("detect.session.checkpoint_save_us");
        let bytes = ck.save_sized(path)?;
        drop(save_timer);
        reg.counter("detect.session.checkpoints_written").add(1);
        reg.counter("detect.session.checkpoint_bytes").add(bytes);
        Ok(memory)
    }
}

/// Fault-tolerant streaming ingest over any [`Detect`] backend.
///
/// [`Session::run`] drives a trace file end to end: it auto-resumes from
/// the checkpoint file when one exists, re-sorts mildly disordered input,
/// quarantines corrupt records, and checkpoints periodically. See the
/// module docs for the guarantees.
///
/// The session is *re-entrant*: [`step`](Self::step) performs one bounded
/// unit of ingest and returns, so a scheduler (the `lumen6 serve` daemon)
/// can multiplex many sessions over a fixed worker pool. `run`/`run_source`
/// are thin wrappers that loop `step` to a terminal state. A step-driven
/// session produces reports and checkpoint bytes identical to a
/// `run_source`-driven one — both execute the same loop body.
pub struct Session {
    builder: DetectorBuilder,
    backend: Backend,
    config: SessionConfig,
    state: Option<RunState>,
    finished: bool,
    memory: Vec<(AggLevel, DetectorMemory)>,
}

impl Session {
    /// A session dispatching through `builder` on `backend` under
    /// `config`.
    pub fn new(builder: DetectorBuilder, backend: Backend, config: SessionConfig) -> Self {
        Session {
            builder,
            backend,
            config,
            state: None,
            finished: false,
            memory: Vec::new(),
        }
    }

    /// The session-layer configuration.
    pub fn config(&self) -> &SessionConfig {
        &self.config
    }

    /// Records ingested so far (0 until the first step; includes
    /// checkpoint-resumed history afterwards).
    pub fn records_done(&self) -> u64 {
        self.state.as_ref().map_or(0, |st| st.records_done)
    }

    /// What each level held at the last checkpoint — or, finished, at the
    /// end of the stream: the values of the `detect.multi.l<len>.*` gauges.
    pub fn memory(&self) -> &[(AggLevel, DetectorMemory)] {
        &self.memory
    }

    /// Runs the session over `trace` (an L6TR file). If the checkpoint
    /// file exists, the run resumes from it; otherwise it starts fresh.
    ///
    /// Equivalent to [`run_source`](Self::run_source) over a
    /// [`FileStreamSource`] (permissive unless [`SessionConfig::strict`]).
    pub fn run(self, trace: &Path) -> Result<SessionOutcome, SessionError> {
        let permissive = !self.config.strict;
        let mut src = FileStreamSource::open(trace)?.permissive(permissive);
        self.run_source(&mut src)
    }

    /// Runs the session over any [`Source`] to a terminal state by looping
    /// [`step`](Self::step) — a trace file, an in-memory record vector, a
    /// tailed growing file, or a fused generator. `Pending` outcomes (a
    /// tail awaiting its writer) are waited out with a short sleep.
    pub fn run_source(mut self, src: &mut dyn Source) -> Result<SessionOutcome, SessionError> {
        loop {
            match self.step(src)? {
                Step::Ingested(_) => {}
                Step::Pending => std::thread::sleep(std::time::Duration::from_millis(2)),
                Step::Stopped {
                    checkpoints_written,
                    records_done,
                } => {
                    return Ok(SessionOutcome::Stopped {
                        checkpoints_written,
                        records_done,
                    })
                }
                Step::Finished(report) => return Ok(SessionOutcome::Finished(report)),
            }
        }
    }

    /// Lazily builds the run state: loads the newest valid checkpoint when
    /// the policy's file exists (recording the position to resume the
    /// source at on the next step), otherwise starts fresh.
    fn ensure_state(&mut self) -> Result<(), SessionError> {
        if self.finished {
            return Err(SessionError::Done);
        }
        if self.state.is_some() {
            return Ok(());
        }
        let resume = match &self.config.checkpoint {
            Some(p) if p.path.exists() => Some(Checkpoint::load_newest(&p.path)?),
            _ => None,
        };
        let st = match resume {
            Some(ck) => RunState {
                records_done: ck.records_done,
                ckpts: ck.checkpoints_written,
                skipped_before: ck.decode_skipped,
                last_flush: ck.last_flush_ms,
                resume_at: Some(ck.position),
                ..RunState::new(
                    self.builder
                        .restore(self.backend, &ck.detector)
                        .map_err(SessionError::Snapshot)?,
                    ReorderBuffer::from_state(&ck.reorder),
                )
            },
            None => RunState::new(
                self.builder.build(self.backend),
                ReorderBuffer::new(self.config.watermark_ms),
            ),
        };
        self.state = Some(st);
        Ok(())
    }

    /// Performs one bounded unit of ingest: pull at most one batch from
    /// `src`, hand it to the detector — as filled at watermark 0, else as
    /// the reorder buffer releases it — and checkpoint if a boundary was
    /// reached.
    ///
    /// The first step lazily initializes: if the checkpoint file exists
    /// the session restores from it and `src` is
    /// [`Source::resume`](lumen6_trace::Source::resume)d at the
    /// checkpointed position — so the same `src` must be passed to every
    /// step of one session.
    ///
    /// Pulls are capped at [`SessionConfig::batch`] records and never
    /// cross a checkpoint boundary, so checkpoints are taken at exactly
    /// the same record counts and stream positions — and with the same
    /// bytes — whatever the pull size.
    pub fn step(&mut self, src: &mut dyn Source) -> Result<Step, SessionError> {
        let reg = MetricsRegistry::global();
        self.ensure_state()?;
        let Some(st) = self.state.as_mut() else {
            return Err(SessionError::Done);
        };
        if let Some(pos) = st.resume_at.take() {
            src.resume(pos)?;
            reg.counter("detect.session.resumes").add(1);
        }

        let batch_cap = self.config.batch.max(1);
        let periodic = self
            .config
            .checkpoint
            .as_ref()
            .filter(|p| p.every_records > 0);
        // Never pull past the next checkpoint boundary: `position()`
        // right after the fill is then exactly the position after the
        // boundary record, whatever the pull size.
        let want = periodic.map_or(batch_cap, |p| {
            let until = p.every_records - st.records_done % p.every_records;
            batch_cap.min(usize::try_from(until).unwrap_or(usize::MAX))
        });
        let outcome = {
            let _fill = StageTimer::new(st.fill_us.clone());
            src.poll_fill(&mut st.incoming, want)?
        };
        st.src_skipped = src.skipped();
        let n = match outcome {
            FillOutcome::Pending => return Ok(Step::Pending),
            FillOutcome::Eof => return self.finish_now().map(Step::Finished),
            FillOutcome::Filled(n) => n,
        };

        st.source_records.add(n as u64);
        st.records_done += n as u64;
        let watermark_ms = st.reorder.watermark_ms();
        let batch = if watermark_ms == 0 {
            &st.incoming
        } else {
            st.released.clear();
            for rec in st.incoming.iter() {
                st.reorder.push(rec, &mut st.released);
            }
            &st.released
        };
        let every_ms = self.config.flush_idle_every_ms;
        let mut flushes = 0;
        let due = idle_flushes_due(batch.ts_ms(), every_ms, watermark_ms, &mut st.last_flush)
            .inspect(|_| flushes += 1);
        let sizes = Some(&st.batch_size);
        observe_cut_at(st.det.as_mut(), batch, due, &mut st.piece, sizes);
        if flushes > 0 {
            reg.counter("detect.session.idle_flushes").add(flushes);
        }

        if let Some(policy) = periodic.filter(|p| st.records_done % p.every_records == 0) {
            self.memory = st.save_checkpoint(src, &policy.path)?;
            if policy.stop_after.is_some_and(|n| st.ckpts >= n) {
                reg.counter("detect.session.stops").add(1);
                return Ok(Step::Stopped {
                    checkpoints_written: st.ckpts,
                    records_done: st.records_done,
                });
            }
        }
        Ok(Step::Ingested(n))
    }

    /// Writes a checkpoint at the session's current position, off the
    /// periodic record-count grid — the graceful-shutdown drain path.
    /// Returns `false` without writing when the session has no checkpoint
    /// policy, has not started, or already finished. Subsequent periodic
    /// checkpoints stay on the absolute record-count grid, so a run
    /// resumed from an off-grid checkpoint still reproduces every later
    /// on-grid checkpoint byte for byte.
    pub fn checkpoint_now(&mut self, src: &mut dyn Source) -> Result<bool, SessionError> {
        let (Some(policy), Some(st), false) =
            (&self.config.checkpoint, self.state.as_mut(), self.finished)
        else {
            return Ok(false);
        };
        self.memory = st.save_checkpoint(src, &policy.path)?;
        Ok(true)
    }

    /// Ends the stream now: drains the reorder buffer into the detector
    /// and returns the final report. Called by [`step`] on end of stream,
    /// and directly by the daemon's graceful-shutdown drain (where the
    /// tailed source may never reach EOF). The session is finished
    /// afterwards; a session that never started finishes over an empty (or
    /// checkpoint-restored) stream.
    ///
    /// [`step`]: Self::step
    pub fn finish_now(&mut self) -> Result<SessionReport, SessionError> {
        let reg = MetricsRegistry::global();
        self.ensure_state()?;
        let Some(mut st) = self.state.take() else {
            return Err(SessionError::Done);
        };
        self.finished = true;
        st.released.clear();
        st.reorder.drain(&mut st.released);
        feed(
            st.det.as_mut(),
            &st.released,
            0..st.released.rows(),
            &mut st.piece,
            Some(&st.batch_size),
        );
        let late = st.reorder.late_dropped();
        let skipped = st.skipped_before + st.src_skipped;
        reg.counter("detect.session.late_dropped").add(late);
        self.memory = publish_memory(&st.det.state());
        let reports = st.det.finish();
        Ok(SessionReport {
            reports,
            records: st.records_done,
            late_dropped: late,
            decode_skipped: skipped,
            checkpoints_written: st.ckpts,
        })
    }

    /// A point-in-time [`SessionReport`] *without* ending the session —
    /// the daemon's periodic per-tenant publication. Implemented by
    /// snapshotting the live detector, restoring the snapshot into a
    /// throwaway sequential clone (a clone finished at once has nothing to
    /// overlap, so it spawns no thread on any backend), feeding it the
    /// records still in the reorder heap, and finishing the clone; the live
    /// pipeline is untouched, so the next checkpoint stays byte-identical
    /// to an unpublished run.
    pub fn report_now(&mut self) -> Result<SessionReport, SessionError> {
        self.ensure_state()?;
        let Some(st) = self.state.as_mut() else {
            return Err(SessionError::Done);
        };
        let snap = st.det.snapshot();
        let mut clone = self
            .builder
            .restore(Backend::Sequential, &snap)
            .map_err(SessionError::Snapshot)?;
        clone.observe_batch(&st.reorder.state().entries.into_iter().collect());
        let reports = clone.finish();
        Ok(SessionReport {
            reports,
            records: st.records_done,
            late_dropped: st.reorder.late_dropped(),
            decode_skipped: st.skipped_before + st.src_skipped,
            checkpoints_written: st.ckpts,
        })
    }
}
