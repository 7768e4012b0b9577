//! The [`Source`] abstraction: anything that can feed time-ordered
//! [`PacketRecord`]s to the detection pipeline in batches.
//!
//! A session pulls batches from *any* source, and each source defines its
//! own resumable position space so checkpoint/resume keeps working.
//!
//! Three finite implementations exist, plus the live [`TailSource`], which
//! follows a file another process is still writing through the same
//! decoder as [`FileStreamSource`], in the same position space:
//!
//! - [`MaterializedSource`] — an in-memory, already-sorted record vector
//!   (what the simulators and tests produce). Positions are record indices.
//! - [`FileStreamSource`] — a bounded-memory streaming decoder over an
//!   `L6TR` file. Positions are byte offsets of the next row, exactly as
//!   session checkpoints always recorded them, so pre-existing checkpoints
//!   resume unchanged. In a version 2 file, whose rows carry repeat counts,
//!   a batch may end inside a row: bits 48..64 of the offset then hold the
//!   copies of that row already delivered (`offset = row | skip << 48`).
//! - `FleetSource` (in `lumen6-scanners`, which depends on this crate) —
//!   synthesizes batches directly from the fleet actors in timestamp order,
//!   never materializing a trace, on the caller's thread or on N generator
//!   threads behind a deterministic merge. Positions are record indices
//!   into a stream that is byte-identical at every thread count, so a
//!   checkpoint written at one `gen_threads` resumes at any other.
//!
//! The [`TracePosition`] type is reused as the position for all sources;
//! its `offset` field is *source-defined* (bytes for the file stream,
//! record index for the others). A position is only meaningful to the kind
//! of source that produced it — the same contract a byte offset always had.

use crate::batch::RecordBatch;
use crate::codec::{CodecError, StreamingTraceReader, TracePosition};
use crate::record::PacketRecord;
use lumen6_obs::MetricsRegistry;
use std::fs::{self, File};
use std::io;
use std::path::{Path, PathBuf};

/// Result of one non-blocking [`Source::poll_fill`] pull.
///
/// Finite sources only ever report `Filled` or `Eof`; `Pending` exists for
/// live sources (a [`TailSource`] over a file another process is still
/// writing) where "no records right now" is not "no records ever". A
/// scheduler multiplexing many sessions reacts to `Pending` by moving on to
/// another tenant instead of blocking a worker thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FillOutcome {
    /// `out` holds this many records (≥ 1).
    Filled(usize),
    /// No records are available right now, but the stream has not ended —
    /// poll again later.
    Pending,
    /// End of stream; no further records will ever arrive.
    Eof,
}

/// A resumable, batch-oriented producer of time-ordered packet records.
///
/// # Contract
///
/// - [`fill`](Source::fill) clears `out`, appends up to `max` records in
///   non-decreasing timestamp order (continuing from the previous call),
///   and returns how many it appended. Returning `0` means end of stream;
///   callers must treat `max == 0` as unsupported (implementations may
///   still produce one record). `max` and the count are records, however
///   few rows carry them: a source may append adjacent identical records
///   as one counted row ([`RecordBatch::push_n`]).
/// - [`position`](Source::position) identifies the boundary after the last
///   record returned, in the source's own offset space; feeding it to
///   [`resume`](Source::resume) on a source of the same kind over the same
///   underlying data continues the stream exactly there.
/// - Sources that can skip malformed records report the running total via
///   [`skipped`](Source::skipped).
pub trait Source: Send {
    /// Clears `out` and appends up to `max` records; `Ok(0)` = end of
    /// stream. Errors follow [`CodecError`] semantics: records decoded
    /// before an error are delivered first (as a short batch), the error
    /// surfaces on the next call, and the source fuses after it.
    fn fill(&mut self, out: &mut RecordBatch, max: usize) -> Result<usize, CodecError>;

    /// Non-blocking variant of [`fill`](Source::fill): clears `out`,
    /// appends up to `max` records, and distinguishes "nothing *yet*"
    /// ([`FillOutcome::Pending`]) from "nothing *ever again*"
    /// ([`FillOutcome::Eof`]). The default delegates to `fill`, which is
    /// correct for every finite source (they never need to wait); live
    /// sources like [`TailSource`] override it and never block.
    fn poll_fill(&mut self, out: &mut RecordBatch, max: usize) -> Result<FillOutcome, CodecError> {
        match self.fill(out, max)? {
            0 => Ok(FillOutcome::Eof),
            n => Ok(FillOutcome::Filled(n)),
        }
    }

    /// The resumable position after the most recently delivered record.
    fn position(&self) -> TracePosition;

    /// Repositions the stream at `at` (a value previously obtained from
    /// [`position`](Source::position) on the same kind of source).
    fn resume(&mut self, at: TracePosition) -> Result<(), CodecError>;

    /// Malformed records skipped so far (permissive decoding); `0` for
    /// sources that cannot produce malformed records.
    fn skipped(&self) -> u64 {
        0
    }
}

/// A [`Source`] over an in-memory, time-sorted record vector. Positions are
/// record indices.
///
/// ```
/// use lumen6_trace::{MaterializedSource, PacketRecord, RecordBatch, Source};
/// let recs: Vec<PacketRecord> =
///     (0..10).map(|i| PacketRecord::tcp(i, 1, 2, 1000, 22, 60)).collect();
/// let mut src = MaterializedSource::new(recs.clone());
/// let mut batch = RecordBatch::new();
/// assert_eq!(src.fill(&mut batch, 4).unwrap(), 4);
/// let pos = src.position();
/// assert_eq!(pos.offset, 4);
/// src.resume(pos).unwrap();
/// assert_eq!(src.fill(&mut batch, 100).unwrap(), 6);
/// assert_eq!(src.fill(&mut batch, 100).unwrap(), 0);
/// ```
#[derive(Debug, Clone)]
pub struct MaterializedSource {
    records: Vec<PacketRecord>,
    pos: usize,
}

impl MaterializedSource {
    /// Wraps a time-sorted record vector.
    pub fn new(records: Vec<PacketRecord>) -> Self {
        MaterializedSource { records, pos: 0 }
    }

    /// Total records (consumed and not).
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the vector is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

impl Source for MaterializedSource {
    fn fill(&mut self, out: &mut RecordBatch, max: usize) -> Result<usize, CodecError> {
        out.clear();
        let n = max.min(self.records.len() - self.pos);
        for r in &self.records[self.pos..self.pos + n] {
            out.push(*r);
        }
        self.pos += n;
        Ok(n)
    }

    fn position(&self) -> TracePosition {
        TracePosition {
            offset: self.pos as u64,
            prev_ts: if self.pos > 0 {
                self.records[self.pos - 1].ts_ms
            } else {
                0
            },
        }
    }

    fn resume(&mut self, at: TracePosition) -> Result<(), CodecError> {
        let pos = usize::try_from(at.offset).unwrap_or(usize::MAX);
        if pos > self.records.len() {
            return Err(CodecError::Io(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "resume offset {pos} beyond materialized trace of {} records",
                    self.records.len()
                ),
            )));
        }
        self.pos = pos;
        Ok(())
    }
}

/// A [`Source`] streaming an `L6TR` trace file in bounded memory. Positions
/// are byte offsets (with a skip above bit 48 inside a version 2 row; see
/// the [module docs](self)) — the same values session checkpoints have
/// always stored, so existing checkpoints resume through this source
/// unchanged.
#[derive(Debug)]
pub struct FileStreamSource {
    path: PathBuf,
    reader: StreamingTraceReader<File>,
    permissive: bool,
}

impl FileStreamSource {
    /// Opens `path` and validates the `L6TR` header.
    pub fn open(path: &Path) -> Result<Self, CodecError> {
        Ok(FileStreamSource {
            path: path.to_path_buf(),
            reader: StreamingTraceReader::new(File::open(path)?)?,
            permissive: false,
        })
    }

    /// Enables or disables permissive decoding (recoverable per-record
    /// errors are skipped and counted instead of ending the stream).
    pub fn permissive(mut self, yes: bool) -> Self {
        self.permissive = yes;
        self.reader = self.reader.permissive(yes);
        self
    }
}

impl Source for FileStreamSource {
    fn fill(&mut self, out: &mut RecordBatch, max: usize) -> Result<usize, CodecError> {
        self.reader.fill(out, max)
    }

    fn position(&self) -> TracePosition {
        self.reader.position()
    }

    fn resume(&mut self, at: TracePosition) -> Result<(), CodecError> {
        let file = File::open(&self.path)?;
        self.reader = StreamingTraceReader::resume(file, at)?.permissive(self.permissive);
        Ok(())
    }

    fn skipped(&self) -> u64 {
        self.reader.skipped()
    }
}

/// Whether two metadata handles describe the same file. Rotation-by-rename
/// is detected by inode identity on Unix; elsewhere only in-place
/// truncation (length shrink) is detectable.
#[cfg(unix)]
fn same_file(a: &fs::Metadata, b: &fs::Metadata) -> bool {
    use std::os::unix::fs::MetadataExt;
    a.dev() == b.dev() && a.ino() == b.ino()
}

#[cfg(not(unix))]
fn same_file(_a: &fs::Metadata, _b: &fs::Metadata) -> bool {
    true
}

/// A live [`Source`] tailing an `L6TR` file that another process is still
/// writing — the daemon-side ingest the one-shot [`FileStreamSource`]
/// cannot provide.
///
/// It decodes through the same [`StreamingTraceReader`] as
/// [`FileStreamSource`], set to follow the file: each
/// [`poll_fill`](Source::poll_fill) reads on from where the last one
/// stopped, and only when the reader reaches the end of the data does the
/// tail look at the file:
///
/// - a **partial trailing record** (the writer is mid-append) is never
///   consumed; the poll returns what precedes it, and the reader keeps the
///   bytes it has until the rest arrives;
/// - **truncation in place** (the file shrank below what was read)
///   restarts decode from the header, counted under
///   `trace.tail.truncations`;
/// - **rotation by rename** (the path now names a different inode) drains
///   the remaining complete records of the old incarnation from the held
///   handle, then switches to the successor file and counts
///   `trace.tail.rotations`. A partial record stranded at the end of a
///   rotated-away file can never complete and is discarded (counted under
///   `trace.tail.discarded_bytes`);
/// - recoverable per-record decode errors follow the same permissive
///   quarantine contract as [`FileStreamSource`], counted under
///   `trace.tail.skipped.<kind>`.
///
/// A tail never ends on its own: end of stream is declared out of band by
/// creating the [`eof_marker`](TailSource::eof_marker) sentinel file next
/// to the trace, after which a fully drained tail reports
/// [`FillOutcome::Eof`], or `Truncated` if the file ends mid-record. The
/// blocking [`fill`](Source::fill) sleeps between polls until then.
///
/// [`position`](Source::position)/[`resume`](Source::resume) carry byte
/// offsets within the *current incarnation*: a position taken before a
/// rotation resumes into the successor file's offset space, exactly like
/// re-opening a [`FileStreamSource`] on the new file.
#[derive(Debug)]
pub struct TailSource {
    path: PathBuf,
    /// The reader over the current incarnation, once its header is written,
    /// and the metadata of the file it reads (its identity).
    reader: Option<(StreamingTraceReader<File>, fs::Metadata)>,
    /// Where the next reader starts: the top of the file, or a position
    /// given to [`resume`](Source::resume).
    start: TracePosition,
    permissive: bool,
    done: bool,
    rotations: u64,
    truncations: u64,
    /// Records the readers of earlier incarnations skipped.
    skipped: u64,
}

impl TailSource {
    /// Tails `path`. The file does not have to exist yet: polls report
    /// [`FillOutcome::Pending`] until the writer creates it.
    pub fn open(path: &Path) -> Self {
        TailSource {
            path: path.to_path_buf(),
            reader: None,
            start: TracePosition::default(),
            permissive: false,
            done: false,
            rotations: 0,
            truncations: 0,
            skipped: 0,
        }
    }

    /// Enables or disables permissive decoding (recoverable per-record
    /// errors are skipped and counted instead of ending the stream).
    pub fn permissive(mut self, yes: bool) -> Self {
        self.permissive = yes;
        self.reader = self.reader.map(|(r, m)| (r.permissive(yes), m));
        self
    }

    /// The sentinel path whose existence declares `path` finished: create
    /// this file when no further records will be appended and the tail
    /// reports [`FillOutcome::Eof`] once fully drained.
    pub fn eof_marker(path: &Path) -> PathBuf {
        PathBuf::from(format!("{}.eof", path.display()))
    }

    /// Rotations (path renamed to a new inode) observed so far.
    pub fn rotations(&self) -> u64 {
        self.rotations
    }

    /// In-place truncations observed so far.
    pub fn truncations(&self) -> u64 {
        self.truncations
    }

    /// Drops the reader, keeping its skip count; the next one starts `at`.
    fn restart(&mut self, at: TracePosition) {
        self.skipped += self.reader.take().map_or(0, |(r, _)| r.skipped());
        self.start = at;
    }

    /// Opens a reader over the file at `path` unless one is open. Returns
    /// what the poll reports instead when there is no reader to open: the
    /// file is missing or shorter than its header.
    fn open_reader(&mut self) -> Result<Option<FillOutcome>, CodecError> {
        if self.reader.is_some() {
            return Ok(None);
        }
        // Looked at first, so that what it says covers the length below.
        let finished = Self::eof_marker(&self.path).exists();
        let file = match File::open(&self.path) {
            Ok(f) => f,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Some(FillOutcome::Pending)),
            Err(e) => return Err(e.into()),
        };
        let meta = file.metadata()?;
        match meta.len() {
            5.. => {}
            // Declared finished with no whole header: the empty file no
            // writer started, or a truncated one.
            0 if finished => return Ok(Some(FillOutcome::Eof)),
            _ if finished => return Err(CodecError::Truncated),
            _ => return Ok(Some(FillOutcome::Pending)),
        }
        // A fresh tail's position, inside the header, is the first row.
        let at = TracePosition {
            offset: self.start.offset.max(5),
            ..self.start
        };
        let reader = StreamingTraceReader::resume(file, at)?.follow();
        self.reader = Some((reader.permissive(self.permissive), meta));
        Ok(None)
    }

    /// One poll of [`poll_fill`](Source::poll_fill), which fuses the tail
    /// once a poll ends the stream.
    fn poll(&mut self, out: &mut RecordBatch, max: usize) -> Result<FillOutcome, CodecError> {
        // At most one incarnation switch per poll: the first pass drains
        // the current file; if it rotated away, the second reads the
        // successor.
        for _ in 0..2 {
            if let Some(outcome) = self.open_reader()? {
                return Ok(outcome);
            }
            let Some((reader, opened)) = self.reader.as_mut() else {
                return Ok(FillOutcome::Pending);
            };
            if reader.fill(out, max)? > 0 {
                return Ok(FillOutcome::Filled(out.len()));
            }
            // The end of the data so far: look at the file. What the marker
            // and the stat show was written before the read below, so a read
            // that then finds nothing more has drained it.
            let finished = Self::eof_marker(&self.path).exists();
            let rotated = match fs::metadata(&self.path) {
                Ok(m) if same_file(&m, opened) => {
                    if m.len() < reader.bytes_fed() {
                        // Truncated in place: the offset space restarted,
                        // so must we.
                        self.truncations += 1;
                        MetricsRegistry::global()
                            .counter("trace.tail.truncations")
                            .inc();
                        self.restart(TracePosition::default());
                        continue;
                    }
                    false
                }
                Ok(_) => true,
                // Renamed away with no successor yet: treat as rotated and
                // wait for the new file.
                Err(e) if e.kind() == io::ErrorKind::NotFound => true,
                Err(e) => return Err(e.into()),
            };
            if reader.fill(out, max)? > 0 {
                return Ok(FillOutcome::Filled(out.len()));
            }
            if rotated {
                // Old incarnation drained of complete records. A stranded
                // partial row can never complete: discard it.
                let stranded = reader.undecoded();
                if stranded > 0 {
                    MetricsRegistry::global()
                        .counter("trace.tail.discarded_bytes")
                        .add(stranded);
                }
                self.rotations += 1;
                MetricsRegistry::global()
                    .counter("trace.tail.rotations")
                    .inc();
                self.restart(TracePosition::default());
                continue;
            }
            return match (finished, reader.undecoded()) {
                (false, _) => Ok(FillOutcome::Pending),
                (true, 0) => Ok(FillOutcome::Eof),
                // Declared finished mid-record: genuine truncation.
                (true, _) => Err(CodecError::Truncated),
            };
        }
        Ok(FillOutcome::Pending)
    }
}

impl Source for TailSource {
    /// Blocking drive of the tail: sleeps between polls until records or
    /// the [`eof_marker`](TailSource::eof_marker) arrive. Prefer
    /// [`poll_fill`](Source::poll_fill) in anything multiplexing sessions.
    fn fill(&mut self, out: &mut RecordBatch, max: usize) -> Result<usize, CodecError> {
        loop {
            match self.poll_fill(out, max)? {
                FillOutcome::Filled(n) => return Ok(n),
                FillOutcome::Eof => return Ok(0),
                FillOutcome::Pending => std::thread::sleep(std::time::Duration::from_millis(2)),
            }
        }
    }

    fn poll_fill(&mut self, out: &mut RecordBatch, max: usize) -> Result<FillOutcome, CodecError> {
        out.clear();
        if self.done {
            return Ok(FillOutcome::Eof);
        }
        let polled = self.poll(out, max.max(1));
        self.done = !matches!(polled, Ok(FillOutcome::Filled(_) | FillOutcome::Pending));
        polled
    }

    fn position(&self) -> TracePosition {
        self.reader
            .as_ref()
            .map_or(self.start, |(reader, _)| reader.position())
    }

    /// The next poll re-reads the header and checks the position against it.
    fn resume(&mut self, at: TracePosition) -> Result<(), CodecError> {
        self.restart(at);
        self.done = false;
        Ok(())
    }

    fn skipped(&self) -> u64 {
        self.skipped
            + self
                .reader
                .as_ref()
                .map_or(0, |(reader, _)| reader.skipped())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::tests_support::{
        counted_sample, encoded, every_bit_flip, every_cut, push_batch, push_run, FILL_SIZES,
    };
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn recs(n: u64) -> Vec<PacketRecord> {
        (0..n)
            .map(|i| PacketRecord::tcp(i * 7, i as u128, (i * 3) as u128, 1, 22, 60))
            .collect()
    }

    fn write_trace(records: &[PacketRecord]) -> tempdir::ScopedFile {
        let bytes = encoded(records).expect("encode");
        tempdir::ScopedFile::with_bytes(&bytes)
    }

    /// Minimal scoped temp-file helper (no external tempfile dep).
    mod tempdir {
        use std::path::{Path, PathBuf};

        pub struct ScopedFile {
            path: PathBuf,
        }

        impl ScopedFile {
            pub fn with_bytes(bytes: &[u8]) -> Self {
                use std::sync::atomic::{AtomicU64, Ordering};
                static SEQ: AtomicU64 = AtomicU64::new(0);
                let path = std::env::temp_dir().join(format!(
                    "lumen6-source-test-{}-{}",
                    std::process::id(),
                    SEQ.fetch_add(1, Ordering::Relaxed)
                ));
                std::fs::write(&path, bytes).expect("write temp trace");
                ScopedFile { path }
            }

            pub fn path(&self) -> &Path {
                &self.path
            }
        }

        impl Drop for ScopedFile {
            fn drop(&mut self) {
                let _ = std::fs::remove_file(&self.path);
            }
        }
    }

    fn drain(src: &mut dyn Source, max: usize) -> Vec<PacketRecord> {
        let mut out = Vec::new();
        let mut batch = RecordBatch::new();
        loop {
            let n = src.fill(&mut batch, max).expect("fill");
            if n == 0 {
                break;
            }
            out.extend(batch.iter());
        }
        out
    }

    #[test]
    fn materialized_source_yields_everything_in_batches() {
        let want = recs(1000);
        for max in [1, 7, 256, 5000] {
            let mut src = MaterializedSource::new(want.clone());
            assert_eq!(drain(&mut src, max), want, "max={max}");
        }
    }

    #[test]
    fn materialized_source_position_resume_roundtrip() {
        let want = recs(100);
        let mut src = MaterializedSource::new(want.clone());
        let mut batch = RecordBatch::new();
        assert_eq!(src.fill(&mut batch, 40).unwrap(), 40);
        let pos = src.position();
        assert_eq!(pos.offset, 40);
        assert_eq!(pos.prev_ts, want[39].ts_ms);
        // A fresh source resumed at that position yields exactly the tail.
        let mut fresh = MaterializedSource::new(want.clone());
        fresh.resume(pos).unwrap();
        assert_eq!(drain(&mut fresh, 33), want[40..].to_vec());
        // Beyond-end offsets are rejected, not a panic.
        assert!(fresh
            .resume(TracePosition {
                offset: 101,
                prev_ts: 0
            })
            .is_err());
    }

    #[test]
    fn file_stream_source_matches_materialized() {
        let want = recs(2_000);
        let f = write_trace(&want);
        for max in [1, 64, 4096] {
            let mut src = FileStreamSource::open(f.path()).expect("open");
            assert_eq!(drain(&mut src, max), want, "max={max}");
        }
    }

    #[test]
    fn file_stream_source_resume_continues_exactly() {
        let want = recs(1_500);
        let f = write_trace(&want);
        let mut src = FileStreamSource::open(f.path()).expect("open");
        let mut batch = RecordBatch::new();
        let mut head = Vec::new();
        for _ in 0..3 {
            src.fill(&mut batch, 250).unwrap();
            head.extend(batch.iter());
        }
        let pos = src.position();
        assert_eq!(
            pos.prev_ts,
            head.last().map_or(0, |r: &PacketRecord| r.ts_ms)
        );
        let mut fresh = FileStreamSource::open(f.path()).expect("open");
        fresh.resume(pos).unwrap();
        head.extend(drain(&mut fresh, 123));
        assert_eq!(head, want);
    }

    #[test]
    fn file_stream_source_surfaces_error_after_partial_batch_then_fuses() {
        let want = recs(10);
        let bytes = encoded(&want).expect("encode");
        let cut = &bytes[..bytes.len() - 3];
        let f = tempdir::ScopedFile::with_bytes(cut);
        let mut src = FileStreamSource::open(f.path()).expect("open");
        let mut batch = RecordBatch::new();
        // Everything before the cut arrives as (possibly short) batches...
        let mut got = 0;
        let err = loop {
            match src.fill(&mut batch, 4) {
                Ok(0) => panic!("stream must end in an error, not EOF"),
                Ok(n) => got += n,
                Err(e) => break e,
            }
        };
        assert_eq!(got, 9, "records before the truncation decode fine");
        assert!(matches!(err, CodecError::Truncated));
        // Fused after the error.
        assert_eq!(src.fill(&mut batch, 4).unwrap(), 0);
    }

    #[test]
    fn file_stream_source_missing_file_is_io() {
        let err = FileStreamSource::open(Path::new("/nonexistent/lumen6-nope.l6tr")).unwrap_err();
        assert!(matches!(err, CodecError::Io(_)));
    }

    /// A scoped temp directory for tail tests that rewrite/rename files.
    struct ScopedDir {
        path: PathBuf,
    }

    impl ScopedDir {
        fn new(tag: &str) -> Self {
            use std::sync::atomic::{AtomicU64, Ordering};
            static SEQ: AtomicU64 = AtomicU64::new(0);
            let path = std::env::temp_dir().join(format!(
                "lumen6-tail-{tag}-{}-{}",
                std::process::id(),
                SEQ.fetch_add(1, Ordering::Relaxed)
            ));
            std::fs::create_dir_all(&path).expect("create temp dir");
            ScopedDir { path }
        }

        fn file(&self, name: &str) -> PathBuf {
            self.path.join(name)
        }
    }

    impl Drop for ScopedDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.path);
        }
    }

    fn poll_all(src: &mut TailSource, max: usize) -> (Vec<PacketRecord>, FillOutcome) {
        let mut out = Vec::new();
        let mut batch = RecordBatch::new();
        loop {
            match src.poll_fill(&mut batch, max).expect("poll") {
                FillOutcome::Filled(_) => out.extend(batch.iter()),
                other => return (out, other),
            }
        }
    }

    #[test]
    fn tail_source_partial_trailing_record_is_never_consumed() {
        // The last row is a counted one: three copies of record 19.
        let mut want = recs(20);
        want.extend([want[19]; 2]);
        let bytes = encoded(&want).expect("encode");
        let dir = ScopedDir::new("partial");
        let path = dir.file("t.l6tr");
        // Write everything except the last 4 bytes: the final row is a
        // partial tail the writer has not finished appending.
        std::fs::write(&path, &bytes[..bytes.len() - 4]).unwrap();

        let mut src = TailSource::open(&path);
        let (got, state) = poll_all(&mut src, 7);
        assert_eq!(got, want[..19], "only complete rows delivered");
        assert_eq!(state, FillOutcome::Pending, "partial tail means pending");
        assert_eq!(src.skipped(), 0);

        // The writer completes the row and declares EOF.
        std::fs::write(&path, &bytes).unwrap();
        std::fs::write(TailSource::eof_marker(&path), b"").unwrap();
        let mut batch = RecordBatch::new();
        assert_eq!(
            src.poll_fill(&mut batch, 100).unwrap(),
            FillOutcome::Filled(3)
        );
        assert_eq!((batch.get(0), batch.count(0)), (want[19], 3));
        assert_eq!(src.poll_fill(&mut batch, 100).unwrap(), FillOutcome::Eof);
    }

    #[test]
    fn tail_source_sees_appends_between_polls() {
        let want = recs(300);
        let bytes = encoded(&want).expect("encode");
        let dir = ScopedDir::new("append");
        let path = dir.file("t.l6tr");
        // Nothing on disk yet: the tail waits for the writer.
        let mut src = TailSource::open(&path);
        let mut batch = RecordBatch::new();
        assert_eq!(src.poll_fill(&mut batch, 10).unwrap(), FillOutcome::Pending);

        // Appear in three installments, each an exact record boundary plus
        // a ragged cut, polled in between.
        let cuts = [bytes.len() / 3, 2 * bytes.len() / 3, bytes.len()];
        let mut got = Vec::new();
        for cut in cuts {
            std::fs::write(&path, &bytes[..cut]).unwrap();
            let (part, state) = poll_all(&mut src, 64);
            got.extend(part);
            assert_eq!(state, FillOutcome::Pending, "cut={cut}");
        }
        std::fs::write(TailSource::eof_marker(&path), b"").unwrap();
        let (rest, state) = poll_all(&mut src, 64);
        got.extend(rest);
        assert_eq!(state, FillOutcome::Eof);
        assert_eq!(got, want);
        assert_eq!(src.rotations(), 0);
        assert_eq!(src.truncations(), 0);
    }

    #[test]
    fn tail_source_truncation_restarts_from_header() {
        let first = recs(50);
        let second: Vec<PacketRecord> = (0..30u64)
            .map(|i| PacketRecord::udp(1_000_000 + i, 0xaa, i as u128, 1, 53, 90))
            .collect();
        let dir = ScopedDir::new("trunc");
        let path = dir.file("t.l6tr");
        std::fs::write(&path, encoded(&first).unwrap()).unwrap();

        let reg = MetricsRegistry::global();
        let trunc_before = reg.counter("trace.tail.truncations").get();

        let mut src = TailSource::open(&path);
        let (got, state) = poll_all(&mut src, 16);
        assert_eq!(got, first);
        assert_eq!(state, FillOutcome::Pending);

        // The writer truncates and starts a fresh stream in place.
        std::fs::write(&path, encoded(&second).unwrap()).unwrap();
        std::fs::write(TailSource::eof_marker(&path), b"").unwrap();
        let (got, state) = poll_all(&mut src, 16);
        assert_eq!(got, second, "decode restarted from the new header");
        assert_eq!(state, FillOutcome::Eof);
        assert_eq!(src.truncations(), 1);
        assert!(reg.counter("trace.tail.truncations").get() > trunc_before);
    }

    #[cfg(unix)]
    #[test]
    fn tail_source_rotation_by_rename_drains_old_then_follows_new() {
        let old_recs = recs(40);
        let new_recs: Vec<PacketRecord> = (0..25u64)
            .map(|i| PacketRecord::tcp(9_000_000 + i, 0xbb, i as u128, 1, 443, 60))
            .collect();
        let dir = ScopedDir::new("rotate");
        let path = dir.file("t.l6tr");
        std::fs::write(&path, encoded(&old_recs).unwrap()).unwrap();

        let reg = MetricsRegistry::global();
        let rot_before = reg.counter("trace.tail.rotations").get();

        let mut src = TailSource::open(&path);
        let mut batch = RecordBatch::new();
        // Read part of the old file, then rotate underneath the tail.
        assert_eq!(
            src.poll_fill(&mut batch, 15).unwrap(),
            FillOutcome::Filled(15)
        );
        let mut got: Vec<PacketRecord> = batch.iter().collect();
        std::fs::rename(&path, dir.file("t.l6tr.1")).unwrap();
        std::fs::write(&path, encoded(&new_recs).unwrap()).unwrap();
        std::fs::write(TailSource::eof_marker(&path), b"").unwrap();

        let (rest, state) = poll_all(&mut src, 15);
        got.extend(rest);
        assert_eq!(state, FillOutcome::Eof);
        let mut want = old_recs.clone();
        want.extend(&new_recs);
        assert_eq!(got, want, "old incarnation drained before the successor");
        assert_eq!(src.rotations(), 1);
        assert!(reg.counter("trace.tail.rotations").get() > rot_before);
    }

    #[test]
    fn tail_source_permissive_quarantines_field_overflow() {
        // Reuse the codec test vector: record 5 has an out-of-range dport.
        let (bytes, expected) = crate::codec::tests_support::bytes_with_bad_dport();
        let dir = ScopedDir::new("quarantine");
        let path = dir.file("t.l6tr");
        std::fs::write(&path, &bytes).unwrap();
        std::fs::write(TailSource::eof_marker(&path), b"").unwrap();

        let reg = MetricsRegistry::global();
        let skip_before = reg.counter("trace.tail.skipped.field_overflow").get();

        let mut src = TailSource::open(&path).permissive(true);
        let (got, state) = poll_all(&mut src, 4);
        assert_eq!(got, expected);
        assert_eq!(state, FillOutcome::Eof);
        assert_eq!(src.skipped(), 1);
        assert!(reg.counter("trace.tail.skipped.field_overflow").get() > skip_before);

        // Strict mode surfaces the same stream as an error instead.
        let mut strict = TailSource::open(&path);
        let mut batch = RecordBatch::new();
        let err = loop {
            match strict.poll_fill(&mut batch, 4) {
                Ok(FillOutcome::Filled(_)) => {}
                Ok(other) => panic!("strict tail must error, got {other:?}"),
                Err(e) => break e,
            }
        };
        assert!(matches!(err, CodecError::FieldOverflow("dport", _)));
        // Fused after the error.
        assert_eq!(strict.poll_fill(&mut batch, 4).unwrap(), FillOutcome::Eof);
    }

    /// Drives a tail over a finished file (its `.eof` marker present) to the
    /// end: the records delivered and the error that ended the stream, if
    /// one did. A finished file never reports `Pending`.
    fn drain_finished_tail(
        src: &mut TailSource,
        max: usize,
        limit: usize,
    ) -> (Vec<PacketRecord>, Option<CodecError>) {
        let mut out = Vec::new();
        let mut batch = RecordBatch::new();
        for _ in 0..=limit {
            match src.poll_fill(&mut batch, max) {
                Ok(FillOutcome::Filled(n)) => {
                    assert!(n <= max && n == batch.len());
                    out.extend(batch.iter());
                }
                Ok(FillOutcome::Eof) => return (out, None),
                Ok(FillOutcome::Pending) => panic!("finished file reported Pending"),
                Err(e) => {
                    assert_eq!(
                        src.poll_fill(&mut batch, max).unwrap(),
                        FillOutcome::Eof,
                        "fused after the error"
                    );
                    return (out, Some(e));
                }
            }
        }
        panic!("max={max}: runaway");
    }

    #[test]
    fn tail_source_truncation_at_every_cut_is_truncated_never_pending() {
        let recs = counted_sample(5);
        let dir = ScopedDir::new("cuts");
        let path = dir.file("t.l6tr");
        std::fs::write(TailSource::eof_marker(&path), b"").unwrap();
        for (cut, head) in every_cut(&recs).iter().enumerate() {
            std::fs::write(&path, head).unwrap();
            for max in FILL_SIZES {
                let mut src = TailSource::open(&path);
                let (got, err) = drain_finished_tail(&mut src, max, recs.len() + 1);
                assert_eq!(got, recs[..got.len()], "cut={cut} max={max}");
                match err {
                    Some(e) => assert!(
                        matches!(e, CodecError::Truncated),
                        "cut={cut} max={max}: {e}"
                    ),
                    // Only a cut on a record boundary (or the empty file no
                    // writer has started) ends cleanly.
                    None => assert!(
                        cut == 0 || encoded(&got).unwrap() == *head,
                        "cut={cut} max={max}"
                    ),
                }
            }
        }
    }

    #[test]
    fn tail_source_bit_flips_decode_as_the_file_stream_does() {
        let (flips, bound) = every_bit_flip(&counted_sample(5));
        let dir = ScopedDir::new("flips");
        let path = dir.file("t.l6tr");
        std::fs::write(TailSource::eof_marker(&path), b"").unwrap();
        let mut batch = RecordBatch::new();
        for (i, bad) in flips.iter().enumerate() {
            std::fs::write(&path, bad).unwrap();
            // The reference: the same bytes through the file stream.
            let mut want = Vec::new();
            let want_err = match FileStreamSource::open(&path) {
                Err(e) => Some(e.kind()),
                Ok(mut file) => loop {
                    match file.fill(&mut batch, 7) {
                        Ok(0) => break None,
                        Ok(_) => want.extend(batch.iter()),
                        Err(e) => break Some(e.kind()),
                    }
                },
            };
            for max in FILL_SIZES {
                let mut src = TailSource::open(&path);
                let (got, err) = drain_finished_tail(&mut src, max, bound);
                assert_eq!(got, want, "flip {i} max={max}");
                assert_eq!(err.map(|e| e.kind()), want_err, "flip {i} max={max}");
            }
        }
    }

    #[test]
    fn tail_source_over_a_finished_file_equals_file_stream_source() {
        let (bad, _) = crate::codec::tests_support::bytes_with_bad_dport();
        let clean = encoded(&recs(3_000)).expect("encode");
        let dir = ScopedDir::new("equal");
        let path = dir.file("t.l6tr");
        std::fs::write(TailSource::eof_marker(&path), b"").unwrap();
        for (bytes, n) in [(&clean, 3_000), (&bad, 9)] {
            std::fs::write(&path, bytes).unwrap();
            for max in FILL_SIZES {
                let mut file = FileStreamSource::open(&path).unwrap().permissive(true);
                let want = drain(&mut file, max);
                assert_eq!(want.len(), n);
                let mut tail = TailSource::open(&path).permissive(true);
                let (got, err) = drain_finished_tail(&mut tail, max, n);
                assert!(err.is_none(), "max={max}");
                assert_eq!(got, want, "max={max}");
                assert_eq!(tail.skipped(), file.skipped(), "max={max}");
                assert_eq!(tail.position(), file.position(), "max={max}");
            }
        }
    }

    #[test]
    fn tail_source_resumes_inside_counted_rows() {
        let want: Vec<PacketRecord> = recs(60)
            .into_iter()
            .enumerate()
            .flat_map(|(i, r)| std::iter::repeat_n(r, 1 + i % 5))
            .collect();
        let dir = ScopedDir::new("mid-row");
        let path = dir.file("t.l6tr");
        std::fs::write(&path, encoded(&want).unwrap()).unwrap();
        std::fs::write(TailSource::eof_marker(&path), b"").unwrap();

        // Every batch boundary of a 7-record poll, most of them inside a
        // row, resumes a fresh tail to exactly the rest of the stream.
        let mut src = TailSource::open(&path);
        let mut batch = RecordBatch::new();
        let (mut done, mut inside) = (0, 0);
        while let FillOutcome::Filled(n) = src.poll_fill(&mut batch, 7).unwrap() {
            done += n;
            let pos = src.position();
            inside += usize::from(pos.offset >> 48 > 0);
            let mut fresh = TailSource::open(&path);
            fresh.resume(pos).unwrap();
            assert_eq!(poll_all(&mut fresh, 33).0, want[done..], "after {done}");
        }
        assert_eq!(done, want.len());
        assert!(inside > 10, "{inside} boundaries inside a row");

        // A version 1 file has no position inside a row.
        std::fs::write(&path, crate::codec::tests_support::encode_v1(&want)).unwrap();
        let mut v1 = TailSource::open(&path);
        v1.resume(TracePosition {
            offset: 5 | 1 << 48,
            prev_ts: 0,
        })
        .unwrap();
        assert!(matches!(
            v1.poll_fill(&mut batch, 7),
            Err(CodecError::Io(e)) if e.kind() == io::ErrorKind::InvalidInput
        ));
    }

    #[test]
    fn tail_source_position_resume_roundtrip() {
        let want = recs(200);
        let dir = ScopedDir::new("resume");
        let path = dir.file("t.l6tr");
        std::fs::write(&path, encoded(&want).unwrap()).unwrap();
        std::fs::write(TailSource::eof_marker(&path), b"").unwrap();

        let mut src = TailSource::open(&path);
        let mut batch = RecordBatch::new();
        assert_eq!(
            src.poll_fill(&mut batch, 80).unwrap(),
            FillOutcome::Filled(80)
        );
        let pos = src.position();
        assert_eq!(pos.prev_ts, batch.get(79).ts_ms);

        let mut fresh = TailSource::open(&path);
        fresh.resume(pos).unwrap();
        let (tail, state) = poll_all(&mut fresh, 33);
        assert_eq!(state, FillOutcome::Eof);
        assert_eq!(tail, want[80..].to_vec());
    }

    /// A permissive tail's skips add up over the files it follows and
    /// survive a resume.
    #[test]
    fn tail_source_counts_skips_across_incarnations() {
        let (bad, good) = crate::codec::tests_support::bytes_with_bad_dport();
        let dir = ScopedDir::new("skips");
        let path = dir.file("t.l6tr");
        std::fs::write(&path, &bad).unwrap();
        let mut src = TailSource::open(&path).permissive(true);
        assert_eq!(poll_all(&mut src, 4), (good.clone(), FillOutcome::Pending));
        // Truncated in place, cut inside its last row, then rotated away.
        std::fs::write(&path, &bad[..bad.len() - 1]).unwrap();
        let head = good[..good.len() - 1].to_vec();
        assert_eq!(poll_all(&mut src, 4), (head, FillOutcome::Pending));
        std::fs::rename(&path, dir.file("t.l6tr.1")).unwrap();
        std::fs::write(&path, &bad).unwrap();
        assert_eq!(poll_all(&mut src, 4), (good, FillOutcome::Pending));
        src.resume(src.position()).unwrap();
        std::fs::write(TailSource::eof_marker(&path), b"").unwrap();
        assert_eq!(poll_all(&mut src, 4), (Vec::new(), FillOutcome::Eof));
        assert_eq!((src.truncations(), src.rotations()), (1, 1));
        assert_eq!(src.skipped(), 3);
    }

    /// The encoding of one incarnation of a tailed file: up to a dozen
    /// counted rows whose tags, counts and ports take one to three varint
    /// bytes, a run of 65 537 split over two rows among them.
    fn incarnation(rng: &mut SmallRng) -> Vec<u8> {
        let mut w = crate::codec::TraceWriter::new(Vec::new()).unwrap();
        let mut ts = rng.gen_range(0..1_000_000u64);
        for _ in 0..rng.gen_range(1..12) {
            ts += [0, 1, 200, 20_000, 3_000_000][rng.gen_range(0..5usize)];
            let (src, dst) = (rng.gen_range(0..3u64), rng.gen_range(0..300u64));
            let dport = [22, 443, 40_000][rng.gen_range(0..3usize)];
            let r = PacketRecord::tcp(ts, src.into(), dst.into(), 40_000, dport, 60);
            let copies = [1, 2, 127, 128, 1_250, 65_535, 65_537][rng.gen_range(0..7usize)];
            w.append_n(&r, copies).unwrap();
        }
        w.finish().unwrap()
    }

    /// What a [`FileStreamSource`] decodes from `bytes`, as runs, and where
    /// it stops: the whole prefix is rows, or how many bytes of a partial
    /// row it ends with, and the error that ended it.
    fn reference(
        dir: &ScopedDir,
        bytes: &[u8],
    ) -> (Vec<(PacketRecord, u64)>, u64, Option<&'static str>) {
        let path = dir.file("reference.l6tr");
        std::fs::write(&path, bytes).unwrap();
        let mut file = match FileStreamSource::open(&path) {
            Ok(file) => file,
            Err(e) => return (Vec::new(), bytes.len() as u64, Some(e.kind())),
        };
        let (mut runs, mut batch) = (Vec::new(), RecordBatch::new());
        let err = loop {
            match file.fill(&mut batch, 4096) {
                Ok(0) => break None,
                Ok(_) => push_batch(&mut runs, &batch),
                Err(e) => break Some(e.kind()),
            }
        };
        (runs, bytes.len() as u64 - file.position().offset, err)
    }

    /// Polls once with a batch size drawn from `rng`, adding what arrives
    /// to `got`.
    fn poll_once(
        src: &mut TailSource,
        rng: &mut SmallRng,
        got: &mut Vec<(PacketRecord, u64)>,
    ) -> FillOutcome {
        let max = [1, 2, 7, 4096, rng.gen_range(1..3000)][rng.gen_range(0..5usize)];
        let mut batch = RecordBatch::new();
        let outcome = src.poll_fill(&mut batch, max).expect("poll");
        assert!(batch.len() <= max);
        push_batch(got, &batch);
        outcome
    }

    /// Seeded interleavings of a writer's appends (a quarter of the seeds
    /// one byte at a time, so every byte of a counted row is a cut, varints
    /// included), in-place truncations, rename rotations, resumes at the
    /// tail's position (often inside a row) and, last, the `.eof` marker.
    /// The tail delivers what a [`FileStreamSource`] decodes from each
    /// incarnation's final bytes, in order, ends as it ends on the last one,
    /// and counts every rotation, truncation and stranded byte it saw.
    ///
    /// A tail can only tell a truncation in place from growth by length, so
    /// the writer truncates once the tail has read all there was, to fewer
    /// bytes, and the tail polls before the file grows again; and it
    /// rotates a file only once the tail reads it.
    #[test]
    fn tail_source_follows_seeded_interleavings() {
        let discarded = MetricsRegistry::global().counter("trace.tail.discarded_bytes");
        let (mut inside, mut rotated, mut truncated) = (0, 0, 0);
        for seed in 0..96u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let bytewise = seed % 4 == 0;
            let dir = ScopedDir::new("interleave");
            let path = dir.file("t.l6tr");
            let append = |bytes: &[u8]| {
                use std::io::Write as _;
                let mut f = fs::OpenOptions::new().create(true).append(true).open(&path);
                f.as_mut().unwrap().write_all(bytes).unwrap();
            };
            let discarded_before = discarded.get();
            // The final bytes of every incarnation the writer left.
            let mut ended: Vec<Vec<u8>> = Vec::new();
            let (mut full, mut written, mut exists) = (incarnation(&mut rng), 0, false);
            // What the tail should count, and what earlier tails (before a
            // resume into a fresh one) did count.
            let (mut want_rotations, mut want_truncations, mut want_discarded) = (0, 0, 0);
            let (mut rotations, mut truncations) = (0, 0);
            // The tail holds a reader over the current incarnation; it has
            // also read all of it; it may hold one over a rotated file.
            let (mut on_current, mut caught_up, mut behind) = (false, false, false);
            let mut src = TailSource::open(&path);
            let mut got = Vec::new();
            for _ in 0..if bytewise { 1_500 } else { 150 } {
                let poll = match rng.gen_range(0..10) {
                    0..=4 if written < full.len() => {
                        let k = if bytewise || rng.gen_bool(0.3) {
                            1
                        } else {
                            rng.gen_range(1..=120)
                        };
                        let k = k.min(full.len() - written);
                        append(&full[written..written + k]);
                        (written, exists, caught_up) = (written + k, true, false);
                        bytewise
                    }
                    5 if caught_up && exists && written > 0 => {
                        ended.push(full[..written].to_vec());
                        want_truncations += u64::from(on_current);
                        full = incarnation(&mut rng);
                        let k = rng.gen_range(0..written).min(full.len());
                        std::fs::write(&path, &full[..k]).unwrap();
                        (written, on_current, caught_up) = (k, false, false);
                        true
                    }
                    6 if exists && (on_current || written < 5) => {
                        let old = full[..written].to_vec();
                        if on_current {
                            want_rotations += 1;
                            want_discarded += reference(&dir, &old).1;
                        }
                        let n = ended.len();
                        fs::rename(&path, dir.file(&format!("t.l6tr.{n}"))).unwrap();
                        ended.push(old);
                        full = incarnation(&mut rng);
                        (written, exists, on_current, caught_up) = (0, false, false, false);
                        behind = true;
                        if rng.gen_bool(0.5) {
                            written = rng.gen_range(0..=full.len().min(60));
                            append(&full[..written]);
                            exists = true;
                        }
                        false
                    }
                    _ => true,
                };
                if poll {
                    match poll_once(&mut src, &mut rng, &mut got) {
                        // Resumed where the batch ended, often inside a
                        // row, by this tail or a fresh one.
                        FillOutcome::Filled(_) if !behind && rng.gen_bool(0.5) => {
                            let at = src.position();
                            inside += usize::from(at.offset >> 48 > 0);
                            if rng.gen_bool(0.5) {
                                rotations += src.rotations();
                                truncations += src.truncations();
                                src = TailSource::open(&path);
                            }
                            src.resume(at).unwrap();
                            on_current = false;
                        }
                        FillOutcome::Filled(_) => on_current = !behind,
                        FillOutcome::Pending => {
                            on_current = exists && written >= 5;
                            (caught_up, behind) = (true, false);
                        }
                        FillOutcome::Eof => panic!("seed {seed}: Eof before the marker"),
                    }
                }
            }
            // The writer finishes the incarnation, or stops inside a row,
            // and declares the file finished.
            let end = if rng.gen_bool(0.5) {
                full.len()
            } else {
                rng.gen_range(written..=full.len())
            };
            append(&full[written..end]);
            ended.push(full[..end].to_vec());
            std::fs::write(TailSource::eof_marker(&path), b"").unwrap();
            let mut batch = RecordBatch::new();
            let err = loop {
                match src.poll_fill(&mut batch, 4096) {
                    Ok(FillOutcome::Filled(_)) => push_batch(&mut got, &batch),
                    Ok(FillOutcome::Eof) => break None,
                    Ok(FillOutcome::Pending) => panic!("seed {seed}: Pending after the marker"),
                    Err(e) => break Some(e.kind()),
                }
            };

            let mut want = Vec::new();
            let mut last = None;
            for bytes in &ended {
                let (runs, _, err) = reference(&dir, bytes);
                runs.into_iter()
                    .for_each(|(r, n)| push_run(&mut want, r, n));
                // An empty file declared finished is an empty stream.
                last = err.filter(|_| !bytes.is_empty());
            }
            assert_eq!(got, want, "seed {seed}");
            assert_eq!(err, last, "seed {seed}");
            assert_eq!(rotations + src.rotations(), want_rotations, "seed {seed}");
            assert_eq!(
                truncations + src.truncations(),
                want_truncations,
                "seed {seed}"
            );
            assert_eq!(
                discarded.get() - discarded_before,
                want_discarded,
                "seed {seed}"
            );
            assert_eq!(src.skipped(), 0, "seed {seed}");
            rotated += want_rotations;
            truncated += want_truncations;
        }
        assert!(
            rotated > 50 && truncated > 50,
            "{rotated} rotations, {truncated} truncations"
        );
        assert!(inside > 50, "{inside} resumes inside a row");
    }
}
