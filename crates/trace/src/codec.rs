//! Compact binary trace format with streaming reader/writer.
//!
//! Layout:
//!
//! ```text
//! magic  b"L6TR"          4 bytes
//! version u8              2 (version 1 is still read, never written)
//! row*:
//!   tag       varint      delta_ts << 1 | counted; delta_ts is ms since
//!                         the previous row (first: since 0)
//!   count     varint      only if counted: copies of the row, 2..=65 535
//!   src       16 bytes    big-endian u128
//!   dst       16 bytes    big-endian u128
//!   proto     1 byte      IP next-header value
//!   sport     varint
//!   dport     varint
//!   len       varint
//! ```
//!
//! [`TraceWriter`] folds each run of adjacent equal records into a row,
//! splitting runs past 65 535; a version 1 row is one untagged record. A
//! batch is bounded in records, so a version 2 [`TracePosition`] may fall
//! inside a row: its `offset` is then the row's byte offset `| skip << 48`,
//! `skip` being the copies already delivered.
//!
//! Timestamps must be non-decreasing (delta encoding); the writer enforces
//! this. Varints are LEB128 (7 bits per byte). Decode is windowed and
//! bounded: [`StreamingTraceReader`] holds one 64 KiB refill window whatever
//! the size of the file, and `decode_record_at` is the only code that turns
//! bytes into a row.

use crate::batch::RecordBatch;
use crate::record::{PacketRecord, Transport};
use bytes::BufMut;
/// The growable buffer [`put_varint`] appends to.
pub use bytes::BytesMut;
use lumen6_obs::MetricsRegistry;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::io::{self, Read, Write};

/// Locally accumulated decode telemetry, flushed to the global
/// [`MetricsRegistry`] when the owning reader drops — per-record cost is a
/// plain `u64` increment, with zero atomic operations on the hot path.
#[derive(Debug, Default)]
struct DecodeStats {
    records: u64,
    rows: u64,
    bytes: u64,
    refills: u64,
}

impl DecodeStats {
    fn flush(&mut self) {
        let reg = MetricsRegistry::global();
        if self.records > 0 {
            reg.counter("trace.codec.records_decoded").add(self.records);
        }
        if self.rows > 0 {
            reg.counter("trace.codec.rows_decoded").add(self.rows);
        }
        if self.bytes > 0 {
            reg.counter("trace.codec.bytes_read").add(self.bytes);
        }
        if self.refills > 0 {
            reg.counter("trace.codec.refills").add(self.refills);
        }
        // Zero field-by-field: `*self = default()` would drop the old value
        // and recurse through this Drop impl.
        self.records = 0;
        self.rows = 0;
        self.bytes = 0;
        self.refills = 0;
    }
}

impl Drop for DecodeStats {
    fn drop(&mut self) {
        self.flush();
    }
}

/// Counts one decode error under `trace.codec.errors.<variant>`. Errors are
/// rare, so these hit the global registry directly.
fn note_decode_error(e: &CodecError) {
    MetricsRegistry::global()
        .counter(&format!("trace.codec.errors.{}", e.kind()))
        .inc();
}

/// File magic.
pub const MAGIC: &[u8; 4] = b"L6TR";
/// Current format version.
pub const VERSION: u8 = 2;

/// Most copies one row carries, so that a skip fits above [`OFFSET_BITS`].
const MAX_COUNT: u32 = u16::MAX as u32;

/// Bits of a version 2 position's `offset` that hold the row's byte offset.
const OFFSET_BITS: u32 = 48;

/// A resume position whose skip is not below the copies of its row.
fn skip_past(skip: u32, row: &str) -> CodecError {
    let why = format!("resume position skips {skip} copies of {row}");
    CodecError::Io(io::Error::new(io::ErrorKind::InvalidInput, why))
}

/// Errors from decoding a trace stream.
#[derive(Debug)]
pub enum CodecError {
    /// Stream did not start with the `L6TR` magic.
    BadMagic([u8; 4]),
    /// Unsupported format version.
    BadVersion(u8),
    /// Stream ended in the middle of a record.
    Truncated,
    /// A varint exceeded 64 bits.
    VarintOverflow,
    /// A timestamp delta carried the running timestamp past `u64::MAX`.
    TimestampOverflow,
    /// A varint-decoded port or length exceeded its field width.
    FieldOverflow(&'static str, u64),
    /// Underlying I/O error.
    Io(io::Error),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::BadMagic(m) => write!(f, "bad magic {m:?} (expected \"L6TR\")"),
            CodecError::BadVersion(v) => write!(f, "unsupported trace version {v}"),
            CodecError::Truncated => write!(f, "trace stream truncated mid-record"),
            CodecError::VarintOverflow => write!(f, "varint exceeds 64 bits"),
            CodecError::TimestampOverflow => write!(f, "timestamp delta overflows 64 bits"),
            CodecError::FieldOverflow(name, v) => write!(f, "field {name} out of range: {v}"),
            CodecError::Io(e) => write!(f, "I/O error: {e}"),
        }
    }
}

impl CodecError {
    /// Stable machine-readable error-kind label, used for per-kind
    /// quarantine and metrics counters (`trace.codec.errors.<kind>`).
    pub fn kind(&self) -> &'static str {
        match self {
            CodecError::BadMagic(_) => "bad_magic",
            CodecError::BadVersion(_) => "bad_version",
            CodecError::Truncated => "truncated",
            CodecError::VarintOverflow => "varint_overflow",
            CodecError::TimestampOverflow => "timestamp_overflow",
            CodecError::FieldOverflow(..) => "field_overflow",
            CodecError::Io(_) => "io",
        }
    }

    /// Whether decoding can continue past this error. Only
    /// [`CodecError::FieldOverflow`] is record-local: every field of the
    /// offending record was consumed before validation failed, so the next
    /// record starts at a known offset. Framing errors (truncation, varint
    /// overflow, I/O) leave the stream position unknowable, and a timestamp
    /// overflow loses the base every later delta is decoded against.
    pub fn is_recoverable(&self) -> bool {
        matches!(self, CodecError::FieldOverflow(..))
    }
}

impl std::error::Error for CodecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CodecError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for CodecError {
    fn from(e: io::Error) -> Self {
        CodecError::Io(e)
    }
}

/// Appends `v` as an LEB128 varint — the only varint writer (`L6CK` reuses it).
pub fn put_varint(buf: &mut BytesMut, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.put_u8(byte);
            return;
        }
        buf.put_u8(byte | 0x80);
    }
}

/// Streaming writer for the `L6TR` format.
///
/// Records must be appended in non-decreasing timestamp order; `append`
/// panics otherwise (a programming error — traces are canonical-sorted).
/// Equal records fold into the open row until another record or
/// [`finish`](Self::finish) closes it.
pub struct TraceWriter<W: Write> {
    sink: W,
    buf: BytesMut,
    /// Timestamp of the last row encoded (the delta base).
    prev_ts: u64,
    count: u64,
    /// The open row: its record and the copies appended to it so far.
    pending: Option<(PacketRecord, u32)>,
}

impl<W: Write> TraceWriter<W> {
    /// Creates a writer and emits the header.
    pub fn new(mut sink: W) -> Result<Self, CodecError> {
        sink.write_all(MAGIC)?;
        sink.write_all(&[VERSION])?;
        Ok(TraceWriter {
            sink,
            buf: BytesMut::with_capacity(64 * 1024),
            prev_ts: 0,
            count: 0,
            pending: None,
        })
    }

    /// Appends one record.
    pub fn append(&mut self, r: &PacketRecord) -> Result<(), CodecError> {
        self.append_n(r, 1)
    }

    /// Appends `n` copies of one record (a counted [`RecordBatch`] row). A
    /// timestamp 2^63 ms or more past the last is `FieldOverflow`.
    pub fn append_n(&mut self, r: &PacketRecord, mut n: u32) -> Result<(), CodecError> {
        let (ts, last) = (r.ts_ms, self.pending.map_or(self.prev_ts, |(p, _)| p.ts_ms));
        assert!(
            ts >= last,
            "trace records must be time-sorted: {ts} < {last}"
        );
        if (ts - last) >> 63 != 0 {
            return Err(CodecError::FieldOverflow("delta_ts", ts - last));
        }
        self.count += u64::from(n);
        while n > 0 {
            match &mut self.pending {
                Some((p, copies)) if p == r && *copies < MAX_COUNT => {
                    let take = n.min(MAX_COUNT - *copies);
                    *copies += take;
                    n -= take;
                }
                _ => {
                    self.write_pending()?;
                    self.pending = Some((*r, 0));
                }
            }
        }
        Ok(())
    }

    /// Encodes the open row, if there is one.
    fn write_pending(&mut self) -> Result<(), CodecError> {
        let Some((r, copies)) = self.pending.take() else {
            return Ok(());
        };
        let tag = (r.ts_ms - self.prev_ts) << 1 | u64::from(copies > 1);
        put_varint(&mut self.buf, tag);
        if copies > 1 {
            put_varint(&mut self.buf, u64::from(copies));
        }
        self.prev_ts = r.ts_ms;
        self.buf.put_u128(r.src);
        self.buf.put_u128(r.dst);
        self.buf.put_u8(r.proto.to_byte());
        put_varint(&mut self.buf, u64::from(r.sport));
        put_varint(&mut self.buf, u64::from(r.dport));
        put_varint(&mut self.buf, u64::from(r.len));
        if self.buf.len() >= 60 * 1024 {
            self.sink.write_all(&self.buf)?;
            self.buf.clear();
        }
        Ok(())
    }

    /// Number of records appended so far, every copy counted.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Closes the open row, flushes buffered rows and returns the sink.
    pub fn finish(mut self) -> Result<W, CodecError> {
        self.write_pending()?;
        self.sink.write_all(&self.buf)?;
        self.sink.flush()?;
        Ok(self.sink)
    }
}

/// Encodes a whole slice to an in-memory buffer.
pub fn encode(records: &[PacketRecord]) -> Result<Vec<u8>, CodecError> {
    let mut w = TraceWriter::new(Vec::new())?;
    for r in records {
        w.append(r)?;
    }
    w.finish()
}

/// Decodes a whole buffer, failing on the first malformed record.
pub fn decode(data: &[u8]) -> Result<Vec<PacketRecord>, CodecError> {
    StreamingTraceReader::new(data)?.collect()
}

/// Upper bound on the bytes [`decode_record_at`] consumes for one row,
/// well-formed or not: five varints that each end or overflow within 10
/// bytes, two 16-byte addresses and the protocol byte. (A row the writer
/// produced is at most 55: its count, port and length varints fit 3 bytes.)
const MAX_RECORD_LEN: usize = 2 * 10 + 16 + 16 + 1 + 3 * 10;

/// Refill granularity of the streaming reader.
const STREAM_BUF_LEN: usize = 64 * 1024;

/// Reads one LEB128 varint from `data` at `*pos`, advancing the cursor — the
/// only varint reader. `Truncated` or `VarintOverflow` when it cannot.
pub fn slice_varint(data: &[u8], pos: &mut usize) -> Result<u64, CodecError> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let Some(&byte) = data.get(*pos) else {
            return Err(CodecError::Truncated);
        };
        *pos += 1;
        if shift >= 64 || (shift == 63 && byte > 1) {
            return Err(CodecError::VarintOverflow);
        }
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

fn slice_u128(data: &[u8], pos: &mut usize) -> Result<u128, CodecError> {
    let end = *pos + 16;
    let bytes = data.get(*pos..end).ok_or(CodecError::Truncated)?;
    *pos = end;
    // The `.get` above guarantees 16 bytes; map the impossible length
    // mismatch to Truncated rather than carrying a panic path.
    let arr: [u8; 16] = bytes.try_into().map_err(|_| CodecError::Truncated)?;
    Ok(u128::from_be_bytes(arr))
}

/// Decodes one row from `data` at `*pos`, delta-decoding its timestamp
/// against `*prev_ts` — the only code that parses a row. Returns the record
/// and its copies (a `counted` stream's rows may carry more than one). On
/// success the cursor and the timestamp base both advance past the row.
/// [`CodecError::FieldOverflow`] also advances them (every field of the
/// offending row was consumed before range validation failed), so
/// permissive callers can skip the row and stay aligned. Framing errors
/// (`Truncated`, `VarintOverflow`, `TimestampOverflow`) leave both
/// untouched, so a caller whose window merely ran out can retry the same
/// boundary once more bytes arrive.
fn decode_record_at(
    data: &[u8],
    pos: &mut usize,
    prev_ts: &mut u64,
    counted: bool,
) -> Result<(PacketRecord, u32), CodecError> {
    let mut p = *pos;
    let tag = slice_varint(data, &mut p)?;
    let flagged = counted && tag & 1 == 1;
    let delta = if counted { tag >> 1 } else { tag };
    let count = flagged
        .then(|| slice_varint(data, &mut p))
        .transpose()?
        .unwrap_or(1);
    let src = slice_u128(data, &mut p)?;
    let dst = slice_u128(data, &mut p)?;
    let proto = Transport::from_byte(*data.get(p).ok_or(CodecError::Truncated)?);
    p += 1;
    let sport = slice_varint(data, &mut p)?;
    let dport = slice_varint(data, &mut p)?;
    let len = slice_varint(data, &mut p)?;
    let ts_ms = prev_ts
        .checked_add(delta)
        .ok_or(CodecError::TimestampOverflow)?;
    *pos = p;
    *prev_ts = ts_ms;
    if sport > u64::from(u16::MAX) {
        return Err(CodecError::FieldOverflow("sport", sport));
    }
    if dport > u64::from(u16::MAX) {
        return Err(CodecError::FieldOverflow("dport", dport));
    }
    if len > u64::from(u16::MAX) {
        return Err(CodecError::FieldOverflow("len", len));
    }
    if flagged && !(2..=u64::from(MAX_COUNT)).contains(&count) {
        return Err(CodecError::FieldOverflow("count", count));
    }
    let r = PacketRecord {
        ts_ms,
        src,
        dst,
        proto,
        sport: sport as u16,
        dport: dport as u16,
        len: len as u16,
    };
    Ok((r, count as u32))
}

/// The records the row that `row` starts with stands for, well-formed or
/// not: its count when it carries one in range, else 1.
fn copies_of(row: &[u8], counted: bool) -> u64 {
    let (mut p, in_range) = (0, 2..=u64::from(MAX_COUNT));
    let flagged = counted && slice_varint(row, &mut p).is_ok_and(|tag| tag & 1 == 1);
    let count = flagged.then(|| slice_varint(row, &mut p).ok()).flatten();
    count.filter(|n| in_range.contains(n)).unwrap_or(1)
}

/// The slice-level decode loop and the state it carries from one window to
/// the next: the delta-decode time base and the permissive-skip policy.
/// [`StreamingTraceReader`] runs it over its refill window; what a record
/// cut short by the end of the window means (a refill, a truncated stream,
/// or, for a reader following a growing file, the writer's partial row) is
/// the reader's to decide.
#[derive(Debug, Default)]
struct WindowDecoder {
    /// Timestamp of the last row decoded or skipped (delta-decode base).
    prev_ts: u64,
    /// The format version the header gave: rows carry counts from 2 on.
    version: u8,
    /// Copies delivered of the row at the cursor (a batch can end mid-row).
    skip: u32,
    /// Rows decoded to their last copy.
    rows: u64,
    /// Skip recoverable per-record errors instead of returning them.
    permissive: bool,
    /// Records skipped so far in permissive mode.
    skipped: u64,
    /// Counter family a skip is reported under, as `<skip_metric>.<kind>`.
    skip_metric: &'static str,
}

impl WindowDecoder {
    fn new() -> Self {
        WindowDecoder {
            version: VERSION,
            skip_metric: "trace.codec.skipped",
            ..Default::default()
        }
    }

    /// Validates the stream header — magic, then version 1 or 2 — and
    /// learns the version; a version 1 row has no copies to skip.
    fn start(&mut self, header: &[u8; 5]) -> Result<(), CodecError> {
        let [m0, m1, m2, m3, version] = *header;
        let magic = [m0, m1, m2, m3];
        if &magic != MAGIC {
            return Err(CodecError::BadMagic(magic));
        }
        if version != 1 && version != VERSION {
            return Err(CodecError::BadVersion(version));
        }
        if version == 1 && self.skip > 0 {
            return Err(skip_past(self.skip, "a version 1 row"));
        }
        self.version = version;
        Ok(())
    }

    /// The position of a cursor on the row at byte `offset`.
    fn position(&self, offset: u64) -> TracePosition {
        TracePosition {
            offset: offset | u64::from(self.skip) << OFFSET_BITS,
            prev_ts: self.prev_ts,
        }
    }

    /// Restores the decode state `at` holds; returns the row's byte offset.
    fn seek(&mut self, at: TracePosition) -> u64 {
        self.prev_ts = at.prev_ts;
        self.skip = (at.offset >> OFFSET_BITS) as u32;
        at.offset & ((1 << OFFSET_BITS) - 1)
    }

    /// Decodes rows from `data[*pos..]` into `sink` as `(record, copies)`
    /// until `want` records are delivered, the window is used up, or a row
    /// fails; returns how many records were delivered and the failure, if
    /// any. A row `want` has no room for in full delivers what fits and
    /// leaves the cursor on its first byte. `Err(Truncated)` means the bytes
    /// left at `*pos` stop short of a whole row; as with every framing error
    /// the cursor stays on that row's boundary.
    fn decode_window(
        &mut self,
        data: &[u8],
        pos: &mut usize,
        want: usize,
        mut sink: impl FnMut(PacketRecord, usize),
    ) -> (usize, Result<(), CodecError>) {
        let mut n = 0;
        while n < want && *pos < data.len() {
            let (start, base) = (*pos, self.prev_ts);
            match decode_record_at(data, pos, &mut self.prev_ts, self.version > 1) {
                Ok((r, 1)) if self.skip == 0 => {
                    sink(r, 1);
                    n += 1;
                    self.rows += 1;
                }
                Ok((r, count)) => {
                    let left = count.saturating_sub(self.skip) as usize;
                    if left == 0 {
                        (*pos, self.prev_ts) = (start, base);
                        return (n, Err(skip_past(self.skip, &format!("a row of {count}"))));
                    }
                    let take = left.min(want - n);
                    sink(r, take);
                    n += take;
                    if take < left {
                        self.skip += lumen6_addr::cast::sat_u32(take);
                        (*pos, self.prev_ts) = (start, base);
                    } else {
                        self.skip = 0;
                        self.rows += 1;
                    }
                }
                Err(e) if self.permissive && e.is_recoverable() => {
                    let lost = copies_of(&data[start..], self.version > 1);
                    self.skip = 0;
                    self.skipped += lost;
                    MetricsRegistry::global()
                        .counter(&format!("{}.{}", self.skip_metric, e.kind()))
                        .add(lost);
                }
                Err(e) => return (n, Err(e)),
            }
        }
        (n, Ok(()))
    }
}

/// A resumable decode position inside an `L6TR` stream: the byte offset of
/// the next un-decoded row plus the delta-decoding state at that point.
/// Recorded in session checkpoints so a killed run can reopen the trace,
/// [`StreamingTraceReader::resume`] at this position, and continue decoding
/// mid-file as if never interrupted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TracePosition {
    /// Absolute byte offset of the next row (header included in count),
    /// with the copies of it already delivered in bits 48..64.
    pub offset: u64,
    /// Timestamp of the row preceding that one (delta-decode base).
    pub prev_ts: u64,
}

/// Streaming `L6TR` reader over any [`Read`] source in bounded memory.
///
/// Keeps only a refill window of [`STREAM_BUF_LEN`] bytes plus at most one
/// partial record, so decoding a multi-gigabyte trace costs the same memory
/// as decoding a kilobyte one. [`fill`](Self::fill) decodes straight into a
/// [`RecordBatch`]; the [`Iterator`] impl yields
/// `Result<PacketRecord, CodecError>` one record at a time. Either way the
/// reader fuses after the first error — unless
/// [`permissive`](Self::permissive) mode is on, in which case record-local
/// errors ([`CodecError::is_recoverable`]) are skipped and counted instead
/// of ending the stream.
#[derive(Debug)]
pub struct StreamingTraceReader<R: Read> {
    src: R,
    /// The refill window: `buf[pos..end]` is read but not yet decoded.
    buf: Vec<u8>,
    pos: usize,
    end: usize,
    eof: bool,
    dec: WindowDecoder,
    /// An error met after records of the same call were already delivered;
    /// the next call returns it.
    pending_err: Option<CodecError>,
    failed: bool,
    /// Following a growing file: the end of input is only the end of the
    /// data so far (see [`follow`](Self::follow)).
    follow: bool,
    /// Total bytes pulled from `src`, header included.
    fed: u64,
    stats: DecodeStats,
}

impl<R: Read> StreamingTraceReader<R> {
    /// Validates the header and prepares for streaming decode.
    pub fn new(mut src: R) -> Result<Self, CodecError> {
        let mut dec = WindowDecoder::new();
        read_header(&mut src)
            .and_then(|header| dec.start(&header))
            .inspect_err(note_decode_error)?;
        Ok(Self::raw(src, 5, dec))
    }

    /// Resumes decoding at a [`position`](Self::position) of the same stream:
    /// re-reads the header (a replaced file is `BadMagic`/`BadVersion`), then
    /// seeks to the recorded row. A skip past that row's copies, or any skip
    /// in a version 1 stream, is an error.
    pub fn resume(mut src: R, at: TracePosition) -> Result<Self, CodecError>
    where
        R: io::Seek,
    {
        let mut dec = WindowDecoder::new();
        let offset = dec.seek(at);
        src.seek(io::SeekFrom::Start(0))?;
        dec.start(&read_header(&mut src)?)?;
        src.seek(io::SeekFrom::Start(offset))?;
        Ok(Self::raw(src, offset, dec))
    }

    fn raw(src: R, fed: u64, dec: WindowDecoder) -> Self {
        StreamingTraceReader {
            src,
            buf: vec![0; STREAM_BUF_LEN + MAX_RECORD_LEN],
            pos: 0,
            end: 0,
            eof: false,
            dec,
            pending_err: None,
            failed: false,
            follow: false,
            fed,
            // The header, read at a resume too; a skipped prefix is not.
            stats: DecodeStats {
                bytes: 5,
                ..DecodeStats::default()
            },
        }
    }

    /// Enables or disables permissive mode: recoverable per-record errors
    /// (field overflows) are skipped — every copy of the row counted in
    /// [`skipped`](Self::skipped) and under `trace.codec.skipped.<kind>` —
    /// instead of fusing the reader. Framing errors still end the stream.
    pub fn permissive(mut self, yes: bool) -> Self {
        self.dec.permissive = yes;
        self
    }

    /// Records skipped so far in permissive mode.
    pub fn skipped(&self) -> u64 {
        self.dec.skipped
    }

    /// The stream's format version.
    pub fn version(&self) -> u8 {
        self.dec.version
    }

    /// Rows decoded to their last copy so far.
    pub fn rows(&self) -> u64 {
        self.dec.rows
    }

    /// Follows a file another process is still appending to, as
    /// `TailSource` does: a row cut short by the end of input is the
    /// writer's partial row, left undecoded instead of ending the stream as
    /// `Truncated`, and every call reads on from where the last one stopped.
    /// Permissive skips count under `trace.tail.skipped.<kind>`.
    pub(crate) fn follow(mut self) -> Self {
        self.follow = true;
        self.dec.skip_metric = "trace.tail.skipped";
        self
    }

    /// Bytes read from the source so far, header and skipped prefix
    /// included: the file offset the next read starts at.
    pub(crate) fn bytes_fed(&self) -> u64 {
        self.fed
    }

    /// Bytes read but not decoded. At the end of the data a following
    /// reader found, they are the start of the writer's partial row.
    pub(crate) fn undecoded(&self) -> u64 {
        (self.end - self.pos) as u64
    }

    /// The current decode position: the next un-decoded row, the copies of
    /// it already delivered, and its delta-decode base. Valid input to
    /// [`resume`](Self::resume) on a fresh reader over the same stream.
    pub fn position(&self) -> TracePosition {
        self.dec.position(self.fed - (self.end - self.pos) as u64)
    }

    /// Clears `out` and decodes up to `max` records into it, a counted row
    /// as one counted batch row; `Ok(0)` is end of stream. Records decoded
    /// before an error are delivered first, as a short batch; the error is
    /// returned by the next call, and every call after that returns `Ok(0)`.
    pub fn fill(&mut self, out: &mut RecordBatch, max: usize) -> Result<usize, CodecError> {
        out.clear();
        self.pull(max, |r, n| out.push_n(r, n))
    }

    /// Slides the undecoded tail of the window (less than one record) to
    /// the front and reads once more from the source behind it, straight
    /// into the window. Every call either adds bytes or finds the end of
    /// input.
    fn refill(&mut self) -> Result<(), CodecError> {
        self.buf.copy_within(self.pos..self.end, 0);
        self.end -= self.pos;
        self.pos = 0;
        self.stats.refills += 1;
        let n = self
            .src
            .read(&mut self.buf[self.end..self.end + STREAM_BUF_LEN])?;
        self.end += n;
        self.eof = n == 0;
        self.stats.bytes += n as u64;
        self.fed += n as u64;
        Ok(())
    }

    /// Delivers up to `want` records to `sink`, refilling the window as it
    /// empties, and carries the error protocol [`fill`](Self::fill)
    /// documents. A record cut short by the end of the window is a reason to
    /// refill; only at end of input is it a truncated stream.
    fn pull(
        &mut self,
        want: usize,
        mut sink: impl FnMut(PacketRecord, usize),
    ) -> Result<usize, CodecError> {
        if let Some(e) = self.pending_err.take() {
            return Err(e);
        }
        if self.failed {
            return Ok(0);
        }
        let (mut got, rows) = (0, self.dec.rows);
        let err = loop {
            let (n, end) =
                self.dec
                    .decode_window(&self.buf[..self.end], &mut self.pos, want - got, &mut sink);
            got += n;
            match end {
                Ok(()) if got == want || self.eof => break None,
                Err(CodecError::Truncated) if self.eof && self.follow => break None,
                Err(e) if self.eof || !matches!(e, CodecError::Truncated) => break Some(e),
                // The window holds no further whole record; the source may.
                _ => {
                    if let Err(e) = self.refill() {
                        break Some(e);
                    }
                }
            }
        };
        // A following reader looks for more input on its next call.
        self.eof &= !self.follow;
        self.stats.records += got as u64;
        self.stats.rows += self.dec.rows - rows;
        match err {
            None => Ok(got),
            Some(e) => {
                self.failed = true;
                note_decode_error(&e);
                if got == 0 {
                    return Err(e);
                }
                self.pending_err = Some(e);
                Ok(got)
            }
        }
    }
}

/// Reads the five header bytes; `Truncated` if the stream is shorter.
fn read_header<R: Read>(src: &mut R) -> Result<[u8; 5], CodecError> {
    let mut header = [0u8; 5];
    match src.read_exact(&mut header) {
        Ok(()) => Ok(header),
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => Err(CodecError::Truncated),
        Err(e) => Err(e.into()),
    }
}

impl<R: Read> Iterator for StreamingTraceReader<R> {
    type Item = Result<PacketRecord, CodecError>;

    fn next(&mut self) -> Option<Self::Item> {
        let mut record = None;
        match self.pull(1, |r, _| record = Some(r)) {
            Ok(_) => record.map(Ok),
            Err(e) => Some(Err(e)),
        }
    }
}

/// Shared fixtures for codec-level tests in this crate.
#[cfg(test)]
pub(crate) mod tests_support {
    use super::*;

    /// A version 1 stream ([`encode_v1`]) with one record's dport varint
    /// out of range (recoverable field overflow) among good records.
    /// Returns the encoded bytes and the records a permissive decoder
    /// should deliver.
    pub(crate) fn bytes_with_bad_dport() -> (Vec<u8>, Vec<PacketRecord>) {
        let good: Vec<PacketRecord> = (0..10u64)
            .map(|i| PacketRecord::tcp(i * 100, 1, 0xd0 + i as u128, 1, 22, 60))
            .collect();
        // Every varint of these records is one byte, so the rows are all one
        // length and record 5's dport is the last byte but one of the sixth.
        // It claims 70_000: the row decodes, then fails range validation.
        let v1 = encode_v1(&good);
        let at = 5 + 6 * ((v1.len() - 5) / good.len()) - 2;
        assert_eq!(v1[at], 22, "record 5's dport");
        let mut dport = BytesMut::with_capacity(3);
        put_varint(&mut dport, 70_000);
        let mut expected = good;
        expected.remove(5);
        ([&v1[..at], &dport, &v1[at + 1..]].concat(), expected)
    }

    /// A small trace exercising every field width.
    pub(crate) fn sample() -> Vec<PacketRecord> {
        vec![
            PacketRecord::tcp(0, 10, 20, 40000, 22, 60),
            PacketRecord::tcp(5, u128::MAX, 0, 65535, 65535, 65535),
            PacketRecord::udp(5, 1, 2, 500, 500, 120),
            PacketRecord::icmpv6_echo(1_000_000, 3, 4, 96),
        ]
    }

    /// [`sample`] followed by counted rows: a run of three, a run of
    /// `copies`, and a last single record.
    pub(crate) fn counted_sample(copies: usize) -> Vec<PacketRecord> {
        let mut recs = sample();
        recs.extend([PacketRecord::tcp(2_000_000, 5, 6, 1234, 443, 60); 3]);
        let probe = PacketRecord::udp(2_000_007, 7, 8, 53, 53, 90);
        recs.extend(std::iter::repeat_n(probe, copies));
        recs.push(PacketRecord::icmpv6_echo(3_000_000, 9, 10, 64));
        recs
    }

    /// The codec corpora's sample: [`counted_sample`] with a run that fills
    /// a row of 65 535 copies and spills two into the next. Eight rows,
    /// 65 546 records.
    pub(crate) fn full_row_sample() -> Vec<PacketRecord> {
        counted_sample(MAX_COUNT as usize + 2)
    }

    /// Spells `records` out in version 1: one untagged row per record.
    pub(crate) fn encode_v1(records: &[PacketRecord]) -> Vec<u8> {
        let mut buf = BytesMut::with_capacity(1024);
        let mut prev = 0;
        for r in records {
            put_varint(&mut buf, r.ts_ms - prev);
            prev = r.ts_ms;
            buf.put_u128(r.src);
            buf.put_u128(r.dst);
            buf.put_u8(r.proto.to_byte());
            for field in [r.sport, r.dport, r.len] {
                put_varint(&mut buf, u64::from(field));
            }
        }
        [&MAGIC[..], &[1], &buf].concat()
    }

    /// Appends `n` copies of `r` to `runs`, folded into the last run when
    /// it holds the same record: a record stream's shape whatever rows and
    /// batches carried it.
    pub(crate) fn push_run(runs: &mut Vec<(PacketRecord, u64)>, r: PacketRecord, n: u64) {
        match runs.last_mut() {
            Some((last, copies)) if *last == r => *copies += n,
            _ => runs.push((r, n)),
        }
    }

    /// The runs of `records` (see [`push_run`]).
    pub(crate) fn runs_of(records: &[PacketRecord]) -> Vec<(PacketRecord, u64)> {
        let mut runs = Vec::new();
        for &r in records {
            push_run(&mut runs, r, 1);
        }
        runs
    }

    /// Appends the rows of `batch` to `runs` (see [`push_run`]).
    pub(crate) fn push_batch(runs: &mut Vec<(PacketRecord, u64)>, batch: &RecordBatch) {
        for i in 0..batch.rows() {
            push_run(runs, batch.get(i), u64::from(batch.count(i)));
        }
    }

    /// Encodes `runs` through [`TraceWriter::append_n`].
    pub(crate) fn encode_runs(runs: &[(PacketRecord, u64)]) -> Vec<u8> {
        let mut w = TraceWriter::new(Vec::new()).unwrap();
        for (r, n) in runs {
            w.append_n(r, u32::try_from(*n).unwrap()).unwrap();
        }
        w.finish().unwrap()
    }

    /// Batch sizes the corruption corpora are decoded at.
    pub(crate) const FILL_SIZES: [usize; 4] = [1, 2, 7, 4096];

    /// The truncation corpus: every proper prefix of the encoding of
    /// `recs`, indexed by cut length.
    pub(crate) fn every_cut(recs: &[PacketRecord]) -> Vec<Vec<u8>> {
        let bytes = encode(recs).unwrap();
        (0..bytes.len()).map(|cut| bytes[..cut].to_vec()).collect()
    }

    /// The bit-flip corpus: the encoding of `recs` with each bit of each
    /// byte flipped in turn. Returns the streams and a bound on the records
    /// any of them decodes to: a flip may raise a count, but every row
    /// takes at least 37 bytes and carries at most 65 535 copies.
    pub(crate) fn every_bit_flip(recs: &[PacketRecord]) -> (Vec<Vec<u8>>, usize) {
        let clean = encode(recs).unwrap();
        let bound = (clean.len() / 37 + 1) * MAX_COUNT as usize;
        let flips = (0..clean.len() * 8)
            .map(|i| {
                let mut bad = clean.clone();
                bad[i / 8] ^= 1 << (i % 8);
                bad
            })
            .collect();
        (flips, bound)
    }
}

#[cfg(test)]
mod tests {
    use super::tests_support::{
        bytes_with_bad_dport, counted_sample, encode_runs, encode_v1, every_bit_flip, every_cut,
        full_row_sample, push_batch, runs_of, sample, FILL_SIZES,
    };
    use super::*;

    #[test]
    fn roundtrip() {
        let recs = sample();
        let bytes = encode(&recs).unwrap();
        assert_eq!(decode(&bytes).unwrap(), recs);
    }

    #[test]
    fn empty_trace_roundtrips() {
        let bytes = encode(&[]).unwrap();
        assert_eq!(bytes.len(), 5);
        assert!(decode(&bytes).unwrap().is_empty());
    }

    #[test]
    #[should_panic(expected = "time-sorted")]
    fn writer_rejects_time_regression() {
        let mut w = TraceWriter::new(Vec::new()).unwrap();
        w.append(&PacketRecord::tcp(10, 1, 2, 1, 22, 60)).unwrap();
        w.append(&PacketRecord::tcp(9, 1, 2, 1, 22, 60)).unwrap();
    }

    #[test]
    fn varint_boundaries() {
        let mut recs = Vec::new();
        let mut ts = 0;
        for delta in [0u64, 1, 127, 128, 16383, 16384, u32::MAX as u64] {
            ts += delta;
            recs.push(PacketRecord::tcp(ts, 7, 8, 0, 0, 0));
        }
        let bytes = encode(&recs).unwrap();
        assert_eq!(decode(&bytes).unwrap(), recs);
    }

    #[test]
    fn garbage_after_header_is_an_error_not_a_panic() {
        let mut bytes = b"L6TR\x01".to_vec();
        bytes.extend_from_slice(&[0xff; 7]); // endless varint + truncation
        let reader = StreamingTraceReader::new(&bytes[..]).unwrap();
        let items: Vec<_> = reader.collect();
        assert_eq!(items.len(), 1);
        assert!(items[0].is_err());
    }

    #[test]
    fn writer_counts() {
        let mut w = TraceWriter::new(Vec::new()).unwrap();
        for r in sample() {
            w.append(&r).unwrap();
        }
        assert_eq!(w.count(), 4);
    }

    #[test]
    fn writer_folds_runs_into_counted_rows_split_at_65535() {
        let recs = full_row_sample();
        let bytes = encode(&recs).unwrap();
        // `append_n` takes a run in any cut to the bytes per-copy appends
        // write.
        let mut w = TraceWriter::new(Vec::new()).unwrap();
        for (r, n) in runs_of(&recs) {
            let half = u32::try_from(n / 2).unwrap();
            w.append_n(&r, half).unwrap();
            w.append_n(&r, u32::try_from(n).unwrap() - half).unwrap();
        }
        assert_eq!(w.count(), recs.len() as u64);
        assert_eq!(w.finish().unwrap(), bytes);

        let mut r = StreamingTraceReader::new(&bytes[..]).unwrap();
        let mut batch = RecordBatch::new();
        assert_eq!(r.fill(&mut batch, usize::MAX).unwrap(), recs.len());
        assert_eq!(batch.counts(), &[1, 1, 1, 1, 3, 65_535, 2, 1]);
        assert!(batch.iter().eq(recs.iter().copied()));
        assert_eq!((r.version(), r.rows()), (2, 8));
        assert_eq!(r.fill(&mut batch, 1).unwrap(), 0);
    }

    #[test]
    fn a_hand_built_v1_stream_still_decodes_a_row_per_record() {
        let recs = &full_row_sample()[..7];
        let v1 = encode_v1(recs);
        let mut r = StreamingTraceReader::new(&v1[..]).unwrap();
        let mut batch = RecordBatch::new();
        assert_eq!(r.fill(&mut batch, 100).unwrap(), 7);
        assert!(batch.iter().eq(recs.iter().copied()));
        assert!(batch.counts().is_empty(), "a v1 row is one record");
        assert_eq!((r.version(), r.rows()), (1, 7));
        assert_eq!(r.position().offset, v1.len() as u64);
        assert!(encode(recs).unwrap().len() < v1.len());
    }

    #[test]
    fn a_delta_the_tag_cannot_hold_is_a_typed_error() {
        let at = |ts| PacketRecord::tcp(ts, 1, 2, 1, 22, 60);
        let mut w = TraceWriter::new(Vec::new()).unwrap();
        w.append(&at(5)).unwrap();
        assert!(matches!(
            w.append(&at(5 + (1 << 63))),
            Err(CodecError::FieldOverflow("delta_ts", d)) if d == 1 << 63
        ));
        w.append(&at(4 + (1 << 63))).unwrap();
        assert_eq!(
            decode(&w.finish().unwrap()).unwrap(),
            [at(5), at(4 + (1 << 63))]
        );
    }

    #[test]
    fn flagged_counts_outside_2_to_65535_are_recoverable_field_overflows() {
        let row = |count: u64, dport: u64| {
            let mut b = BytesMut::with_capacity(64);
            put_varint(&mut b, 1); // delta 0, counted
            put_varint(&mut b, count);
            b.put_u128(1);
            b.put_u128(2);
            b.put_u8(6);
            for field in [3, dport, 60] {
                put_varint(&mut b, field);
            }
            b.to_vec()
        };
        let rec = PacketRecord::tcp(0, 1, 2, 3, 22, 60);
        let stream = |bad: &[u8]| [&MAGIC[..], &[VERSION], &row(2, 22), bad, &row(3, 22)].concat();
        for bad in [0, 1, 65_536, u64::MAX] {
            let bytes = stream(&row(bad, 22));
            let strict: Vec<_> = StreamingTraceReader::new(&bytes[..]).unwrap().collect();
            assert_eq!(strict.len(), 3, "count {bad}");
            assert!(matches!(
                strict[2],
                Err(CodecError::FieldOverflow("count", n)) if n == bad
            ));
            let mut r = StreamingTraceReader::new(&bytes[..])
                .unwrap()
                .permissive(true);
            let got: Result<Vec<_>, _> = r.by_ref().collect();
            assert_eq!(got.unwrap(), [rec; 5], "count {bad}");
            // A count out of range says nothing of the copies: one is lost.
            assert_eq!(r.skipped(), 1);
        }
        // A row whose count is in range loses every copy to a bad field.
        let bytes = stream(&row(7, 70_000));
        let mut r = StreamingTraceReader::new(&bytes[..])
            .unwrap()
            .permissive(true);
        assert_eq!(r.by_ref().count(), 5);
        assert_eq!(r.skipped(), 7);
    }

    #[test]
    fn resume_refuses_positions_the_stream_cannot_hold() {
        let bytes = encode(&full_row_sample()).unwrap();
        let open = |at| StreamingTraceReader::resume(io::Cursor::new(&bytes[..]), at);
        let mut batch = RecordBatch::new();
        let is_bad_position = |e: &CodecError| matches!(e, CodecError::Io(io) if io.kind() == io::ErrorKind::InvalidInput);
        // A skip past the row's copies fails the first fill, before any
        // record of the row is delivered.
        let mut refused = |at| {
            let mut r = open(at).unwrap();
            assert!(is_bad_position(&r.fill(&mut batch, 100).unwrap_err()));
            assert!(batch.is_empty() && r.next().is_none(), "fused");
        };
        // Ten copies into the 65 535-copy row.
        let mut r = StreamingTraceReader::new(&bytes[..]).unwrap();
        r.fill(&mut RecordBatch::new(), 7 + 10).unwrap();
        let mid = r.position();
        let row = mid.offset & ((1 << OFFSET_BITS) - 1);
        assert_eq!(mid.offset >> OFFSET_BITS, 10);
        let with_skip = |skip: u64| TracePosition {
            offset: row | skip << OFFSET_BITS,
            ..mid
        };
        refused(with_skip(65_535));
        // A single-record row has no copy to skip.
        refused(TracePosition {
            offset: 5 | 1 << OFFSET_BITS,
            prev_ts: 0,
        });
        let mut last = open(with_skip(65_534)).unwrap();
        assert_eq!(last.fill(&mut batch, 100).unwrap(), 4, "one copy, two, one");
        // Nor has any row of a version 1 stream: resume itself refuses that.
        let v1 = encode_v1(&sample());
        let on_v1 = StreamingTraceReader::resume(io::Cursor::new(&v1[..]), with_skip(1));
        assert!(is_bad_position(&on_v1.unwrap_err()));
        // A stream that is not a trace any more is the header's error.
        let replaced = StreamingTraceReader::resume(io::Cursor::new(&b"NOPE\x02..."[..]), mid);
        assert!(matches!(replaced.unwrap_err(), CodecError::BadMagic(_)));
    }

    /// A reader that returns at most `cap` bytes per `read` call, to
    /// exercise partial-read refill paths.
    struct Dribble<'a> {
        data: &'a [u8],
        cap: usize,
    }

    impl Read for Dribble<'_> {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            let n = self.data.len().min(self.cap).min(out.len());
            out[..n].copy_from_slice(&self.data[..n]);
            self.data = &self.data[n..];
            Ok(n)
        }
    }

    #[test]
    fn streaming_matches_materialized() {
        let recs: Vec<PacketRecord> = (0..10_000u64)
            .map(|i| PacketRecord::tcp(i * 3, i as u128, (i * 7) as u128, 1, 22, 60))
            .collect();
        let bytes = encode(&recs).unwrap();
        let streamed: Result<Vec<_>, _> = StreamingTraceReader::new(&bytes[..]).unwrap().collect();
        assert_eq!(streamed.unwrap(), recs);
        // Same through a source that trickles 7 bytes at a time, forcing
        // records to span refill boundaries.
        let dribbled: Result<Vec<_>, _> = StreamingTraceReader::new(Dribble {
            data: &bytes,
            cap: 7,
        })
        .unwrap()
        .collect();
        assert_eq!(dribbled.unwrap(), recs);
    }

    #[test]
    fn streaming_rejects_bad_header() {
        assert!(matches!(
            StreamingTraceReader::new(&b"NOPE\x01"[..]).unwrap_err(),
            CodecError::BadMagic(_)
        ));
        assert!(matches!(
            StreamingTraceReader::new(&b"L6T"[..]).unwrap_err(),
            CodecError::Truncated
        ));
        assert!(matches!(
            StreamingTraceReader::new(&b"L6TR\x63"[..]).unwrap_err(),
            CodecError::BadVersion(0x63)
        ));
    }

    #[test]
    fn streaming_truncation_surfaces_error_once() {
        let bytes = encode(&sample()).unwrap();
        let cut = &bytes[..bytes.len() - 3];
        let mut reader = StreamingTraceReader::new(cut).unwrap();
        let (mut oks, mut errs) = (0, 0);
        for item in reader.by_ref() {
            match item {
                Ok(_) => oks += 1,
                Err(_) => errs += 1,
            }
        }
        assert_eq!((oks, errs), (3, 1));
        assert!(reader.next().is_none(), "fused after error");
    }

    #[test]
    fn position_resume_matches_full_decode() {
        let recs: Vec<PacketRecord> = (0..5_000u64)
            .map(|i| PacketRecord::tcp(i * 11, i as u128, (i * 3) as u128, 1, 22, 60))
            .collect();
        let bytes = encode(&recs).unwrap();
        // Decode the first half, record the position, resume in a fresh
        // reader over a cursor, and check the concatenation is exact.
        let mut first = StreamingTraceReader::new(io::Cursor::new(bytes.clone())).unwrap();
        let mut head: Vec<PacketRecord> = Vec::new();
        for _ in 0..2_500 {
            head.push(first.next().unwrap().unwrap());
        }
        let pos = first.position();
        assert_eq!(pos.prev_ts, head.last().unwrap().ts_ms);
        drop(first);
        let tail: Result<Vec<_>, _> = StreamingTraceReader::resume(io::Cursor::new(bytes), pos)
            .unwrap()
            .collect();
        head.extend(tail.unwrap());
        assert_eq!(head, recs);
    }

    #[test]
    fn position_at_eof_is_stream_length() {
        let bytes = encode(&sample()).unwrap();
        let mut r = StreamingTraceReader::new(&bytes[..]).unwrap();
        while r.next().is_some() {}
        assert_eq!(r.position().offset, bytes.len() as u64);
    }

    #[test]
    fn strict_mode_fuses_on_field_overflow() {
        let (bytes, _) = bytes_with_bad_dport();
        let items: Vec<_> = StreamingTraceReader::new(&bytes[..]).unwrap().collect();
        assert_eq!(items.len(), 6, "five good records then the error");
        assert!(matches!(
            items.last().unwrap(),
            Err(CodecError::FieldOverflow("dport", 70_000))
        ));
    }

    #[test]
    fn permissive_mode_skips_field_overflow() {
        let (bytes, expected) = bytes_with_bad_dport();
        let mut r = StreamingTraceReader::new(&bytes[..])
            .unwrap()
            .permissive(true);
        let got: Result<Vec<_>, _> = r.by_ref().collect();
        assert_eq!(got.unwrap(), expected);
        assert_eq!(r.skipped(), 1);
    }

    #[test]
    fn permissive_mode_still_fuses_on_truncation() {
        let bytes = encode(&sample()).unwrap();
        let cut = &bytes[..bytes.len() - 3];
        let mut r = StreamingTraceReader::new(cut).unwrap().permissive(true);
        let (mut oks, mut errs) = (0, 0);
        for item in r.by_ref() {
            match item {
                Ok(_) => oks += 1,
                Err(e) => {
                    assert!(!e.is_recoverable());
                    errs += 1;
                }
            }
        }
        assert_eq!((oks, errs), (3, 1));
        assert_eq!(r.skipped(), 0);
    }

    /// Drains `r` through `fill(max)`: the runs delivered and the kind of
    /// the error that ended the stream, if one did. Checks the batch-size
    /// bound, that the stream ends within `limit` calls, and that the
    /// reader is fused afterwards.
    fn drain_fill<R: Read>(
        r: &mut StreamingTraceReader<R>,
        max: usize,
        limit: usize,
    ) -> (Vec<(PacketRecord, u64)>, Option<&'static str>) {
        let mut batch = RecordBatch::new();
        let mut got = Vec::new();
        let mut err = None;
        for step in 0.. {
            assert!(step <= limit, "max={max}: runaway");
            match r.fill(&mut batch, max) {
                Ok(0) => break,
                Ok(n) => {
                    assert!(n <= max && n == batch.len());
                    push_batch(&mut got, &batch);
                }
                Err(e) => {
                    err = Some(e.kind());
                    break;
                }
            }
        }
        assert_eq!(r.fill(&mut batch, max).unwrap(), 0, "fused at the end");
        assert!(batch.is_empty(), "a fused fill still clears the batch");
        (got, err)
    }

    #[test]
    fn fill_equals_iterator_at_every_batch_size() {
        // Runs of one to nine copies, so batches end inside rows; the same
        // records spelt out in version 1; and a version 1 stream with a bad
        // record.
        let recs: Vec<PacketRecord> = (0..400u64)
            .flat_map(|i| {
                let r = PacketRecord::udp(i * 2, i as u128, 9, 1, 53, 80);
                std::iter::repeat_n(r, 1 + i as usize % 9)
            })
            .collect();
        let (clean, v1) = (encode(&recs).unwrap(), encode_v1(&recs));
        let (bad, _) = bytes_with_bad_dport();
        for (bytes, permissive) in [(&clean, false), (&v1, false), (&bad, false), (&bad, true)] {
            let open = || {
                StreamingTraceReader::new(io::Cursor::new(&bytes[..]))
                    .unwrap()
                    .permissive(permissive)
            };
            // The reference: one record at a time, with the position after
            // each record.
            let mut it = open();
            let mut want = Vec::new();
            let mut want_err = None;
            let mut want_pos = vec![it.position()];
            while let Some(item) = it.next() {
                match item {
                    Ok(r) => {
                        want.push(r);
                        want_pos.push(it.position());
                    }
                    Err(e) => want_err = Some(e.kind()),
                }
            }
            for max in FILL_SIZES {
                let mut r = open();
                let mut batch = RecordBatch::new();
                let mut got = Vec::new();
                let err = loop {
                    match r.fill(&mut batch, max) {
                        Ok(0) => break None,
                        Ok(n) => {
                            got.extend(batch.iter());
                            // A short batch ahead of an error has already
                            // consumed the failing record; every other
                            // boundary is a position the iterator passes.
                            if n == max {
                                assert_eq!(r.position(), want_pos[got.len()], "max={max}");
                                let rest: Result<Vec<_>, _> = StreamingTraceReader::resume(
                                    io::Cursor::new(&bytes[..]),
                                    r.position(),
                                )
                                .unwrap()
                                .permissive(permissive)
                                .collect();
                                match rest {
                                    Ok(rest) => assert_eq!(rest, want[got.len()..], "max={max}"),
                                    Err(e) => assert_eq!(Some(e.kind()), want_err, "max={max}"),
                                }
                            }
                        }
                        Err(e) => break Some(e.kind()),
                    }
                };
                assert_eq!(got, want, "max={max} permissive={permissive}");
                assert_eq!(err, want_err, "max={max} permissive={permissive}");
                assert_eq!(r.skipped(), it.skipped(), "max={max}");
                assert_eq!(r.position(), it.position(), "max={max}");
            }
            if !permissive {
                assert_eq!(
                    decode(bytes).map_err(|e| e.kind()),
                    want_err.map_or(Ok(want), Err),
                    "decode is the strict reader, collected"
                );
            }
        }
    }

    #[test]
    fn fill_delivers_short_batch_then_error_then_fuses() {
        let bytes = encode(&sample()).unwrap();
        let mut r = StreamingTraceReader::new(&bytes[..bytes.len() - 3]).unwrap();
        let mut batch = RecordBatch::new();
        assert_eq!(r.fill(&mut batch, 100).unwrap(), 3);
        assert_eq!(batch.iter().collect::<Vec<_>>(), sample()[..3]);
        assert!(matches!(
            r.fill(&mut batch, 100),
            Err(CodecError::Truncated)
        ));
        assert!(batch.is_empty(), "an erroring fill leaves no stale records");
        assert_eq!(r.fill(&mut batch, 100).unwrap(), 0, "fused after error");
        assert!(r.next().is_none(), "the iterator shares the fuse");

        // An empty trace is end of stream at once, not an error.
        let empty = encode(&[]).unwrap();
        let mut r = StreamingTraceReader::new(&empty[..]).unwrap();
        assert_eq!(r.fill(&mut batch, 10).unwrap(), 0);
    }

    #[test]
    fn fill_reuses_batch_capacity() {
        let recs: Vec<PacketRecord> = (0..1_000u64)
            .map(|i| PacketRecord::udp(i, i as u128, 9, 1, 53, 80))
            .collect();
        let bytes = encode(&recs).unwrap();
        let mut r = StreamingTraceReader::new(&bytes[..]).unwrap();
        let mut batch = RecordBatch::with_capacity(300);
        let ts_column = batch.ts_ms().as_ptr();
        let mut sizes = Vec::new();
        while r.fill(&mut batch, 300).unwrap() > 0 {
            sizes.push(batch.len());
            assert_eq!(batch.ts_ms().as_ptr(), ts_column, "no reallocation");
        }
        assert_eq!(sizes, vec![300, 300, 300, 100]);
    }

    #[test]
    fn truncation_at_every_cut_is_a_typed_error_never_a_panic() {
        let recs = full_row_sample();
        for (cut, head) in every_cut(&recs).iter().enumerate() {
            for max in FILL_SIZES {
                match StreamingTraceReader::new(&head[..]) {
                    Ok(mut r) => {
                        let (got, err) = drain_fill(&mut r, max, recs.len() + 1);
                        let n: u64 = got.iter().map(|run| run.1).sum();
                        assert_eq!(got, runs_of(&recs[..n as usize]), "cut={cut} max={max}");
                        match err {
                            Some(kind) => assert_eq!(kind, "truncated", "cut={cut} max={max}"),
                            None => assert_eq!(encode_runs(&got), *head, "cut={cut}"),
                        }
                    }
                    Err(e) => assert!(
                        matches!(e, CodecError::Truncated),
                        "cut={cut}: header error should be Truncated, got {e}"
                    ),
                }
            }
        }
    }

    #[test]
    fn bit_flips_are_typed_errors_never_panics() {
        // Each corrupted stream must decode to records and/or a typed
        // error — never panic, never loop — and to the same ones at every
        // batch size. A small counted sample runs at every fill size. A
        // fill of `max` takes one step per `max` copies of the 65 535-copy
        // row, so the full-row sample runs at sizes that all end a batch
        // inside it and keep each stream to about a thousand steps.
        let samples = [
            (counted_sample(5), &FILL_SIZES[..]),
            (full_row_sample(), &[64, 4096, 65_536][..]),
        ];
        for (recs, sizes) in samples {
            let (flips, bound) = every_bit_flip(&recs);
            for (i, bad) in flips.iter().enumerate() {
                let outcomes: Vec<_> = sizes
                    .iter()
                    .map(|&max| match StreamingTraceReader::new(&bad[..]) {
                        Ok(mut r) => drain_fill(&mut r, max, bound),
                        Err(e) => {
                            assert!(
                                matches!(e, CodecError::BadMagic(_) | CodecError::BadVersion(_)),
                                "flip {i}: header flip should be magic/version, got {e}"
                            );
                            (Vec::new(), Some(e.kind()))
                        }
                    })
                    .collect();
                let n = recs.len();
                assert!(
                    outcomes.windows(2).all(|w| w[0] == w[1]),
                    "{n} records, flip {i}"
                );
            }
        }
    }

    #[test]
    fn corrupt_input_increments_quarantine_counters() {
        let reg = MetricsRegistry::global();
        let before_trunc = reg.counter("trace.codec.errors.truncated").get();
        let before_skip = reg.counter("trace.codec.skipped.field_overflow").get();

        let bytes = encode(&sample()).unwrap();
        let cut = &bytes[..bytes.len() - 3];
        let _ = StreamingTraceReader::new(cut).unwrap().count();

        let (bad, _) = bytes_with_bad_dport();
        let _ = StreamingTraceReader::new(&bad[..])
            .unwrap()
            .permissive(true)
            .count();

        // Tests share the global registry, so assert monotone growth
        // rather than exact deltas.
        assert!(reg.counter("trace.codec.errors.truncated").get() > before_trunc);
        assert!(reg.counter("trace.codec.skipped.field_overflow").get() > before_skip);
    }

    #[test]
    fn large_buffered_write_flushes() {
        // Exceed the 60 KiB internal buffer to exercise the flush path.
        let recs: Vec<PacketRecord> = (0..4000u64)
            .map(|i| PacketRecord::tcp(i, i as u128, 1, 1, 22, 60))
            .collect();
        let bytes = encode(&recs).unwrap();
        assert_eq!(decode(&bytes).unwrap().len(), 4000);
    }
}
