//! Compact binary trace format with streaming reader/writer.
//!
//! Layout:
//!
//! ```text
//! magic  b"L6TR"          4 bytes
//! version u8              currently 1
//! record*:
//!   delta_ts  varint      ms since previous record (first: since 0)
//!   src       16 bytes    big-endian u128
//!   dst       16 bytes    big-endian u128
//!   proto     1 byte      IP next-header value
//!   sport     varint
//!   dport     varint
//!   len       varint
//! ```
//!
//! Timestamps must be non-decreasing (delta encoding); the writer enforces
//! this. Varints are LEB128 (7 bits per byte). The format is intentionally
//! simple: a 439-day scaled trace (a few million records) encodes in tens of
//! MB. Decode is windowed and bounded: [`StreamingTraceReader`] holds one
//! 64 KiB refill window whatever the size of the file, and
//! `decode_record_at` is the only code that turns bytes into a record.

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
    bytes: u64,
    refills: u64,
}

impl DecodeStats {
    fn flush(&mut self) {
        let reg = MetricsRegistry::global();
        if self.records > 0 {
            reg.counter("trace.codec.records_decoded").add(self.records);
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
pub const VERSION: u8 = 1;

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
pub struct TraceWriter<W: Write> {
    sink: W,
    buf: BytesMut,
    prev_ts: u64,
    count: u64,
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
        })
    }

    /// Appends one record.
    pub fn append(&mut self, r: &PacketRecord) -> Result<(), CodecError> {
        assert!(
            r.ts_ms >= self.prev_ts,
            "trace records must be time-sorted: {} < {}",
            r.ts_ms,
            self.prev_ts
        );
        put_varint(&mut self.buf, r.ts_ms - self.prev_ts);
        self.prev_ts = r.ts_ms;
        self.buf.put_u128(r.src);
        self.buf.put_u128(r.dst);
        self.buf.put_u8(r.proto.to_byte());
        put_varint(&mut self.buf, u64::from(r.sport));
        put_varint(&mut self.buf, u64::from(r.dport));
        put_varint(&mut self.buf, u64::from(r.len));
        self.count += 1;
        if self.buf.len() >= 60 * 1024 {
            self.sink.write_all(&self.buf)?;
            self.buf.clear();
        }
        Ok(())
    }

    /// Number of records appended so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Flushes buffered records and returns the sink.
    pub fn finish(mut self) -> Result<W, CodecError> {
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

/// Upper bound on the bytes [`decode_record_at`] consumes for one record,
/// well-formed or not: four varints that each end or overflow within 10
/// bytes, two 16-byte addresses and the protocol byte. (A record the writer
/// produced is at most 52: its port and length varints fit 3 bytes.)
pub(crate) const MAX_RECORD_LEN: usize = 10 + 16 + 16 + 1 + 3 * 10;

/// Refill granularity of the streaming reader.
const STREAM_BUF_LEN: usize = 64 * 1024;

/// Validates the stream header: magic, then version.
pub(crate) fn check_header(header: &[u8; 5]) -> Result<(), CodecError> {
    let [m0, m1, m2, m3, version] = *header;
    let magic = [m0, m1, m2, m3];
    if &magic != MAGIC {
        return Err(CodecError::BadMagic(magic));
    }
    if version != VERSION {
        return Err(CodecError::BadVersion(version));
    }
    Ok(())
}

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

/// Decodes one record from `data` at `*pos`, delta-decoding its timestamp
/// against `*prev_ts` — the only code that parses a record. On success the
/// cursor and the timestamp base both advance past the record.
/// [`CodecError::FieldOverflow`] also advances them (every field of the
/// offending record was consumed before range validation failed), so
/// permissive callers can skip the record and stay aligned. Framing errors
/// (`Truncated`, `VarintOverflow`, `TimestampOverflow`) leave both
/// untouched, so a caller whose window merely ran out can retry the same
/// boundary once more bytes arrive.
fn decode_record_at(
    data: &[u8],
    pos: &mut usize,
    prev_ts: &mut u64,
) -> Result<PacketRecord, CodecError> {
    let mut p = *pos;
    let delta = slice_varint(data, &mut p)?;
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
    Ok(PacketRecord {
        ts_ms,
        src,
        dst,
        proto,
        sport: sport as u16,
        dport: dport as u16,
        len: len as u16,
    })
}

/// The slice-level decode loop and the state it carries from one window to
/// the next: the delta-decode time base and the permissive-skip policy.
/// [`StreamingTraceReader`] runs it over its refill window and `TailSource`
/// over its re-read window; what a record cut short by the end of the
/// window means (refill, genuine truncation, or the writer's partial tail)
/// is for them to decide.
#[derive(Debug)]
pub(crate) struct WindowDecoder {
    /// Timestamp of the last record decoded or skipped (delta-decode base).
    pub(crate) prev_ts: u64,
    /// Skip recoverable per-record errors instead of returning them.
    pub(crate) permissive: bool,
    /// Records skipped so far in permissive mode.
    pub(crate) skipped: u64,
    /// Counter family a skip is reported under, as `<skip_metric>.<kind>`.
    skip_metric: &'static str,
}

impl WindowDecoder {
    pub(crate) fn new(skip_metric: &'static str) -> Self {
        WindowDecoder {
            prev_ts: 0,
            permissive: false,
            skipped: 0,
            skip_metric,
        }
    }

    /// Decodes whole records from `data[*pos..]` into `sink` until `want`
    /// are delivered, the window is used up, or a record fails; returns how
    /// many were delivered and the failure, if any. `Err(Truncated)` means
    /// the bytes left at `*pos` stop short of a whole record; as with every
    /// framing error the cursor stays on that record's boundary.
    pub(crate) fn decode_window(
        &mut self,
        data: &[u8],
        pos: &mut usize,
        want: usize,
        mut sink: impl FnMut(PacketRecord),
    ) -> (usize, Result<(), CodecError>) {
        let mut n = 0;
        while n < want && *pos < data.len() {
            match decode_record_at(data, pos, &mut self.prev_ts) {
                Ok(r) => {
                    sink(r);
                    n += 1;
                }
                Err(e) if self.permissive && e.is_recoverable() => {
                    self.skipped += 1;
                    MetricsRegistry::global()
                        .counter(&format!("{}.{}", self.skip_metric, e.kind()))
                        .inc();
                }
                Err(e) => return (n, Err(e)),
            }
        }
        (n, Ok(()))
    }
}

/// A resumable decode position inside an `L6TR` stream: the byte offset of
/// the next un-decoded record plus the delta-decoding state at that point.
/// Recorded in session checkpoints so a killed run can reopen the trace,
/// [`StreamingTraceReader::resume`] at this position, and continue decoding
/// mid-file as if never interrupted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TracePosition {
    /// Absolute byte offset of the next record (header included in count).
    pub offset: u64,
    /// Timestamp of the record preceding `offset` (delta-decode base).
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
    /// Total bytes pulled from `src`, header included.
    fed: u64,
    stats: DecodeStats,
}

impl<R: Read> StreamingTraceReader<R> {
    /// Validates the header and prepares for streaming decode.
    pub fn new(mut src: R) -> Result<Self, CodecError> {
        let mut header = [0u8; 5];
        read_exactly(&mut src, &mut header)
            .and_then(|()| check_header(&header))
            .inspect_err(note_decode_error)?;
        Ok(Self::raw(src, 5, 0))
    }

    /// Resumes decoding mid-stream at a [`TracePosition`] previously taken
    /// with [`position`](Self::position). Seeks `src` to the recorded byte
    /// offset and restores the delta-decode state; the header is not
    /// re-validated (the position can only have come from a successful
    /// decode of the same stream).
    pub fn resume(mut src: R, at: TracePosition) -> Result<Self, CodecError>
    where
        R: io::Seek,
    {
        src.seek(io::SeekFrom::Start(at.offset))?;
        Ok(Self::raw(src, at.offset, at.prev_ts))
    }

    fn raw(src: R, fed: u64, prev_ts: u64) -> Self {
        StreamingTraceReader {
            src,
            buf: vec![0; STREAM_BUF_LEN + MAX_RECORD_LEN],
            pos: 0,
            end: 0,
            eof: false,
            dec: WindowDecoder {
                prev_ts,
                ..WindowDecoder::new("trace.codec.skipped")
            },
            pending_err: None,
            failed: false,
            fed,
            stats: DecodeStats {
                bytes: fed,
                ..DecodeStats::default()
            },
        }
    }

    /// Enables or disables permissive mode: recoverable per-record errors
    /// (field overflows) are skipped — counted in [`skipped`](Self::skipped)
    /// and under `trace.codec.skipped.<kind>` — instead of fusing the
    /// reader. Framing errors still end the stream.
    pub fn permissive(mut self, yes: bool) -> Self {
        self.dec.permissive = yes;
        self
    }

    /// Records skipped so far in permissive mode.
    pub fn skipped(&self) -> u64 {
        self.dec.skipped
    }

    /// The current decode position: byte offset of the next un-decoded
    /// record and the timestamp base it will be delta-decoded against.
    /// Valid input to [`resume`](Self::resume) on a fresh reader over the
    /// same stream.
    pub fn position(&self) -> TracePosition {
        TracePosition {
            offset: self.fed - (self.end - self.pos) as u64,
            prev_ts: self.dec.prev_ts,
        }
    }

    /// Clears `out` and decodes up to `max` records into it; `Ok(0)` is end
    /// of stream. Records decoded before an error are delivered first, as a
    /// short batch; the error is returned by the next call, and every call
    /// after that returns `Ok(0)`.
    pub fn fill(&mut self, out: &mut RecordBatch, max: usize) -> Result<usize, CodecError> {
        out.clear();
        self.pull(max, |r| out.push(r))
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
        mut sink: impl FnMut(PacketRecord),
    ) -> Result<usize, CodecError> {
        if let Some(e) = self.pending_err.take() {
            return Err(e);
        }
        if self.failed {
            return Ok(0);
        }
        let mut got = 0;
        let err = loop {
            let (n, end) =
                self.dec
                    .decode_window(&self.buf[..self.end], &mut self.pos, want - got, &mut sink);
            got += n;
            match end {
                Ok(()) if got == want || self.eof => break None,
                Err(e) if self.eof || !matches!(e, CodecError::Truncated) => break Some(e),
                // The window holds no further whole record; the source may.
                _ => {
                    if let Err(e) = self.refill() {
                        break Some(e);
                    }
                }
            }
        };
        self.stats.records += got as u64;
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

fn read_exactly<R: Read>(src: &mut R, out: &mut [u8]) -> Result<(), CodecError> {
    match src.read_exact(out) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => Err(CodecError::Truncated),
        Err(e) => Err(e.into()),
    }
}

impl<R: Read> Iterator for StreamingTraceReader<R> {
    type Item = Result<PacketRecord, CodecError>;

    fn next(&mut self) -> Option<Self::Item> {
        let mut record = None;
        match self.pull(1, |r| record = Some(r)) {
            Ok(_) => record.map(Ok),
            Err(e) => Some(Err(e)),
        }
    }
}

/// Shared fixtures for codec-level tests in this crate.
#[cfg(test)]
pub(crate) mod tests_support {
    use super::*;

    /// Encodes one record with an out-of-range dport varint (recoverable
    /// field overflow) surrounded by good records. Returns the encoded
    /// bytes and the records a permissive decoder should deliver.
    pub(crate) fn bytes_with_bad_dport() -> (Vec<u8>, Vec<PacketRecord>) {
        let good: Vec<PacketRecord> = (0..10u64)
            .map(|i| PacketRecord::tcp(i * 100, 1, 0xd0 + i as u128, 1, 22, 60))
            .collect();
        let mut buf = BytesMut::with_capacity(1024);
        let mut out = MAGIC.to_vec();
        out.push(VERSION);
        let mut prev = 0u64;
        for (i, r) in good.iter().enumerate() {
            put_varint(&mut buf, r.ts_ms - prev);
            prev = r.ts_ms;
            buf.put_u128(r.src);
            buf.put_u128(r.dst);
            buf.put_u8(r.proto.to_byte());
            put_varint(&mut buf, u64::from(r.sport));
            // Record 5 claims dport 70_000: decodes, fails range validation.
            put_varint(&mut buf, if i == 5 { 70_000 } else { u64::from(r.dport) });
            put_varint(&mut buf, u64::from(r.len));
        }
        out.extend_from_slice(&buf);
        let expected: Vec<PacketRecord> = good
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != 5)
            .map(|(_, r)| *r)
            .collect();
        (out, expected)
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

    /// Batch sizes the corruption corpora are decoded at.
    pub(crate) const FILL_SIZES: [usize; 4] = [1, 2, 7, 4096];

    /// The truncation corpus: [`sample`] and every proper prefix of its
    /// encoding, indexed by cut length.
    pub(crate) fn every_cut() -> (Vec<PacketRecord>, Vec<Vec<u8>>) {
        let bytes = encode(&sample()).unwrap();
        let cuts = (0..bytes.len()).map(|cut| bytes[..cut].to_vec()).collect();
        (sample(), cuts)
    }

    /// The bit-flip corpus: a twenty-record trace with each bit of each
    /// byte flipped in turn. Returns the record count and the streams.
    pub(crate) fn every_bit_flip() -> (usize, Vec<Vec<u8>>) {
        let recs: Vec<PacketRecord> = (0..20u64)
            .map(|i| PacketRecord::tcp(i * 50, 3, 0xb0 + i as u128, 1, 443, 60))
            .collect();
        let clean = encode(&recs).unwrap();
        let flips = (0..clean.len() * 8)
            .map(|i| {
                let mut bad = clean.clone();
                bad[i / 8] ^= 1 << (i % 8);
                bad
            })
            .collect();
        (recs.len(), flips)
    }
}

#[cfg(test)]
mod tests {
    use super::tests_support::{
        bytes_with_bad_dport, every_bit_flip, every_cut, sample, FILL_SIZES,
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

    /// Drains `r` through `fill(max)`: the records delivered and the kind of
    /// the error that ended the stream, if one did. Checks the batch-size
    /// bound, that the stream ends within `limit` calls, and that the
    /// reader is fused afterwards.
    fn drain_fill<R: Read>(
        r: &mut StreamingTraceReader<R>,
        max: usize,
        limit: usize,
    ) -> (Vec<PacketRecord>, Option<&'static str>) {
        let mut batch = RecordBatch::new();
        let mut got = Vec::new();
        let mut err = None;
        for step in 0.. {
            assert!(step <= limit, "max={max}: runaway");
            match r.fill(&mut batch, max) {
                Ok(0) => break,
                Ok(n) => {
                    assert!(n <= max && n == batch.len());
                    got.extend(batch.iter());
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
        let clean = encode(
            &(0..2_000u64)
                .map(|i| PacketRecord::udp(i * 2, i as u128, 9, 1, 53, 80))
                .collect::<Vec<_>>(),
        )
        .unwrap();
        let (bad, _) = bytes_with_bad_dport();
        for (bytes, permissive) in [(&clean, false), (&bad, false), (&bad, true)] {
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
        let (recs, cuts) = every_cut();
        for (cut, head) in cuts.iter().enumerate() {
            for max in FILL_SIZES {
                match StreamingTraceReader::new(&head[..]) {
                    Ok(mut r) => {
                        let (got, err) = drain_fill(&mut r, max, recs.len() + 1);
                        assert_eq!(got, recs[..got.len()], "cut={cut} max={max}");
                        match err {
                            Some(kind) => assert_eq!(kind, "truncated", "cut={cut} max={max}"),
                            None => assert_eq!(encode(&got).unwrap(), *head, "cut={cut}"),
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
        let (n_recs, flips) = every_bit_flip();
        // Each corrupted stream must decode to records and/or a typed
        // error — never panic, never loop — and to the same ones at every
        // batch size.
        for (i, bad) in flips.iter().enumerate() {
            let outcomes: Vec<_> = FILL_SIZES
                .iter()
                .map(|&max| match StreamingTraceReader::new(&bad[..]) {
                    Ok(mut r) => drain_fill(&mut r, max, n_recs + 1),
                    Err(e) => {
                        assert!(
                            matches!(e, CodecError::BadMagic(_) | CodecError::BadVersion(_)),
                            "flip {i}: header flip should be magic/version, got {e}"
                        );
                        (Vec::new(), Some(e.kind()))
                    }
                })
                .collect();
            assert!(outcomes.windows(2).all(|w| w[0] == w[1]), "flip {i}");
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
