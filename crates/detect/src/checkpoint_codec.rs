//! The binary body of a `L6CK v2` checkpoint file.
//!
//! [`Checkpoint::save`] frames this body with a text header line carrying
//! its length and FNV-1a checksum; this module only turns a [`Checkpoint`]
//! into bytes and back: its fields in one fixed order, with no names, no
//! padding and no alignment.
//!
//! ```text
//! checkpoint = snapshot_version offset prev_ts records_done decode_skipped
//!              checkpoints_written last_flush_ms watermark_ms max_ts
//!              late_dropped count record* count level*
//! record     = ts_ms src:u128 dst:u128 transport sport:u16 dport:u16 len:u16
//! level      = agg:u8 min_dsts timeout_ms keep_dsts:u8 sketch
//!              observed runs_opened count run* count event*
//! sketch     = 0 | 1 spill_threshold precision:u8
//! run        = prefix start_ms (last_ms - start_ms) packets
//!              counter optlist counter ports
//! event      = prefix agg:u8 start_ms end_ms packets distinct_dsts
//!              distinct_srcs ports optlist
//! counter    = 0 list | 1 precision:u8 register[2^precision]
//! optlist    = 0 | 1 list
//! list       = count u128*
//! ports      = count (transport port:u16 packets)*
//! prefix     = bits:u128 len:u8
//! transport  = 0 0 (TCP) | 1 0 (UDP) | 2 0 (ICMPv6) | 3 next_header
//! ```
//!
//! Unmarked fields and every `count` are LEB128 varints (the trace codec's
//! [`put_varint`] / [`slice_varint`]); `u16` and `u128` are little-endian;
//! a run's `last_ms` is its wrapping distance from `start_ms`. `transport`
//! is two bytes because [`Transport::to_byte`] folds `Other(6)` into `Tcp`.
//!
//! The decoder trusts nothing: every read is bounds-checked, every count is
//! held to what the remaining bytes could encode *before* anything is sized
//! from it, and tags, prefixes, levels, event time order and sketch shapes
//! are validated — a hostile body under a correct checksum is an error,
//! never a panic or an allocation of its choosing.

use crate::aggregate::AggLevel;
use crate::detector::ScanDetectorConfig;
use crate::event::ScanEvent;
use crate::session::{Checkpoint, ReorderState};
use crate::sketch::{HyperLogLog, SketchConfig, MAX_PRECISION};
use crate::snapshot::{CounterState, DetectorSnapshot, LevelState, RunState};
use lumen6_addr::Ipv6Prefix;
use lumen6_trace::codec::{put_varint, slice_varint, BytesMut};
use lumen6_trace::{PacketRecord, TracePosition, Transport};
use std::io::{self, Write};

/// One service's packet count, as runs and events carry it.
type PortCount = ((Transport, u16), u64);

// Fewest bytes one element of each counted list can occupy — what a count
// is divided into the remaining bytes by. A prefix is 17, an empty counter 2.
const MIN_RECORD: usize = 1 + 16 + 16 + 2 + 2 + 2 + 2;
const MIN_PORT: usize = 2 + 2 + 1;
const MIN_RUN: usize = 17 + 3 + 2 + 1 + 2 + 1;
const MIN_EVENT: usize = 17 + 1 + 5 + 1 + 1;
const MIN_LEVEL: usize = 5 + 2 + 1 + 1;

/// Streams `ck`'s body into `w`.
pub(crate) fn encode(ck: &Checkpoint, w: &mut impl Write) -> io::Result<()> {
    let mut e = Encoder {
        w,
        scratch: BytesMut::with_capacity(10),
    };
    let (at, r) = (&ck.position, &ck.reorder);
    e.varints(&[u64::from(ck.detector.version), at.offset, at.prev_ts])?;
    e.varints(&[ck.records_done, ck.decode_skipped])?;
    e.varints(&[ck.checkpoints_written, ck.last_flush_ms])?;
    e.varints(&[r.watermark_ms, r.max_ts, r.late_dropped])?;
    e.varints(&[r.entries.len() as u64])?;
    for r in &r.entries {
        e.varints(&[r.ts_ms])?;
        e.bytes(&r.src.to_le_bytes())?;
        e.bytes(&r.dst.to_le_bytes())?;
        e.transport(r.proto)?;
        e.bytes(&r.sport.to_le_bytes())?;
        e.bytes(&r.dport.to_le_bytes())?;
        e.bytes(&r.len.to_le_bytes())?;
    }
    e.varints(&[ck.detector.levels.len() as u64])?;
    ck.detector.levels.iter().try_for_each(|l| e.level(l))
}

struct Encoder<'w, W: Write> {
    w: &'w mut W,
    scratch: BytesMut,
}

impl<W: Write> Encoder<'_, W> {
    fn bytes(&mut self, b: &[u8]) -> io::Result<()> {
        self.w.write_all(b)
    }

    fn varints(&mut self, values: &[u64]) -> io::Result<()> {
        self.scratch.clear();
        for &v in values {
            put_varint(&mut self.scratch, v);
        }
        self.w.write_all(&self.scratch)
    }

    fn transport(&mut self, t: Transport) -> io::Result<()> {
        self.bytes(&match t {
            Transport::Tcp => [0, 0],
            Transport::Udp => [1, 0],
            Transport::Icmpv6 => [2, 0],
            Transport::Other(x) => [3, x],
        })
    }

    fn list(&mut self, values: &[u128]) -> io::Result<()> {
        self.varints(&[values.len() as u64])?;
        values.iter().try_for_each(|v| self.bytes(&v.to_le_bytes()))
    }

    fn optlist(&mut self, values: Option<&[u128]>) -> io::Result<()> {
        self.bytes(&[u8::from(values.is_some())])?;
        values.map_or(Ok(()), |v| self.list(v))
    }

    fn counter(&mut self, c: &CounterState) -> io::Result<()> {
        match c {
            CounterState::Exact(set) => self.bytes(&[0]).and_then(|()| self.list(set)),
            CounterState::Sketch(hll) => {
                self.bytes(&[1, hll.precision()])?;
                self.bytes(hll.registers())
            }
        }
    }

    fn ports(&mut self, ports: &[PortCount]) -> io::Result<()> {
        self.varints(&[ports.len() as u64])?;
        for &((proto, port), packets) in ports {
            self.transport(proto)?;
            self.bytes(&port.to_le_bytes())?;
            self.varints(&[packets])?;
        }
        Ok(())
    }

    fn level(&mut self, level: &LevelState) -> io::Result<()> {
        let cfg = &level.config;
        self.bytes(&[cfg.agg.len()])?;
        self.varints(&[cfg.min_dsts, cfg.timeout_ms])?;
        self.bytes(&[u8::from(cfg.keep_dsts), u8::from(cfg.sketch.is_some())])?;
        if let Some(s) = cfg.sketch {
            self.varints(&[s.spill_threshold as u64])?;
            self.bytes(&[s.precision])?;
        }
        self.varints(&[level.observed, level.runs_opened, level.runs.len() as u64])?;
        for run in &level.runs {
            self.bytes(&run.source.bits().to_le_bytes())?;
            self.bytes(&[run.source.len()])?;
            let lasted = run.last_ms.wrapping_sub(run.start_ms);
            self.varints(&[run.start_ms, lasted, run.packets])?;
            self.counter(&run.dsts)?;
            self.optlist(run.dst_list.as_deref())?;
            self.counter(&run.srcs)?;
            self.ports(&run.ports)?;
        }
        self.varints(&[level.pending.len() as u64])?;
        for ev in &level.pending {
            self.bytes(&ev.source.bits().to_le_bytes())?;
            self.bytes(&[ev.source.len(), ev.agg.len()])?;
            self.varints(&[ev.start_ms, ev.end_ms, ev.packets])?;
            self.varints(&[ev.distinct_dsts, ev.distinct_srcs])?;
            self.ports(&ev.ports)?;
            self.optlist(ev.dsts.as_deref())?;
        }
        Ok(())
    }
}

/// Rebuilds the checkpoint a body encodes, or says why it cannot be one.
pub(crate) fn decode(body: &[u8]) -> Result<Checkpoint, String> {
    let mut d = Decoder { rest: body };
    let [version, offset, prev_ts, records_done, decode_skipped] = d.varints()?;
    let [checkpoints_written, last_flush_ms] = d.varints()?;
    let [watermark_ms, max_ts, late_dropped] = d.varints()?;
    let entries = d.counted(MIN_RECORD, "reorder entries", Decoder::record)?;
    let levels = d.counted(MIN_LEVEL, "levels", Decoder::level)?;
    if !d.rest.is_empty() {
        return Err(format!("{} trailing bytes after the body", d.rest.len()));
    }
    let version = u32::try_from(version).map_err(|_| format!("snapshot version {version}"))?;
    Ok(Checkpoint {
        position: TracePosition { offset, prev_ts },
        records_done,
        decode_skipped,
        detector: DetectorSnapshot { version, levels },
        reorder: ReorderState {
            watermark_ms,
            max_ts,
            late_dropped,
            entries,
        },
        checkpoints_written,
        last_flush_ms,
    })
}

/// A cursor over the bytes not yet decoded.
struct Decoder<'a> {
    rest: &'a [u8],
}

impl<'a> Decoder<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let ended = || format!("body ends inside a {n}-byte field");
        let (head, tail) = self.rest.split_at_checked(n).ok_or_else(ended)?;
        self.rest = tail;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], String> {
        let ended = || format!("body ends inside a {N}-byte field");
        let (head, tail) = self.rest.split_first_chunk::<N>().ok_or_else(ended)?;
        self.rest = tail;
        Ok(*head)
    }

    fn byte(&mut self) -> Result<u8, String> {
        Ok(self.array::<1>()?[0])
    }

    /// A little-endian integer: `d.le(u16::from_le_bytes)`.
    fn le<const N: usize, T>(&mut self, from: fn([u8; N]) -> T) -> Result<T, String> {
        Ok(from(self.array()?))
    }

    fn varint(&mut self) -> Result<u64, String> {
        let mut pos = 0;
        let v = slice_varint(self.rest, &mut pos).map_err(|e| format!("bad varint: {e}"))?;
        self.rest = &self.rest[pos..];
        Ok(v)
    }

    fn varints<const N: usize>(&mut self) -> Result<[u64; N], String> {
        let mut out = [0u64; N];
        for v in &mut out {
            *v = self.varint()?;
        }
        Ok(out)
    }

    /// Reads an element count and holds it to the bytes that remain: a
    /// list of `count` elements of at least `min_size` bytes each must fit
    /// in them, so whatever is sized from the result is bounded by the file.
    fn count(&mut self, min_size: usize, what: &str) -> Result<usize, String> {
        let claimed = self.varint()?;
        let cap = self.rest.len() / min_size;
        let fits = usize::try_from(claimed).ok().filter(|&n| n <= cap);
        fits.ok_or_else(|| format!("{what}: count {claimed}, but the body has room for {cap}"))
    }

    fn counted<T>(
        &mut self,
        min_size: usize,
        what: &str,
        item: fn(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        let n = self.count(min_size, what)?;
        (0..n).map(|_| item(self)).collect()
    }

    fn flag(&mut self, what: &str) -> Result<bool, String> {
        match self.byte()? {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(format!("{what}: bad tag {t}")),
        }
    }

    fn transport(&mut self) -> Result<Transport, String> {
        match self.array()? {
            [0, 0] => Ok(Transport::Tcp),
            [1, 0] => Ok(Transport::Udp),
            [2, 0] => Ok(Transport::Icmpv6),
            [3, x] => Ok(Transport::Other(x)),
            [tag, x] => Err(format!("bad transport tag ({tag}, {x})")),
        }
    }

    fn agg(&mut self) -> Result<AggLevel, String> {
        let len = self.byte()?;
        if len > 128 {
            return Err(format!("aggregation level /{len}"));
        }
        Ok(AggLevel::new(len))
    }

    fn prefix(&mut self) -> Result<Ipv6Prefix, String> {
        let (bits, len) = (self.le(u128::from_le_bytes)?, self.byte()?);
        let prefix = Ipv6Prefix::new(bits, len);
        if prefix.len() != len || prefix.bits() != bits {
            return Err(format!("non-canonical prefix {bits:#x}/{len}"));
        }
        Ok(prefix)
    }

    fn list(&mut self) -> Result<Vec<u128>, String> {
        let n = self.count(16, "address list")?;
        (0..n).map(|_| self.le(u128::from_le_bytes)).collect()
    }

    fn optlist(&mut self) -> Result<Option<Vec<u128>>, String> {
        self.flag("optional address list")?
            .then(|| self.list())
            .transpose()
    }

    fn counter(&mut self) -> Result<CounterState, String> {
        if !self.flag("distinct counter")? {
            return Ok(CounterState::Exact(self.list()?));
        }
        let precision = self.byte()?;
        // An out-of-range precision must not size the read below.
        if precision > MAX_PRECISION {
            return Err(format!("sketch precision {precision}"));
        }
        let registers = self.take(1 << precision)?.to_vec();
        HyperLogLog::from_registers(precision, registers).map(CounterState::Sketch)
    }

    fn ports(&mut self) -> Result<Vec<PortCount>, String> {
        self.counted(MIN_PORT, "ports", |d| {
            Ok(((d.transport()?, d.le(u16::from_le_bytes)?), d.varint()?))
        })
    }

    fn record(&mut self) -> Result<PacketRecord, String> {
        Ok(PacketRecord {
            ts_ms: self.varint()?,
            src: self.le(u128::from_le_bytes)?,
            dst: self.le(u128::from_le_bytes)?,
            proto: self.transport()?,
            sport: self.le(u16::from_le_bytes)?,
            dport: self.le(u16::from_le_bytes)?,
            len: self.le(u16::from_le_bytes)?,
        })
    }

    fn level(&mut self) -> Result<LevelState, String> {
        let agg = self.agg()?;
        let [min_dsts, timeout_ms] = self.varints()?;
        let keep_dsts = self.flag("keep_dsts")?;
        let sketch = if self.flag("sketch config")? {
            let (spill, precision) = (self.varint()?, self.byte()?);
            let spill_threshold = usize::try_from(spill).unwrap_or(usize::MAX);
            let sketch = SketchConfig {
                spill_threshold,
                precision,
            };
            Some(sketch.clamped())
        } else {
            None
        };
        Ok(LevelState {
            config: ScanDetectorConfig {
                agg,
                min_dsts,
                timeout_ms,
                keep_dsts,
                sketch,
            },
            observed: self.varint()?,
            runs_opened: self.varint()?,
            runs: self.counted(MIN_RUN, "runs", Self::run)?,
            pending: self.counted(MIN_EVENT, "pending events", Self::event)?,
        })
    }

    fn run(&mut self) -> Result<RunState, String> {
        let source = self.prefix()?;
        let [start_ms, lasted, packets] = self.varints()?;
        Ok(RunState {
            source,
            start_ms,
            last_ms: start_ms.wrapping_add(lasted),
            packets,
            dsts: self.counter()?,
            dst_list: self.optlist()?,
            srcs: self.counter()?,
            ports: self.ports()?,
        })
    }

    fn event(&mut self) -> Result<ScanEvent, String> {
        let (source, agg) = (self.prefix()?, self.agg()?);
        let [start_ms, end_ms, packets, distinct_dsts, distinct_srcs] = self.varints()?;
        if end_ms < start_ms {
            return Err(format!(
                "event ends at {end_ms} ms, before its {start_ms} ms start"
            ));
        }
        Ok(ScanEvent {
            source,
            agg,
            start_ms,
            end_ms,
            packets,
            distinct_dsts,
            distinct_srcs,
            ports: self.ports()?,
            dsts: self.optlist()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::SNAPSHOT_VERSION;
    use proptest::prelude::*;

    /// Small values, any value, and the extreme — counters and timestamps
    /// alike.
    fn arb_u64() -> impl Strategy<Value = u64> {
        prop_oneof![0u64..300, any::<u64>(), Just(u64::MAX)]
    }

    fn arb_transport() -> impl Strategy<Value = Transport> {
        prop_oneof![
            Just(Transport::Tcp),
            Just(Transport::Udp),
            Just(Transport::Icmpv6),
            // What `Transport::to_byte` would fold into Tcp and Udp.
            Just(Transport::Other(6)),
            Just(Transport::Other(17)),
            any::<u8>().prop_map(Transport::Other),
        ]
    }

    fn arb_list() -> impl Strategy<Value = Vec<u128>> {
        prop_oneof![
            proptest::collection::vec(any::<u128>(), 0..5),
            // A list long enough to outweigh the scalars around it.
            proptest::collection::vec(any::<u128>(), 60..70),
        ]
    }

    fn arb_optlist() -> impl Strategy<Value = Option<Vec<u128>>> {
        prop_oneof![Just(None), arb_list().prop_map(Some)]
    }

    fn arb_counter() -> impl Strategy<Value = CounterState> {
        prop_oneof![
            arb_list().prop_map(CounterState::Exact),
            // `new` clamps from below; small sketches and lists keep a body
            // small enough to decode every prefix of.
            (0u8..=7, proptest::collection::vec(any::<u128>(), 0..40)).prop_map(
                |(precision, items)| {
                    let mut hll = HyperLogLog::new(precision);
                    items.into_iter().for_each(|x| hll.insert(x));
                    CounterState::Sketch(hll)
                }
            ),
        ]
    }

    fn arb_prefix() -> impl Strategy<Value = Ipv6Prefix> {
        (any::<u128>(), 0u8..=128).prop_map(|(bits, len)| Ipv6Prefix::new(bits, len))
    }

    fn arb_ports() -> impl Strategy<Value = Vec<PortCount>> {
        proptest::collection::vec(((arb_transport(), any::<u16>()), arb_u64()), 0..4)
    }

    fn arb_run() -> impl Strategy<Value = RunState> {
        (
            arb_prefix(),
            // `last_ms` below `start_ms` included: the delta wraps.
            (arb_u64(), arb_u64(), arb_u64()),
            arb_counter(),
            arb_optlist(),
            arb_counter(),
            arb_ports(),
        )
            .prop_map(
                |(source, (start_ms, last_ms, packets), dsts, dst_list, srcs, ports)| RunState {
                    source,
                    start_ms,
                    last_ms,
                    packets,
                    dsts,
                    dst_list,
                    srcs,
                    ports,
                },
            )
    }

    fn arb_event() -> impl Strategy<Value = ScanEvent> {
        (
            (arb_prefix(), 0u8..=128),
            (arb_u64(), arb_u64()),
            (arb_u64(), arb_u64(), arb_u64()),
            arb_ports(),
            arb_optlist(),
        )
            .prop_map(
                |((source, agg), (start_ms, lasts), (packets, dsts, srcs), ports, list)| {
                    ScanEvent {
                        source,
                        agg: AggLevel::new(agg),
                        start_ms,
                        end_ms: start_ms.saturating_add(lasts),
                        packets,
                        distinct_dsts: dsts,
                        distinct_srcs: srcs,
                        ports,
                        dsts: list,
                    }
                },
            )
    }

    fn arb_level() -> impl Strategy<Value = LevelState> {
        let sketch = prop_oneof![
            Just(None),
            (prop_oneof![0usize..5_000, Just(usize::MAX)], 4u8..=16).prop_map(
                |(spill_threshold, precision)| Some(SketchConfig {
                    spill_threshold,
                    precision
                })
            ),
        ];
        (
            (0u8..=128, arb_u64(), arb_u64(), any::<bool>(), sketch),
            (arb_u64(), arb_u64()),
            proptest::collection::vec(arb_run(), 0..4),
            proptest::collection::vec(arb_event(), 0..3),
        )
            .prop_map(
                |((agg, min_dsts, timeout_ms, keep_dsts, sketch), counters, runs, pending)| {
                    LevelState {
                        config: ScanDetectorConfig {
                            agg: AggLevel::new(agg),
                            min_dsts,
                            timeout_ms,
                            keep_dsts,
                            sketch,
                        },
                        observed: counters.0,
                        runs_opened: counters.1,
                        runs,
                        pending,
                    }
                },
            )
    }

    fn arb_record() -> impl Strategy<Value = PacketRecord> {
        (
            arb_u64(),
            any::<u128>(),
            any::<u128>(),
            arb_transport(),
            (any::<u16>(), any::<u16>(), any::<u16>()),
        )
            .prop_map(
                |(ts_ms, src, dst, proto, (sport, dport, len))| PacketRecord {
                    ts_ms,
                    src,
                    dst,
                    proto,
                    sport,
                    dport,
                    len,
                },
            )
    }

    fn arb_checkpoint() -> impl Strategy<Value = Checkpoint> {
        (
            (arb_u64(), arb_u64()),
            (arb_u64(), arb_u64(), arb_u64(), arb_u64()),
            (arb_u64(), arb_u64(), arb_u64()),
            proptest::collection::vec(arb_record(), 0..4),
            (any::<u32>(), proptest::collection::vec(arb_level(), 0..4)),
        )
            .prop_map(
                |(position, counters, reorder, entries, (version, levels))| Checkpoint {
                    position: TracePosition {
                        offset: position.0,
                        prev_ts: position.1,
                    },
                    records_done: counters.0,
                    decode_skipped: counters.1,
                    detector: DetectorSnapshot { version, levels },
                    reorder: ReorderState {
                        watermark_ms: reorder.0,
                        max_ts: reorder.1,
                        late_dropped: reorder.2,
                        entries,
                    },
                    checkpoints_written: counters.2,
                    last_flush_ms: counters.3,
                },
            )
    }

    fn encoded(ck: &Checkpoint) -> Vec<u8> {
        let mut body = Vec::new();
        encode(ck, &mut body).unwrap();
        body
    }

    proptest! {
        /// The body is lossless — `Other(6)` stays `Other(6)`, `u64::MAX`
        /// stays `u64::MAX`, empty lists stay empty — and no strict prefix
        /// of it, nor it with a byte appended, decodes at all.
        #[test]
        fn decode_inverts_encode(ck in arb_checkpoint()) {
            let body = encoded(&ck);
            prop_assert_eq!(&decode(&body).unwrap(), &ck);
            prop_assert_eq!(&encoded(&decode(&body).unwrap()), &body);
            // Every cut of a small body, 256 spread through a large one.
            for cut in (0..body.len()).step_by(body.len() / 256 + 1) {
                prop_assert!(decode(&body[..cut]).is_err(), "prefix of {} bytes decoded", cut);
            }
            let mut longer = body;
            longer.push(0);
            prop_assert!(decode(&longer).is_err());
        }
    }

    /// Takes `left` bytes, then fails every write: a disk that fills up
    /// partway through a file.
    struct FailAfter {
        taken: Vec<u8>,
        left: usize,
    }

    impl Write for FailAfter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.left == 0 {
                return Err(io::Error::from(io::ErrorKind::StorageFull));
            }
            let n = buf.len().min(self.left);
            self.taken.extend_from_slice(&buf[..n]);
            self.left -= n;
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    proptest! {
        /// A writer failing after any number of bytes — in the frame's
        /// placeholder header or anywhere in the body — fails the write with
        /// its own error, never a panic, having taken exactly what it took.
        #[test]
        fn a_writer_failing_mid_frame_fails_with_its_error(ck in arb_checkpoint()) {
            let header = format!("L6CK v2 {:016x} {:020}\n", 0, 0);
            let mut frame = header.clone().into_bytes();
            frame.extend(encoded(&ck));
            let step = frame.len() / 256 + 1;
            let cuts = (0..header.len() + 2).chain((header.len()..frame.len()).step_by(step));
            for left in cuts.chain([frame.len() - 1]) {
                let mut w = FailAfter { taken: Vec::new(), left };
                let result = w
                    .write_all(header.as_bytes())
                    .and_then(|()| encode(&ck, &mut w));
                let err = result.expect_err("a write past the fault succeeded");
                prop_assert_eq!(err.kind(), io::ErrorKind::StorageFull);
                prop_assert_eq!(&w.taken[..], &frame[..left]);
            }
            let mut w = FailAfter { taken: Vec::new(), left: frame.len() };
            w.write_all(header.as_bytes()).unwrap();
            encode(&ck, &mut w).unwrap();
            prop_assert_eq!(w.taken, frame);
        }
    }

    fn on<'a, T>(
        bytes: &'a [u8],
        read: impl FnOnce(&mut Decoder<'a>) -> Result<T, String>,
    ) -> Result<T, String> {
        read(&mut Decoder { rest: bytes })
    }

    #[test]
    fn decoder_rejects_what_the_encoder_never_writes() {
        // Tags.
        assert!(on(&[2], |d| d.flag("t")).is_err());
        assert_eq!(on(&[3, 6], Decoder::transport), Ok(Transport::Other(6)));
        assert_eq!(on(&[0, 0], Decoder::transport), Ok(Transport::Tcp));
        assert!(on(&[0, 6], Decoder::transport).is_err());
        assert!(on(&[4, 0], Decoder::transport).is_err());
        assert!(on(&[3], Decoder::transport).is_err());
        // Levels and prefixes.
        assert!(on(&[128], Decoder::agg).is_ok());
        assert!(on(&[129], Decoder::agg).is_err());
        let mut prefix = [0u8; 17];
        prefix[15] = 0x20;
        prefix[16] = 8;
        assert_eq!(
            on(&prefix, Decoder::prefix),
            Ok(Ipv6Prefix::new(0x20 << 120, 8))
        );
        prefix[0] = 1; // a host bit under a /8
        assert!(on(&prefix, Decoder::prefix)
            .unwrap_err()
            .contains("non-canonical"));
        prefix[0] = 0;
        prefix[16] = 129;
        assert!(on(&prefix, Decoder::prefix).is_err());
        // Sketches: precision out of range either way, a short register
        // array, a rank no insert can produce.
        assert!(on(&[1, 200], Decoder::counter).is_err());
        assert!(on(&[1, 0, 0], Decoder::counter).is_err());
        let mut sketch = vec![1u8, 4];
        sketch.extend_from_slice(&[0; 15]);
        assert!(on(&sketch, Decoder::counter).is_err());
        sketch.push(61);
        assert!(on(&sketch, Decoder::counter).is_ok());
        sketch[17] = 62;
        assert!(on(&sketch, Decoder::counter)
            .unwrap_err()
            .contains("rank 62"));
        let mut widest = vec![1u8, MAX_PRECISION];
        widest.extend_from_slice(&[1; 1 << MAX_PRECISION]);
        assert!(on(&widest, Decoder::counter).is_ok());
        widest[1] += 1;
        assert!(on(&widest, Decoder::counter).is_err());
        // A list longer than its bytes.
        assert!(on(&[0, 2, 0, 0], Decoder::counter)
            .unwrap_err()
            .contains("room for 0"));
    }

    #[test]
    fn an_event_that_ends_before_it_starts_is_rejected() {
        let event = ScanEvent {
            source: Ipv6Prefix::new(7 << 64, 64),
            agg: AggLevel::L64,
            start_ms: 10,
            end_ms: 10,
            packets: 1,
            distinct_dsts: 1,
            distinct_srcs: 1,
            ports: vec![],
            dsts: None,
        };
        let with = |event: ScanEvent| Checkpoint {
            position: TracePosition {
                offset: 0,
                prev_ts: 0,
            },
            records_done: 0,
            decode_skipped: 0,
            detector: DetectorSnapshot {
                version: SNAPSHOT_VERSION,
                levels: vec![LevelState {
                    config: ScanDetectorConfig::default(),
                    observed: 0,
                    runs_opened: 0,
                    runs: vec![],
                    pending: vec![event],
                }],
            },
            reorder: ReorderState {
                watermark_ms: 0,
                max_ts: 0,
                late_dropped: 0,
                entries: vec![],
            },
            checkpoints_written: 0,
            last_flush_ms: 0,
        };
        assert!(decode(&encoded(&with(event.clone()))).is_ok());
        let backwards = ScanEvent { end_ms: 9, ..event };
        let err = decode(&encoded(&with(backwards))).unwrap_err();
        assert!(err.contains("before its 10 ms start"), "{err}");
    }
}
