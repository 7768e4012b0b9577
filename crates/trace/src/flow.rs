//! A time-sorted record stream held compactly: a flow table of (source,
//! destination) pairs and 16-byte rows that name their flow by id.
//!
//! A [`PacketRecord`] is 48 bytes, 32 of them the two addresses. A
//! generator that repeats an address pair over many packets — a retrying
//! client, a flow of background traffic — pushes the pair once
//! ([`FlowStreamBuilder::flow`]) and each packet as a row carrying the
//! pair's id, so nothing is hashed and the pair is held once. A row keeps
//! its timestamp as a `u32` millisecond offset from its chunk's `u64` base;
//! rows live in chunks of 65 536 (1 MiB), and a row whose offset
//! would overflow starts a new chunk, so any time-sorted sequence fits.
//! [`FlowStream::record_at`] rebuilds a row's record as it is read.

use crate::{sort_day_by_time, PacketRecord, Transport, DAY_MS};
use lumen6_addr::cast::sat_u32;

/// Rows per chunk: 65 536 rows of 16 bytes, 1 MiB.
const CHUNK_ROWS: usize = 1 << 16;

/// One packet: its millisecond offset — from its chunk's base once
/// stored, from its day's start while its day is open in a
/// [`FlowStreamBuilder`] — its flow's id and the fields the flow does not
/// hold. 16 bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Row {
    ms: u32,
    flow: u32,
    sport: u16,
    dport: u16,
    len: u16,
    proto: Transport,
}

/// Rows whose timestamps are `base` plus their offsets, at most
/// [`CHUNK_ROWS`] of them and never none.
#[derive(Debug, Clone)]
struct Chunk {
    base: u64,
    rows: Vec<Row>,
}

/// A time-sorted stream of records as a flow table and chunked rows (see
/// the [module docs](self)).
#[derive(Debug, Clone, Default)]
pub struct FlowStream {
    flows: Vec<(u128, u128)>,
    chunks: Vec<Chunk>,
    len: usize,
}

/// A place in a [`FlowStream`]: one of its rows, or past the end. The
/// default is the first row.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RowIndex {
    chunk: usize,
    row: usize,
}

impl FlowStream {
    /// Adds the flow `src → dst` and returns its id. Pairs are not
    /// interned: pushing one twice gives two ids.
    pub fn flow(&mut self, src: u128, dst: u128) -> u32 {
        let id = sat_u32(self.flows.len());
        assert!(id < u32::MAX, "a stream holds fewer than 2^32 - 1 flows");
        self.flows.push((src, dst));
        id
    }

    /// Appends a packet of flow `flow` at `ts_ms`, which must not precede
    /// the last row's timestamp.
    pub fn push(
        &mut self,
        ts_ms: u64,
        flow: u32,
        proto: Transport,
        sport: u16,
        dport: u16,
        len: u16,
    ) {
        let row = Row {
            ms: 0,
            flow,
            sport,
            dport,
            len,
            proto,
        };
        self.append(ts_ms, &[row]);
    }

    /// Appends `rows`, sorted by offset, whose offsets count from `t0`:
    /// the last chunk takes every row that fits it by count and by offset,
    /// and the rest open new chunks.
    fn append(&mut self, t0: u64, rows: &[Row]) {
        let flows = self.flows.len();
        assert!(
            rows.iter().all(|r| (r.flow as usize) < flows),
            "row of an unknown flow"
        );
        let mut rest = rows;
        while let Some(first) = rest.first() {
            let ts = t0 + u64::from(first.ms);
            assert!(
                self.last_ts().is_none_or(|last| last <= ts),
                "rows are pushed in time order"
            );
            let chunk = match self.chunks.last_mut() {
                Some(c) if c.rows.len() < CHUNK_ROWS && ts - c.base <= u64::from(u32::MAX) => c,
                last => {
                    // A chunk cut by an offset holds no more rows: trim it.
                    if let Some(c) = last {
                        c.rows.shrink_to_fit();
                    }
                    let rows = Vec::with_capacity(CHUNK_ROWS);
                    self.chunks.push(Chunk { base: ts, rows });
                    let at = self.chunks.len() - 1;
                    &mut self.chunks[at]
                }
            };
            // The rows fit up to the chunk's room and its widest offset; the
            // first one does.
            let base = chunk.base;
            let room = rest.len().min(CHUNK_ROWS - chunk.rows.len());
            let widest = base.saturating_add(u64::from(u32::MAX));
            let n = rest[..room].partition_point(|r| t0 + u64::from(r.ms) <= widest);
            let offset = |r: &Row| u32::try_from(t0 + u64::from(r.ms) - base).unwrap_or(u32::MAX);
            chunk.rows.extend(rest[..n].iter().map(|r| Row {
                ms: offset(r),
                ..*r
            }));
            self.len += n;
            rest = &rest[n..];
        }
    }

    /// Timestamp of the last row.
    fn last_ts(&self) -> Option<u64> {
        let chunk = self.chunks.last()?;
        Some(chunk.base + u64::from(chunk.rows.last()?.ms))
    }

    /// How many records the stream holds.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the stream holds no record.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Heap bytes the flow table and the chunks hold.
    pub fn held_bytes(&self) -> usize {
        let rows: usize = self.chunks.iter().map(|c| c.rows.capacity()).sum();
        self.flows.capacity() * std::mem::size_of::<(u128, u128)>()
            + self.chunks.capacity() * std::mem::size_of::<Chunk>()
            + rows * std::mem::size_of::<Row>()
    }

    /// The record of the row at `at`, `None` past the end.
    #[inline]
    pub fn record_at(&self, at: RowIndex) -> Option<PacketRecord> {
        let chunk = self.chunks.get(at.chunk)?;
        Some(self.record(chunk, &chunk.rows[at.row]))
    }

    /// The place after `at`.
    #[inline]
    pub fn next_index(&self, at: RowIndex) -> RowIndex {
        match self.chunks.get(at.chunk) {
            Some(chunk) if at.row + 1 < chunk.rows.len() => RowIndex {
                row: at.row + 1,
                ..at
            },
            Some(_) => RowIndex {
                chunk: at.chunk + 1,
                row: 0,
            },
            None => at,
        }
    }

    /// Every record, in order.
    pub fn iter(&self) -> impl Iterator<Item = PacketRecord> + '_ {
        self.chunks
            .iter()
            .flat_map(move |c| c.rows.iter().map(move |r| self.record(c, r)))
    }

    #[inline]
    fn record(&self, chunk: &Chunk, row: &Row) -> PacketRecord {
        let (src, dst) = self.flows[row.flow as usize];
        PacketRecord {
            ts_ms: chunk.base + u64::from(row.ms),
            src,
            dst,
            proto: row.proto,
            sport: row.sport,
            dport: row.dport,
            len: row.len,
        }
    }
}

/// Builds a [`FlowStream`] a day at a time: a generator opens each day in
/// turn and pushes its rows in any order; closing the day sorts them
/// stably by time ([`sort_day_by_time`], moving 16-byte rows) and appends
/// them. So every row must fall in the day it is pushed under — then the
/// day-by-day sort is the whole stream's stable time sort. The default
/// builder is empty, with day 0 open.
#[derive(Debug, Default)]
pub struct FlowStreamBuilder {
    stream: FlowStream,
    day: u64,
    /// The open day's rows, offsets from the day's start.
    open: Vec<Row>,
}

impl FlowStreamBuilder {
    /// Closes the open day and opens `day`, which must not precede it.
    pub fn open_day(&mut self, day: u64) {
        self.close_day();
        self.day = day;
    }

    /// [`FlowStream::flow`].
    pub fn flow(&mut self, src: u128, dst: u128) -> u32 {
        self.stream.flow(src, dst)
    }

    /// Adds a packet of flow `flow` at `ts_ms`, inside the open day, to it.
    pub fn push(
        &mut self,
        ts_ms: u64,
        flow: u32,
        proto: Transport,
        sport: u16,
        dport: u16,
        len: u16,
    ) {
        let ms = u32::try_from(ts_ms.wrapping_sub(self.day * DAY_MS)).unwrap_or(u32::MAX);
        assert!(
            u64::from(ms) < DAY_MS,
            "a row falls in the day it is pushed under"
        );
        self.open.push(Row {
            ms,
            flow,
            sport,
            dport,
            len,
            proto,
        });
    }

    /// Sorts the open day's rows and appends them to the stream.
    fn close_day(&mut self) {
        let t0 = self.day * DAY_MS;
        sort_day_by_time(&mut self.open, self.day, |r| t0 + u64::from(r.ms));
        self.stream.append(t0, &self.open);
        self.open.clear();
    }

    /// Closes the open day and returns the stream, its last chunk and the
    /// flow table trimmed to what they hold.
    pub fn finish(mut self) -> FlowStream {
        self.close_day();
        let stream = &mut self.stream;
        stream.flows.shrink_to_fit();
        stream.chunks.shrink_to_fit();
        if let Some(last) = stream.chunks.last_mut() {
            last.rows.shrink_to_fit();
        }
        self.stream
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The stream of `records`, a flow per record.
    fn store(records: &[PacketRecord]) -> FlowStream {
        let mut stream = FlowStream::default();
        for r in records {
            let flow = stream.flow(r.src, r.dst);
            stream.push(r.ts_ms, flow, r.proto, r.sport, r.dport, r.len);
        }
        stream
    }

    /// Every record, read through the row indices.
    fn walk(stream: &FlowStream) -> Vec<PacketRecord> {
        let (mut at, mut out) = (RowIndex::default(), Vec::new());
        while let Some(rec) = stream.record_at(at) {
            out.push(rec);
            at = stream.next_index(at);
        }
        assert_eq!(stream.next_index(at), at, "the end stays the end");
        out
    }

    #[test]
    fn a_row_is_16_bytes() {
        assert_eq!(std::mem::size_of::<Row>(), 16);
    }

    #[test]
    fn empty_stream_yields_nothing() {
        let stream = FlowStream::default();
        assert!(stream.is_empty() && walk(&stream).is_empty());
        assert_eq!(stream.iter().count(), 0);
        assert!(FlowStreamBuilder::default().finish().is_empty());
    }

    #[test]
    fn full_chunks_and_wide_gaps_start_new_chunks() {
        // Two chunks' worth of rows at one millisecond, then a gap one past
        // the widest offset, then the widest offset itself.
        let rec = |ts| PacketRecord::tcp(ts, 1, 2, 3, 4, 5);
        let mut records = vec![rec(7); CHUNK_ROWS + 1];
        records.extend([rec(7 + (1 << 32)), rec(7 + (1 << 32) + u64::from(u32::MAX))]);
        let stream = store(&records);
        let rows: Vec<usize> = stream.chunks.iter().map(|c| c.rows.len()).collect();
        assert_eq!(rows, [CHUNK_ROWS, 1, 2]);
        assert_eq!(walk(&stream), records);
    }

    #[test]
    #[should_panic(expected = "time order")]
    fn a_row_before_the_last_is_refused() {
        let mut stream = FlowStream::default();
        let flow = stream.flow(1, 2);
        stream.push(10, flow, Transport::Tcp, 1, 2, 3);
        stream.push(9, flow, Transport::Tcp, 1, 2, 3);
    }

    #[test]
    #[should_panic(expected = "in the day")]
    fn a_row_outside_its_day_is_refused() {
        let mut builder = FlowStreamBuilder::default();
        builder.open_day(2);
        let flow = builder.flow(1, 2);
        builder.push(3 * DAY_MS, flow, Transport::Tcp, 1, 2, 3);
    }

    fn transport() -> impl Strategy<Value = Transport> {
        prop_oneof![
            Just(Transport::Tcp),
            Just(Transport::Udp),
            Just(Transport::Icmpv6),
            // The byte a `Tcp` row encodes to on the wire: kept distinct.
            Just(Transport::Other(6)),
            any::<u8>().prop_map(Transport::Other),
        ]
    }

    proptest! {
        #[test]
        fn any_time_sorted_sequence_comes_back(
            // Steps from 0 to past 2^32 ms, most of them small so that runs
            // of rows share a chunk; a few thousand rows cross no chunk
            // boundary by count, so the full-chunk case has its own test.
            steps in proptest::collection::vec(
                (0u8..7, any::<u64>()).prop_map(|(kind, x)| match kind {
                    0..=3 => x % 3,
                    4 | 5 => x % 100_000,
                    _ => (1 << 32) - 2 + x % (1 << 32),
                }),
                0..3_000,
            ),
            start in 0u64..1 << 50,
            fields in proptest::collection::vec((transport(), any::<u16>(), any::<u16>(), any::<u128>()), 1..8),
        ) {
            let mut ts = start;
            let records: Vec<PacketRecord> = steps
                .iter()
                .enumerate()
                .map(|(i, step)| {
                    ts += step;
                    let (proto, sport, len, src) = fields[i % fields.len()];
                    PacketRecord { ts_ms: ts, src, dst: !src ^ i as u128, proto, sport, dport: i as u16, len }
                })
                .collect();
            let stream = store(&records);
            prop_assert_eq!(stream.len(), records.len());
            prop_assert_eq!(&walk(&stream), &records);
            prop_assert_eq!(&stream.iter().collect::<Vec<_>>(), &records);
        }

        #[test]
        fn days_pushed_in_any_order_come_back_stably_sorted(
            days in proptest::collection::vec(proptest::collection::vec((0u64..DAY_MS, transport()), 0..200), 0..6),
            first_day in 0u64..1_000,
        ) {
            let mut builder = FlowStreamBuilder::default();
            let mut expected = Vec::new();
            for (d, rows) in days.iter().enumerate() {
                let day = first_day + 2 * d as u64;
                builder.open_day(day);
                let flow = builder.flow(day.into(), 0);
                let start = expected.len();
                for (i, &(ms, proto)) in rows.iter().enumerate() {
                    // The arrival position is in `sport`, so a reordering of
                    // tied rows shows.
                    let ts = day * DAY_MS + ms;
                    builder.push(ts, flow, proto, i as u16, 0, 60);
                    expected.push(PacketRecord { ts_ms: ts, src: day.into(), dst: 0, proto, sport: i as u16, dport: 0, len: 60 });
                }
                expected[start..].sort_by_key(|r| r.ts_ms);
            }
            let stream = builder.finish();
            prop_assert_eq!(stream.iter().collect::<Vec<_>>(), expected);
        }
    }
}
