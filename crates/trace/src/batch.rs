//! Reusable struct-of-arrays record batches for the columnar ingest path.
//!
//! A `Vec<PacketRecord>` per chunk is one 56-byte-per-record allocation
//! churned per chunk at telescope ingest rates, and the array-of-structs
//! layout wastes cache on stages that touch only a column or two (the
//! detector's grouping pass reads sources; the reorder buffer reads
//! timestamps). A [`RecordBatch`] holds the same records as seven parallel
//! column vectors and is designed to be **reused**: `clear()` keeps the
//! capacity, so a steady-state decode loop
//! ([`StreamingTraceReader::fill`](crate::codec::StreamingTraceReader::fill))
//! allocates nothing.
//!
//! # Rows and records
//!
//! An eighth column, `counts`, run-length-encodes adjacent identical
//! records (the copies `--intensity` makes of one probe): a physical *row*
//! stands for `count` logical *records*. The column stays empty, at no
//! cost, while every row stands for one record — every batch a version 1
//! trace file, a pcap, an in-memory source or the reorder buffer fills;
//! only [`push_n`](RecordBatch::push_n) creates it, for the fleet
//! generator's repeats and a version 2 trace's counted rows.
//!
//! | logical records | physical rows |
//! |---|---|
//! | `len`, `is_empty`, `iter` | `rows`, `get(i)`, `count(i)` |
//! | `push`, `push_n(r, n)` (adds `n`), `Extend`, `FromIterator` | the column slices `ts_ms` … `dport`, `counts` |
//! | [`Source::fill`](crate::Source::fill)'s `max` and return | the row range of `extend_from_range` (counts ride along) |
//!
//! So batch sizes, checkpoint cadences, stream positions and record
//! counters mean what they always meant; only code that indexes rows knows
//! the column. `==` is physical (same rows, same `counts` column: a counted
//! batch never equals a count-less one); compare [`iter`](RecordBatch::iter)
//! for logical equality.
//!
//! The columns are kept private behind push/get accessors to preserve the
//! equal-length invariant; read-only column slices are exposed for stages
//! that genuinely want columnar access.

use crate::record::{PacketRecord, Transport};

/// A struct-of-arrays batch of packet records (see the module docs).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecordBatch {
    ts_ms: Vec<u64>,
    src: Vec<u128>,
    dst: Vec<u128>,
    proto: Vec<Transport>,
    sport: Vec<u16>,
    dport: Vec<u16>,
    len: Vec<u16>,
    /// Copies per row, each ≥ 1; empty while every row stands for one.
    counts: Vec<u32>,
    /// Logical records: the sum of `counts`, the row count without them.
    records: usize,
}

impl RecordBatch {
    /// An empty batch.
    pub fn new() -> Self {
        RecordBatch::default()
    }

    /// An empty batch with every column pre-sized for `n` rows.
    pub fn with_capacity(n: usize) -> Self {
        RecordBatch {
            ts_ms: Vec::with_capacity(n),
            src: Vec::with_capacity(n),
            dst: Vec::with_capacity(n),
            proto: Vec::with_capacity(n),
            sport: Vec::with_capacity(n),
            dport: Vec::with_capacity(n),
            len: Vec::with_capacity(n),
            ..RecordBatch::default()
        }
    }

    /// Number of records in the batch (every copy counted).
    pub fn len(&self) -> usize {
        self.records
    }

    /// Whether the batch holds no records.
    pub fn is_empty(&self) -> bool {
        self.records == 0
    }

    /// Number of physical rows: `len()` unless rows carry counts.
    pub fn rows(&self) -> usize {
        self.ts_ms.len()
    }

    /// Drops all records but keeps the column capacity (the reuse point).
    pub fn clear(&mut self) {
        self.ts_ms.clear();
        self.src.clear();
        self.dst.clear();
        self.proto.clear();
        self.sport.clear();
        self.dport.clear();
        self.len.clear();
        self.counts.clear();
        self.records = 0;
    }

    /// Appends one record.
    pub fn push(&mut self, r: PacketRecord) {
        self.push_row(r);
        if !self.counts.is_empty() {
            self.counts.push(1);
        }
        self.records += 1;
    }

    fn push_row(&mut self, r: PacketRecord) {
        self.ts_ms.push(r.ts_ms);
        self.src.push(r.src);
        self.dst.push(r.dst);
        self.proto.push(r.proto);
        self.sport.push(r.sport);
        self.dport.push(r.dport);
        self.len.push(r.len);
    }

    /// Gives every row so far its count of one, ahead of a row that needs
    /// the column.
    fn count_rows(&mut self) {
        if self.counts.is_empty() {
            self.counts.resize(self.rows(), 1);
        }
    }

    /// Appends `n` copies of one record — a run of adjacent identical
    /// records (intensity repeats of one probe) — as one row of count `n`
    /// (several, past `u32::MAX` copies).
    pub fn push_n(&mut self, r: PacketRecord, n: usize) {
        if n == 1 {
            return self.push(r);
        }
        let mut left = n;
        while left > 0 {
            let count = u32::try_from(left).unwrap_or(u32::MAX);
            self.count_rows();
            self.push_row(r);
            self.counts.push(count);
            left -= count as usize;
        }
        self.records += n;
    }

    /// Accounts the counts of rows about to be appended from `other`: rides
    /// on the row count alone while neither side has a `counts` column.
    fn extend_counts(&mut self, other: &RecordBatch, rows: std::ops::Range<usize>) {
        if self.counts.is_empty() && other.counts.is_empty() {
            self.records += rows.len();
            return;
        }
        self.count_rows();
        let at = self.counts.len();
        self.counts.extend(rows.map(|i| other.count(i)));
        self.records += self.counts[at..].iter().map(|&c| c as usize).sum::<usize>();
    }

    /// Appends every row of `other`, counts included — how the threaded
    /// detector stages the batches it is handed.
    pub fn extend_from_batch(&mut self, other: &RecordBatch) {
        self.extend_from_range(other, 0..other.rows());
    }

    /// Appends rows `rows` of `other`, counts included — contiguous column
    /// copies. Panics if the range reaches past `other.rows()`, like slice
    /// indexing.
    pub fn extend_from_range(&mut self, other: &RecordBatch, rows: std::ops::Range<usize>) {
        self.extend_counts(other, rows.clone());
        self.ts_ms.extend_from_slice(&other.ts_ms[rows.clone()]);
        self.src.extend_from_slice(&other.src[rows.clone()]);
        self.dst.extend_from_slice(&other.dst[rows.clone()]);
        self.proto.extend_from_slice(&other.proto[rows.clone()]);
        self.sport.extend_from_slice(&other.sport[rows.clone()]);
        self.dport.extend_from_slice(&other.dport[rows.clone()]);
        self.len.extend_from_slice(&other.len[rows]);
    }

    /// Reassembles row `i`. Columns are `Copy`, so this is a gather of
    /// seven loads, not an allocation. Panics if `i >= rows()`, like slice
    /// indexing.
    #[inline]
    pub fn get(&self, i: usize) -> PacketRecord {
        PacketRecord {
            ts_ms: self.ts_ms[i],
            src: self.src[i],
            dst: self.dst[i],
            proto: self.proto[i],
            sport: self.sport[i],
            dport: self.dport[i],
            len: self.len[i],
        }
    }

    /// How many records row `i` stands for.
    #[inline]
    pub fn count(&self, i: usize) -> u32 {
        self.counts.get(i).copied().unwrap_or(1)
    }

    /// Iterates the records in order (reassembled on the fly), every copy
    /// of a counted row in turn.
    pub fn iter(&self) -> impl Iterator<Item = PacketRecord> + '_ {
        (0..self.rows()).flat_map(|i| std::iter::repeat_n(self.get(i), self.count(i) as usize))
    }

    /// The timestamp column.
    pub fn ts_ms(&self) -> &[u64] {
        &self.ts_ms
    }

    /// The source-address column.
    pub fn src(&self) -> &[u128] {
        &self.src
    }

    /// The destination-address column.
    pub fn dst(&self) -> &[u128] {
        &self.dst
    }

    /// The transport-protocol column.
    pub fn proto(&self) -> &[Transport] {
        &self.proto
    }

    /// The destination-port column.
    pub fn dport(&self) -> &[u16] {
        &self.dport
    }

    /// The copies column: one count per row, or empty when every row
    /// stands for one record.
    pub fn counts(&self) -> &[u32] {
        &self.counts
    }
}

impl FromIterator<PacketRecord> for RecordBatch {
    fn from_iter<I: IntoIterator<Item = PacketRecord>>(iter: I) -> Self {
        let iter = iter.into_iter();
        let mut b = RecordBatch::with_capacity(iter.size_hint().0);
        for r in iter {
            b.push(r);
        }
        b
    }
}

impl Extend<PacketRecord> for RecordBatch {
    fn extend<I: IntoIterator<Item = PacketRecord>>(&mut self, iter: I) {
        for r in iter {
            self.push(r);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(i: u64) -> PacketRecord {
        PacketRecord::tcp(
            i,
            0x2001 + u128::from(i),
            0xdd00 + u128::from(i),
            4000,
            22,
            60,
        )
    }

    #[test]
    fn push_get_roundtrips() {
        let mut b = RecordBatch::new();
        for i in 0..10 {
            b.push(rec(i));
        }
        assert_eq!(b.len(), 10);
        for i in 0..10 {
            assert_eq!(b.get(i as usize), rec(i));
        }
    }

    #[test]
    fn clear_keeps_capacity() {
        let mut b = RecordBatch::with_capacity(64);
        for i in 0..64 {
            b.push(rec(i));
        }
        b.clear();
        assert!(b.is_empty());
        assert!(b.ts_ms.capacity() >= 64);
    }

    #[test]
    fn iter_and_from_iterator_match() {
        let recs: Vec<PacketRecord> = (0..20).map(rec).collect();
        let b: RecordBatch = recs.iter().copied().collect();
        let back: Vec<PacketRecord> = b.iter().collect();
        assert_eq!(back, recs);
    }

    #[test]
    fn extend_from_batch_appends_all_rows() {
        let a: RecordBatch = (0..5).map(rec).collect();
        let b: RecordBatch = (5..9).map(rec).collect();
        let mut out = RecordBatch::new();
        out.extend_from_batch(&a);
        out.extend_from_batch(&b);
        let back: Vec<PacketRecord> = out.iter().collect();
        let want: Vec<PacketRecord> = (0..9).map(rec).collect();
        assert_eq!(back, want);
    }

    #[test]
    fn push_n_and_extend_from_range_equal_row_by_row_pushes() {
        let src: RecordBatch = (0..9).map(rec).collect();
        let mut out = RecordBatch::new();
        let mut want = Vec::new();
        for (i, n) in [(0usize, 0usize), (3, 1), (5, 4)] {
            out.push_n(src.get(i), n);
            want.extend(std::iter::repeat_n(src.get(i), n));
        }
        for rows in [0..0, 2..3, 4..9] {
            out.extend_from_range(&src, rows.clone());
            want.extend(rows.map(|i| src.get(i)));
        }
        assert_eq!(out.iter().collect::<Vec<_>>(), want);
    }

    #[test]
    fn len_and_iter_count_records_rows_and_get_count_rows() {
        let mut b = RecordBatch::new();
        b.push(rec(0));
        b.push_n(rec(1), 5);
        b.push(rec(2));
        assert_eq!((b.len(), b.rows(), b.is_empty()), (7, 3, false));
        assert_eq!(b.counts(), &[1, 5, 1]);
        assert_eq!((b.get(1), b.count(1)), (rec(1), 5));
        let mut want = vec![rec(0)];
        want.extend([rec(1); 5]);
        want.push(rec(2));
        assert_eq!(b.iter().collect::<Vec<_>>(), want);
        assert_eq!(b.ts_ms(), &[0, 1, 2], "column slices are per row");
        b.clear();
        assert_eq!((b.len(), b.rows(), b.counts().len()), (0, 0, 0));
    }

    #[test]
    fn a_run_past_u32_max_splits_into_rows_that_sum_back() {
        let n = u32::MAX as usize + 7;
        let mut b = RecordBatch::new();
        b.push_n(rec(3), n);
        assert_eq!((b.len(), b.rows()), (n, 2));
        assert_eq!(b.counts(), &[u32::MAX, 7]);
        assert_eq!((b.get(0), b.get(1)), (rec(3), rec(3)));
        let mut twice = RecordBatch::new();
        twice.extend_from_batch(&b);
        twice.extend_from_range(&b, 0..2);
        assert_eq!(twice.len() as u64, 2 * (u64::from(u32::MAX) + 7));
    }

    #[test]
    fn extend_from_range_and_batch_carry_counts() {
        let mut src = RecordBatch::new();
        for (i, n) in [(0, 3), (1, 1), (2, 4)] {
            src.push_n(rec(i), n);
        }
        // Into a batch that had no counts yet: its rows get their ones.
        let mut out: RecordBatch = [rec(8), rec(9)].into_iter().collect();
        out.extend_from_range(&src, 1..3);
        out.extend_from_batch(&src);
        out.push(rec(7));
        assert_eq!(out.counts(), &[1, 1, 1, 4, 3, 1, 4, 1]);
        assert_eq!((out.len(), out.rows()), (16, 8));
        assert_eq!(out.get(4), rec(0));
        // And from a count-less batch into a counted one.
        let plain: RecordBatch = (0..3).map(rec).collect();
        src.extend_from_range(&plain, 0..2);
        assert_eq!(src.counts(), &[3, 1, 4, 1, 1]);
        assert_eq!(src.len(), 10);
    }

    #[test]
    fn batches_of_single_records_never_grow_a_counts_column() {
        let recs: Vec<PacketRecord> = (0..6).map(rec).collect();
        let collected: RecordBatch = recs.iter().copied().collect();
        let mut built = RecordBatch::new();
        built.push(recs[0]);
        built.push_n(recs[1], 1);
        built.push_n(recs[1], 0);
        built.extend_from_range(&collected, 2..4);
        built.extend_from_batch(&collected.iter().skip(4).collect());
        assert!(built.counts().is_empty());
        assert_eq!((built.len(), built.rows()), (6, 6));
        assert_eq!(built, collected);
    }

    #[test]
    fn equality_is_physical_iter_is_logical() {
        let mut counted = RecordBatch::new();
        counted.push_n(rec(0), 2);
        let expanded: RecordBatch = [rec(0), rec(0)].into_iter().collect();
        assert_ne!(counted, expanded);
        assert!(counted.iter().eq(expanded.iter()));
        assert_eq!(counted, counted.clone());
    }

    #[test]
    fn columns_expose_soa_view() {
        let mut b = RecordBatch::new();
        b.extend((0..5).map(rec));
        assert_eq!(b.ts_ms(), &[0, 1, 2, 3, 4]);
        assert_eq!(b.src()[3], 0x2001 + 3);
        assert_eq!(b.dst()[4], 0xdd00 + 4);
        assert_eq!(b.proto()[1], Transport::Tcp);
        assert_eq!(b.dport(), &[22; 5]);
    }
}
