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
}

impl RecordBatch {
    /// An empty batch.
    pub fn new() -> Self {
        RecordBatch::default()
    }

    /// An empty batch with every column pre-sized for `n` records.
    pub fn with_capacity(n: usize) -> Self {
        RecordBatch {
            ts_ms: Vec::with_capacity(n),
            src: Vec::with_capacity(n),
            dst: Vec::with_capacity(n),
            proto: Vec::with_capacity(n),
            sport: Vec::with_capacity(n),
            dport: Vec::with_capacity(n),
            len: Vec::with_capacity(n),
        }
    }

    /// Number of records in the batch.
    pub fn len(&self) -> usize {
        self.ts_ms.len()
    }

    /// Whether the batch holds no records.
    pub fn is_empty(&self) -> bool {
        self.ts_ms.is_empty()
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
    }

    /// Appends one record.
    pub fn push(&mut self, r: PacketRecord) {
        self.ts_ms.push(r.ts_ms);
        self.src.push(r.src);
        self.dst.push(r.dst);
        self.proto.push(r.proto);
        self.sport.push(r.sport);
        self.dport.push(r.dport);
        self.len.push(r.len);
    }

    /// Appends `n` copies of one record — a run of adjacent identical rows
    /// (intensity repeats of one probe) expanded in one fill per column.
    pub fn push_n(&mut self, r: PacketRecord, n: usize) {
        let to = self.len() + n;
        self.ts_ms.resize(to, r.ts_ms);
        self.src.resize(to, r.src);
        self.dst.resize(to, r.dst);
        self.proto.resize(to, r.proto);
        self.sport.resize(to, r.sport);
        self.dport.resize(to, r.dport);
        self.len.resize(to, r.len);
    }

    /// Appends every record of `other` — the fast path of the sharded
    /// router when an entire input batch routes to one shard
    /// (run-clustered traffic).
    pub fn extend_from_batch(&mut self, other: &RecordBatch) {
        self.extend_from_range(other, 0..other.len());
    }

    /// Appends rows `rows` of `other` — seven contiguous column copies.
    /// Panics if the range reaches past `other.len()`, like slice indexing.
    pub fn extend_from_range(&mut self, other: &RecordBatch, rows: std::ops::Range<usize>) {
        self.ts_ms.extend_from_slice(&other.ts_ms[rows.clone()]);
        self.src.extend_from_slice(&other.src[rows.clone()]);
        self.dst.extend_from_slice(&other.dst[rows.clone()]);
        self.proto.extend_from_slice(&other.proto[rows.clone()]);
        self.sport.extend_from_slice(&other.sport[rows.clone()]);
        self.dport.extend_from_slice(&other.dport[rows.clone()]);
        self.len.extend_from_slice(&other.len[rows]);
    }

    /// Appends the rows of `other` selected by `idxs`, one column at a
    /// time — the scatter primitive of the sharded router, which partitions
    /// one decoded batch into per-shard sub-batches. Gathering per column
    /// keeps every write contiguous (and no `PacketRecord` is materialized
    /// in between). Panics if any index is `>= other.len()`, like slice
    /// indexing.
    pub fn extend_from_indices(&mut self, other: &RecordBatch, idxs: &[u32]) {
        self.ts_ms
            .extend(idxs.iter().map(|&i| other.ts_ms[i as usize]));
        self.src.extend(idxs.iter().map(|&i| other.src[i as usize]));
        self.dst.extend(idxs.iter().map(|&i| other.dst[i as usize]));
        self.proto
            .extend(idxs.iter().map(|&i| other.proto[i as usize]));
        self.sport
            .extend(idxs.iter().map(|&i| other.sport[i as usize]));
        self.dport
            .extend(idxs.iter().map(|&i| other.dport[i as usize]));
        self.len.extend(idxs.iter().map(|&i| other.len[i as usize]));
    }

    /// Reassembles record `i`. Columns are `Copy`, so this is a gather of
    /// seven loads, not an allocation. Panics if `i >= len()`, like slice
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

    /// Iterates the records in order (reassembled on the fly).
    pub fn iter(&self) -> impl Iterator<Item = PacketRecord> + '_ {
        (0..self.len()).map(|i| self.get(i))
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
    fn extend_from_indices_scatters_whole_rows() {
        let recs: Vec<PacketRecord> = (0..12).map(rec).collect();
        let b: RecordBatch = recs.iter().copied().collect();
        let evens: Vec<u32> = (0..b.len() as u32).step_by(2).collect();
        let odds: Vec<u32> = (1..b.len() as u32).step_by(2).collect();
        let mut even = RecordBatch::new();
        let mut odd = RecordBatch::new();
        even.extend_from_indices(&b, &evens);
        odd.extend_from_indices(&b, &odds);
        assert_eq!(even.len() + odd.len(), b.len());
        for (k, &i) in evens.iter().enumerate() {
            assert_eq!(even.get(k), recs[i as usize]);
        }
        for (k, &i) in odds.iter().enumerate() {
            assert_eq!(odd.get(k), recs[i as usize]);
        }
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
