//! Shared column kernels for the batched detection paths.
//!
//! Every level of the grouped path
//! ([`MultiLevelDetector::observe_batch`](crate::multi::MultiLevelDetector::observe_batch))
//! starts from questions about whole columns of a [`RecordBatch`] — *which
//! records repeat their predecessor?* ([`run_index`], once per batch) —
//! answered here in one tight pass per batch, not row by row behind a
//! `PacketRecord` gather. The kernels write into caller-owned scratch
//! vectors that are cleared and refilled, never reallocated in steady state.

use lumen6_trace::RecordBatch;

/// The network mask for a prefix length: the top `len` bits set.
/// Semantics match `Ipv6Prefix::new` (len 0 masks everything away, lengths
/// above 128 clamp to a full /128 mask).
#[inline]
#[must_use]
pub fn level_mask(len: u8) -> u128 {
    if len == 0 {
        0
    } else if len >= 128 {
        u128::MAX
    } else {
        !(u128::MAX >> len)
    }
}

/// Cuts a batch into *runs* — maximal stretches of adjacent records equal
/// in the five columns the run state reads (`sport` and `len` never are) —
/// as `(first row, records)`, the unit every level's grouping pass steps by.
/// A counted row is a run by construction, so the compare is paid per row,
/// never per copy; a row that repeats its predecessor (a count-less batch of
/// duplicates, a run a lane cut in two) folds into its run while the sum
/// fits. The whole source address is compared, so one pass serves every
/// level. `out` is cleared first.
pub fn run_index(batch: &RecordBatch, out: &mut Vec<(u32, u32)>) {
    let (ts, src, dst) = (batch.ts_ms(), batch.src(), batch.dst());
    let (proto, dport) = (batch.proto(), batch.dport());
    out.clear();
    for i in 0..batch.rows() {
        let count = batch.count(i);
        if let (Some(p), Some(run)) = (i.checked_sub(1), out.last_mut()) {
            // Destination first: it is what a scanner varies.
            let repeats = dst[i] == dst[p]
                && ts[i] == ts[p]
                && src[i] == src[p]
                && dport[i] == dport[p]
                && proto[i] == proto[p];
            if let (true, Some(sum)) = (repeats, run.1.checked_add(count)) {
                run.1 = sum;
                continue;
            }
        }
        out.push((i as u32, count));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lumen6_addr::Ipv6Prefix;

    #[test]
    fn level_mask_matches_prefix_new() {
        let addr: u128 = 0x2001_0db8_1234_5678_9abc_def0_1122_3344;
        for len in [0u8, 1, 32, 48, 64, 96, 127, 128] {
            assert_eq!(
                addr & level_mask(len),
                Ipv6Prefix::new(addr, len).bits(),
                "/{len}"
            );
        }
        assert_eq!(level_mask(200), u128::MAX);
    }

    #[test]
    fn run_index_folds_repeats_and_carries_counts() {
        use lumen6_trace::{PacketRecord, Transport};
        let row = |i: u64| PacketRecord::tcp(i, 1, 0xdd00 + u128::from(i), 40000, 22, 60);
        // 3 x row 0, 1 x row 1, 4 x row 2 (cut 1 + 3), then seven rows each
        // differing from its predecessor in one column: the five the run
        // state reads cut, `sport` and `len` do not.
        let edits: [fn(&mut PacketRecord); 7] = [
            |r| r.ts_ms += 1,
            |r| r.src += 1,
            |r| r.dst += 1,
            |r| r.proto = Transport::Udp,
            |r| r.dport += 1,
            |r| r.sport += 1,
            |r| r.len += 1,
        ];
        let mut counted = RecordBatch::new();
        for (i, n) in [(0, 3), (1, 1), (2, 1), (2, 3)] {
            counted.push_n(row(i), n);
        }
        let mut next = row(2);
        for edit in edits {
            edit(&mut next);
            counted.push(next);
        }
        let expanded: RecordBatch = counted.iter().collect();
        assert_eq!((counted.rows(), expanded.rows()), (11, 15));
        let (mut a, mut b) = (Vec::new(), Vec::new());
        run_index(&counted, &mut a);
        run_index(&expanded, &mut b);
        let counts = |runs: &[(u32, u32)]| runs.iter().map(|r| r.1).collect::<Vec<_>>();
        assert_eq!(counts(&a), [3, 1, 4, 1, 1, 1, 1, 3]);
        assert_eq!(counts(&a), counts(&b));
        assert_eq!(a[2].0, 2, "a run is named by its first row");
        // Counts that would overflow stay apart.
        let mut huge = RecordBatch::new();
        huge.push_n(row(0), u32::MAX as usize + 7);
        run_index(&huge, &mut a);
        assert_eq!(a, [(0, u32::MAX), (1, 7)]);
    }
}
