//! The scan rule of the paper's §2.2, stated a second time and on its own,
//! for the tests to hold the detector to.
//!
//! A scan is a run of packets from one aggregated source in which no packet
//! comes more than the timeout after the source's latest packet so far, and
//! which reaches at least `min_dsts` distinct destinations. The edge rules
//! are the ones `detector.rs` documents:
//!
//! - a run splits when the gap to the source's latest timestamp is greater
//!   than `timeout_ms`; the gap saturates, so a late packet counts as gap 0
//!   and neither splits the run nor moves its start back;
//! - a run qualifies at `distinct ≥ min_dsts`;
//! - a row of count `n` weighs as `n` packets.
//!
//! Nothing here shares code with the detector: sources are cut with
//! `Ipv6Prefix::new`, and runs are kept in std `BTree*` collections. Only
//! the public data types cross over. Exact counting only: a sketched
//! configuration has no exact answer to compare with.
//!
//! Defined once: `crates/detect/tests/{proptests,session}.rs` declare it as
//! a module and the workspace root's `tests/ingest.rs` includes the same
//! file.

use lumen6_addr::Ipv6Prefix;
use lumen6_detect::{ScanDetectorConfig, ScanEvent, ScanReport};
use lumen6_trace::{PacketRecord, Transport};
use std::collections::{BTreeMap, BTreeSet};

/// One source's open run.
struct Run {
    start_ms: u64,
    last_ms: u64,
    packets: u64,
    dsts: BTreeSet<u128>,
    srcs: BTreeSet<u128>,
    ports: BTreeMap<(Transport, u16), u64>,
}

/// The report of `rows`, counted rows in arrival order, under the exact
/// configuration `config`: every qualifying run, ordered by (start time,
/// source).
pub fn scans(
    rows: impl IntoIterator<Item = (PacketRecord, u64)>,
    config: &ScanDetectorConfig,
) -> ScanReport {
    assert!(config.sketch.is_none(), "the oracle counts exactly");
    let len = config.agg.len();
    let mut open: BTreeMap<Ipv6Prefix, Run> = BTreeMap::new();
    let mut events = Vec::new();
    for (r, n) in rows {
        let source = Ipv6Prefix::new(r.src, len);
        let split = open
            .get(&source)
            .is_some_and(|run| r.ts_ms.saturating_sub(run.last_ms) > config.timeout_ms);
        if split {
            let run = open.remove(&source).expect("checked above");
            events.extend(close(source, run, config));
        }
        let run = open.entry(source).or_insert_with(|| Run {
            start_ms: r.ts_ms,
            last_ms: r.ts_ms,
            packets: 0,
            dsts: BTreeSet::new(),
            srcs: BTreeSet::new(),
            ports: BTreeMap::new(),
        });
        run.last_ms = run.last_ms.max(r.ts_ms);
        run.packets += n;
        run.dsts.insert(r.dst);
        run.srcs.insert(r.src);
        *run.ports.entry((r.proto, r.dport)).or_insert(0) += n;
    }
    events.extend(
        open.into_iter()
            .filter_map(|(source, run)| close(source, run, config)),
    );
    events.sort_by_key(|e| (e.start_ms, e.source));
    ScanReport::new(events)
}

/// The event of a closed run, if it qualifies.
fn close(source: Ipv6Prefix, run: Run, config: &ScanDetectorConfig) -> Option<ScanEvent> {
    let distinct = run.dsts.len() as u64;
    (distinct >= config.min_dsts).then(|| ScanEvent {
        source,
        agg: config.agg,
        start_ms: run.start_ms,
        end_ms: run.last_ms,
        packets: run.packets,
        distinct_dsts: distinct,
        distinct_srcs: run.srcs.len() as u64,
        ports: run.ports.into_iter().collect(),
        dsts: config.keep_dsts.then(|| run.dsts.into_iter().collect()),
    })
}
