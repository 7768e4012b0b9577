//! Property tests for detector invariants: conservation, event separation,
//! and monotonicity in the scan-definition parameters — plus the two
//! identities the ingest design rests on: the grouped batch path equals the
//! per-record reference under any cuts, and every backend, batch size and
//! session geometry yields the same reports, states and checkpoint bytes.

use lumen6_detect::detector::detect;
use lumen6_detect::{AggLevel, ScanDetectorConfig};
use lumen6_trace::{PacketRecord, Transport};
use proptest::prelude::*;
use std::collections::HashMap;

/// Generates a random but time-sorted workload with a handful of sources and
/// destinations, deltas small enough that both split and no-split cases occur.
fn arb_workload() -> impl Strategy<Value = Vec<PacketRecord>> {
    proptest::collection::vec((0u64..200_000, 0u8..6, 0u16..300, 1u16..5), 1..300).prop_map(
        |steps| {
            let mut ts = 0u64;
            steps
                .into_iter()
                .map(|(dt, src, dst, port)| {
                    ts += dt;
                    PacketRecord::tcp(
                        ts,
                        (u128::from(src) << 64) | 1,
                        u128::from(dst),
                        40_000,
                        port,
                        60,
                    )
                })
                .collect()
        },
    )
}

/// [`arb_workload`] in the shape `--intensity` and the duplicate artifacts
/// give real input: every drawn row arrives as 1–6 adjacent copies, and
/// about half are followed by a near-duplicate that differs from them in
/// exactly one of the seven columns. The batch path accounts adjacent rows
/// that agree in the five columns the run state reads as one run, so each
/// of those five must break a run, and `sport`/`len` must not matter.
fn arb_workload_with_runs() -> impl Strategy<Value = Vec<PacketRecord>> {
    proptest::collection::vec(
        (
            (0u64..200_000, 0u8..6, 0u16..300, 1u16..5),
            1usize..=6,
            0u8..14,
        ),
        1..100,
    )
    .prop_map(|steps| {
        let mut ts = 0u64;
        let mut out = Vec::new();
        for ((dt, src, dst, port), copies, differs_in) in steps {
            ts += dt;
            let row = PacketRecord::tcp(
                ts,
                (u128::from(src) << 64) | 1,
                u128::from(dst),
                40_000,
                port,
                60,
            );
            out.extend(std::iter::repeat_n(row, copies));
            let mut twin = row;
            match differs_in {
                1 => {
                    ts += 1;
                    twin.ts_ms = ts;
                }
                // Another /128 of the same /64: a memo hit at every level
                // but /128.
                2 => twin.src ^= 2,
                3 => twin.dst ^= 1 << 20,
                4 => twin.proto = Transport::Udp,
                5 => twin.dport += 1_000,
                6 => twin.sport += 1,
                7 => twin.len += 1,
                _ => continue,
            }
            out.push(twin);
        }
        out
    })
}

/// `recs` as a counted batch: each stretch of adjacent identical records is
/// one row with its length as the count — how a fused source fills.
fn counted(recs: &[PacketRecord]) -> lumen6_trace::RecordBatch {
    let mut batch = lumen6_trace::RecordBatch::new();
    for run in recs.chunk_by(|a, b| a == b) {
        batch.push_n(run[0], run.len());
    }
    batch
}

fn cfg(min_dsts: u64, timeout_ms: u64) -> ScanDetectorConfig {
    ScanDetectorConfig {
        agg: AggLevel::L64,
        min_dsts,
        timeout_ms,
        keep_dsts: true,
        sketch: None,
    }
}

/// Interleaves records one-per-source while preserving each source's own
/// order — consecutive rows almost always belong to *different* sources,
/// defeating the grouped path's last-source memo.
fn round_robin_by_source(recs: &[PacketRecord]) -> Vec<PacketRecord> {
    let mut groups: Vec<(u128, std::collections::VecDeque<PacketRecord>)> = Vec::new();
    for r in recs {
        match groups.iter_mut().find(|(s, _)| *s == r.src) {
            Some((_, g)) => g.push_back(*r),
            None => groups.push((r.src, std::iter::once(*r).collect())),
        }
    }
    let mut out = Vec::with_capacity(recs.len());
    while out.len() < recs.len() {
        for (_, g) in &mut groups {
            if let Some(r) = g.pop_front() {
                out.push(r);
            }
        }
    }
    out
}

/// The three adversarial arrival orders the backend differential tests
/// sweep. Each preserves every source's internal time order (what
/// detection state depends on) while stressing a different grouping shape.
fn apply_ordering(recs: &[PacketRecord], ordering: usize) -> Vec<PacketRecord> {
    match ordering {
        // Every row shares one source: one run state takes every row.
        0 => recs
            .iter()
            .map(|r| PacketRecord {
                src: recs[0].src,
                ..*r
            })
            .collect(),
        // Round-robin across sources: worst case for the routing memo.
        1 => round_robin_by_source(recs),
        // Stable-sorted by source: the stream arrives source-clustered, in
        // long same-source stretches that batches cut anywhere.
        _ => {
            let mut v = recs.to_vec();
            v.sort_by_key(|r| r.src);
            v
        }
    }
}

/// Six sources in six /64s each scan six destinations, fall silent for
/// longer than the 20 s timeout the checkpoint tests run under, and then
/// send one more packet — in the *reverse* of the order they started in. By
/// the last record every level has closed six scans mid-stream, in closing
/// order (5 … 0), which the canonical `(start_ms, source)` order is not.
fn closed_scans_preamble() -> Vec<PacketRecord> {
    let src = |k: u64| (u128::from(100 + k) << 64) | 1;
    let mut recs = Vec::new();
    for i in 0..6u64 {
        for k in 0..6u64 {
            let dst = 1_000 + u128::from(i);
            recs.push(PacketRecord::tcp(
                i * 100 + k * 10,
                src(k),
                dst,
                40_000,
                7,
                60,
            ));
        }
    }
    for k in (0..6u64).rev() {
        recs.push(PacketRecord::tcp(
            30_000 + (5 - k),
            src(k),
            2_000,
            40_000,
            7,
            60,
        ));
    }
    recs
}

/// A within-watermark shuffle of a sorted workload. Arrival order is a
/// jitter-sort: each record's sort key is its timestamp plus a jitter below
/// half the watermark, so two records only ever swap when their true
/// timestamps are within the watermark of each other.
fn jittered_arrival(recs: &[PacketRecord], seed: u64, watermark: u64) -> Vec<PacketRecord> {
    let mut arrival: Vec<(u64, usize)> = recs
        .iter()
        .enumerate()
        .map(|(i, r)| {
            // Cheap deterministic per-record jitter in [0, watermark/2).
            let h = (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ seed;
            (r.ts_ms + h % (watermark / 2).max(1), i)
        })
        .collect();
    arrival.sort_unstable();
    arrival.into_iter().map(|(_, i)| recs[i]).collect()
}

proptest! {
    /// With min_dsts = 1, every packet belongs to exactly one event.
    #[test]
    fn conservation_at_min_dsts_one(recs in arb_workload(), timeout in 1_000u64..100_000) {
        let report = detect(&recs, cfg(1, timeout));
        let total: u64 = report.events.iter().map(|e| e.packets).sum();
        prop_assert_eq!(total, recs.len() as u64);
        // Per-event port histograms also conserve packets.
        for e in &report.events {
            let by_port: u64 = e.ports.iter().map(|(_, n)| n).sum();
            prop_assert_eq!(by_port, e.packets);
        }
    }

    /// Qualifying events never contain more packets than the input, and
    /// distinct_dsts is bounded by packets.
    #[test]
    fn events_are_bounded(recs in arb_workload()) {
        let report = detect(&recs, cfg(10, 50_000));
        let total: u64 = report.events.iter().map(|e| e.packets).sum();
        prop_assert!(total <= recs.len() as u64);
        for e in &report.events {
            prop_assert!(e.distinct_dsts <= e.packets);
            prop_assert!(e.distinct_srcs <= e.packets);
            prop_assert!(e.start_ms <= e.end_ms);
            prop_assert_eq!(e.dsts.as_ref().unwrap().len() as u64, e.distinct_dsts);
        }
    }

    /// Same-source events are separated by more than the timeout.
    #[test]
    fn event_separation(recs in arb_workload(), timeout in 1_000u64..100_000) {
        let report = detect(&recs, cfg(1, timeout));
        let mut per_source: HashMap<_, Vec<(u64, u64)>> = HashMap::new();
        for e in &report.events {
            per_source.entry(e.source).or_default().push((e.start_ms, e.end_ms));
        }
        for spans in per_source.values_mut() {
            spans.sort();
            for w in spans.windows(2) {
                prop_assert!(w[1].0 > w[0].1 + timeout,
                    "events {:?} and {:?} closer than timeout {}", w[0], w[1], timeout);
            }
        }
    }

    /// Lowering min_dsts can only add scans (superset of sources).
    #[test]
    fn min_dsts_monotone(recs in arb_workload()) {
        let strict = detect(&recs, cfg(50, 50_000));
        let loose = detect(&recs, cfg(5, 50_000));
        prop_assert!(loose.scans() >= strict.scans());
        let loose_sources = loose.source_set();
        for s in strict.source_set() {
            prop_assert!(loose_sources.contains(&s));
        }
    }

    /// Raising the timeout can only merge runs: every source detected with a
    /// short timeout is detected with a longer one.
    #[test]
    fn timeout_monotone_in_sources(recs in arb_workload()) {
        let short = detect(&recs, cfg(20, 5_000));
        let long = detect(&recs, cfg(20, 500_000));
        let long_sources = long.source_set();
        for s in short.source_set() {
            prop_assert!(long_sources.contains(&s));
        }
        // Scan *events* can only shrink or stay equal in number when runs merge.
        prop_assert!(long.scans() <= short.scans() || short.scans() == 0);
    }

    /// Coarser aggregation never loses scan packets when every run
    /// qualifies (min_dsts = 1): the same packets regroup into fewer sources.
    #[test]
    fn aggregation_conserves_packets_at_min_one(recs in arb_workload()) {
        let fine = detect(&recs, ScanDetectorConfig { agg: AggLevel::L128, ..cfg(1, 50_000) });
        let coarse = detect(&recs, ScanDetectorConfig { agg: AggLevel::L48, ..cfg(1, 50_000) });
        prop_assert_eq!(fine.packets(), coarse.packets());
        prop_assert!(coarse.sources() <= fine.sources());
    }

    /// Artifact prefilter invariants: kept + removed = input, and kept
    /// packets are exactly the input minus removed-source-day packets
    /// (order preserved).
    #[test]
    fn prefilter_conserves_and_preserves_order(recs in arb_workload()) {
        use lumen6_detect::ArtifactFilter;
        let (kept, report) = ArtifactFilter::default().filter(&recs);
        prop_assert_eq!(kept.len() as u64 + report.removed_packets, recs.len() as u64);
        prop_assert_eq!(report.input_packets, recs.len() as u64);
        prop_assert!(kept.windows(2).all(|w| w[0].ts_ms <= w[1].ts_ms));
        // Removed-by-service totals match the removed packet count.
        let by_service: u64 = report.removed_by_service.iter().map(|(_, n)| n).sum();
        prop_assert_eq!(by_service, report.removed_packets);
        // Idempotence: filtering the kept stream removes nothing new
        // (sources that survived were below the duplicate fraction, and
        // removal never changes a surviving source's own packets).
        let (kept2, report2) = ArtifactFilter::default().filter(&kept);
        prop_assert_eq!(kept2.len(), kept.len());
        prop_assert_eq!(report2.removed_packets, 0);
    }

    /// The streaming detector with flush_idle produces the same qualifying
    /// events as the batch run (GC must never change results).
    #[test]
    fn flush_idle_is_transparent(recs in arb_workload()) {
        use lumen6_detect::ScanDetector;
        let config = cfg(5, 20_000);
        let batch = detect(&recs, config.clone());

        let mut det = ScanDetector::new(config);
        let mut events = Vec::new();
        for (i, r) in recs.iter().enumerate() {
            if let Some(e) = det.observe(r) {
                events.push(e);
            }
            if i % 37 == 0 {
                events.extend(det.flush_idle(r.ts_ms));
            }
        }
        events.extend(det.finish());
        events.sort_by_key(|e| (e.start_ms, e.source));
        let mut batch_events = batch.events.clone();
        batch_events.sort_by_key(|e| (e.start_ms, e.source));
        prop_assert_eq!(events, batch_events);
    }

    /// The one place two implementations of the rule remain: the grouped
    /// [`ScanDetector::observe_batch`] equals the per-record reference
    /// [`ScanDetector::observe`] — same events in the same order, same
    /// `state()`, same counters — however the stream is cut into batches
    /// (single-record batches included, and cuts inside runs of repeated
    /// rows), with destination retention and with sketched counters whose
    /// spill threshold any copy of a run may be the one to cross. `sport`
    /// and `len` are no part of any state. And a batch says the same
    /// whether its repeats arrive as rows or as one row's count: the
    /// counted spelling of every cut equals the expanded one, counters too.
    #[test]
    fn observe_batch_matches_observe_under_any_cuts(
        recs in arb_workload_with_runs(),
        cuts in proptest::collection::vec(1usize..40, 1..12),
    ) {
        use lumen6_detect::ScanDetector;
        use lumen6_trace::RecordBatch;
        for config in [
            ScanDetectorConfig { agg: AggLevel::L128, ..cfg(5, 20_000) },
            cfg(5, 20_000),
            ScanDetectorConfig { keep_dsts: false, ..cfg(5, 20_000) },
            ScanDetectorConfig { sketch: Some((16, 12).into()), ..cfg(3, 30_000) },
        ] {
            let mut reference = ScanDetector::new(config.clone());
            let mut expect = Vec::new();
            for r in &recs {
                expect.extend(reference.observe(r));
            }

            let mut blanked = ScanDetector::new(config.clone());
            let blank = |r: &PacketRecord| PacketRecord { sport: 0, len: 0, ..*r };
            blanked.observe_batch(&recs.iter().map(blank).collect());
            prop_assert_eq!(blanked.state(), reference.state());

            // Cycle through the drawn cut lengths; the first is forced to 1.
            let mut grouped = ScanDetector::new(config.clone());
            let mut by_count = ScanDetector::new(config);
            let (mut events, mut events_by_count) = (Vec::new(), Vec::new());
            let (mut at, mut k) = (0, 0);
            while at < recs.len() {
                let len = if k == 0 { 1 } else { cuts[k % cuts.len()] };
                let end = recs.len().min(at + len);
                let batch: RecordBatch = recs[at..end].iter().copied().collect();
                events.extend(grouped.observe_batch(&batch));
                events_by_count.extend(by_count.observe_batch(&counted(&recs[at..end])));
                (at, k) = (end, k + 1);
            }
            prop_assert_eq!(&events, &expect);
            prop_assert_eq!(&events_by_count, &expect);
            prop_assert_eq!(by_count.state(), reference.state());
            prop_assert_eq!(by_count.batch_stats(), grouped.batch_stats());
            prop_assert_eq!(grouped.state(), reference.state());
            prop_assert_eq!(grouped.observed(), reference.observed());
            prop_assert_eq!(grouped.runs_opened(), reference.runs_opened());
            prop_assert_eq!(grouped.finish(), reference.finish());
        }
    }

    /// A checkpoint written by a session pulling `batch` records a step is
    /// byte-identical to one written by a one-record-per-step session at
    /// the same stream position, and resuming from it reproduces the
    /// uninterrupted report exactly.
    #[test]
    fn checkpoint_resume_byte_identical_across_batch_sizes(
        recs in arb_workload(),
        batch in 2usize..300,
        every in 10u64..120,
    ) {
        use lumen6_detect::{
            Backend, CheckpointPolicy, DetectorBuilder, Session, SessionConfig, SessionOutcome,
        };
        use lumen6_trace::TraceWriter;
        use std::io::Write as _;
        use std::sync::atomic::{AtomicU64, Ordering};

        static CASE: AtomicU64 = AtomicU64::new(0);
        let id = CASE.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "lumen6-ckpt-prop-{}-{id}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("t.l6tr");
        let mut w = TraceWriter::new(std::io::BufWriter::new(
            std::fs::File::create(&trace).unwrap(),
        ))
        .unwrap();
        for r in &recs {
            w.append(r).unwrap();
        }
        w.finish().unwrap().flush().unwrap();

        let levels = [AggLevel::L128, AggLevel::L64];
        let builder = DetectorBuilder::new(cfg(5, 20_000)).levels(&levels);

        // Uninterrupted one-record-per-step reference.
        let reference = match Session::new(
            builder.clone(),
            Backend::Sequential,
            SessionConfig { batch: 1, ..Default::default() },
        )
        .run(&trace)
        .unwrap()
        {
            SessionOutcome::Finished(rep) => rep,
            SessionOutcome::Stopped { .. } => unreachable!("no checkpoint policy"),
        };

        let mut reports = Vec::new();
        let mut first_checkpoints = Vec::new();
        for b in [1usize, batch] {
            let ck = dir.join(format!("ck-{b}"));
            let stop_cfg = SessionConfig {
                checkpoint: Some(CheckpointPolicy {
                    path: ck.clone(),
                    every_records: every,
                    stop_after: Some(1),
                }),
                batch: b,
                ..Default::default()
            };
            let report = match Session::new(builder.clone(), Backend::Sequential, stop_cfg)
                .run(&trace)
                .unwrap()
            {
                SessionOutcome::Stopped { .. } => {
                    first_checkpoints.push(std::fs::read(&ck).unwrap());
                    // Resume (the checkpoint file is probed automatically).
                    let resume_cfg = SessionConfig {
                        checkpoint: Some(CheckpointPolicy {
                            path: ck,
                            every_records: every,
                            stop_after: None,
                        }),
                        batch: b,
                        ..Default::default()
                    };
                    match Session::new(builder.clone(), Backend::Sequential, resume_cfg)
                        .run(&trace)
                        .unwrap()
                    {
                        SessionOutcome::Finished(rep) => rep,
                        SessionOutcome::Stopped { .. } => unreachable!("no stop_after"),
                    }
                }
                // Stream shorter than one checkpoint interval.
                SessionOutcome::Finished(rep) => rep,
            };
            reports.push(report);
        }
        if first_checkpoints.len() == 2 {
            prop_assert_eq!(
                &first_checkpoints[0],
                &first_checkpoints[1],
                "checkpoint differs from the one-record-per-step checkpoint"
            );
        }
        prop_assert_eq!(&reports[0], &reports[1]);
        prop_assert_eq!(&reports[0].reports, &reference.reports);
        prop_assert_eq!(reports[0].records, reference.records);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Out-of-order tolerance: a session with a watermark, fed any
    /// within-watermark shuffle of a workload, yields exactly the
    /// sorted-stream report, with nothing dropped.
    #[test]
    fn reorder_buffer_recovers_sorted_report(
        recs in arb_workload(),
        jitter_seed in 0u64..1_000_000,
        watermark in 1_000u64..50_000,
    ) {
        use lumen6_detect::{Backend, DetectorBuilder, Session, SessionConfig, SessionOutcome};
        use lumen6_trace::MaterializedSource;
        let config = cfg(5, 20_000);
        let sorted_report = detect(&recs, config.clone());

        let mut src = MaterializedSource::new(jittered_arrival(&recs, jitter_seed, watermark));
        let outcome = Session::new(
            DetectorBuilder::new(config),
            Backend::Sequential,
            SessionConfig { watermark_ms: watermark, batch: 64, ..Default::default() },
        )
        .run_source(&mut src)
        .unwrap();
        let SessionOutcome::Finished(rep) = outcome else {
            unreachable!("no checkpoint policy")
        };
        prop_assert_eq!(rep.late_dropped, 0);
        prop_assert_eq!(&rep.reports[&AggLevel::L64].events, &sorted_report.events);
    }
}

// The grid tests below sweep 16 backend×batch×feed combinations (and a
// three-session checkpoint round-trip) *inside* each case, so each case
// covers far more executions than a single property run suggests.
proptest! {
    /// Backend identity, as a grid over the one slice driver: sequential
    /// and threaded × batch {1,7,4096,8192}, under all three
    /// adversarial arrival orders, agree on the mid-stream state, the
    /// final state and the reports — three levels with destination
    /// retention, and one level with sketched counters — on rows that
    /// arrive as runs of repeats and near-duplicates, which the orderings
    /// keep adjacent, collapse into exact repeats or scatter — each batch
    /// fed once as rows and once with its repeats as counts. The sequential
    /// reports are in turn held to the per-record reference, level by level.
    ///
    /// States are compared raw: `state()` is canonical on every backend —
    /// `pending` events included, which the detector closes in arrival
    /// order.
    #[test]
    fn backend_grid_matches_sequential(
        recs in arb_workload_with_runs(),
        ordering in 0usize..3,
    ) {
        use lumen6_detect::{observe_slice, Backend, DetectorBuilder, Detect};

        // `observe_slice` with each batch's repeats folded into counts.
        fn observe_counted(det: &mut dyn Detect, recs: &[PacketRecord], batch: usize) {
            recs.chunks(batch).for_each(|part| det.observe_batch(&counted(part)));
        }
        let recs = apply_ordering(&recs, ordering);
        let half = recs.len() / 2;
        let paper = [AggLevel::L128, AggLevel::L64, AggLevel::L48];
        let sketched = ScanDetectorConfig { sketch: Some((16, 12).into()), ..cfg(3, 30_000) };
        for (base, levels) in [(cfg(3, 20_000), &paper[..]), (sketched, &[AggLevel::L64][..])] {
            let builder = DetectorBuilder::new(base.clone()).levels(levels);
            let mut expect = None;
            for backend in [Backend::Sequential, Backend::Threaded] {
                type Feed = fn(&mut dyn Detect, &[PacketRecord], usize);
                let feeds: [Feed; 2] = [observe_slice, observe_counted];
                for (batch, observe) in [1usize, 7, 4096, 8192]
                    .into_iter()
                    .flat_map(|b| feeds.map(|f| (b, f)))
                {
                    let mut det = builder.build(backend);
                    observe(det.as_mut(), &recs[..half], batch);
                    let mid = det.state();
                    observe(det.as_mut(), &recs[half..], batch);
                    prop_assert_eq!(det.observed(), recs.len() as u64, "{:?}", backend);
                    let got = (mid, det.state(), det.finish());
                    let expect = expect.get_or_insert_with(|| got.clone());
                    prop_assert_eq!(
                        &got, expect,
                        "diverged: {:?} batch={} ordering={}", backend, batch, ordering
                    );
                }
            }
            let (.., reports) = expect.expect("the grid ran");
            for &lvl in levels {
                let reference = detect(&recs, ScanDetectorConfig { agg: lvl, ..base.clone() });
                prop_assert_eq!(&reports[&lvl], &reference, "level {}", lvl);
            }
        }
    }

    /// What a session writes does not depend on how it cuts the stream:
    /// pulling `batch` records a step — with or without a watermark (and
    /// arrival disorder within it) and an idle-flush cadence, on either
    /// backend — yields the report and every checkpoint file, byte for
    /// byte, of a one-record-per-step session.
    #[test]
    fn session_batch_geometry_is_invisible(
        recs in arb_workload(),
        batch in 2usize..300,
        every in 10u64..120,
        flush_idle_every_ms in prop_oneof![Just(0u64), 1_000u64..400_000],
        watermark_ms in prop_oneof![Just(0u64), 1_000u64..50_000],
        threaded in any::<bool>(),
    ) {
        use lumen6_detect::{
            Backend, CheckpointPolicy, DetectorBuilder, Session, SessionConfig, Step,
        };
        use lumen6_trace::MaterializedSource;
        use std::sync::atomic::{AtomicU64, Ordering};

        static CASE: AtomicU64 = AtomicU64::new(0);
        let id = CASE.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "lumen6-geom-prop-{}-{id}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let builder = DetectorBuilder::new(cfg(5, 20_000)).levels(&[AggLevel::L128, AggLevel::L64]);
        let recs = match watermark_ms {
            0 => recs,
            w => jittered_arrival(&recs, every, w),
        };
        let backend = if threaded { Backend::Threaded } else { Backend::Sequential };

        let mut runs = Vec::new();
        for b in [1usize, batch] {
            let path = dir.join(format!("ck-{b}"));
            let mut session = Session::new(builder.clone(), backend, SessionConfig {
                watermark_ms,
                checkpoint: Some(CheckpointPolicy {
                    path: path.clone(),
                    every_records: every,
                    stop_after: None,
                }),
                flush_idle_every_ms,
                batch: b,
                ..Default::default()
            });
            let mut src = MaterializedSource::new(recs.clone());
            let mut files = Vec::new();
            let report = loop {
                match session.step(&mut src).unwrap() {
                    Step::Ingested(_) if session.records_done().is_multiple_of(every) => {
                        files.push(std::fs::read(&path).unwrap());
                    }
                    Step::Ingested(_) | Step::Pending => {}
                    Step::Finished(report) => break report,
                    Step::Stopped { .. } => unreachable!("no stop_after"),
                }
            };
            runs.push((report, files));
        }
        prop_assert_eq!(runs[1].1.len() as u64, recs.len() as u64 / every);
        prop_assert_eq!(&runs[1], &runs[0]);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A checkpoint written by a threaded session is byte-identical to one
    /// written by a sequential session at the same stream position — under
    /// any pull size and adversarial arrival order — and resuming the
    /// threaded session reproduces the uninterrupted sequential report
    /// exactly.
    ///
    /// Every workload opens with [`closed_scans_preamble`], so at the cut
    /// each level holds six closed, unreported events, closed in the
    /// reverse of their canonical order: the case the byte equality used
    /// to fail on, which a random workload almost never draws.
    #[test]
    fn threaded_checkpoint_bytes_match_sequential(
        recs in arb_workload(),
        batch_ix in 0usize..4,
        ordering in 0usize..3,
        every in 10u64..120,
    ) {
        use lumen6_detect::{
            Backend, CheckpointPolicy, DetectorBuilder, Session, SessionConfig, SessionOutcome,
        };
        use lumen6_trace::TraceWriter;
        use std::io::Write as _;
        use std::sync::atomic::{AtomicU64, Ordering};

        static CASE: AtomicU64 = AtomicU64::new(0);
        let id = CASE.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "lumen6-shck-prop-{}-{id}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let batch = [1usize, 7, 4096, 8192][batch_ix];
        // The trace codec delta-encodes timestamps, so a session's input is
        // necessarily time-sorted: keep the adversarial *source* arrival
        // order but reassign the workload's own timestamps in sorted order.
        let mut recs = apply_ordering(&recs, ordering);
        let mut ts: Vec<u64> = recs.iter().map(|r| r.ts_ms).collect();
        ts.sort_unstable();
        for (r, t) in recs.iter_mut().zip(ts) {
            r.ts_ms = t;
        }
        let preamble = closed_scans_preamble();
        let tail_from = preamble.last().map_or(0, |r| r.ts_ms);
        let recs: Vec<PacketRecord> = preamble
            .iter()
            .copied()
            .chain(recs.into_iter().map(|r| PacketRecord { ts_ms: tail_from + r.ts_ms, ..r }))
            .collect();
        // The first checkpoint boundary at or past the end of the preamble.
        let cut_after = (preamble.len() as u64).div_ceil(every);
        let trace = dir.join("t.l6tr");
        let mut w = TraceWriter::new(std::io::BufWriter::new(
            std::fs::File::create(&trace).unwrap(),
        ))
        .unwrap();
        for r in &recs {
            w.append(r).unwrap();
        }
        w.finish().unwrap().flush().unwrap();

        let levels = [AggLevel::L128, AggLevel::L64];
        let builder = DetectorBuilder::new(cfg(5, 20_000)).levels(&levels);

        // Uninterrupted sequential reference.
        let reference = match Session::new(
            builder.clone(),
            Backend::Sequential,
            SessionConfig { batch: 1, ..Default::default() },
        )
        .run(&trace)
        .unwrap()
        {
            SessionOutcome::Finished(rep) => rep,
            SessionOutcome::Stopped { .. } => unreachable!("no checkpoint policy"),
        };

        let mut checkpoints = Vec::new();
        let mut reports = Vec::new();
        for (backend, b) in [
            (Backend::Sequential, 1usize),
            (Backend::Threaded, batch),
        ] {
            let ck = dir.join(format!("ck-{b}-{}", checkpoints.len()));
            let stop_cfg = SessionConfig {
                checkpoint: Some(CheckpointPolicy {
                    path: ck.clone(),
                    every_records: every,
                    stop_after: Some(cut_after),
                }),
                batch: b,
                ..Default::default()
            };
            let report = match Session::new(builder.clone(), backend, stop_cfg)
                .run(&trace)
                .unwrap()
            {
                SessionOutcome::Stopped { .. } => {
                    let cut = lumen6_detect::Checkpoint::load(&ck).unwrap();
                    for level in &cut.detector.levels {
                        prop_assert!(level.pending.len() >= 6, "the preamble's events are pending");
                    }
                    checkpoints.push(std::fs::read(&ck).unwrap());
                    let resume_cfg = SessionConfig {
                        checkpoint: Some(CheckpointPolicy {
                            path: ck,
                            every_records: every,
                            stop_after: None,
                        }),
                        batch: b,
                        ..Default::default()
                    };
                    match Session::new(builder.clone(), backend, resume_cfg)
                        .run(&trace)
                        .unwrap()
                    {
                        SessionOutcome::Finished(rep) => rep,
                        SessionOutcome::Stopped { .. } => unreachable!("no stop_after"),
                    }
                }
                // Stream shorter than one checkpoint interval.
                SessionOutcome::Finished(rep) => rep,
            };
            reports.push(report);
        }
        if checkpoints.len() == 2 {
            prop_assert_eq!(
                &checkpoints[0],
                &checkpoints[1],
                "threaded checkpoint bytes differ from sequential \
                 (batch={} ordering={})",
                batch, ordering
            );
        }
        prop_assert_eq!(&reports[0].reports, &reference.reports);
        prop_assert_eq!(&reports[1].reports, &reference.reports);
        prop_assert_eq!(reports[1].records, reference.records);
        std::fs::remove_dir_all(&dir).ok();
    }
}
