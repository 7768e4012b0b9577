//! End-to-end check of `lumen6 detect --metrics-out`: runs the real binary
//! in a subprocess (so the process-global metrics registry holds exactly one
//! command's worth of data) and validates the emitted snapshot.

use lumen6_obs::MetricsSnapshot;
use std::path::PathBuf;
use std::process::Command;

fn lumen6(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_lumen6"))
        .args(args)
        .output()
        .expect("spawn lumen6")
}

fn stdout_of(out: &std::process::Output) -> String {
    assert!(
        out.status.success(),
        "lumen6 failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout.clone()).unwrap()
}

#[test]
fn metrics_out_accounts_for_every_record() {
    let dir = std::env::temp_dir().join(format!("lumen6-metrics-e2e-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace: PathBuf = dir.join("t.l6tr");
    let metrics: PathBuf = dir.join("m.json");
    let t = trace.to_str().unwrap();

    stdout_of(&lumen6(&[
        "generate", "cdn", "--out", t, "--days", "5", "--seed", "3", "--small",
    ]));

    // Ground truth: the trace's own record count.
    let info = stdout_of(&lumen6(&["info", "--trace", t]));
    let records: u64 = info
        .lines()
        .find_map(|l| l.strip_prefix("records:"))
        .expect("info prints record count")
        .trim()
        .parse()
        .unwrap();
    assert!(records > 0);

    // The default backend: the detector on its worker thread.
    let detect_out = stdout_of(&lumen6(&[
        "detect",
        "--trace",
        t,
        "--min-dsts",
        "50",
        "--metrics-out",
        metrics.to_str().unwrap(),
    ]));
    assert!(detect_out.contains("metrics ->"), "{detect_out}");
    assert!(
        detect_out.contains("detect.parallel.batches_sent"),
        "{detect_out}"
    );

    let json = std::fs::read_to_string(&metrics).unwrap();
    let snap: MetricsSnapshot = serde_json::from_str(&json).expect("metrics JSON parses");

    let problems = lumen6_obs::validate(&snap);
    assert!(problems.is_empty(), "invalid snapshot: {problems:?}");

    // The codec decoded every record of the trace, without errors, and
    // the session read every one from its source: the accounting
    // `check_metrics --expect-records` holds on any backend.
    assert_eq!(snap.counters["trace.codec.records_decoded"], records);
    assert_eq!(snap.counter_sum("trace.codec.errors.", ""), 0);
    assert_eq!(snap.counters["source.records"], records);
    assert!(snap.counters["detect.parallel.batches_sent"] > 0);

    std::fs::remove_dir_all(&dir).ok();
}

/// `info` reads a trace a batch at a time and counts every copy of a
/// counted row: the committed version 1 trace, written again as version 2
/// once as it is and once with every record four times, prints the same
/// lines but `format:` and `rows:` — the 4x stream's counts four times
/// over. A generated 4x trace is a quarter of its records in rows, and the
/// codec counts the rows it decodes.
#[test]
fn a_4x_trace_is_a_quarter_of_its_records_in_rows() {
    let dir = std::env::temp_dir().join(format!("lumen6-metrics-rows-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let v1 = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/data/compat.l6tr");
    let mut reader =
        lumen6_trace::StreamingTraceReader::new(std::fs::File::open(&v1).unwrap()).unwrap();
    let (mut batch, mut stream) = (lumen6_trace::RecordBatch::new(), Vec::new());
    while reader.fill(&mut batch, 4096).unwrap() > 0 {
        stream.extend(batch.iter());
    }
    let rewrite = |name: &str, copies: u32| {
        let path = dir.join(name);
        let mut w = lumen6_trace::TraceWriter::new(std::fs::File::create(&path).unwrap()).unwrap();
        for r in &stream {
            w.append_n(r, copies).unwrap();
        }
        w.finish().unwrap();
        path
    };
    let (v2, v2x4) = (rewrite("v2.l6tr", 1), rewrite("v2x4.l6tr", 4));

    let info = |path: &PathBuf| stdout_of(&lumen6(&["info", "--trace", path.to_str().unwrap()]));
    let field = |info: &str, name: &str| -> u64 {
        let line = info.lines().find_map(|l| l.strip_prefix(name));
        line.expect(name).trim().parse().unwrap()
    };
    // Every line but `format:` and `rows:`, with the counts (`records:`
    // and the per-protocol packets, below 10 000 here so printed whole)
    // divided by `copies`.
    let rest = |info: &str, copies: u64| -> Vec<String> {
        let per_copy = |l: &str| match l.rsplit_once(' ') {
            Some((head, n)) if l.starts_with("records:") || l.contains(" packets: ") => {
                format!("{head} {}", n.parse::<u64>().unwrap() / copies)
            }
            _ => l.to_string(),
        };
        let keep = |l: &&str| !l.starts_with("format:") && !l.starts_with("rows:");
        info.lines().filter(keep).map(per_copy).collect()
    };
    let (old, new, new_x4) = (info(&v1), info(&v2), info(&v2x4));
    assert!(old.starts_with("format:         L6TR v1\n"), "{old}");
    assert!(new.starts_with("format:         L6TR v2\n"), "{new}");
    let records = stream.len() as u64;
    assert_eq!(field(&old, "rows:"), records);
    assert_eq!(field(&new_x4, "records:"), 4 * records);
    assert_eq!(field(&new_x4, "rows:"), records, "{new_x4}");
    assert_eq!(rest(&new, 1), rest(&old, 1));
    assert_eq!(rest(&new_x4, 4), rest(&old, 1));

    let v2 = dir.join("generated.l6tr");
    stdout_of(&lumen6(&[
        "generate",
        "cdn",
        "--out",
        v2.to_str().unwrap(),
        "--days",
        "5",
        "--seed",
        "3",
        "--small",
        "--intensity",
        "4",
    ]));
    let new = info(&v2);
    let (records, rows) = (field(&new, "records:"), field(&new, "rows:"));
    assert!(records > 0 && rows * 4 == records, "{new}");

    let metrics = dir.join("m.json");
    stdout_of(&lumen6(&[
        "detect",
        "--trace",
        v2.to_str().unwrap(),
        "--metrics-out",
        metrics.to_str().unwrap(),
    ]));
    let snap: MetricsSnapshot =
        serde_json::from_str(&std::fs::read_to_string(&metrics).unwrap()).unwrap();
    assert!(lumen6_obs::validate(&snap).is_empty());
    let decoded = snap.counters["trace.codec.records_decoded"];
    let decoded_rows = snap.counters["trace.codec.rows_decoded"];
    assert_eq!((decoded, decoded_rows), (records, rows));
    assert!(decoded as f64 / decoded_rows as f64 >= 3.5);
    std::fs::remove_dir_all(&dir).ok();
}

/// `detect --tail` over a finished 1250x trace reads each byte about once,
/// as `--trace` does, and prints what `--trace` prints. A tail that re-read
/// a window of up to a batch's worst-case encoding each poll, 340 kB for
/// 4 096 records, read the file's few rows over and over.
#[test]
fn tail_reads_a_finished_counted_trace_about_once() {
    let dir = std::env::temp_dir().join(format!("lumen6-metrics-tail-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("t.l6tr");
    let (t, m) = (trace.to_str().unwrap(), dir.join("m.json"));
    stdout_of(&lumen6(&[
        "generate",
        "cdn",
        "--out",
        t,
        "--days",
        "3",
        "--seed",
        "3",
        "--small",
        "--intensity",
        "1250",
    ]));
    std::fs::write(dir.join("t.l6tr.eof"), b"").unwrap();
    let len = std::fs::metadata(&trace).unwrap().len();

    let tailed = ["detect", "--tail", t, "--metrics-out", m.to_str().unwrap()];
    stdout_of(&lumen6(&tailed));
    let snap: MetricsSnapshot =
        serde_json::from_str(&std::fs::read_to_string(&m).unwrap()).unwrap();
    let read = snap.counters.get("trace.codec.bytes_read").copied();
    assert!(
        read.is_some_and(|read| read <= 2 * len),
        "{read:?} bytes read of {len}"
    );
    assert!(snap.counters["trace.codec.records_decoded"] > 0);

    let tail = stdout_of(&lumen6(&["detect", "--tail", t, "--json"]));
    assert_eq!(
        tail,
        stdout_of(&lumen6(&["detect", "--trace", t, "--json"]))
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn threaded_output_is_byte_identical_to_sequential() {
    let dir = std::env::temp_dir().join(format!("lumen6-metrics-seq-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("t.l6tr");
    let t = trace.to_str().unwrap();
    stdout_of(&lumen6(&[
        "generate", "cdn", "--out", t, "--days", "6", "--seed", "9", "--small",
    ]));

    let seq = stdout_of(&lumen6(&[
        "detect",
        "--trace",
        t,
        "--min-dsts",
        "50",
        "--sequential",
    ]));
    let threaded = stdout_of(&lumen6(&["detect", "--trace", t, "--min-dsts", "50"]));
    assert_eq!(
        threaded, seq,
        "the default output differs from --sequential"
    );

    std::fs::remove_dir_all(&dir).ok();
}

/// Where the detector's memory is, per level, as gauges: what the last
/// checkpoint held while the run goes, what was still open when it ended —
/// the same on either backend, and a small number under the default
/// cadence where `--flush-idle-secs 0` keeps every source.
#[test]
fn detector_memory_is_published_per_level() {
    let dir = std::env::temp_dir().join(format!("lumen6-metrics-mem-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let gauges = |extra: &[&str]| {
        let metrics = dir.join("m.json");
        let mut args = vec![
            "detect", "--fused", "--small", "--days", "20", "--agg", "48",
        ];
        args.extend(["--metrics-out", metrics.to_str().unwrap()]);
        args.extend_from_slice(extra);
        stdout_of(&lumen6(&args));
        let snap: MetricsSnapshot =
            serde_json::from_str(&std::fs::read_to_string(&metrics).unwrap()).unwrap();
        assert!(lumen6_obs::validate(&snap).is_empty());
        [
            "open_runs",
            "exact_dst_entries",
            "port_entries",
            "pending_events",
        ]
        .map(|name| snap.gauges[&format!("detect.multi.l48.{name}")])
    };
    let seq = gauges(&["--sequential"]);
    assert_eq!(gauges(&[]), seq);
    let [open_runs, dsts, ports, pending] = seq;
    assert!((1..=32).contains(&open_runs), "{open_runs} open runs");
    assert!(dsts >= open_runs && ports >= open_runs && pending > 0);
    let [kept, ..] = gauges(&["--sequential", "--flush-idle-secs", "0"]);
    assert!(kept > 10 * open_runs, "{kept} open runs without retirement");
    std::fs::remove_dir_all(&dir).ok();
}

/// Where the generator's memory is: the shared target pools, the fixed
/// streams, and the process's peak. One copy of each pool keeps the
/// default fleet's pools far below a mebibyte, whatever its actor count;
/// the fixed streams are generated a day at a time, so their buffers are
/// one day's, whatever the horizon.
#[test]
fn generator_memory_is_published() {
    let dir = std::env::temp_dir().join(format!("lumen6-metrics-gen-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let snapshot = |args: &[&str]| {
        let metrics = dir.join("m.json");
        let mut args = [&["detect", "--fused", "--sequential"], args].concat();
        args.extend(["--metrics-out", metrics.to_str().unwrap()]);
        stdout_of(&lumen6(&args));
        let snap: MetricsSnapshot =
            serde_json::from_str(&std::fs::read_to_string(&metrics).unwrap()).unwrap();
        assert!(lumen6_obs::validate(&snap).is_empty());
        snap
    };
    let gauge = |snap: &MetricsSnapshot, name: &str| {
        *snap
            .gauges
            .get(name)
            .unwrap_or_else(|| panic!("{name} missing"))
    };
    let snap = snapshot(&["--days", "2"]);
    let pools = gauge(&snap, "scanners.world.target_pool_bytes");
    assert!((1..1 << 20).contains(&pools), "{pools} pool bytes");
    assert!(gauge(&snap, "cli.process.peak_rss_kib") > 0);
    // The fixed streams' day buffers at 4 and at 40 days differ by less
    // than one day's rows: a row costs at most 108 bytes across them (a
    // 16-byte row, a 32-byte flow, 60 bytes of run), so 128 bytes a row
    // bounds a day of the mean day's rows.
    let [(short, rows), (long, horizon_rows)] = [4, 40].map(|days| {
        let snap = snapshot(&["--small", "--days", &days.to_string()]);
        let rows: u64 = ["artifacts", "noise"]
            .iter()
            .map(|name| snap.counters[&format!("scanners.fleet.packets_emitted.{name}")])
            .sum();
        (gauge(&snap, "scanners.fleet.fixed_stream_bytes"), rows)
    });
    let day = 128 * rows as i64 / 4;
    assert!(
        short > 0 && short.abs_diff(long) <= day as u64,
        "fixed-stream bytes {short} at 4 days, {long} at 40: more than a day ({day} B) apart"
    );
    assert!(
        long < 16 * horizon_rows as i64 / 4,
        "{long} fixed-stream bytes hold a quarter of the horizon's {horizon_rows} rows"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn batch_beyond_u32_rows_is_a_usage_error_not_an_abort() {
    // Both used to reach `RecordBatch::with_capacity(batch)`: the first
    // aborted on a 32 GiB allocation, the second panicked on capacity
    // overflow.
    let detect = |batch: &str| {
        lumen6(&[
            "detect", "--fused", "--small", "--days", "2", "--batch", batch,
        ])
    };
    for batch in ["4294967296", "18446744073709551615"] {
        let out = detect(batch);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "--batch {batch}: {stderr}");
        assert!(
            stderr.contains("batch = ") && stderr.contains("4294967295"),
            "--batch {batch}: message must name the key and the bound: {stderr}"
        );
        assert!(
            !stderr.contains("panicked") && !stderr.contains("RUST_BACKTRACE"),
            "--batch {batch}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "--batch {batch} printed a report");
    }
    // The largest accepted value sizes nothing from configuration: the
    // whole two-day stream arrives as one batch the source's size.
    assert_eq!(stdout_of(&detect("4294967295")), stdout_of(&detect("4096")));
}

#[test]
fn fleet_json_nested_past_the_parser_limit_is_a_usage_error_not_an_abort() {
    // The JSON parser used to recurse once per `[` with no bound: this file
    // overflowed the stack (SIGABRT, exit 134).
    let dir = std::env::temp_dir().join(format!("lumen6-deep-json-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let fleet = dir.join("deep.json");
    std::fs::write(&fleet, "[".repeat(200_000)).unwrap();
    let out = lumen6(&[
        "generate",
        "custom",
        "--fleet",
        fleet.to_str().unwrap(),
        "--out",
        dir.join("x.l6tr").to_str().unwrap(),
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(
        stderr.contains("invalid fleet JSON") && stderr.contains("limit of 128"),
        "message must name the nesting limit: {stderr}"
    );
    assert!(!dir.join("x.l6tr").exists());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn hostile_fleet_definitions_are_usage_errors_that_leave_no_file() {
    use lumen6_scanners::{PortSampler, ScannerActor, Schedule, SourceSampler, TargetSampler};
    // Each used to panic inside generation (`gen_bool: p=-0.142… out of
    // [0,1]`, `gen_range: empty range`), write a 0-record file (1e30
    // sessions wrap to none), abort on allocation (1e15 sessions), or wrap
    // a timestamp past `u64`.
    let sound = || ScannerActor {
        name: "mallory".into(),
        asn: 65_001,
        sources: SourceSampler::Single(0x2001_0db8 << 96 | 1),
        targets: TargetSampler::Hitlist((1..=300u128).map(|i| i << 8).collect()),
        ports: PortSampler::Single(lumen6_trace::Transport::Tcp, 22),
        schedule: Schedule::continuous(0, 3, 400),
        probe_len: 60,
    };
    type Spoil = fn(&mut ScannerActor);
    let table: [(&str, Spoil, &str); 11] = [
        (
            "negative-rate",
            |a| a.schedule.sessions_per_week = -1.0,
            "sessions_per_week",
        ),
        (
            "uncountable-rate",
            |a| a.schedule.sessions_per_week = 1e30,
            "sessions_per_week",
        ),
        (
            "empty-hitlist",
            |a| a.targets = TargetSampler::Hitlist(Vec::new().into()),
            "targets",
        ),
        (
            "empty-pool",
            |a| {
                a.targets = TargetSampler::PairMix {
                    exposed: Vec::new().into(),
                    hidden: vec![1].into(),
                    hidden_frac: 0.5,
                }
            },
            "targets",
        ),
        (
            "improbable",
            |a| {
                a.targets = TargetSampler::PairExplore {
                    pairs: vec![(1, 2)].into(),
                    explore_prob: 2.0,
                }
            },
            "targets",
        ),
        (
            "unaffordable-rate",
            |a| a.schedule.sessions_per_week = 1e15,
            "sessions_per_week",
        ),
        (
            "empty-source-pool",
            |a| a.sources = SourceSampler::Pool(Vec::new()),
            "sources",
        ),
        (
            "empty-port-range",
            |a| a.ports = PortSampler::UniformRange(lumen6_trace::Transport::Tcp, 0),
            "ports",
        ),
        (
            "end-day-overflows-ms",
            |a| a.schedule.end_day = u64::MAX / lumen6_trace::DAY_MS + 1,
            "end_day",
        ),
        (
            "window-overflows-ms",
            |a| (a.schedule.start_day, a.schedule.end_day) = (u64::MAX - 1, u64::MAX),
            "end_day",
        ),
        (
            "endless-session",
            |a| a.schedule.session_hours = 1e300,
            "session_hours",
        ),
    ];
    let dir = std::env::temp_dir().join(format!("lumen6-hostile-fleet-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let fleet = dir.join("fleet.json");
    let trace = dir.join("x.l6tr");
    let generate = |actors: &[ScannerActor]| {
        let json = serde_json::to_string_pretty(actors).unwrap();
        std::fs::write(&fleet, json).unwrap();
        lumen6(&[
            "generate",
            "custom",
            "--fleet",
            fleet.to_str().unwrap(),
            "--out",
            trace.to_str().unwrap(),
        ])
    };
    for (case, spoil, field) in table {
        // The hostile actor is the second of two: every actor is checked
        // before anything is written.
        let mut actors = [sound(), sound()];
        spoil(&mut actors[1]);
        let out = generate(&actors);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{case}: {stderr}");
        assert!(
            stderr.contains("mallory") && stderr.contains(field),
            "{case}: message must name the actor and {field}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{case}: {stderr}");
        assert!(
            !trace.exists() && !dir.join("x.l6tr.tmp").exists(),
            "{case}: left an output file behind"
        );
    }
    // And the same fleet unspoiled generates.
    let out = generate(&[sound(), sound()]);
    assert!(stdout_of(&out).contains("wrote 2400 records"));
    std::fs::remove_dir_all(&dir).ok();
}

/// A resumed `detect --trace` run counts in `trace.codec.bytes_read` the
/// header and what it reads from its checkpoint on, not the prefix the
/// resume skipped: at most the rest of the file, one refill window over
/// and the header.
#[test]
fn a_resumed_trace_run_counts_only_the_bytes_it_reads() {
    use lumen6_detect::Checkpoint;
    let dir = std::env::temp_dir().join(format!("lumen6-metrics-resume-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (trace, ck, m) = (dir.join("t.l6tr"), dir.join("t.l6ck"), dir.join("m.json"));
    let t = trace.to_str().unwrap();
    stdout_of(&lumen6(&[
        "generate", "cdn", "--out", t, "--days", "5", "--seed", "3", "--small",
    ]));
    let run = |extra: &[&str]| {
        let mut args = vec!["detect", "--trace", t, "--checkpoint", ck.to_str().unwrap()];
        args.extend(["--checkpoint-every", "30000"]);
        args.extend_from_slice(extra);
        lumen6(&args)
    };
    assert_eq!(run(&["--stop-after", "2"]).status.code(), Some(3));
    let resumed_at = Checkpoint::load(&ck).unwrap().position.offset & ((1 << 48) - 1);
    let len = std::fs::metadata(&trace).unwrap().len();
    assert!(
        resumed_at > 64 * 1024,
        "resumed {resumed_at} bytes into {len}"
    );

    stdout_of(&run(&["--metrics-out", m.to_str().unwrap()]));
    let snap: MetricsSnapshot =
        serde_json::from_str(&std::fs::read_to_string(&m).unwrap()).unwrap();
    assert_eq!(snap.counters["detect.session.resumes"], 1);
    let read = snap.counters["trace.codec.bytes_read"];
    assert!(
        read <= len - resumed_at + 64 * 1024 + 5,
        "{read} bytes read resuming at {resumed_at} of {len}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// `generate --metrics-out` writes the run's metrics, the generator's
/// gauges among them: the MAWI fixed streams' day buffers.
#[test]
fn generate_writes_its_metrics() {
    let dir = std::env::temp_dir().join(format!("lumen6-metrics-gen-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (trace, m) = (dir.join("m.l6tr"), dir.join("m.json"));
    let out = stdout_of(&lumen6(&[
        "generate",
        "mawi",
        "--small",
        "--days",
        "2",
        "--out",
        trace.to_str().unwrap(),
        "--metrics-out",
        m.to_str().unwrap(),
    ]));
    assert!(out.contains("wrote") && out.contains("metrics ->"), "{out}");
    let snap: MetricsSnapshot =
        serde_json::from_str(&std::fs::read_to_string(&m).unwrap()).unwrap();
    assert!(lumen6_obs::validate(&snap).is_empty());
    assert!(snap.gauges["scanners.fleet.fixed_stream_bytes"] > 0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn generate_rejects_the_flags_a_vantage_does_not_read() {
    // `--intensity` was silently ignored by `generate mawi`, and
    // `--intensity`/`--days`/`--small` by `generate custom`, although USAGE
    // advertised the first for `<cdn|mawi>`.
    let dir = std::env::temp_dir().join(format!("lumen6-unread-flags-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("x.l6tr");
    let cases: [(&str, &[&str]); 4] = [
        ("mawi", &["--intensity", "2"]),
        ("custom", &["--intensity", "2"]),
        ("custom", &["--days", "3"]),
        ("custom", &["--small"]),
    ];
    for (vantage, flag) in cases {
        let mut args = vec!["generate", vantage, "--out", trace.to_str().unwrap()];
        if vantage == "custom" {
            // Which it must not get as far as opening.
            args.extend(["--fleet", "/nonexistent/fleet.json"]);
        }
        args.extend(flag);
        let out = lumen6(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{vantage} {flag:?}: {stderr}");
        assert!(
            stderr.contains(&format!("generate {vantage}")) && stderr.contains(flag[0]),
            "{vantage} {flag:?}: message must name the flag: {stderr}"
        );
        assert!(!trace.exists(), "{vantage} {flag:?}: wrote a trace");
    }
    let usage = String::from_utf8(lumen6(&["generate", "--help"]).stdout).unwrap();
    let line_of = |vantage: &str| {
        let start = usage
            .find(&format!("generate {vantage}"))
            .expect("usage entry");
        let rest = &usage[start..];
        &rest[..rest[1..]
            .find("lumen6 generate")
            .map_or(rest.len(), |i| i + 1)]
    };
    assert!(line_of("cdn").contains("--intensity"), "{usage}");
    assert!(!line_of("mawi").contains("--intensity"), "{usage}");
    assert!(!line_of("custom").contains("--days"), "{usage}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn batch_runs_counts_distinct_rows_beside_records() {
    // At 10x nine rows in ten repeat their predecessor; the detector
    // accounts each run once and says so next to the record count.
    let dir = std::env::temp_dir().join(format!("lumen6-metrics-runs-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let metrics = dir.join("m.json");
    let detect_out = stdout_of(&lumen6(&[
        "detect",
        "--fused",
        "--small",
        "--days",
        "2",
        "--intensity",
        "10",
        "--sequential",
        "--metrics-out",
        metrics.to_str().unwrap(),
    ]));
    assert!(detect_out.contains("detect.batch.runs"), "{detect_out}");
    let json = std::fs::read_to_string(&metrics).unwrap();
    let snap: MetricsSnapshot = serde_json::from_str(&json).expect("metrics JSON parses");
    let records = snap.counter_sum("detect.batch.records", "");
    let runs = snap.counter_sum("detect.batch.runs", "");
    assert_eq!(records, snap.counters["source.records"]);
    let ratio = runs as f64 / records as f64;
    assert!(
        (ratio - 0.10).abs() <= 0.01,
        "{runs} runs over {records} records = {ratio}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A checkpointed run says what its checkpoints cost — time to snapshot,
/// time to save, bytes written — and a run without checkpoints says nothing.
#[test]
fn checkpoint_cost_is_reported_per_checkpoint_and_only_then() {
    let dir = std::env::temp_dir().join(format!("lumen6-metrics-ckpt-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("t.l6tr");
    let t = trace.to_str().unwrap();
    stdout_of(&lumen6(&[
        "generate", "cdn", "--out", t, "--days", "4", "--seed", "5", "--small",
    ]));
    let records: u64 = stdout_of(&lumen6(&["info", "--trace", t]))
        .lines()
        .find_map(|l| l.strip_prefix("records:"))
        .expect("info prints record count")
        .trim()
        .parse()
        .unwrap();
    // Exactly two checkpoints: both files are still there to be measured,
    // the second as `ck`, the first as `ck.prev`.
    let every = (records / 2).to_string();
    let names = [
        "detect.session.snapshot_us",
        "detect.session.checkpoint_save_us",
    ];

    let run = |checkpointed: bool| -> MetricsSnapshot {
        let metrics = dir.join(format!("m-{checkpointed}.json"));
        let ck = dir.join("state.l6ck");
        let mut args = vec!["detect", "--trace", t, "--min-dsts", "50", "--sequential"];
        if checkpointed {
            args.extend(["--checkpoint", ck.to_str().unwrap()]);
            args.extend(["--checkpoint-every", &every]);
        }
        args.extend(["--metrics-out", metrics.to_str().unwrap()]);
        stdout_of(&lumen6(&args));
        serde_json::from_str(&std::fs::read_to_string(&metrics).unwrap()).unwrap()
    };

    let snap = run(true);
    assert_eq!(snap.counters["detect.session.checkpoints_written"], 2);
    let on_disk: u64 = ["state.l6ck", "state.l6ck.prev"]
        .iter()
        .map(|f| std::fs::metadata(dir.join(f)).unwrap().len())
        .sum();
    assert_eq!(snap.counters["detect.session.checkpoint_bytes"], on_disk);
    for name in names {
        let timer = &snap.histograms[name];
        assert_eq!(timer.count, 2, "{name}");
        assert!(timer.sum > 0, "{name} recorded no time");
    }

    let bare = run(false);
    assert!(!bare
        .counters
        .contains_key("detect.session.checkpoint_bytes"));
    for name in names {
        assert!(!bare.histograms.contains_key(name), "{name}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// `experiments --trace` builds from a recorded trace the lab the world
/// generates: every experiment prints, and every CSV file is written, byte
/// for byte as without it.
#[test]
fn experiments_under_trace_equal_the_generated_lab() {
    let dir = std::env::temp_dir().join(format!("lumen6-metrics-exp-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("t.l6tr");
    let t = trace.to_str().unwrap();
    stdout_of(&lumen6(&["generate", "cdn", "--small", "--out", t]));
    let csv = |name: &str| dir.join(name).to_str().unwrap().to_owned();
    let (d1, d2) = (csv("d1"), csv("d2"));
    // The two runs are independent: run them side by side.
    let spawn = |args: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_lumen6"))
            .args(args)
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::piped())
            .spawn()
            .expect("spawn lumen6")
    };
    let from_trace = spawn(&["experiments", "--small", "--trace", t, "all", "--csv", &d1]);
    let generated = spawn(&["experiments", "--small", "all", "--csv", &d2]);
    let text = |child: std::process::Child| stdout_of(&child.wait_with_output().unwrap());
    assert_eq!(text(from_trace), text(generated));
    let files = |dir: &str| {
        let mut files: Vec<_> = std::fs::read_dir(dir)
            .unwrap()
            .map(|f| f.unwrap().path())
            .map(|f| {
                (
                    f.file_name().unwrap().to_owned(),
                    std::fs::read(&f).unwrap(),
                )
            })
            .collect();
        files.sort();
        files
    };
    let (from_trace, generated) = (files(&d1), files(&d2));
    let names = |files: &[(std::ffi::OsString, Vec<u8>)]| -> Vec<_> {
        files.iter().map(|f| f.0.clone()).collect()
    };
    assert_eq!(names(&from_trace), names(&generated));
    assert!(generated.len() > 1, "{:?}", names(&generated));
    for (a, b) in from_trace.iter().zip(&generated) {
        assert!(a.1 == b.1, "{:?} differs", a.0);
    }
    std::fs::remove_dir_all(&dir).ok();
}
