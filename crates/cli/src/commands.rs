//! CLI command implementations.
//!
//! Commands operate on `.l6tr` trace files (the `lumen6-trace` binary
//! format) so the pipeline can be composed:
//!
//! ```text
//! lumen6 generate cdn --out cdn.l6tr --days 60
//! lumen6 info --trace cdn.l6tr
//! lumen6 detect --trace cdn.l6tr --agg 64 --min-dsts 100 --prefilter
//! lumen6 mawi-detect --trace mawi.l6tr --min-dsts 100
//! lumen6 adaptive --trace cdn.l6tr
//! lumen6 fingerprint --trace cdn.l6tr --threshold 0.1
//! lumen6 experiments --small table1 fig5
//! ```

use crate::{Args, CliError};
use lumen6_detect::adaptive::{AdaptiveConfig, AdaptiveIds};
use lumen6_detect::day::Prefiltered;
use lumen6_detect::{
    AggLevel, ArtifactFilter, DetectorBuilder, FilterReport, MawiConfig as FhConfig, MawiDetector,
    ScanDetectorConfig, ScanReport, Session, SessionOutcome, SessionReport,
};
use lumen6_mawi::MawiConfig;
use lumen6_report::{duration_human, pkt_count, Table};
use lumen6_scanners::{FleetSource, Vantage, World};
use lumen6_serve::{Daemon, RunConfig, ServeConfig, ServeError};
use lumen6_trace::{
    write_atomic, CodecError, FileStreamSource, MaterializedSource, PacketRecord, RecordBatch,
    Source, StreamingTraceReader, TraceWriter,
};
use std::fs::File;
use std::io::BufReader;
use std::path::Path;

/// Top-level usage text.
pub const USAGE: &str = "\
lumen6 — IPv6 scan detection toolkit

USAGE:
  lumen6 generate cdn --out FILE [--days N] [--seed N] [--small] [--intensity F]
                [--metrics-out FILE.json]
  lumen6 generate mawi --out FILE [--days N] [--seed N] [--small]
                [--metrics-out FILE.json]
  lumen6 generate custom --fleet ACTORS.json --out FILE [--seed N]
                [--metrics-out FILE.json]
  lumen6 info --trace FILE
  lumen6 detect --trace FILE [--agg 128|64|48|32] [--min-dsts N]
                [--timeout-secs N] [--prefilter] [--top N] [--json]
                [--sequential] [--metrics-out FILE.json]
                [--checkpoint FILE] [--checkpoint-every N] [--stop-after N]
                [--watermark-secs N] [--strict] [--batch N]
                [--sketch-precision P] [--flush-idle-secs N]
                (--flush-idle-secs N retires runs idle past the timeout every
                 N s of stream time, so memory and checkpoints hold what is
                 live: default --timeout-secs, 0 = never. Report-neutral for
                 input time-ordered at the detector — sorted, or disordered
                 within --watermark-secs)
                (--prefilter: the A.1 filter, a UTC day at a time, as --strict;
                 its threshold scales with --intensity: a --trace file is 1x)
  lumen6 detect --fused [--days N] [--seed N] [--small] [--intensity F]
                [--gen-threads N]
                (synthesize the CDN fleet stream in-process instead of
                 reading --trace; same detection flags apply. --gen-threads
                 spreads generation over N threads — output is byte-identical
                 for any N; 0 = one per hardware thread)
  lumen6 detect --tail FILE   (follow a growing trace until FILE.eof appears)
  lumen6 detect --config RUN.toml [flags override the file's keys]
  lumen6 serve  --config MANIFEST.toml [--spool DIR] [--workers N]
                [--stop-file FILE]
                (multi-tenant daemon: one checkpointed session per
                 [tenants.<name>] table; touch the stop file — default
                 <spool>/shutdown — for a graceful drain-and-exit)
  lumen6 soak   --out DIR [--intensity F] [--days N] [--seed N] [--small]
                [--gen-threads N] [--kills N] [--kill-after-checkpoints N]
                [--sample-ms N] [--max-rss-mb N] [--json]
                [--agg 128|64|48|32] [--min-dsts N] [--timeout-secs N]
                [--sequential] [--checkpoint-every N]
                [--watermark-secs N] [--strict] [--batch N]
                [--sketch-precision P] [--flush-idle-secs N]
                (full-volume fused endurance run: a clean reference pass,
                 then a kill -9/resume chain with RSS and throughput
                 sampling into DIR/SOAK.json; fails unless the final
                 report and checkpoint are byte-identical to the
                 uninterrupted run. The second block goes to every child:
                 the same detection flags as `detect --fused`)
  lumen6 mawi-detect --trace FILE [--agg N] [--min-dsts N] [--json]
  lumen6 adaptive --trace FILE [--min-dsts N]
  lumen6 fingerprint --trace FILE [--agg N] [--min-dsts N] [--threshold F]
  lumen6 import --pcap FILE --out FILE       (pcap -> .l6tr)
  lumen6 export-pcap --trace FILE --out FILE (.l6tr -> pcap)
  lumen6 backscatter --trace FILE [--agg N] [--min-queriers N]
  lumen6 experiments [--small] [--seed N] [--sequential]
                [--trace FILE] [--csv DIR] [--metrics-out FILE.json] NAME...|all
                (regenerate the paper's tables and figures, EXPERIMENTS.md
                 names them; progress goes to stderr. --trace FILE reads a
                 recorded CDN trace, strictly, for every CDN experiment; a
                 file carries no intensity, so its A.1 threshold is 1x, as
                 when detect prefilters a file)
";

/// The entries of [`USAGE`] for one subcommand — or, given `generate cdn`,
/// one vantage: its `lumen6 <cmd> ...` lines, each with the indented lines
/// under it (none: no such command).
fn usage_of(cmd: &str) -> String {
    let mut on = false;
    let entries = USAGE.lines().filter(|line| {
        if let Some(rest) = line.strip_prefix("  lumen6 ") {
            on = rest.strip_prefix(cmd).is_some_and(|r| r.starts_with(' '));
        }
        on
    });
    entries.fold(String::new(), |text, line| text + line + "\n")
}

/// What follows each mention of `--flag` in a usage text; a longer flag
/// that starts with it is no mention.
fn after<'u>(usage: &'u str, flag: &str) -> Vec<&'u str> {
    let flag = format!("--{flag}");
    let longer = |rest: &&str| rest.starts_with(|c: char| c == '-' || c.is_ascii_alphanumeric());
    usage
        .split(&flag)
        .skip(1)
        .filter(|rest| !longer(rest))
        .collect()
}

/// Whether [`USAGE`] writes a value after `--flag` — `--days N`, `--out
/// FILE`, `--agg 128|64|48|32` — so the flag takes the next argument.
pub(crate) fn takes_value(flag: &str) -> bool {
    let placeholder = |c: char| c.is_ascii_uppercase() || c.is_ascii_digit();
    let rests = after(USAGE, flag);
    let mut values = rests.iter().filter_map(|rest| rest.strip_prefix(' '));
    values.any(|value| value.starts_with(placeholder))
}

/// Whether a usage text names `--flag`.
fn lists(usage: &str, flag: &str) -> bool {
    !after(usage, flag).is_empty()
}

/// Runs a command line (without the program name); writes human output
/// to the given sink (stdout in the binary, a buffer in tests).
pub fn run<W: std::io::Write>(argv: Vec<String>, out: &mut W) -> Result<(), CliError> {
    let args = Args::parse(argv)?;
    let cmd = args
        .positional()
        .first()
        .ok_or_else(|| CliError::Usage(USAGE.to_string()))?
        .clone();
    let usage = usage_of(&cmd);
    if !usage.is_empty() && (args.has("help") || args.positional().iter().any(|a| a == "-h")) {
        write!(out, "USAGE:\n{usage}")?;
        return Ok(());
    }
    // A subcommand takes the flags its USAGE entry lists — `generate`, its
    // vantage's — and no other: a typo is not a default.
    let scope = match args.positional().get(1) {
        Some(vantage) if cmd == "generate" => format!("{cmd} {vantage}"),
        _ => cmd.clone(),
    };
    let listed = usage_of(&scope);
    let stray = |(flag, _): &&(String, _)| !listed.is_empty() && !lists(&listed, flag);
    if let Some((flag, _)) = args.flags().iter().find(stray) {
        return Err(CliError::Usage(format!("{scope} takes no --{flag}")));
    }
    match cmd.as_str() {
        "generate" => generate(&args, out),
        "info" => info(&args, out),
        "detect" => detect(&args, out),
        "serve" => serve(&args, out),
        "soak" => crate::soak::soak(&args, out),
        "mawi-detect" => mawi_detect(&args, out),
        "adaptive" => adaptive(&args, out),
        "fingerprint" => fingerprint_cmd(&args, out),
        "import" => import_pcap(&args, out),
        "export-pcap" => export_pcap(&args, out),
        "backscatter" => backscatter(&args, out),
        "experiments" => experiments(&args, out),
        other => Err(CliError::Usage(format!(
            "unknown command {other:?}\n\n{USAGE}"
        ))),
    }
}

/// The [`RunConfig`] a command line describes: the TOML file named by
/// `--config` (if any) supplies the base, and every flag that names a key
/// overrides it — through the key table in `lumen6_serve::config`, the one
/// the file reader goes through. Every subcommand reads its keys here.
pub(crate) fn run_config(args: &Args) -> Result<RunConfig, CliError> {
    let mut run = match args.get("config") {
        Some(path) => {
            let text = std::fs::read_to_string(path)?;
            RunConfig::from_toml_str(&text)
                .map_err(|e| CliError::Usage(format!("--config {path}: {e}")))?
        }
        None => RunConfig::default(),
    };
    run.apply_flags(args.flags()).map_err(CliError::Usage)?;
    Ok(run)
}

/// The `--trace` of a per-record reader, which takes `agg` without
/// [`RunConfig::validate`]: a length it would clamp is refused here.
fn trace_path(run: &RunConfig) -> Result<&str, CliError> {
    run.agg_level().map_err(CliError::Usage)?;
    let missing = || CliError::Usage("--trace FILE is required".into());
    run.trace.as_deref().ok_or_else(missing)
}

/// A strict reader over `run`'s trace: a decode error ends the command.
fn open_trace(run: &RunConfig) -> Result<StreamingTraceReader<File>, CliError> {
    Ok(StreamingTraceReader::new(File::open(trace_path(run)?)?)?)
}

/// Hands `read` the counted rows of `run`'s trace, filled a batch at a
/// time — the one loop every per-record reader takes; none holds the
/// trace. A decode error ends the rows and is what this returns.
fn read_rows<T>(
    run: &RunConfig,
    read: impl FnOnce(&mut dyn Iterator<Item = (PacketRecord, u32)>) -> T,
) -> Result<T, CliError> {
    let (mut reader, mut failed) = (open_trace(run)?, None);
    let mut rows = std::iter::from_fn(|| {
        let mut batch = RecordBatch::new();
        match reader.fill(&mut batch, lumen6_detect::DEFAULT_SESSION_BATCH) {
            Ok(0) => None,
            filled => Some(filled.map(|_| batch)),
        }
    })
    .map_while(|filled| filled.map_err(|e| failed = Some(e)).ok())
    .flat_map(|b| (0..b.rows()).map(move |i| (b.get(i), b.count(i))));
    let done = read(&mut rows);
    failed.map_or(Ok(done), |e| Err(e.into()))
}

/// Every copy of every counted row.
fn copies(rows: impl Iterator<Item = (PacketRecord, u32)>) -> impl Iterator<Item = PacketRecord> {
    rows.flat_map(|(r, n)| std::iter::repeat_n(r, n as usize))
}

/// `run`'s session over its source, with `base` the detector's
/// configuration (behind the A.1 day stage with a `prefilter`): its `agg`
/// report, and what the filter removed. The source drops here, publishing
/// its decode counters before a caller reads the metrics.
fn run_session(
    run: &RunConfig,
    base: ScanDetectorConfig,
    prefilter: Option<ArtifactFilter>,
) -> Result<(SessionReport, ScanReport, Option<FilterReport>), CliError> {
    let builder = DetectorBuilder::new(base);
    let session = Session::new(builder, run.backend(), run.session_config());
    let mut src = run.make_source()?;
    let (outcome, filtered) = match prefilter {
        Some(filter) => {
            let mut src = Prefiltered::new(src, filter);
            (session.run_source(&mut src)?, Some(src.report()))
        }
        None => (session.run_source(src.as_mut())?, None),
    };
    let mut rep = match outcome {
        SessionOutcome::Finished(rep) => rep,
        SessionOutcome::Stopped {
            checkpoints_written,
            records_done,
        } => {
            return Err(CliError::Stopped {
                checkpoints_written,
                records_done,
            });
        }
    };
    let agg = AggLevel::new(run.agg);
    let missing = || CliError::Internal(format!("level /{} missing from report", agg.len()));
    let report = rep.reports.remove(&agg).ok_or_else(missing)?;
    Ok((rep, report, filtered))
}

/// Drains `source` into an L6TR file at `path`, published by rename so a
/// concurrent `--tail` reader of the same path never sees a partial trace;
/// a counted batch row goes to the file as a counted row. Returns the
/// records written.
fn write_trace(path: &str, source: &mut dyn Source) -> Result<u64, CliError> {
    write_atomic(Path::new(path), |file| {
        let mut writer = TraceWriter::new(file)?;
        let mut batch = RecordBatch::new();
        while source.fill(&mut batch, lumen6_detect::DEFAULT_SESSION_BATCH)? > 0 {
            for i in 0..batch.rows() {
                writer.append_n(&batch.get(i), batch.count(i))?;
            }
        }
        let records = writer.count();
        writer.finish()?;
        Ok(records)
    })
}

/// `generate <cdn|mawi|custom>`: build a synthetic vantage trace file.
fn generate<W: std::io::Write>(args: &Args, out: &mut W) -> Result<(), CliError> {
    let metrics_baseline = lumen6_obs::MetricsRegistry::global().snapshot();
    let kind = args
        .positional()
        .get(1)
        .map(String::as_str)
        .ok_or_else(|| CliError::Usage("generate needs <cdn|mawi|custom>".into()))?;
    let mut run = run_config(args)?;
    let path = args
        .get("out")
        .ok_or_else(|| CliError::Usage("--out FILE is required".into()))?;

    let mut source: Box<dyn Source> = match kind {
        "cdn" => {
            // `detect --fused`'s source, written out instead: never resident.
            run.fused = true;
            run.validate().map_err(CliError::Usage)?;
            run.make_source()?
        }
        "mawi" => Box::new(lumen6_mawi::MawiWorld::build(mawi_config(&run), None).source()),
        "custom" => {
            // A user-defined actor list (JSON array of ScannerActor).
            let fleet_path = args
                .get("fleet")
                .ok_or_else(|| CliError::Usage("generate custom needs --fleet FILE".into()))?;
            let json = std::fs::read_to_string(fleet_path)?;
            let actors: Vec<lumen6_scanners::ScannerActor> = serde_json::from_str(&json)
                .map_err(|e| CliError::Usage(format!("invalid fleet JSON: {e}")))?;
            if actors.is_empty() {
                return Err(CliError::Usage("fleet file defines no actors".into()));
            }
            if let Some(e) = actors.iter().find_map(|a| a.validate().err()) {
                return Err(CliError::Usage(format!("{fleet_path}: {e}")));
            }
            // The actors alone, merged by the engine every vantage runs on.
            let vantage = Vantage {
                actors: actors.into(),
                seed: run.seed,
                intensity: 1.0,
                fixed: Vec::new(),
                capture: None,
            };
            Box::new(FleetSource::from_vantage(vantage, 1))
        }
        other => {
            return Err(CliError::Usage(format!(
                "unknown vantage {other:?}; expected cdn, mawi or custom"
            )))
        }
    };

    let records = write_trace(path, source.as_mut())?;
    writeln!(out, "wrote {records} records to {path}")?;
    emit_metrics(args, &metrics_baseline, out, false)
}

/// `info`: summary statistics of a trace file, read a batch at a time.
fn info<W: std::io::Write>(args: &Args, out: &mut W) -> Result<(), CliError> {
    let mut reader = open_trace(&run_config(args)?)?;
    let mut batch = RecordBatch::new();
    let (mut records, mut span) = (0, None);
    let mut srcs = std::collections::HashSet::new();
    let mut dsts = std::collections::HashSet::new();
    let mut by_proto: std::collections::BTreeMap<&'static str, u64> = Default::default();
    while reader.fill(&mut batch, lumen6_detect::DEFAULT_SESSION_BATCH)? > 0 {
        for i in 0..batch.rows() {
            let r = batch.get(i);
            srcs.insert(r.src);
            dsts.insert(r.dst);
            *by_proto.entry(r.proto.label()).or_default() += u64::from(batch.count(i));
            span = Some((span.map_or(r.ts_ms, |(first, _)| first), r.ts_ms));
        }
        records += batch.len();
    }
    writeln!(out, "format:         L6TR v{}", reader.version())?;
    writeln!(out, "records:        {records}")?;
    writeln!(out, "rows:           {}", reader.rows())?;
    if let Some((first, last)) = span {
        writeln!(
            out,
            "time range:     {} .. {} ({} days)",
            lumen6_trace::SimTime(first),
            lumen6_trace::SimTime(last),
            (last - first) / lumen6_trace::DAY_MS + 1
        )?;
    }
    writeln!(out, "distinct /128 sources: {}", srcs.len())?;
    writeln!(out, "distinct destinations: {}", dsts.len())?;
    for (proto, n) in by_proto {
        writeln!(out, "{proto:<8} packets: {}", pkt_count(n))?;
    }
    Ok(())
}

/// `detect`: the paper's large-scale scan detection over a trace file —
/// or, with `--fused`, over the fleet generators directly (no trace file
/// at any point; the paper-scale path).
///
/// All backends dispatch through one [`DetectorBuilder`] code path: the
/// detector on a worker thread by default, on the ingesting thread with
/// `--sequential`. The input streams through a fault-tolerant
/// [`lumen6_detect::Session`] in bounded memory — checkpoint/resume with
/// `--checkpoint FILE` (fused runs resume by deterministic regeneration),
/// out-of-order tolerance with `--watermark-secs N`, and
/// quarantine-and-skip of corrupt records unless `--strict` (implied by
/// `--prefilter`'s A.1 day stage, which cannot resume yet).
fn detect<W: std::io::Write>(args: &Args, out: &mut W) -> Result<(), CliError> {
    // Delta against the process-global registry so the emitted snapshot
    // covers exactly this command run (tests share one process).
    let metrics_baseline = lumen6_obs::MetricsRegistry::global().snapshot();
    let mut run = run_config(args)?;
    let prefilter = args.has("prefilter");
    run.strict |= prefilter;
    run.validate().map_err(CliError::Usage)?;
    let top = args.get_parsed::<usize>("top", 20)?;
    if prefilter && (run.checkpoint.is_some() || run.watermark_secs > 0 || run.tail.is_some()) {
        let refused = "--checkpoint/--watermark-secs/--tail are incompatible with --prefilter";
        return Err(CliError::Usage(refused.into()));
    }
    let filter = prefilter.then(|| ArtifactFilter::at_intensity(run.intensity));
    let (rep, report, filtered) = run_session(&run, run.detector_config(), filter)?;
    if let Some(f) = filtered {
        let (removed, input, sources) = (f.removed_packets, f.input_packets, f.removed_sources);
        let line = format!("prefilter: removed {removed} of {input} packets ({sources} sources)");
        // Under --json, stdout is the event list alone.
        if args.has("json") {
            eprintln!("{line}");
        } else {
            writeln!(out, "{line}")?;
        }
    }
    if args.has("json") {
        // Streamed: the event list is never resident as text. Rendering
        // cannot fail, so an error here is `out`'s.
        serde_json::to_writer_pretty(&mut *out, &report.events)
            .map_err(|e| CliError::Io(std::io::Error::other(e)))?;
        writeln!(out)?;
        // Metrics go to their own file, so they compose with --json.
        emit_metrics(args, &metrics_baseline, out, true)?;
        return Ok(());
    }
    emit_metrics(args, &metrics_baseline, out, false)?;
    // Surface session-layer accounting whenever checkpointing is on or
    // anything was dropped/skipped; quiet for the plain sorted-trace fast
    // path. Restored counters make a resumed run print the same line as an
    // uninterrupted one.
    if run.checkpoint.is_some() || rep.late_dropped > 0 || rep.decode_skipped > 0 {
        let (records, late, ckpts) = (rep.records, rep.late_dropped, rep.checkpoints_written);
        writeln!(
            out,
            "session: {records} records, {late} late-dropped, {} skipped, {ckpts} checkpoints",
            rep.decode_skipped
        )?;
    }
    writeln!(
        out,
        "{} scans from {} sources, {} packets",
        report.scans(),
        report.sources(),
        pkt_count(report.packets())
    )?;
    let mut t = Table::new(vec![
        "source", "start", "duration", "packets", "dsts", "ports",
    ]);
    for c in 3..=5 {
        t.align_right(c);
    }
    let mut events: Vec<_> = report.events.iter().collect();
    events.sort_by_key(|e| std::cmp::Reverse(e.packets));
    for e in events.into_iter().take(top) {
        t.row(vec![
            e.source.to_string(),
            lumen6_trace::SimTime(e.start_ms).to_string(),
            duration_human(e.duration_ms()),
            e.packets.to_string(),
            e.distinct_dsts.to_string(),
            e.num_ports().to_string(),
        ]);
    }
    writeln!(out, "{}", t.render())?;
    Ok(())
}

/// Maps daemon errors onto the CLI error taxonomy (exit code 2 for all of
/// them; tenant-level failures are reported via [`CliError::Serve`]).
fn serve_err(e: ServeError) -> CliError {
    match e {
        ServeError::Io(e) => CliError::Io(e),
        ServeError::Codec(e) => CliError::Codec(e),
        ServeError::Session(e) => e.into(),
        ServeError::Config(m) => CliError::Usage(m),
    }
}

/// `serve`: the multi-tenant detection daemon. Loads a TOML manifest with
/// one `[tenants.<name>]` table per tenant (each table is a [`RunConfig`],
/// the same schema `detect --config` reads), lays out the spool, and runs
/// every tenant concurrently with checkpoint-based crash recovery until
/// all streams finish or the stop file appears. Exits nonzero if any
/// tenant ends in the `failed` state.
fn serve<W: std::io::Write>(args: &Args, out: &mut W) -> Result<(), CliError> {
    let path = args
        .get("config")
        .ok_or_else(|| CliError::Usage("serve needs --config MANIFEST.toml".into()))?;
    let text = std::fs::read_to_string(path)?;
    let mut cfg = ServeConfig::from_toml_str(&text)
        .map_err(|e| CliError::Usage(format!("--config {path}: {e}")))?;
    cfg.apply_flags(args.flags()).map_err(CliError::Usage)?;
    let daemon = Daemon::new(cfg).map_err(serve_err)?;
    writeln!(
        out,
        "serve: {} tenant(s), stop file {}",
        daemon.tenant_count(),
        daemon.stop_file().display()
    )?;
    out.flush()?;
    let summary = daemon.run().map_err(serve_err)?;
    let mut failed = 0usize;
    for t in &summary.tenants {
        let resumed = if t.resumed { ", resumed" } else { "" };
        let error = t
            .error
            .as_ref()
            .map(|e| format!(" — {e}"))
            .unwrap_or_default();
        writeln!(
            out,
            "tenant {}: {} ({} records, {} slices{resumed}){error}",
            t.name, t.state, t.records, t.slices
        )?;
        if t.state == "failed" {
            failed += 1;
        }
    }
    writeln!(
        out,
        "serve: {}",
        if summary.stopped {
            "stopped by stop file; tenants checkpointed for resume"
        } else {
            "all tenants done"
        }
    )?;
    if failed > 0 {
        return Err(CliError::Serve(format!("{failed} tenant(s) failed")));
    }
    Ok(())
}

/// Writes the run's metric delta to `--metrics-out FILE.json` (if given)
/// and, unless the main output is JSON, prints a compact summary table.
fn emit_metrics<W: std::io::Write>(
    args: &Args,
    baseline: &lumen6_obs::MetricsSnapshot,
    out: &mut W,
    quiet: bool,
) -> Result<(), CliError> {
    let Some(path) = args.get("metrics-out") else {
        return Ok(());
    };
    let registry = lumen6_obs::MetricsRegistry::global();
    if let Some(kib) = peak_rss_kib() {
        registry.gauge("cli.process.peak_rss_kib").set(kib);
    }
    let delta = registry.snapshot().delta(baseline);
    // Atomic publication: tools polling the metrics file (CI's
    // check_metrics, dashboards) must never observe a torn write.
    write_atomic(Path::new(path), |file| {
        serde_json::to_writer_pretty(file, &delta).map_err(std::io::Error::other)
    })?;
    if !quiet {
        writeln!(out, "metrics -> {path}")?;
        writeln!(out, "{}", delta.summary_table())?;
    }
    Ok(())
}

/// The process's peak resident set so far (`VmHWM`, in KiB), where
/// `/proc/self/status` reports it.
fn peak_rss_kib() -> Option<i64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    line.trim().strip_suffix("kB")?.trim().parse().ok()
}

/// `mawi-detect`: per-day Fukuda–Heidemann-extended detection, on each
/// closed day's capture window.
fn mawi_detect<W: std::io::Write>(args: &Args, out: &mut W) -> Result<(), CliError> {
    let run = run_config(args)?;
    let det = MawiDetector::new(FhConfig {
        agg: AggLevel::new(run.agg),
        min_dsts: run.min_dsts,
        ..Default::default()
    });
    // As `open_trace` reports them: a file that cannot be opened is an I/O
    // error, a bad stream a trace error.
    let mut src = FileStreamSource::open(Path::new(trace_path(&run)?)).map_err(|e| match e {
        CodecError::Io(e) => CliError::Io(e),
        e => CliError::Codec(e),
    })?;
    let mut all = Vec::new();
    lumen6_mawi::each_window(&mut src, |day, window| {
        let rows = (0..window.rows()).map(|i| (window.get(i), window.count(i)));
        all.extend(det.detect_counted(rows).into_iter().map(|s| (day, s)));
    })?;
    if args.has("json") {
        let json = serde_json::to_string_pretty(&all)
            .map_err(|e| CliError::Internal(format!("serialize scans: {e}")))?;
        writeln!(out, "{json}")?;
        return Ok(());
    }
    writeln!(out, "{} per-day scans detected", all.len())?;
    let mut t = Table::new(vec![
        "day", "source", "services", "packets", "dsts", "icmpv6",
    ]);
    t.align_right(0).align_right(3).align_right(4);
    for (day, s) in all.iter().take(40) {
        t.row(vec![
            day.to_string(),
            s.source.to_string(),
            s.services.len().to_string(),
            s.packets.to_string(),
            s.distinct_dsts.to_string(),
            s.is_icmpv6().to_string(),
        ]);
    }
    writeln!(out, "{}", t.render())?;
    Ok(())
}

/// `adaptive`: adaptive-aggregation alerting with collateral estimates.
fn adaptive<W: std::io::Write>(args: &Args, out: &mut W) -> Result<(), CliError> {
    let run = run_config(args)?;
    let ids = AdaptiveIds::new(AdaptiveConfig {
        min_dsts: run.min_dsts,
        ..Default::default()
    });
    let alerts = read_rows(&run, |rows| ids.analyze_counted(rows))?;
    writeln!(out, "{} alerts", alerts.len())?;
    let mut t = Table::new(vec![
        "prefix",
        "level",
        "packets",
        "dsts",
        "srcs",
        "collateral",
        "subsumed",
    ]);
    for c in 2..=6 {
        t.align_right(c);
    }
    for a in alerts.iter().take(40) {
        t.row(vec![
            a.prefix.to_string(),
            format!("/{}", a.prefix.len()),
            a.packets.to_string(),
            a.distinct_dsts.to_string(),
            a.contributing_srcs.to_string(),
            a.collateral_srcs.to_string(),
            a.subsumed.len().to_string(),
        ]);
    }
    writeln!(out, "{}", t.render())?;
    Ok(())
}

/// `fingerprint`: detect scans, keeping their destinations, then cluster
/// them by traffic behavior.
fn fingerprint_cmd<W: std::io::Write>(args: &Args, out: &mut W) -> Result<(), CliError> {
    let mut run = run_config(args)?;
    run.strict = true; // as every trace reader: a decode error ends the command
    let threshold = args.get_parsed::<f64>("threshold", 0.10)?;
    if !threshold.is_finite() || threshold < 0.0 {
        return Err(CliError::Usage(format!(
            "invalid value for --threshold: {threshold} (a distance: finite, ≥ 0)"
        )));
    }
    trace_path(&run)?; // the checks every trace reader makes; the session opens it
    let (_, report, _) = run_session(&run, run.detector_config().with_dsts(), None)?;
    let clusters = lumen6_detect::fingerprint::cluster(&report.events, threshold);
    writeln!(
        out,
        "{} scan events -> {} behavior clusters (threshold {threshold})",
        report.events.len(),
        clusters.len()
    )?;
    let mut t = Table::new(vec![
        "cluster",
        "events",
        "sources",
        "~packets",
        "~ports",
        "top-port frac",
        "example source",
    ]);
    for c in 0..=4 {
        t.align_right(c);
    }
    for (i, c) in clusters.iter().enumerate().take(25) {
        let sources: std::collections::HashSet<_> =
            c.members.iter().map(|&m| report.events[m].source).collect();
        t.row(vec![
            i.to_string(),
            c.members.len().to_string(),
            sources.len().to_string(),
            format!("{:.0}", c.centroid.log_packets.exp2()),
            format!("{:.0}", c.centroid.log_ports.exp2() - 1.0),
            format!("{:.2}", c.centroid.top_port_frac),
            report.events[c.members[0]].source.to_string(),
        ]);
    }
    writeln!(out, "{}", t.render())?;
    Ok(())
}

/// `import`: convert a pcap capture to the native trace format.
fn import_pcap<W: std::io::Write>(args: &Args, out: &mut W) -> Result<(), CliError> {
    let pcap_path = args
        .get("pcap")
        .ok_or_else(|| CliError::Usage("--pcap FILE is required".into()))?;
    let out_path = args
        .get("out")
        .ok_or_else(|| CliError::Usage("--out FILE is required".into()))?;
    let imported = lumen6_trace::pcap::read_pcap(BufReader::new(File::open(pcap_path)?))
        .map_err(|e| CliError::Usage(format!("pcap import failed: {e}")))?;
    let mut records = imported.records;
    // Captures are usually time-sorted, but the codec requires it.
    lumen6_trace::sort_by_time(&mut records);
    let count = write_trace(out_path, &mut MaterializedSource::new(records))?;
    writeln!(
        out,
        "imported {count} IPv6 records ({} packets skipped) -> {out_path}",
        imported.skipped
    )?;
    Ok(())
}

/// `export-pcap`: write a trace as real IPv6 packets for Wireshark/tcpdump,
/// each copy of a counted row as it is filled.
fn export_pcap<W: std::io::Write>(args: &Args, out: &mut W) -> Result<(), CliError> {
    let run = run_config(args)?;
    let out_path = args
        .get("out")
        .ok_or_else(|| CliError::Usage("--out FILE is required".into()))?;
    let n = write_atomic(Path::new(out_path), |file| {
        let written = read_rows(&run, |rows| {
            lumen6_trace::pcap::write_pcap(copies(rows), file)
        })?;
        written.map_err(|e| CliError::Usage(format!("pcap export failed: {e}")))
    })?;
    writeln!(out, "wrote {n} packets to {out_path}")?;
    Ok(())
}

/// `backscatter`: simulate the reverse-zone authority's PTR stream for the
/// trace and run querier-diversity detection on it.
fn backscatter<W: std::io::Write>(args: &Args, out: &mut W) -> Result<(), CliError> {
    use lumen6_backscatter::{backscatter_queries, BackscatterConfig, BackscatterDetector};
    let run = run_config(args)?;
    let det = BackscatterDetector {
        agg_len: run.agg,
        min_queriers: args.get_parsed("min-queriers", 20)?,
    };
    let mut queries = 0u64;
    let flagged = read_rows(&run, |rows| {
        // Every copy draws its own lookup.
        let drawn = backscatter_queries(copies(rows), &BackscatterConfig::default(), 42);
        det.detect(drawn.inspect(|_| queries += 1))
    })?;
    writeln!(
        out,
        "{queries} PTR queries observed; {} sources flagged (≥{} distinct resolvers)",
        flagged.len(),
        det.min_queriers
    )?;
    let mut t = Table::new(vec!["source", "queriers", "queries", "first", "last"]);
    t.align_right(1).align_right(2);
    for s in flagged.iter().take(25) {
        t.row(vec![
            s.source.to_string(),
            s.queriers.to_string(),
            s.queries.to_string(),
            lumen6_trace::SimTime(s.first_ms).to_string(),
            lumen6_trace::SimTime(s.last_ms).to_string(),
        ]);
    }
    writeln!(out, "{}", t.render())?;
    Ok(())
}

/// The MAWI world `run`'s `small`, `seed` and `days` keys describe, as
/// [`RunConfig::fleet_config`] describes the CDN fleet.
fn mawi_config(run: &RunConfig) -> MawiConfig {
    let base = if run.small {
        MawiConfig::small()
    } else {
        MawiConfig::default()
    };
    MawiConfig {
        seed: run.seed,
        end_day: run.days.unwrap_or(base.end_day),
        ..base
    }
}

/// `experiments`: renders the paper's tables and figures by name on labs
/// built once for all of them: the CDN lab from `run`'s fleet and backend
/// (its trace generated, or read strictly from `--trace`), the MAWI lab
/// sharing its scanners. Progress goes to stderr.
fn experiments<W: std::io::Write>(args: &Args, out: &mut W) -> Result<(), CliError> {
    use lumen6_experiments::{csv_out, run_cdn, run_mawi, CdnLab, MawiLab};
    use lumen6_experiments::{CDN_EXPERIMENTS as CDN, MAWI_EXPERIMENTS as MAWI};
    let metrics_baseline = lumen6_obs::MetricsRegistry::global().snapshot();
    let run = run_config(args)?;
    let usage = |why: String| {
        let (cdn, mawi) = (CDN.join(" "), MAWI.join(" "));
        CliError::Usage(format!("{why}\nCDN:  {cdn}\nMAWI: {mawi}"))
    };
    let mut names: Vec<&str> = args.positional()[1..].iter().map(String::as_str).collect();
    if names.contains(&"all") {
        names = CDN.iter().chain(MAWI).copied().collect();
    }
    if let Some(name) = names.iter().find(|n| !CDN.contains(n) && !MAWI.contains(n)) {
        return Err(usage(format!("unknown experiment {name:?}")));
    }
    if names.is_empty() {
        return Err(usage("experiments needs a NAME, or all".into()));
    }

    let (fleet, backend) = (run.fleet_config(), run.backend());
    let cdn = match &run.trace {
        _ if !names.iter().any(|n| CDN.contains(n)) => None,
        Some(path) => {
            eprintln!("# reading CDN trace from {path} ...");
            let mut source = FileStreamSource::open(Path::new(path))?;
            Some(CdnLab::new(World::build(fleet), &mut source, backend)?)
        }
        None => {
            let size = if run.small { "small" } else { "full 439 days" };
            eprintln!("# building CDN lab (seed {}, {size}) ...", run.seed);
            Some(CdnLab::build_with(fleet, backend))
        }
    };
    let mawi = names.iter().any(|n| MAWI.contains(n)).then(|| {
        eprintln!("# building MAWI lab ...");
        // The MAWI scanners share the CDN fleet's identities: without a CDN
        // lab, its world alone is built for them.
        let fleet_only;
        let world = match &cdn {
            Some(lab) => &lab.world,
            None => {
                fleet_only = World::build(run.fleet_config());
                &fleet_only
            }
        };
        MawiLab::build(mawi_config(&run), Some(world))
    });
    if let Some(csv) = args.get("csv") {
        if let Some(lab) = &cdn {
            let n = csv_out::export_cdn(lab, Path::new(csv))?.len();
            eprintln!("# wrote {n} CDN CSV files to {csv}");
        }
        if let Some(lab) = &mawi {
            let n = csv_out::export_mawi(lab, Path::new(csv))?.len();
            eprintln!("# wrote {n} MAWI CSV files to {csv}");
        }
    }
    for name in names {
        let text = cdn.as_ref().and_then(|lab| run_cdn(name, lab));
        let text = text.or_else(|| mawi.as_ref().and_then(|lab| run_mawi(name, lab)));
        let text = text.ok_or_else(|| CliError::Internal(format!("no lab renders {name}")))?;
        writeln!(out, "{text}")?;
    }
    emit_metrics(args, &metrics_baseline, out, false)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_cli(line: &[&str]) -> (String, Result<(), CliError>) {
        let mut buf = Vec::new();
        let res = run(
            line.iter().map(std::string::ToString::to_string).collect(),
            &mut buf,
        );
        (String::from_utf8(buf).unwrap(), res)
    }

    #[test]
    fn no_command_is_usage() {
        let (_, res) = run_cli(&[]);
        assert!(matches!(res, Err(CliError::Usage(_))));
    }

    #[test]
    fn unknown_command_is_usage() {
        let (_, res) = run_cli(&["frobnicate"]);
        assert!(matches!(res, Err(CliError::Usage(_))));
    }

    #[test]
    fn help_prints_the_subcommands_usage_and_succeeds() {
        for cmd in ["detect", "serve", "soak"] {
            for flag in ["-h", "--help"] {
                let (text, res) = run_cli(&[cmd, flag]);
                assert!(res.is_ok(), "{cmd} {flag}: {res:?}");
                let entries: Vec<&str> = text.lines().filter(|l| l.contains("lumen6 ")).collect();
                assert!(!entries.is_empty(), "{cmd} {flag}: {text}");
                for line in entries {
                    assert!(line.starts_with(&format!("  lumen6 {cmd} ")), "{line}");
                }
            }
        }
        let (text, _) = run_cli(&["detect", "--help"]);
        assert!(
            text.contains("--fused") && text.contains("--batch N"),
            "{text}"
        );
    }

    /// `--flush-idle-secs` absent is the run's timeout, also after
    /// `--timeout-secs` or a config file moved it; given, it wins, 0 included
    /// — over a file's key too.
    #[test]
    fn flush_idle_secs_flag_absent_is_the_timeout() {
        let dir = std::env::temp_dir().join(format!("lumen6-cli-flush-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let cfg = dir.join("run.toml");
        std::fs::write(
            &cfg,
            "fused = true\ntimeout_secs = 120\nflush_idle_secs = 0\n",
        )
        .unwrap();
        let flush_ms = |flags: &[&str]| {
            let argv = flags.iter().map(std::string::ToString::to_string);
            let args = Args::parse(argv).unwrap();
            let run = run_config(&args).unwrap();
            run.validate().unwrap();
            run.session_config().flush_idle_every_ms
        };
        assert_eq!(flush_ms(&["--fused"]), 3_600_000);
        assert_eq!(flush_ms(&["--fused", "--timeout-secs", "900"]), 900_000);
        assert_eq!(flush_ms(&["--fused", "--flush-idle-secs", "0"]), 0);
        assert_eq!(
            flush_ms(&[
                "--fused",
                "--flush-idle-secs",
                "30",
                "--timeout-secs",
                "900"
            ]),
            30_000
        );
        let c = cfg.to_str().unwrap();
        assert_eq!(flush_ms(&["--config", c]), 0);
        assert_eq!(flush_ms(&["--config", c, "--flush-idle-secs", "7"]), 7_000);
        let (text, _) = run_cli(&["detect", "--help"]);
        assert!(
            text.contains("default --timeout-secs") && text.contains("--watermark-secs)"),
            "{text}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Every `RunConfig` key, through the one table: its TOML and flag
    /// spellings agree, the flag overrides a file, it survives a serialize
    /// round trip, and `detect --help` lists it — with a value exactly when
    /// its field takes one — except the retired `threads`, which no usage
    /// lists.
    #[test]
    fn every_run_key_reads_alike_from_file_and_flag() {
        let help = usage_of("detect");
        assert_eq!(RunConfig::KEYS.len(), 21);
        for key in RunConfig::KEYS {
            let (name, flag) = (key.name, key.flag());
            // `checkpoint_every`/`stop_after` flags need a checkpoint beside them.
            let beside = if name == "checkpoint" {
                ""
            } else {
                "checkpoint = \"c.l6ck\"\n"
            };
            let file =
                |value: &str| RunConfig::from_toml_str(&format!("{beside}{name} = {value}\n"));
            // The field's type picks its sample: a switch, a count, a path;
            // `intensity` alone takes a fraction.
            let samples = [("true", "false", None), ("7", "9", Some("7"))];
            let (toml, other, text) = *samples
                .iter()
                .chain(&[("\"x.l6tr\"", "\"other\"", Some("x.l6tr"))])
                .find(|(toml, _, _)| file(toml).is_ok())
                .unwrap();
            let (toml, text) = match name {
                "intensity" => ("2.5", Some("2.5")),
                _ => (toml, text),
            };
            let flags = [(flag.clone(), text.map(str::to_string))];
            let from_file = file(toml).unwrap();
            let mut from_flag = RunConfig::from_toml_str(beside).unwrap();
            assert_ne!(from_file, from_flag, "{name}: the sample is the default");
            from_flag.apply_flags(&flags).unwrap();
            assert_eq!(from_flag, from_file, "{name}");

            let mut over = file(other).unwrap();
            assert_ne!(over, from_file, "{name}");
            over.apply_flags(&flags).unwrap();
            assert_eq!(over, from_file, "--{flag} did not override the file");

            let json = serde_json::to_string(&from_file).unwrap();
            assert!(json.contains(&format!("\"{name}\":")), "{json}");
            let back: RunConfig = serde_json::from_str(&json).unwrap();
            assert_eq!(back, from_file, "{name}");

            if name == "threads" {
                assert!(!lists(USAGE, &flag), "USAGE lists the retired --{flag}");
                continue;
            }
            assert_eq!(takes_value(&flag), text.is_some(), "USAGE and --{flag}");
            assert!(lists(&help, &flag), "detect --help lacks --{flag}");
            let argv = [vec!["detect".to_string()], from_file.to_flags().unwrap()].concat();
            let args = Args::parse(argv).unwrap();
            assert_eq!(run_config(&args).unwrap(), from_file, "{name}");
        }

        // The daemon's keys go through the same table; `serve` lists three.
        let help = usage_of("serve");
        for (name, toml, text, listed) in [
            ("spool", "\"elsewhere\"", "elsewhere", true),
            ("workers", "5", "5", true),
            ("stop_file", "\"halt\"", "halt", true),
            ("steps_per_slice", "3", "3", false),
            ("publish_every_slices", "3", "3", false),
        ] {
            let key = ServeConfig::KEYS.iter().find(|k| k.name == name).unwrap();
            let mut from_flag = ServeConfig::default();
            let flags = [(key.flag(), Some(text.to_string()))];
            from_flag.apply_flags(&flags).unwrap();
            let from_file = ServeConfig::from_toml_str(&format!("{name} = {toml}\n")).unwrap();
            assert_eq!(from_flag, from_file, "{name}");
            assert_ne!(from_flag, ServeConfig::default(), "{name}");
            assert_eq!(lists(&help, &key.flag()), listed, "{name}");
            assert!(!listed || takes_value(&key.flag()), "{name}");
        }
        // Those five, and the tenants table.
        assert_eq!(ServeConfig::KEYS.len(), 6);
    }

    /// A flag is read or refused: one the subcommand's usage does not list
    /// is a usage error naming it, and every flag a usage lists is a key of
    /// a table or one of the local flags — nothing is silently dropped.
    #[test]
    fn a_flag_no_usage_entry_lists_is_a_usage_error_naming_it() {
        for (line, flag) in [
            // The typo that used to print the `min_dsts = 100` report.
            (
                &[
                    "detect",
                    "--fused",
                    "--small",
                    "--days",
                    "14",
                    "--min-dst",
                    "5",
                    "--sequential",
                ][..],
                "--min-dst",
            ),
            (&["detect", "--trace", "x.l6tr", "--kills", "3"], "--kills"),
            (
                &["generate", "cdn", "--out", "x.l6tr", "--min-dsts", "5"],
                "--min-dsts",
            ),
            (
                &["generate", "mawi", "--out", "x.l6tr", "--intensity", "2"],
                "generate mawi takes no --intensity",
            ),
            (
                &["serve", "--config", "m.toml", "--steps-per-slice", "3"],
                "--steps-per-slice",
            ),
            (&["soak", "--out", "d", "--stop-after", "1"], "--stop-after"),
            (&["info", "--trace", "x.l6tr", "--json"], "--json"),
            (&["experiments", "--seqential", "table1"], "--seqential"),
            // `--threads N` pinned a shard count; there is one worker now.
            (
                &["detect", "--trace", "x.l6tr", "--threads", "2"],
                "--threads",
            ),
            (&["soak", "--out", "d", "--threads", "2"], "--threads"),
            (&["experiments", "--threads", "2", "all"], "--threads"),
            // A key the run would clamp or ignore is refused by name.
            (
                &["detect", "--trace", "x.l6tr", "--agg", "200"],
                "agg = 200",
            ),
            (
                &["mawi-detect", "--trace", "x.l6tr", "--agg", "129"],
                "agg = 129",
            ),
            (
                &["backscatter", "--trace", "x.l6tr", "--agg", "255"],
                "agg = 255",
            ),
            (
                &["fingerprint", "--trace", "x.l6tr", "--agg", "200"],
                "agg = 200",
            ),
            (&["detect", "--trace", "x.l6tr", "--days", "3"], "days"),
            (&["detect", "--trace", "x.l6tr", "--seed", "3"], "seed"),
            (&["detect", "--trace", "x.l6tr", "--small"], "small"),
            (
                &["detect", "--tail", "x.l6tr", "--intensity", "3"],
                "intensity",
            ),
        ] {
            let (_, res) = run_cli(line);
            let Err(CliError::Usage(msg)) = res else {
                panic!("{line:?}: expected a usage error, got {res:?}");
            };
            assert!(
                msg.contains(flag) && !msg.contains("USAGE"),
                "{line:?}: {msg}"
            );
        }

        const LOCAL: [&str; 15] = [
            "out",
            "csv",
            "top",
            "threshold",
            "pcap",
            "min-queriers",
            "fleet",
            "metrics-out",
            "config",
            "kills",
            "kill-after-checkpoints",
            "sample-ms",
            "max-rss-mb",
            "json",
            "prefilter",
        ];
        let known = |flag: &str| {
            LOCAL.contains(&flag)
                || RunConfig::KEYS.iter().any(|k| k.flag() == flag)
                || ServeConfig::KEYS.iter().any(|k| k.flag() == flag)
        };
        for switch in ["json", "prefilter", "no-such-flag"] {
            assert!(!takes_value(switch), "--{switch}");
        }
        for valued in &LOCAL[..13] {
            assert!(takes_value(valued), "--{valued}");
        }
        for word in USAGE.split(|c: char| !(c == '-' || c.is_ascii_alphanumeric())) {
            if let Some(flag) = word.strip_prefix("--") {
                assert!(known(flag), "USAGE lists --{flag}, which nothing reads");
            }
        }
    }

    /// A publication that fails — in the writer or at the rename — leaves
    /// what the path held and no `*.tmp` beside it, at every kind of site.
    #[test]
    fn failed_publication_leaves_the_previous_file_and_no_tmp() {
        let dir = std::env::temp_dir().join(format!("lumen6-cli-publish-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let at = |name: &str| dir.join(name).to_str().unwrap().to_string();
        let trace = at("t.l6tr");
        run_cli(&["generate", "cdn", "--out", &trace, "--days", "2", "--small"])
            .1
            .unwrap();
        run_cli(&["export-pcap", "--trace", &trace, "--out", &at("t.pcap")])
            .1
            .unwrap();

        // The writer fails mid-file: the second record's timestamp does not
        // fit a pcap header, after the first was written.
        let late = at("late.l6tr");
        let mut writer = TraceWriter::new(File::create(&late).unwrap()).unwrap();
        for ts_ms in [0, u64::MAX / 2] {
            writer
                .append(&lumen6_trace::PacketRecord::tcp(
                    ts_ms, 1, 2, 40_000, 22, 60,
                ))
                .unwrap();
        }
        writer.finish().unwrap();
        let pcap = at("out.pcap");
        std::fs::write(&pcap, b"previous").unwrap();
        let (_, res) = run_cli(&["export-pcap", "--trace", &late, "--out", &pcap]);
        assert!(matches!(res, Err(CliError::Usage(_))), "{res:?}");
        assert_eq!(std::fs::read(&pcap).unwrap(), b"previous");
        assert!(!Path::new(&at("out.pcap.tmp")).exists());

        // The rename fails: the destination is a directory.
        for (site, line) in [
            (
                "trace",
                &["generate", "cdn", "--days", "2", "--small", "--out"][..],
            ),
            ("import", &["import", "--pcap", &at("t.pcap"), "--out"]),
            ("metrics", &["detect", "--trace", &trace, "--metrics-out"]),
            ("csv/fig1_heatmap.csv", &["experiments", "fig2"]),
        ] {
            let dest = at(site);
            std::fs::create_dir_all(Path::new(&dest).join("previous")).unwrap();
            // An export names its directory; each CSV in it is published.
            let line = match dest.strip_suffix("/fig1_heatmap.csv") {
                Some(dir) => [line, &["--small", "--trace", &trace, "--csv", dir]].concat(),
                None => [line, &[dest.as_str()]].concat(),
            };
            let (_, res) = run_cli(&line);
            assert!(matches!(res, Err(CliError::Io(_))), "{site}: {res:?}");
            assert!(Path::new(&dest).join("previous").is_dir(), "{site}");
            assert!(!Path::new(&format!("{dest}.tmp")).exists(), "{site}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A subcommand's own flags are read before its input: a bad one is a
    /// usage error with nothing printed and no metrics file written.
    #[test]
    fn local_flags_are_read_before_the_work() {
        let dir = std::env::temp_dir().join(format!("lumen6-cli-local-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (trace, metrics) = (dir.join("t.l6tr"), dir.join("m.json"));
        let (t, m) = (trace.to_str().unwrap(), metrics.to_str().unwrap());
        run_cli(&["generate", "cdn", "--out", t, "--days", "3", "--small"])
            .1
            .unwrap();
        for (line, flag) in [
            (&["detect", "--top", "-1", "--metrics-out", m][..], "--top"),
            (
                &["fingerprint", "--min-dsts", "5", "--threshold", "nan"],
                "--threshold",
            ),
            (
                &["fingerprint", "--min-dsts", "5", "--threshold", "-5"],
                "--threshold",
            ),
            (&["backscatter", "--min-queriers", "many"], "--min-queriers"),
        ] {
            let (text, res) = run_cli(&[line, &["--trace", t]].concat());
            let Err(CliError::Usage(msg)) = res else {
                panic!("{line:?}: expected a usage error, got {res:?}");
            };
            assert!(msg.contains(flag), "{line:?}: {msg}");
            assert_eq!(text, "", "{line:?}");
            assert!(!metrics.exists(), "{line:?}");
        }
        let (text, res) = run_cli(&["fingerprint", "--trace", t, "--threshold", "0"]);
        res.unwrap();
        assert!(text.contains("(threshold 0)"), "{text}");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// `experiments` prints what the library renders on labs built from the
    /// same keys — the same bytes on either backend — and names the
    /// experiments when it is given none, or one it does not know.
    #[test]
    fn experiments_print_the_labs_the_library_builds() {
        use lumen6_experiments::{run_cdn, run_mawi, CdnLab, MawiLab};
        let line = ["experiments", "--small", "--sequential", "table1", "fig5"];
        let (seq, res) = run_cli(&line);
        res.unwrap();
        let run = RunConfig {
            small: true,
            ..RunConfig::default()
        };
        let cdn = CdnLab::build_with(run.fleet_config(), lumen6_detect::Backend::Sequential);
        let mawi = MawiLab::build(mawi_config(&run), Some(&cdn.world));
        let table1 = run_cdn("table1", &cdn).unwrap();
        assert_eq!(
            seq,
            format!("{table1}\n{}\n", run_mawi("fig5", &mawi).unwrap())
        );
        // `--metrics-out` prints and writes the run's delta, as `detect` does.
        let metrics = std::env::temp_dir().join(format!("lumen6-cli-exp-{}", std::process::id()));
        let m = metrics.to_str().unwrap();
        let threaded = ["experiments", "--small", "table1", "fig5"];
        let (threaded, res) = run_cli(&[&threaded[..], &["--metrics-out", m]].concat());
        res.unwrap();
        let table = threaded
            .strip_prefix(&seq)
            .expect("the default backend differs from --sequential");
        assert!(table.starts_with(&format!("metrics -> {m}\n")), "{table}");
        let snap: lumen6_obs::MetricsSnapshot =
            serde_json::from_str(&std::fs::read_to_string(&metrics).unwrap()).unwrap();
        assert!(snap.counters["detect.batch.records"] > 0);
        std::fs::remove_file(&metrics).unwrap();

        for line in [&["experiments"][..], &["experiments", "--small", "fig9"]] {
            let (text, res) = run_cli(line);
            let Err(CliError::Usage(msg)) = res else {
                panic!("{line:?}: expected a usage error, got {res:?}");
            };
            assert!(msg.contains("table1") && msg.contains("hitlist"), "{msg}");
            assert_eq!(text, "");
        }
    }

    /// A MAWI experiment named alone shares the CDN fleet's identities as
    /// it does beside the CDN experiments: the cross-vantage check is not
    /// run against a fallback source.
    #[test]
    fn a_mawi_experiment_alone_prints_its_section_of_all() {
        let (alone, res) = run_cli(&["experiments", "--small", "fig6"]);
        res.unwrap();
        let (all, res) = run_cli(&["experiments", "--small", "all"]);
        res.unwrap();
        assert!(alone.starts_with("## Fig. 6"), "{alone}");
        assert!(
            all.contains(&alone),
            "fig6 alone is not a section of all:\n{alone}"
        );
    }

    #[test]
    fn detect_requires_trace() {
        let (_, res) = run_cli(&["detect"]);
        assert!(matches!(res, Err(CliError::Usage(_))));
    }

    #[test]
    fn detect_config_file_matches_flags_and_flags_override() {
        let dir = std::env::temp_dir().join(format!("lumen6-cli-config-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("t.l6tr");
        let p = trace.to_str().unwrap();
        let (_, res) = run_cli(&[
            "generate", "cdn", "--out", p, "--days", "3", "--seed", "3", "--small",
        ]);
        res.unwrap();

        let (flags_out, res) = run_cli(&[
            "detect",
            "--trace",
            p,
            "--min-dsts",
            "5",
            "--sequential",
            "--json",
        ]);
        res.unwrap();

        // The same run expressed as a config file.
        let cfg = dir.join("run.toml");
        std::fs::write(
            &cfg,
            format!("trace = \"{p}\"\nmin_dsts = 5\nsequential = true\n"),
        )
        .unwrap();
        let c = cfg.to_str().unwrap();
        let (cfg_out, res) = run_cli(&["detect", "--config", c, "--json"]);
        res.unwrap();
        assert_eq!(cfg_out, flags_out, "config-file run differs from flag run");

        // A flag overrides the file's key: min_dsts back down to 5 from an
        // impossible threshold.
        let strict_cfg = dir.join("strict.toml");
        std::fs::write(
            &strict_cfg,
            format!("trace = \"{p}\"\nmin_dsts = 1000000000\nsequential = true\n"),
        )
        .unwrap();
        let sc = strict_cfg.to_str().unwrap();
        let (over_out, res) = run_cli(&["detect", "--config", sc, "--min-dsts", "5", "--json"]);
        res.unwrap();
        assert_eq!(over_out, flags_out, "flag did not override config key");

        // Unknown keys are rejected with the offending name.
        let bad_cfg = dir.join("bad.toml");
        std::fs::write(&bad_cfg, "trace = \"x\"\nmin_dst = 5\n").unwrap();
        let (_, res) = run_cli(&["detect", "--config", bad_cfg.to_str().unwrap()]);
        let Err(CliError::Usage(msg)) = res else {
            panic!("expected usage error, got {res:?}");
        };
        assert!(msg.contains("min_dst"), "{msg}");

        // A seconds value that overflows milliseconds is a usage error
        // naming the key — with or without --prefilter — never a panic.
        let huge_cfg = dir.join("huge.toml");
        std::fs::write(
            &huge_cfg,
            format!("trace = \"{p}\"\ntimeout_secs = {}\n", u64::MAX),
        )
        .unwrap();
        for extra in [&[][..], &["--prefilter"]] {
            let (_, res) =
                run_cli(&[&["detect", "--config", huge_cfg.to_str().unwrap()], extra].concat());
            let Err(CliError::Usage(msg)) = res else {
                panic!("expected usage error, got {res:?}");
            };
            assert!(msg.contains("timeout_secs"), "{msg}");
        }

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn serve_requires_valid_manifest() {
        let (_, res) = run_cli(&["serve"]);
        assert!(matches!(res, Err(CliError::Usage(_))));

        let dir = std::env::temp_dir().join(format!("lumen6-cli-serve-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let manifest = dir.join("serve.toml");
        // A tenant with no ingest source fails manifest validation.
        std::fs::write(&manifest, "[tenants.empty]\nmin_dsts = 5\n").unwrap();
        let (_, res) = run_cli(&["serve", "--config", manifest.to_str().unwrap()]);
        let Err(CliError::Usage(msg)) = res else {
            panic!("expected usage error, got {res:?}");
        };
        assert!(msg.contains("no ingest source"), "{msg}");
        // A tenant that still pins a shard count is refused by the key.
        std::fs::write(&manifest, "[tenants.par]\nfused = true\nthreads = 2\n").unwrap();
        let (_, res) = run_cli(&["serve", "--config", manifest.to_str().unwrap()]);
        let Err(CliError::Usage(msg)) = res else {
            panic!("expected usage error, got {res:?}");
        };
        assert!(msg.contains("par") && msg.contains("threads = 2"), "{msg}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn generate_then_detect_roundtrip() {
        let dir = std::env::temp_dir().join(format!("lumen6-cli-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.l6tr");
        let p = path.to_str().unwrap();

        let (out, res) = run_cli(&[
            "generate", "cdn", "--out", p, "--days", "5", "--seed", "3", "--small",
        ]);
        res.unwrap();
        assert!(out.contains("wrote"));

        let (out, res) = run_cli(&["info", "--trace", p]);
        res.unwrap();
        assert!(out.contains("records:"));
        assert!(out.contains("TCP"));

        let (out, res) = run_cli(&["detect", "--trace", p, "--prefilter", "--top", "5"]);
        res.unwrap();
        assert!(out.contains("scans from"), "{out}");

        let (out, res) = run_cli(&["adaptive", "--trace", p]);
        res.unwrap();
        assert!(out.contains("alerts"), "{out}");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn threaded_detect_matches_sequential() {
        let dir = std::env::temp_dir().join(format!("lumen6-cli-thread-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.l6tr");
        let p = path.to_str().unwrap();
        run_cli(&[
            "generate", "cdn", "--out", p, "--days", "6", "--seed", "9", "--small",
        ])
        .1
        .unwrap();

        let (seq, res) = run_cli(&["detect", "--trace", p, "--min-dsts", "50", "--sequential"]);
        res.unwrap();
        let (threaded, res) = run_cli(&["detect", "--trace", p, "--min-dsts", "50"]);
        res.unwrap();
        assert_eq!(threaded, seq);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn batch_size_does_not_change_output() {
        let dir = std::env::temp_dir().join(format!("lumen6-cli-batch-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.l6tr");
        let p = path.to_str().unwrap();
        run_cli(&[
            "generate", "cdn", "--out", p, "--days", "6", "--seed", "11", "--small",
        ])
        .1
        .unwrap();

        let (reference, res) =
            run_cli(&["detect", "--trace", p, "--min-dsts", "50", "--sequential"]);
        res.unwrap();
        for batch in ["1", "17", "100000"] {
            let (out, res) = run_cli(&[
                "detect",
                "--trace",
                p,
                "--min-dsts",
                "50",
                "--sequential",
                "--batch",
                batch,
            ]);
            res.unwrap();
            assert_eq!(out, reference, "--batch {batch} output differs");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mawi_generate_and_detect() {
        let dir = std::env::temp_dir().join(format!("lumen6-cli-mawi-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("m.l6tr");
        let p = path.to_str().unwrap();

        let (_, res) = run_cli(&[
            "generate", "mawi", "--out", p, "--days", "4", "--seed", "3", "--small",
        ]);
        res.unwrap();
        let (out, res) = run_cli(&["mawi-detect", "--trace", p, "--min-dsts", "5"]);
        res.unwrap();
        assert!(out.contains("per-day scans"), "{out}");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn json_output_is_valid() {
        let dir = std::env::temp_dir().join(format!("lumen6-cli-json-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.l6tr");
        let p = path.to_str().unwrap();
        run_cli(&["generate", "cdn", "--out", p, "--days", "3", "--small"])
            .1
            .unwrap();
        let (out, res) = run_cli(&["detect", "--trace", p, "--json", "--min-dsts", "50"]);
        res.unwrap();
        let parsed: serde_json::Value = serde_json::from_str(&out).unwrap();
        assert!(parsed.is_array());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fingerprint_command_clusters() {
        let dir = std::env::temp_dir().join(format!("lumen6-cli-fp-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.l6tr");
        let p = path.to_str().unwrap();
        run_cli(&["generate", "cdn", "--out", p, "--days", "7", "--small"])
            .1
            .unwrap();
        let (out, res) = run_cli(&["fingerprint", "--trace", p, "--min-dsts", "50"]);
        res.unwrap();
        assert!(out.contains("behavior clusters"), "{out}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn pcap_export_import_roundtrip() {
        let dir = std::env::temp_dir().join(format!("lumen6-cli-pcap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let t = dir.join("t.l6tr");
        let p = dir.join("t.pcap");
        let t2 = dir.join("t2.l6tr");
        run_cli(&[
            "generate",
            "cdn",
            "--out",
            t.to_str().unwrap(),
            "--days",
            "3",
            "--small",
        ])
        .1
        .unwrap();
        let (o, res) = run_cli(&[
            "export-pcap",
            "--trace",
            t.to_str().unwrap(),
            "--out",
            p.to_str().unwrap(),
        ]);
        res.unwrap();
        assert!(o.contains("wrote"));
        let (o, res) = run_cli(&[
            "import",
            "--pcap",
            p.to_str().unwrap(),
            "--out",
            t2.to_str().unwrap(),
        ]);
        res.unwrap();
        assert!(o.contains("0 packets skipped"), "{o}");
        // Detection over the re-imported trace matches the original.
        let (a, _) = run_cli(&["detect", "--trace", t.to_str().unwrap(), "--min-dsts", "50"]);
        let (b, _) = run_cli(&[
            "detect",
            "--trace",
            t2.to_str().unwrap(),
            "--min-dsts",
            "50",
        ]);
        assert_eq!(
            a.lines().next().unwrap(),
            b.lines().next().unwrap(),
            "same scans/sources/packets summary"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn backscatter_command_flags_scanners() {
        let dir = std::env::temp_dir().join(format!("lumen6-cli-bs-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.l6tr");
        let p = path.to_str().unwrap();
        run_cli(&["generate", "cdn", "--out", p, "--days", "5", "--small"])
            .1
            .unwrap();
        let (out, res) = run_cli(&["backscatter", "--trace", p, "--min-queriers", "30"]);
        res.unwrap();
        assert!(out.contains("sources flagged"), "{out}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn custom_fleet_from_json() {
        let dir = std::env::temp_dir().join(format!("lumen6-cli-fleet-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let fleet = dir.join("fleet.json");
        let out = dir.join("custom.l6tr");
        // One single-source hitlist scanner, defined entirely in JSON.
        let actors = vec![lumen6_scanners::ScannerActor {
            name: "json-scanner".into(),
            asn: 65_001,
            sources: lumen6_scanners::SourceSampler::Single(0x2001_0db8 << 96 | 1),
            targets: lumen6_scanners::TargetSampler::Hitlist(
                (1..=300u128).map(|i| i << 8).collect(),
            ),
            ports: lumen6_scanners::PortSampler::Single(lumen6_trace::Transport::Tcp, 22),
            schedule: lumen6_scanners::Schedule::continuous(0, 3, 400),
            probe_len: 60,
        }];
        std::fs::write(&fleet, serde_json::to_string_pretty(&actors).unwrap()).unwrap();

        let (o, res) = run_cli(&[
            "generate",
            "custom",
            "--fleet",
            fleet.to_str().unwrap(),
            "--out",
            out.to_str().unwrap(),
        ]);
        res.unwrap();
        assert!(o.contains("wrote 1200 records"), "{o}");
        let (o, res) = run_cli(&["detect", "--trace", out.to_str().unwrap(), "--agg", "128"]);
        res.unwrap();
        assert!(o.contains("1 sources"), "{o}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn custom_fleet_bad_json_is_usage_error() {
        let dir = std::env::temp_dir().join(format!("lumen6-cli-badfleet-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let fleet = dir.join("fleet.json");
        std::fs::write(&fleet, "{not json").unwrap();
        let (_, res) = run_cli(&[
            "generate",
            "custom",
            "--fleet",
            fleet.to_str().unwrap(),
            "--out",
            dir.join("x.l6tr").to_str().unwrap(),
        ]);
        assert!(matches!(res, Err(CliError::Usage(_))));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_file_is_io_error() {
        let (_, res) = run_cli(&["info", "--trace", "/nonexistent/x.l6tr"]);
        assert!(matches!(res, Err(CliError::Io(_))));
    }

    /// `generate cdn` writes the stream `detect --fused` reads — on the
    /// same days when neither names them: `--small` alone is 42 days.
    #[test]
    fn fused_detect_matches_trace_file_detect() {
        let dir = std::env::temp_dir().join(format!("lumen6-cli-fused-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.l6tr");
        let p = path.to_str().unwrap();
        for params in [
            &["--days", "6", "--seed", "13", "--small"][..],
            &["--small"],
        ] {
            run_cli(&[&["generate", "cdn", "--out", p][..], params].concat())
                .1
                .unwrap();
            let (via_file, res) = run_cli(&["detect", "--trace", p, "--min-dsts", "50"]);
            res.unwrap();
            let fused = [&["detect", "--fused", "--min-dsts", "50"][..], params].concat();
            let (via_fused, res) = run_cli(&fused);
            res.unwrap();
            assert_eq!(
                via_fused, via_file,
                "{params:?}: fused output differs from the file"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// `--prefilter` is the same day stage over a generated file and over
    /// the fused stream, and at an integer intensity it removes what it
    /// removes at 1x — its threshold scales — so the events are the 1x
    /// events with every packet count times the intensity. At
    /// `--min-dsts 5`, where the filter changes the report. It refuses the
    /// flags it cannot resume under, with one error.
    #[test]
    fn fused_prefilter_equals_the_trace_and_scales_with_intensity() {
        let dir = std::env::temp_dir().join(format!("lumen6-cli-fusedpre-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.l6tr");
        let p = path.to_str().unwrap();
        let shape = ["--small", "--days", "21"];
        run_cli(&[&["generate", "cdn", "--out", p][..], &shape].concat())
            .1
            .unwrap();
        let filtered = ["--prefilter", "--min-dsts", "5", "--json"];
        let (via_file, res) = run_cli(&[&["detect", "--trace", p][..], &filtered].concat());
        res.unwrap();
        let fused = [&["detect", "--fused"][..], &shape, &filtered].concat();
        let (via_fused, res) = run_cli(&fused);
        res.unwrap();
        assert_eq!(
            via_fused, via_file,
            "fused --prefilter differs from the file"
        );
        let (unfiltered, res) = run_cli(&[&["detect", "--trace", p][..], &filtered[1..]].concat());
        res.unwrap();
        assert_ne!(
            unfiltered, via_file,
            "the filter removed nothing that mattered"
        );

        let events =
            |json: &str| -> Vec<lumen6_detect::ScanEvent> { serde_json::from_str(json).unwrap() };
        let (at10, res) = run_cli(&[&fused[..], &["--intensity", "10"]].concat());
        res.unwrap();
        let mut expect = events(&via_file);
        for e in &mut expect {
            e.packets *= 10;
            e.ports.iter_mut().for_each(|(_, n)| *n *= 10);
        }
        assert_eq!(events(&at10), expect);

        for line in [
            &[
                "detect",
                "--trace",
                p,
                "--prefilter",
                "--checkpoint",
                "c.l6ck",
            ][..],
            &[
                "detect",
                "--trace",
                p,
                "--prefilter",
                "--watermark-secs",
                "5",
            ],
            &["detect", "--fused", "--prefilter", "--watermark-secs", "5"],
            &["detect", "--tail", p, "--prefilter"],
        ] {
            let (_, res) = run_cli(line);
            let Err(CliError::Usage(msg)) = res else {
                panic!("{line:?}: expected a usage error, got {res:?}");
            };
            assert!(msg.contains("incompatible with --prefilter"), "{msg}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fused_detect_checkpoint_stop_and_resume() {
        let dir = std::env::temp_dir().join(format!("lumen6-cli-fusedck-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let ck = dir.join("state.l6ck");
        let base = |extra: &[&'static str]| {
            let mut v = vec![
                "detect",
                "--fused",
                "--small",
                "--days",
                "6",
                "--min-dsts",
                "50",
                "--checkpoint",
                ck.to_str().unwrap(),
                "--checkpoint-every",
                "2000",
            ];
            v.extend(extra);
            v
        };
        let (_, res) = run_cli(&base(&["--stop-after", "1"]));
        let Err(CliError::Stopped {
            checkpoints_written,
            records_done,
        }) = res
        else {
            panic!("expected Stopped, got {res:?}");
        };
        assert_eq!(checkpoints_written, 1);
        assert_eq!(records_done, 2000);
        // Resume to completion; output matches an uninterrupted run with
        // the same checkpoint cadence (fresh checkpoint path).
        let (resumed, res) = run_cli(&base(&[]));
        res.unwrap();
        std::fs::remove_file(&ck).unwrap();
        let (clean, res) = run_cli(&base(&[]));
        res.unwrap();
        assert_eq!(resumed, clean, "resumed fused run differs from clean run");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn generate_intensity_scales_volume() {
        let dir = std::env::temp_dir().join(format!("lumen6-cli-intens-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let count = |intensity: &str| {
            let path = dir.join(format!("t{intensity}.l6tr"));
            let (out, res) = run_cli(&[
                "generate",
                "cdn",
                "--out",
                path.to_str().unwrap(),
                "--days",
                "4",
                "--small",
                "--intensity",
                intensity,
            ]);
            res.unwrap();
            out.split_whitespace()
                .nth(1)
                .unwrap()
                .parse::<u64>()
                .unwrap()
        };
        let base = count("1.0");
        let double = count("2.0");
        let half = count("0.5");
        assert!(
            double > base && base > half,
            "intensity did not scale volume: 0.5x={half} 1x={base} 2x={double}"
        );
        let (_, res) = run_cli(&[
            "generate",
            "cdn",
            "--out",
            dir.join("bad.l6tr").to_str().unwrap(),
            "--intensity",
            "-3",
        ]);
        assert!(matches!(res, Err(CliError::Usage(_))));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sketch_precision_flag_bounds_memory_not_results_shape() {
        let dir = std::env::temp_dir().join(format!("lumen6-cli-sketch-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.l6tr");
        let p = path.to_str().unwrap();
        run_cli(&[
            "generate", "cdn", "--out", p, "--days", "6", "--seed", "5", "--small",
        ])
        .1
        .unwrap();
        // High precision: sketched counts are near-exact, so the summary
        // (scans/sources) matches the exact-set run on this workload.
        let (exact, res) = run_cli(&["detect", "--trace", p, "--min-dsts", "50"]);
        res.unwrap();
        let (sketched, res) = run_cli(&[
            "detect",
            "--trace",
            p,
            "--min-dsts",
            "50",
            "--sketch-precision",
            "16",
        ]);
        res.unwrap();
        assert_eq!(
            sketched.lines().next().unwrap(),
            exact.lines().next().unwrap(),
            "precision-16 sketch changed the scans/sources summary"
        );
        // Out-of-range precision is clamped, not an error.
        let (_, res) = run_cli(&[
            "detect",
            "--trace",
            p,
            "--min-dsts",
            "50",
            "--sketch-precision",
            "99",
        ]);
        res.unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }
}
