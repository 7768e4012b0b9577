//! The traced run: per-layer time and counts, measured from the benchmark's
//! side of the public API.
//!
//! One repetition is two passes over the same inputs. **Pass A** is the
//! product loop — `Session::step` over a [`TimedSource`] (or `Daemon::run`)
//! — and says how long the program spends pulling records versus everything
//! else. **Pass B** drives the layers by hand — `poll_fill` →
//! `Detect::observe_batch` → at each checkpoint boundary `Detect::snapshot`
//! and `Checkpoint::save` → `finish` → render — one span per call, and must
//! reproduce Pass A's report digest, which is what licenses reading its
//! spans as the inside of Pass A's `step` self time.

use crate::drive::{self, RefCheck, Rendered};
use crate::gate::LabelledDigest;
use crate::names::{self, Metric};
use crate::span::{self, secs, Span, Trace};
use crate::stats;
use crate::timed::TimedSource;
use crate::workload::{EncodeStats, Plan, RunPlan, Workload};
use lumen6_detect::{Checkpoint, Detect, ReorderBuffer, SessionReport, Step};
use lumen6_obs::{MetricsRegistry, MetricsSnapshot};
use lumen6_scanners::{FleetConfig, FleetSource, ParallelFleetSource, World};
use lumen6_serve::{Daemon, RunConfig};
use lumen6_telescope::{CaptureConfig, FirewallCapture};
use lumen6_trace::{FileStreamSource, FillOutcome, PacketRecord, RecordBatch, Source};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Per-layer values of one repetition, by declared name.
#[derive(Default)]
struct Values(BTreeMap<&'static str, f64>);

impl Values {
    fn set(&mut self, name: &'static str, value: f64) {
        // Fails fast on a name that BENCHMARK.json does not declare.
        self.0.insert(names::per_layer(name).name, value);
    }

    fn add(&mut self, name: &'static str, value: f64) {
        *self.0.entry(names::per_layer(name).name).or_insert(0.0) += value;
    }

    /// The value set so far, 0 when none was.
    fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The sources Pass B builds by hand, kept concrete so the parallel
/// source's own gauge can be read.
enum HandSource {
    Fleet(Box<FleetSource>),
    Parallel(Box<ParallelFleetSource>),
    File(Box<FileStreamSource>),
}

impl HandSource {
    fn build(cfg: &RunConfig, trace: &Trace) -> Result<HandSource, String> {
        if let Some(path) = &cfg.trace {
            let open = || FileStreamSource::open(Path::new(path));
            let src = trace
                .time("source_new", open)
                .map_err(|e| format!("{path}: {e}"))?;
            return Ok(HandSource::File(Box::new(src.permissive(!cfg.strict))));
        }
        let world = trace.time("world_build", || World::build(cfg.fleet_config()));
        Ok(trace.time("source_new", || match cfg.gen_threads {
            1 => HandSource::Fleet(Box::new(FleetSource::new(world))),
            n => HandSource::Parallel(Box::new(ParallelFleetSource::new(world, n))),
        }))
    }

    fn as_source(&mut self) -> &mut dyn Source {
        match self {
            HandSource::Fleet(s) => s.as_mut(),
            HandSource::Parallel(s) => s.as_mut(),
            HandSource::File(s) => s.as_mut(),
        }
    }

    fn peak_buffered(&self) -> u64 {
        match self {
            HandSource::Parallel(s) => s.peak_buffered_records(),
            _ => 0,
        }
    }
}

/// Name of the pull span in Pass B: decode for a file, generation otherwise.
fn pull_span(cfg: &RunConfig) -> &'static str {
    if cfg.trace.is_some() {
        "decode"
    } else {
        "fill"
    }
}

/// What Pass B (or a resumed tail of it) produced beside its spans.
struct Hand {
    rendered: Rendered,
    distinct_rows: u64,
    checkpoint_bytes: u64,
    checkpoint_bytes_written: u64,
    peak_buffered: u64,
}

/// Drives one run layer by layer. `resume` continues from a loaded
/// checkpoint instead of starting fresh (and writes no further ones).
fn hand_drive(run: &RunPlan, trace: &Trace, resume: Option<Checkpoint>) -> Result<Hand, String> {
    let cfg = &run.cfg;
    let err = |e: &dyn std::fmt::Display| format!("{} (hand-driven): {e}", run.label);
    let mut src = HandSource::build(cfg, trace)?;
    let builder = run.detector_builder();
    let (mut det, mut records, mut ckpts): (Box<dyn Detect>, u64, u64) = match &resume {
        None => (
            trace.time("detector_build", || builder.build(cfg.backend())),
            0,
            0,
        ),
        Some(ck) => {
            let det = trace
                .time("resume_restore", || {
                    builder.restore(cfg.backend(), &ck.detector)
                })
                .map_err(|e| err(&e))?;
            trace
                .time("resume_seek", || src.as_source().resume(ck.position))
                .map_err(|e| err(&e))?;
            (det, ck.records_done, ck.checkpoints_written)
        }
    };
    let every = match (&cfg.checkpoint, &resume) {
        (Some(_), None) => cfg.checkpoint_every,
        _ => 0,
    };
    let ckpt_path = cfg.checkpoint.as_deref().map(Path::new);
    let cap = cfg.batch.max(1);
    let pull = pull_span(cfg);
    let mut batch = RecordBatch::with_capacity(cap);
    let mut prev: Option<PacketRecord> = None;
    let mut distinct_rows = 0u64;
    let (mut checkpoint_bytes, mut checkpoint_bytes_written) = (0u64, 0u64);
    loop {
        // Like `Session::step`: never pull past a checkpoint boundary.
        let want = match every {
            0 => cap,
            every => cap.min(usize::try_from(every - records % every).unwrap_or(cap)),
        };
        let outcome = trace
            .time(pull, || src.as_source().poll_fill(&mut batch, want))
            .map_err(|e| err(&e))?;
        match outcome {
            FillOutcome::Filled(n) => records += n as u64,
            FillOutcome::Eof => break,
            FillOutcome::Pending => return Err(err(&"finite source reported Pending")),
        }
        trace.time("rowscan", || {
            for r in batch.iter() {
                if prev != Some(r) {
                    distinct_rows += 1;
                    prev = Some(r);
                }
            }
        });
        trace.time("observe", || det.observe_batch(&batch));
        if let (true, Some(path)) = (every > 0 && records % every == 0, ckpt_path) {
            ckpts += 1;
            let detector = trace.time("snapshot", || det.snapshot());
            let ck = Checkpoint {
                position: src.as_source().position(),
                records_done: records,
                decode_skipped: src.as_source().skipped(),
                detector,
                reorder: ReorderBuffer::new(0).state(),
                checkpoints_written: ckpts,
                last_flush_ms: 0,
            };
            trace
                .time("checkpoint_save", || ck.save(path))
                .map_err(|e| err(&e))?;
            // `save` copies the previous generation to `.prev` first.
            let copied = checkpoint_bytes;
            checkpoint_bytes = std::fs::metadata(path).map_or(0, |m| m.len());
            checkpoint_bytes_written += checkpoint_bytes + copied;
        }
    }
    let reports = trace.time("finish", || det.finish());
    let report = SessionReport {
        reports,
        records,
        late_dropped: 0,
        decode_skipped: src.as_source().skipped(),
        checkpoints_written: ckpts,
    };
    let rendered = trace.time("render", || drive::render(&report))?;
    let peak_buffered = src.peak_buffered();
    trace.time("teardown", || drop((src, report, batch)));
    Ok(Hand {
        rendered,
        distinct_rows,
        checkpoint_bytes,
        checkpoint_bytes_written,
        peak_buffered,
    })
}

/// Pass A of a session workload: the product loop over a [`TimedSource`].
fn pass_a_session(run: &RunPlan, trace: &Trace) -> Result<(Rendered, u64, u64), String> {
    let err = |e: &dyn std::fmt::Display| format!("{} (pass A): {e}", run.label);
    run.clear_checkpoint();
    let _root = trace.span("pass_a");
    let (src, mut session) = {
        let _setup = trace.span("setup");
        (
            run.cfg.make_source().map_err(|e| err(&e))?,
            run.make_session(),
        )
    };
    let mut src = TimedSource::new(src, trace.clone(), pull_span(&run.cfg));
    let report = loop {
        let _step = trace.span("step");
        match session.step(&mut src).map_err(|e| err(&e))? {
            Step::Finished(report) => break report,
            Step::Stopped { .. } => return Err(err(&"session stopped mid-stream")),
            Step::Ingested(_) | Step::Pending => {}
        }
    };
    let rendered = trace.time("render", || drive::render(&report))?;
    let (calls, records) = (src.calls(), src.records());
    trace.time("teardown", || drop((src, session, report)));
    Ok((rendered, calls, records))
}

fn obs_counter(delta: &MetricsSnapshot, name: &str) -> f64 {
    delta.counters.get(name).copied().unwrap_or(0) as f64
}

/// Metrics read off the program's own counters over Pass A.
fn obs_metrics(values: &mut Values, delta: &MetricsSnapshot) {
    let emitted = delta.counter_sum("scanners.fleet.packets_emitted.", "");
    let background = obs_counter(delta, "scanners.fleet.packets_emitted.artifacts")
        + obs_counter(delta, "scanners.fleet.packets_emitted.noise");
    values.set("scanners.artifact_share", ratio(background, emitted as f64));
    values.set(
        "detect.memo_hit_ratio",
        ratio(
            obs_counter(delta, "detect.batch.memo_hits"),
            obs_counter(delta, "detect.batch.records"),
        ),
    );
    for name in [
        "scanners.parallel.merge_stalls",
        "scanners.parallel.runs_merged",
        "trace.codec.bytes_read",
        "trace.codec.refills",
        "detect.parallel.batches_sent",
        "detect.parallel.channel_full_stalls",
    ] {
        values.set(name, obs_counter(delta, name));
    }
    values.set(
        "detect.shard.imbalance_permille",
        delta
            .gauges
            .get("detect.shard.imbalance")
            .copied()
            .unwrap_or(0) as f64,
    );
}

/// Span totals of the hand-driven passes → per-layer values. Additive, so
/// the four `serve-tenants` tenants accumulate into one set.
fn hand_metrics(values: &mut Values, pass_b: &Tree) {
    let total = |name: &str| pass_b.total(name);
    values.add("scanners.world_build_s", total("world_build"));
    values.add("scanners.source_new_s", total("source_new"));
    values.add("detect.observe_s", total("observe"));
    values.add("detect.finish_s", total("finish"));
    values.add("detect.snapshot_s", total("snapshot"));
    values.add("detect.checkpoint_save_s", total("checkpoint_save"));
    values.add("report.render_s", total("render"));
}

fn per_record_ns(seconds: f64, records: f64) -> f64 {
    ratio(seconds * 1e9, records)
}

fn mib(bytes: f64) -> f64 {
    bytes / (1024.0 * 1024.0)
}

/// One traced repetition.
struct Rep {
    /// Per-layer values.
    values: Values,
    /// Pass A's wall over the interval an untraced iteration times.
    pass_a_run_s: f64,
    /// Digest of Pass A's report.
    digest_a: u64,
    /// Digest of Pass B's report.
    digest_b: u64,
    /// Pass B's report, for cross-workload checks.
    rendered: Option<Rendered>,
    /// Reference comparisons made along the way (the resume check).
    refs: Vec<RefCheck>,
    /// Every span of the repetition.
    spans: Vec<Span>,
}

/// One traced repetition of a session workload.
fn session_rep(plan: &Plan) -> Result<Rep, String> {
    let run = &plan.runs[0];
    let trace = Trace::new();
    let reg = MetricsRegistry::global();
    let mut values = Values::default();

    let before = reg.snapshot();
    let (rendered_a, calls, records) = pass_a_session(run, &trace)?;
    obs_metrics(&mut values, &reg.snapshot().delta(&before));

    run.clear_checkpoint();
    let hand = {
        let _root = trace.span("pass_b");
        hand_drive(run, &trace, None)?
    };
    let mut refs = Vec::new();
    if let (Some(path), true) = (&run.cfg.checkpoint, hand.rendered.checkpoints > 0) {
        // Restart cost, and proof that the last checkpoint resumes to the
        // uninterrupted result.
        let _root = trace.span("resume");
        let ck = trace
            .time("resume_load", || Checkpoint::load_newest(Path::new(path)))
            .map_err(|e| format!("{}: loading checkpoint: {e}", run.label))?;
        let resumed = hand_drive(run, &trace, Some(ck))?;
        refs.push(RefCheck {
            what: format!("{} resumed from its last checkpoint", run.label),
            measured: resumed.rendered.reports_line(),
            reference: hand.rendered.reports_line(),
        });
    }

    let spans = trace.spans();
    let (a, b, resume) = (
        Tree::under(&spans, "pass_a"),
        Tree::under(&spans, "pass_b"),
        Tree::under(&spans, "resume"),
    );
    let recs = records as f64;

    // Pass A: the pull versus the rest of the step.
    let pull_s = a.total(pull_span(&run.cfg));
    if let Some(path) = &run.cfg.trace {
        let file_bytes = std::fs::metadata(path).map_or(0.0, |m| m.len() as f64);
        values.set("trace.decode_s", pull_s);
        values.set("trace.decode_ns_per_record", per_record_ns(pull_s, recs));
        values.set("trace.decode_mib_per_s", ratio(mib(file_bytes), pull_s));
    } else {
        values.set("scanners.fill_s", pull_s);
        values.set("scanners.fill_ns_per_record", per_record_ns(pull_s, recs));
    }
    values.set("scanners.fill_calls", calls as f64);
    values.set("scanners.records", recs);
    let step_self_s = a.self_total("step");
    let mut step_ms: Vec<f64> = a
        .spans
        .iter()
        .filter(|s| s.name == "step")
        .map(|s| s.duration_ns() as f64 / 1e6)
        .collect();
    step_ms.sort_by(f64::total_cmp);
    values.set("detect.session.step_self_s", step_self_s);
    values.set("detect.session.step_ms_p50", stats::median(&step_ms));
    values.set(
        "detect.session.step_ms_max",
        step_ms.last().copied().unwrap_or(0.0),
    );

    // Pass B: the inside of that rest.
    hand_metrics(&mut values, &b);
    let observe_s = values.get("detect.observe_s");
    values.set(
        "detect.observe_ns_per_record",
        per_record_ns(observe_s, recs),
    );
    // The final step of Pass A also runs `finish`, so it is taken out too.
    let inside = observe_s
        + values.get("detect.snapshot_s")
        + values.get("detect.checkpoint_save_s")
        + values.get("detect.finish_s");
    values.set("detect.session.overhead_s", step_self_s - inside);
    values.set(
        "scanners.distinct_row_ratio",
        ratio(hand.distinct_rows as f64, recs),
    );
    values.set(
        "scanners.parallel.peak_buffered_records",
        hand.peak_buffered as f64,
    );
    values.set("detect.events", hand.rendered.events() as f64);
    values.set("detect.checkpoints", hand.rendered.checkpoints as f64);
    values.set("detect.checkpoint_bytes", hand.checkpoint_bytes as f64);
    values.set(
        "detect.checkpoint_bytes_written",
        hand.checkpoint_bytes_written as f64,
    );
    values.set("report.bytes", hand.rendered.bytes as f64);
    values.set(
        "detect.resume_load_s",
        resume.total("resume_load") + resume.total("resume_restore"),
    );
    values.set("scanners.resume_seek_s", resume.total("resume_seek"));

    values.set("bench.span_coverage", span::coverage(&spans));
    let pass_a_run_s = a.total("step") + a.total("render");

    Ok(Rep {
        values,
        pass_a_run_s,
        digest_a: rendered_a.digest,
        digest_b: hand.rendered.digest,
        rendered: Some(hand.rendered),
        refs,
        spans,
    })
}

/// The spans under (and including) the first root called `root`, re-indexed
/// so they form a valid span list of their own, with their self times.
struct Tree {
    spans: Vec<Span>,
    self_ns: Vec<u64>,
}

impl Tree {
    fn under(spans: &[Span], root: &str) -> Tree {
        let mut new_id: Vec<Option<usize>> = vec![None; spans.len()];
        let mut out: Vec<Span> = Vec::new();
        for s in spans {
            let keep = match s.parent {
                None => s.name == root && out.is_empty(),
                Some(p) => new_id[p].is_some(),
            };
            if keep {
                new_id[s.id] = Some(out.len());
                out.push(Span {
                    id: out.len(),
                    parent: s.parent.and_then(|p| new_id[p]),
                    ..s.clone()
                });
            }
        }
        let self_ns = span::self_times_ns(&out);
        Tree {
            spans: out,
            self_ns,
        }
    }

    /// Σ duration of the spans called `name`, seconds.
    fn total(&self, name: &str) -> f64 {
        secs(span::totals(&self.spans, &self.self_ns, name).total_ns)
    }

    /// Σ self time of the spans called `name`, seconds.
    fn self_total(&self, name: &str) -> f64 {
        secs(span::totals(&self.spans, &self.self_ns, name).self_ns)
    }

    fn count(&self, name: &str) -> u64 {
        span::totals(&self.spans, &self.self_ns, name).count
    }
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// A counter out of a tenant's published `metrics.json`.
fn tenant_counter(spool: &Path, tenant: &str, name: &str) -> f64 {
    std::fs::read_to_string(spool.join(tenant).join("metrics.json"))
        .ok()
        .and_then(|text| serde_json::from_str::<MetricsSnapshot>(&text).ok())
        .map_or(0.0, |snap| obs_counter(&snap, name))
}

/// One traced repetition of `serve-tenants`. Pass A is the daemon as a
/// whole (its inside is not reachable through the public API); Pass B hand-
/// drives each tenant's run with the same checkpoint cadence, which is both
/// the layer breakdown and the denominator of `serve.overhead_ratio`.
fn serve_rep(plan: &Plan, work: &Path) -> Result<Rep, String> {
    let config = plan.serve.clone().ok_or("serve plan without a manifest")?;
    let spool = PathBuf::from(&config.spool);
    let workers = config.workers as f64;
    let trace = Trace::new();
    let reg = MetricsRegistry::global();
    let mut values = Values::default();

    let _ = std::fs::remove_dir_all(&spool);
    let before = reg.snapshot();
    let digest_a = {
        let _root = trace.span("pass_a");
        let daemon = trace
            .time("daemon_new", || Daemon::new(config))
            .map_err(|e| format!("Daemon::new: {e}"))?;
        let summary = trace
            .time("daemon_run", || daemon.run())
            .map_err(|e| format!("Daemon::run: {e}"))?;
        let _collect = trace.span("collect");
        if summary.any_failed() {
            return Err(format!("a tenant failed: {:?}", summary.tenants));
        }
        values.set(
            "serve.slices",
            summary.tenants.iter().map(|t| t.slices as f64).sum(),
        );
        for t in &summary.tenants {
            values.add(
                "serve.publishes",
                tenant_counter(&spool, &t.name, "serve.tenant.publishes"),
            );
            values.add(
                "serve.pending_polls",
                tenant_counter(&spool, &t.name, "serve.tenant.pending_polls"),
            );
        }
        values.set("serve.spool_bytes", dir_bytes(&spool) as f64);
        let published: Result<Vec<Rendered>, String> = plan
            .runs
            .iter()
            .map(|r| drive::published_report(&spool, &r.label))
            .collect();
        drive::combine_digests(published?.iter().map(|r| r.digest))
    };
    obs_metrics(&mut values, &reg.snapshot().delta(&before));

    let hand_dir = work.join("hand");
    std::fs::create_dir_all(&hand_dir).map_err(|e| format!("{}: {e}", hand_dir.display()))?;
    let mut hand_wall = Duration::ZERO;
    let mut tenants = Vec::new();
    let (mut records, mut distinct, mut decoded, mut generated) = (0u64, 0u64, 0u64, 0u64);
    {
        let _root = trace.span("pass_b");
        for run in &plan.runs {
            let by_hand = RunPlan {
                cfg: RunConfig {
                    checkpoint: Some(
                        hand_dir
                            .join(format!("{}.l6ck", run.label))
                            .to_string_lossy()
                            .into_owned(),
                    ),
                    ..run.cfg.clone()
                },
                ..run.clone()
            };
            by_hand.clear_checkpoint();
            let t = Instant::now();
            let hand = hand_drive(&by_hand, &trace, None)?;
            hand_wall += t.elapsed();
            records += hand.rendered.records;
            distinct += hand.distinct_rows;
            if run.cfg.trace.is_some() {
                decoded += hand.rendered.records;
            } else {
                generated += hand.rendered.records;
            }
            values.add("detect.events", hand.rendered.events() as f64);
            values.add("detect.checkpoints", hand.rendered.checkpoints as f64);
            values.add("detect.checkpoint_bytes", hand.checkpoint_bytes as f64);
            values.add(
                "detect.checkpoint_bytes_written",
                hand.checkpoint_bytes_written as f64,
            );
            values.add("report.bytes", hand.rendered.bytes as f64);
            tenants.push(hand.rendered);
        }
    }
    let digest_b = drive::combine_digests(tenants.iter().map(|r| r.digest));

    let spans = trace.spans();
    let (a, b) = (Tree::under(&spans, "pass_a"), Tree::under(&spans, "pass_b"));
    let total = |name: &str| b.total(name);
    hand_metrics(&mut values, &b);
    let run_s = a.total("daemon_run");
    values.set("serve.daemon_new_s", a.total("daemon_new"));
    values.set("serve.run_s", run_s);
    values.set(
        "serve.overhead_ratio",
        ratio(run_s * workers, hand_wall.as_secs_f64()),
    );
    let recs = records as f64;
    values.set("scanners.records", recs);
    values.set(
        "scanners.fill_calls",
        (b.count("fill") + b.count("decode")) as f64,
    );
    values.set("scanners.fill_s", total("fill"));
    values.set(
        "scanners.fill_ns_per_record",
        per_record_ns(total("fill"), generated as f64),
    );
    values.set("trace.decode_s", total("decode"));
    values.set(
        "trace.decode_ns_per_record",
        per_record_ns(total("decode"), decoded as f64),
    );
    let file_bytes: u64 = plan
        .runs
        .iter()
        .filter_map(|r| r.cfg.trace.as_deref())
        .map(|p| std::fs::metadata(p).map_or(0, |m| m.len()))
        .sum();
    values.set(
        "trace.decode_mib_per_s",
        ratio(mib(file_bytes as f64), total("decode")),
    );
    let observe_s = values.get("detect.observe_s");
    values.set(
        "detect.observe_ns_per_record",
        per_record_ns(observe_s, recs),
    );
    values.set("scanners.distinct_row_ratio", ratio(distinct as f64, recs));
    values.set("bench.span_coverage", span::coverage(&spans));

    Ok(Rep {
        values,
        pass_a_run_s: run_s,
        digest_a,
        digest_b,
        rendered: None,
        refs: Vec::new(),
        spans,
    })
}

/// Kernel drives on the workload's world at intensity 1: actor expansion
/// and the capture filter, each as a bare loop over the public functions
/// the fused source composes.
fn kernels(run: &RunPlan, values: &mut Values) {
    let world = World::build(FleetConfig {
        intensity: 1.0,
        ..run.cfg.fleet_config()
    });
    let seed = world.config().seed;
    let t = Instant::now();
    let streams: Vec<Vec<PacketRecord>> = world
        .fleet
        .actors
        .iter()
        .map(|a| black_box(a.generate_scaled(seed, 1.0)))
        .collect();
    let expand = t.elapsed();
    let probes: usize = streams.iter().map(Vec::len).sum();

    let capture = FirewallCapture::new(&world.deployment, CaptureConfig::default());
    let t = Instant::now();
    let logged = streams
        .iter()
        .flatten()
        .filter(|r| black_box(capture.logs(r)))
        .count();
    let filter = t.elapsed();

    let probes = probes as f64;
    values.set(
        "scanners.expand_ns_per_record",
        per_record_ns(expand.as_secs_f64(), probes),
    );
    values.set(
        "telescope.capture_ns_per_record",
        per_record_ns(filter.as_secs_f64(), probes),
    );
    values.set("telescope.capture_pass_ratio", ratio(logged as f64, probes));
}

/// Result of the traced run of one workload.
pub struct Traced {
    /// Every declared per-layer metric (0 where the workload does not use
    /// the layer).
    pub metrics: Vec<Metric>,
    /// Labelled digests of every pass.
    pub digests: Vec<LabelledDigest>,
    /// Pass B's report of the last repetition.
    pub rendered: Option<Rendered>,
    /// Reference comparisons made along the way.
    pub refs: Vec<RefCheck>,
    /// Exact-count metrics that differed between repetitions.
    pub count_mismatches: Vec<String>,
    /// `bench.span_coverage`, for the gate.
    pub span_coverage: f64,
    /// Spans of the last repetition.
    pub spans: Vec<Span>,
    /// Records processed over all passes and the untraced iteration.
    pub records: u64,
    /// Records the untraced iteration lost or failed.
    pub failed: u64,
    /// Repetitions made.
    pub reps: usize,
}

/// Repeats (Pass A, Pass B) until `seconds` have passed (at least once) and
/// reduces the repetitions: medians for timings, equality for exact counts.
/// One untraced iteration follows (warm, like the later repetitions): its
/// digest must match, and Pass A's wall over its wall is the tracing
/// overhead.
pub fn run(plan: &Plan, work: &Path, encode: EncodeStats, seconds: f64) -> Result<Traced, String> {
    let started = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    loop {
        reps.push(match plan.workload {
            Workload::ServeTenants => serve_rep(plan, work)?,
            _ => session_rep(plan)?,
        });
        if started.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }

    let (untraced, _) = drive::iteration(plan)?;
    let pass_a_run_s: Vec<f64> = reps.iter().map(|r| r.pass_a_run_s).collect();
    let mut once = Values::default();
    once.set(
        "bench.trace_overhead_ratio",
        ratio(stats::median(&pass_a_run_s), untraced.run_s),
    );
    if plan.workload == Workload::FusedSeq {
        kernels(&plan.runs[0], &mut once);
    }
    if encode.records > 0 {
        let encode_s = encode.encode.as_secs_f64();
        once.set("trace.encode_s", encode_s);
        once.set(
            "trace.encode_mib_per_s",
            ratio(mib(encode.bytes as f64), encode_s),
        );
        once.set("trace.file_bytes", encode.bytes as f64);
    }

    let mut count_mismatches = Vec::new();
    let metrics: Vec<Metric> = names::PER_LAYER
        .iter()
        .map(|def| {
            let samples: Vec<f64> = reps.iter().map(|r| r.values.get(def.name)).collect();
            let value = match once.0.get(def.name) {
                Some(&v) => v,
                None if def.exact => {
                    if let Some(odd) = samples.iter().find(|&&v| v != samples[0]) {
                        count_mismatches.push(format!("{}: {} then {}", def.name, samples[0], odd));
                    }
                    samples[0]
                }
                None => stats::median(&samples),
            };
            Metric {
                name: def.name.to_string(),
                value,
                unit: def.unit.to_string(),
            }
        })
        .collect();

    let mut digests = vec![LabelledDigest {
        label: "untraced".to_string(),
        digest: untraced.digest,
    }];
    for (i, rep) in reps.iter().enumerate() {
        for (pass, digest) in [("A", rep.digest_a), ("B", rep.digest_b)] {
            digests.push(LabelledDigest {
                label: format!("pass {pass} rep {i}"),
                digest,
            });
        }
    }
    // Every repetition is two passes over the same records.
    let per_pass = reps[0].values.get("scanners.records") as u64;
    let records = untraced.records + per_pass * 2 * reps.len() as u64;
    let n = reps.len();
    let refs = reps.iter_mut().flat_map(|r| r.refs.drain(..)).collect();
    let last = reps.pop().ok_or("no traced repetition")?;
    Ok(Traced {
        metrics,
        digests,
        rendered: last.rendered,
        refs,
        count_mismatches,
        span_coverage: last.values.get("bench.span_coverage"),
        spans: last.spans,
        records,
        failed: untraced.failed,
        reps: n,
    })
}

/// Self time per layer (crate) over the hand-driven pass of one repetition,
/// largest first — what each workload's `why` in `BENCHMARK.json` quotes.
/// Pass B alone: it has the finest attribution and counts every layer once
/// (for `serve-tenants` it is the four bare tenant runs; what the daemon
/// adds on top is `serve.overhead_ratio`).
pub fn layer_shares(spans: &[Span]) -> Vec<(&'static str, f64)> {
    let Tree { spans, self_ns } = Tree::under(spans, "pass_b");
    let mut by_layer: BTreeMap<&'static str, u64> = BTreeMap::new();
    for s in &spans {
        let layer = match s.name {
            "fill" | "world_build" | "source_new" => "scanners",
            "decode" => "trace",
            "observe" | "finish" | "detector_build" => "detect",
            "snapshot" | "checkpoint_save" => "detect (checkpoint)",
            "render" => "report",
            // The root's own gaps, the distinct-row scan, teardown.
            _ => "bench",
        };
        *by_layer.entry(layer).or_default() += self_ns[s.id];
    }
    let all: u64 = by_layer.values().sum();
    let mut shares: Vec<(&'static str, f64)> = by_layer
        .into_iter()
        .map(|(layer, ns)| (layer, ratio(ns as f64, all as f64)))
        .collect();
    shares.sort_by(|a, b| b.1.total_cmp(&a.1));
    shares
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn subtree_reindexes_one_root_and_drops_the_rest() {
        let spans = vec![
            span(0, None, "pass_a", 0, 10),
            span(1, Some(0), "step", 0, 10),
            span(2, None, "pass_b", 10, 30),
            span(3, Some(2), "observe", 10, 20),
            span(4, Some(3), "inner", 12, 14),
            span(5, None, "resume", 30, 40),
            span(6, Some(5), "observe", 30, 40),
        ];
        let b = Tree::under(&spans, "pass_b");
        let shape: Vec<(usize, Option<usize>, &str)> =
            b.spans.iter().map(|s| (s.id, s.parent, s.name)).collect();
        assert_eq!(
            shape,
            [
                (0, None, "pass_b"),
                (1, Some(0), "observe"),
                (2, Some(1), "inner")
            ]
        );
        // Only this root's spans are totalled: 10 ns of observe, 8 of them
        // its own, and none of the `resume` root's.
        assert_eq!(b.total("observe"), 10e-9);
        assert_eq!(b.self_total("observe"), 8e-9);
        assert_eq!(b.count("observe"), 1);
    }

    #[test]
    fn layer_shares_sum_to_one_and_sort_descending() {
        let spans = vec![
            span(0, None, "pass_a", 0, 50),
            span(1, Some(0), "step", 0, 50),
            span(2, None, "pass_b", 50, 150),
            span(3, Some(2), "fill", 50, 110),
            span(4, Some(2), "observe", 110, 140),
            span(5, Some(2), "render", 140, 150),
        ];
        let shares = layer_shares(&spans);
        assert_eq!(shares[0].0, "scanners");
        assert!((shares[0].1 - 0.6).abs() < 1e-12);
        assert!((shares.iter().map(|s| s.1).sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tenant_digests_combine_in_order() {
        assert_ne!(
            drive::combine_digests([1, 2].into_iter()),
            drive::combine_digests([2, 1].into_iter())
        );
    }
}
