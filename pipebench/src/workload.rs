//! The five workloads: which product path each drives, at what size, and
//! which alternative path its result is checked against.
//!
//! Every workload is described by [`RunConfig`]s — the same struct `lumen6
//! detect --config` and the `serve` manifest use — so the benchmark reaches
//! the program only through configuration a user could write. The seed
//! reaches it only as `RunConfig::seed` (the fleet seed) and through the
//! trace files generated from it.

use lumen6_detect::{AggLevel, Checkpoint, DetectorBuilder, Session};
use lumen6_serve::{RunConfig, ServeConfig, TenantSpec};
use lumen6_trace::{RecordBatch, TraceWriter};
use std::io::BufWriter;
use std::path::Path;
use std::time::{Duration, Instant};

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fused generation → detection on one thread.
    FusedSeq,
    /// The same input through two generator threads and two shards.
    FusedPar,
    /// A generated trace file decoded into the three paper levels.
    TraceLevels,
    /// Fused, sequential, with periodic checkpoints.
    FusedCkpt,
    /// One daemon, two workers, four tenants.
    ServeTenants,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 5] = [
        Workload::FusedSeq,
        Workload::FusedPar,
        Workload::TraceLevels,
        Workload::FusedCkpt,
        Workload::ServeTenants,
    ];

    /// The name declared in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FusedSeq => "fused-seq",
            Workload::FusedPar => "fused-par",
            Workload::TraceLevels => "trace-levels",
            Workload::FusedCkpt => "fused-ckpt",
            Workload::ServeTenants => "serve-tenants",
        }
    }

    /// Why the workload exists and what was measured to dominate it — the
    /// `why` of `BENCHMARK.json`.
    pub fn why(self) -> &'static str {
        match self {
            Workload::FusedSeq => WHY_FUSED_SEQ,
            Workload::FusedPar => WHY_FUSED_PAR,
            Workload::TraceLevels => WHY_TRACE_LEVELS,
            Workload::FusedCkpt => WHY_FUSED_CKPT,
            Workload::ServeTenants => WHY_SERVE_TENANTS,
        }
    }

    /// Parses a declared name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

// One line each, at most 200 characters (the `BENCHMARK.json` contract). The
// shares are the Pass B self time `BASELINE.json` records (seed 42, 2
// cores); where a measurement contradicts the issue's expectation it is
// stated as measured.
const WHY_FUSED_SEQ: &str = "Fused generation into /64 detection on one thread, 15 M records at 10x: the paper-volume path. Measured self time: scanners 72 %, detect 19 %, report 5 % - generation is the wall, as expected.";
const WHY_FUSED_PAR: &str = "Same input through 2 generator threads and 2 shards; report bytes must equal fused-seq. Shows what the parallel copies buy and cost. Measured: consumer-side merge+wait (scanners) 64 %, detect 25 %.";
const WHY_TRACE_LEVELS: &str = "Decodes a generated 240 MB trace into /128, /64, /48: no generator, so it bypasses scanners. Measured: detect 55 %, report render 27 % (40 MB of JSON), trace decode 16 % - render outweighs decode.";
const WHY_FUSED_CKPT: &str = "Fused 5x with a checkpoint every 500 k records (15 of them, to 13.6 MB, fsynced): writes beside reads in detect. Measured: snapshot+save 52 %, scanners 32 %, detect 9 % - over half, as expected.";
const WHY_SERVE_TENANTS: &str = "One daemon, 2 workers, 4 tenants at default cadence: serve does the work. Measured: checkpoints 59 % of the bare tenant runs, detect 7 %; the daemon costs 1.23x those runs (serve.overhead_ratio).";

/// Input sizes. The full sizes are part of what the workload names mean: a
/// result is comparable only with results at the same sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes `BENCHMARK.json` results are measured at.
    Full,
    /// `FleetConfig::small()`, 21 days: seconds even on a debug build.
    Smoke,
}

impl Scale {
    /// `full` / `smoke`.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Full => "full",
            Scale::Smoke => "smoke",
        }
    }
}

struct Sizes {
    small: bool,
    /// Simulated days for `fused-seq` / `fused-par` (intensity 10) and
    /// `fused-ckpt` (intensity 5) — one horizon, so the gate can hold the
    /// 5x and 10x shapes equal.
    fused_days: u64,
    /// Simulated days for the `trace-levels` input (intensity 4).
    trace_days: u64,
    /// Records between `fused-ckpt` checkpoints.
    ckpt_every: u64,
    /// Simulated days for every `serve-tenants` tenant (intensity 1).
    serve_days: u64,
}

/// Sized so one iteration (set-up + run) takes 1.5–3 s on a 2-core host:
/// the contract's run budget leaves 15 s of measuring per run, and a
/// median needs several iterations inside it. Intensities are the issue's
/// (10 / 4 / 5 / 1); the simulated horizon is cut instead of the intensity
/// so the repeat structure per record stays that of a high-volume run.
const FULL: Sizes = Sizes {
    small: false,
    fused_days: 120,
    trace_days: 120,
    ckpt_every: 500_000,
    serve_days: 60,
};

const SMOKE: Sizes = Sizes {
    small: true,
    fused_days: 21,
    trace_days: 21,
    ckpt_every: 20_000,
    serve_days: 21,
};

/// What a run's result is checked against: another path through the program
/// that must agree with it.
#[derive(Debug, Clone)]
pub enum Reference {
    /// Running this configuration must produce byte-identical per-level
    /// reports and the same record count.
    SameReports(RunConfig),
    /// Running this configuration (a different intensity) must produce the
    /// same scans and sources per level — intensity invariance.
    SameShape(RunConfig),
}

/// One detection run: a session workload, or one `serve` tenant.
#[derive(Debug, Clone)]
pub struct RunPlan {
    /// Workload name, or tenant name under `serve-tenants`.
    pub label: String,
    /// The run as a user would configure it.
    pub cfg: RunConfig,
    /// Aggregation levels when they differ from `cfg.agg` alone.
    pub levels: Option<Vec<AggLevel>>,
    /// When `cfg.trace` is set: the fused configuration whose stream is
    /// written to that file before the run.
    pub generator: Option<RunConfig>,
    /// The alternative path the result must agree with.
    pub reference: Reference,
}

impl RunPlan {
    /// The detector shape of this run.
    pub fn detector_builder(&self) -> DetectorBuilder {
        let builder = DetectorBuilder::new(self.cfg.detector_config());
        match &self.levels {
            Some(levels) => builder.levels(levels),
            None => builder,
        }
    }

    /// The session this run describes: `RunConfig::make_session`, or the
    /// same constructor with the level list where the workload asks for
    /// more than `cfg.agg`.
    pub fn make_session(&self) -> Session {
        match &self.levels {
            None => self.cfg.make_session(),
            Some(_) => Session::new(
                self.detector_builder(),
                self.cfg.backend(),
                self.cfg.session_config(),
            ),
        }
    }

    /// This plan with another configuration and the same levels — how a
    /// [`Reference`] is run.
    pub fn with_cfg(&self, cfg: RunConfig) -> RunPlan {
        RunPlan {
            cfg,
            generator: None,
            ..self.clone()
        }
    }

    /// Removes the checkpoint files of a previous iteration, so the next
    /// one starts fresh instead of resuming.
    pub fn clear_checkpoint(&self) {
        if let Some(path) = &self.cfg.checkpoint {
            let path = Path::new(path);
            for p in [
                path.to_path_buf(),
                Checkpoint::prev_path(path),
                path.with_extension("tmp"),
            ] {
                let _ = std::fs::remove_file(p);
            }
        }
    }
}

/// A workload instantiated for one seed, scale and work directory.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Which workload.
    pub workload: Workload,
    /// The runs: one for a session workload, the four tenants for
    /// `serve-tenants`.
    pub runs: Vec<RunPlan>,
    /// The daemon manifest, for `serve-tenants`.
    pub serve: Option<ServeConfig>,
}

fn path_string(p: &Path) -> String {
    p.to_string_lossy().into_owned()
}

impl Plan {
    /// Builds the plan; files it names live under `work`.
    pub fn new(workload: Workload, scale: Scale, seed: u64, work: &Path) -> Plan {
        let sz = match scale {
            Scale::Full => &FULL,
            Scale::Smoke => &SMOKE,
        };
        let fused = |seed: u64, days: u64, intensity: f64| RunConfig {
            fused: true,
            sequential: true,
            small: sz.small,
            days: Some(days),
            seed,
            intensity,
            ..RunConfig::default()
        };
        let single = |cfg: RunConfig, reference: Reference| RunPlan {
            label: workload.name().to_string(),
            cfg,
            levels: None,
            generator: None,
            reference,
        };
        let mut serve = None;
        let runs = match workload {
            Workload::FusedSeq => {
                let cfg = fused(seed, sz.fused_days, 10.0);
                let at_1x = fused(seed, sz.fused_days, 1.0);
                vec![single(cfg, Reference::SameShape(at_1x))]
            }
            Workload::FusedPar => {
                let seq = fused(seed, sz.fused_days, 10.0);
                // Fixed, not auto, so results from different hosts compare.
                let cfg = RunConfig {
                    sequential: false,
                    threads: 2,
                    gen_threads: 2,
                    ..seq.clone()
                };
                vec![single(cfg, Reference::SameReports(seq))]
            }
            Workload::TraceLevels => {
                let generator = fused(seed, sz.trace_days, 4.0);
                let cfg = RunConfig {
                    trace: Some(path_string(&work.join("trace-levels.l6tr"))),
                    sequential: true,
                    ..RunConfig::default()
                };
                vec![RunPlan {
                    levels: Some(AggLevel::PAPER_LEVELS.to_vec()),
                    generator: Some(generator.clone()),
                    ..single(cfg, Reference::SameReports(generator))
                }]
            }
            Workload::FusedCkpt => {
                let plain = fused(seed, sz.fused_days, 5.0);
                let cfg = RunConfig {
                    checkpoint: Some(path_string(&work.join("fused-ckpt.l6ck"))),
                    checkpoint_every: sz.ckpt_every,
                    ..plain.clone()
                };
                vec![single(cfg, Reference::SameReports(plain))]
            }
            Workload::ServeTenants => {
                let seeds = [("a", seed), ("b", seed.wrapping_add(1))];
                let mut runs = Vec::new();
                for (suffix, seed) in seeds {
                    let replay = RunConfig {
                        trace: Some(path_string(&work.join(format!("replay-{suffix}.l6tr")))),
                        sequential: true,
                        ..RunConfig::default()
                    };
                    runs.push(RunPlan {
                        label: format!("replay-{suffix}"),
                        cfg: replay.clone(),
                        levels: None,
                        generator: Some(fused(seed, sz.serve_days, 1.0)),
                        reference: Reference::SameReports(replay),
                    });
                }
                for (suffix, seed) in seeds {
                    let control = fused(seed, sz.serve_days, 1.0);
                    runs.push(RunPlan {
                        label: format!("control-{suffix}"),
                        cfg: control.clone(),
                        levels: None,
                        generator: None,
                        reference: Reference::SameReports(control),
                    });
                }
                serve = Some(ServeConfig {
                    spool: path_string(&work.join("spool")),
                    workers: 2,
                    tenants: runs
                        .iter()
                        .map(|r| TenantSpec {
                            name: r.label.clone(),
                            run: r.cfg.clone(),
                        })
                        .collect(),
                    ..ServeConfig::default()
                });
                runs
            }
        };
        Plan {
            workload,
            runs,
            serve,
        }
    }
}

/// What writing one input trace cost.
#[derive(Debug, Clone, Copy, Default)]
pub struct EncodeStats {
    /// Records written.
    pub records: u64,
    /// File size.
    pub bytes: u64,
    /// Time inside `TraceWriter::append` + `finish` (generation excluded).
    pub encode: Duration,
}

/// Writes the stream `generator` describes to `path` by draining its source
/// into a [`TraceWriter`]. Appends are timed per pulled batch, so the
/// generator's own time is not charged to the codec.
pub fn write_trace(generator: &RunConfig, path: &Path) -> Result<EncodeStats, String> {
    let err = |e: &dyn std::fmt::Display| format!("writing {}: {e}", path.display());
    let mut src = generator.make_source().map_err(|e| err(&e))?;
    let file = std::fs::File::create(path).map_err(|e| err(&e))?;
    let mut writer = TraceWriter::new(BufWriter::new(file)).map_err(|e| err(&e))?;
    let mut batch = RecordBatch::with_capacity(generator.batch);
    let mut stats = EncodeStats::default();
    while src.fill(&mut batch, generator.batch).map_err(|e| err(&e))? > 0 {
        let t = Instant::now();
        for r in batch.iter() {
            writer.append(&r).map_err(|e| err(&e))?;
        }
        stats.encode += t.elapsed();
    }
    let t = Instant::now();
    stats.records = writer.count();
    let sink = writer.finish().map_err(|e| err(&e))?;
    sink.into_inner().map_err(|e| err(&e.into_error()))?;
    stats.encode += t.elapsed();
    stats.bytes = std::fs::metadata(path).map_err(|e| err(&e))?.len();
    Ok(stats)
}

impl Plan {
    /// Generates every input trace the plan names; returns the summed cost.
    pub fn prepare_inputs(&self) -> Result<EncodeStats, String> {
        let mut total = EncodeStats::default();
        for run in &self.runs {
            if let (Some(generator), Some(path)) = (&run.generator, &run.cfg.trace) {
                let one = write_trace(generator, Path::new(path))?;
                total.records += one.records;
                total.bytes += one.bytes;
                total.encode += one.encode;
            }
        }
        Ok(total)
    }
}
