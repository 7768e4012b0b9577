//! One run of one workload — what the contract's command line asks for:
//! make the inputs from the seed, measure for `--seconds`, check the
//! outputs, report.
//!
//! With `--trace 0` the run repeats whole iterations (set-up, then the
//! product loop to its rendered report) until the time is up and reports
//! the end-to-end metrics; with `--trace 1` it repeats the traced pass pair
//! and reports the per-layer metrics. Either way the reference path, the
//! golden shape and the gate run after the measuring is over.

use crate::drive::{self, IterRow, Rendered};
use crate::gate::{self, Check, Evidence, LabelledDigest};
use crate::host::{self, HostInfo};
use crate::names::{self, Metric};
use crate::stats;
use crate::traced;
use crate::workload::{Plan, Scale, Workload};
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Arguments of one run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Which workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measuring time.
    pub seconds: f64,
    /// Traced (per-layer) or untraced (end-to-end).
    pub trace: bool,
    /// Input sizes.
    pub scale: Scale,
}

/// Everything one run produced; written to `--out`, read back by the suite.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunDetail {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// `full` / `smoke`.
    pub scale: String,
    /// Whether this was the traced run.
    pub trace: bool,
    /// Measuring time asked for.
    pub seconds: f64,
    /// Provenance.
    pub host: HostInfo,
    /// Raw per-iteration rows of the untraced loop.
    pub iterations: Vec<IterRow>,
    /// End-to-end metrics (`trace` false) or per-layer metrics (true).
    pub metrics: Vec<Metric>,
    /// Self-time share per layer over the last traced repetition.
    pub layer_shares: Vec<(String, f64)>,
    /// What the gate was given.
    pub evidence: Evidence,
    /// What the gate found.
    pub checks: Vec<Check>,
    /// Every check held.
    pub correct: bool,
    /// Records offered during measuring.
    pub attempted: u64,
    /// Of those, lost or failed — all of them when a check failed.
    pub failed: u64,
}

/// The benchmark's scratch space: inside the current directory (the
/// checkout the contract runs it from), named in `.gitignore`.
pub fn work_root() -> PathBuf {
    PathBuf::from(".pipebench_work")
}

fn end_to_end_metrics(rows: &[IterRow], peak_rss_mib: f64) -> Vec<Metric> {
    let column = |f: fn(&IterRow) -> f64| rows.iter().map(f).collect::<Vec<f64>>();
    let cpu = column(|r| r.cpu_s);
    names::END_TO_END
        .iter()
        .map(|def| Metric {
            name: def.name.to_string(),
            unit: def.unit.to_string(),
            value: match def.name {
                "setup_s" => stats::median(&column(|r| r.setup_s)),
                "records_per_s" => stats::median(&column(|r| r.records_per_s)),
                // The mean, not the median: CPU time has no preemption
                // outliers to reject, and the mean resolves below the
                // 10 ms tick `/proc/self/stat` counts in.
                "cpu_s" => cpu.iter().sum::<f64>() / cpu.len().max(1) as f64,
                "peak_rss_mib" => peak_rss_mib,
                other => unreachable!("end-to-end metric {other} has no measurement"),
            },
        })
        .collect()
}

/// The workload's reference comparisons, run after measuring.
fn reference_checks(
    plan: &Plan,
    measured: Option<&Rendered>,
) -> Result<Vec<drive::RefCheck>, String> {
    match (plan.workload, measured, &plan.serve) {
        (Workload::ServeTenants, _, Some(config)) => plan
            .runs
            .iter()
            .map(|run| {
                let published = drive::published_report(Path::new(&config.spool), &run.label)?;
                drive::check_against_reference(run, &published)
            })
            .collect(),
        (_, Some(measured), _) => {
            drive::check_against_reference(&plan.runs[0], measured).map(|c| vec![c])
        }
        _ => Ok(Vec::new()),
    }
}

struct Measured {
    iterations: Vec<IterRow>,
    metrics: Vec<Metric>,
    layer_shares: Vec<(String, f64)>,
}

/// The traced run: per-layer metrics, spans written to the work root.
fn measure_traced(
    args: &RunArgs,
    work: &Path,
    evidence: &mut Evidence,
) -> Result<Measured, String> {
    let plan = Plan::new(args.workload, args.scale, args.seed, work);
    let encode = plan.prepare_inputs()?;
    let traced = traced::run(&plan, work, encode, args.seconds)?;
    evidence.offered = traced.records;
    evidence.failed = traced.failed;
    evidence.digests = traced.digests;
    evidence.refs = traced.refs;
    evidence.count_mismatches = traced.count_mismatches;
    evidence.rendered = traced.rendered;
    evidence.span_coverage = Some(traced.span_coverage);
    let spans_file = work_root().join(format!("trace-{}.json", args.workload.name()));
    let spans = serde_json::to_string(&traced.spans).map_err(|e| e.to_string())?;
    std::fs::write(&spans_file, spans).map_err(|e| format!("{}: {e}", spans_file.display()))?;
    eprintln!(
        "{}: {} traced repetition(s), {} spans -> {}",
        args.workload.name(),
        traced.reps,
        traced.spans.len(),
        spans_file.display()
    );
    Ok(Measured {
        iterations: Vec::new(),
        metrics: traced.metrics,
        layer_shares: traced::layer_shares(&traced.spans)
            .into_iter()
            .map(|(layer, share)| (layer.to_string(), share))
            .collect(),
    })
}

/// The untraced run: whole iterations until the time is up, then the
/// reference path.
fn measure_untraced(
    args: &RunArgs,
    work: &Path,
    evidence: &mut Evidence,
) -> Result<Measured, String> {
    let plan = Plan::new(args.workload, args.scale, args.seed, work);
    plan.prepare_inputs()?;
    let mut iterations = Vec::new();
    let mut last = None;
    let started = Instant::now();
    loop {
        let (row, rendered) = drive::iteration(&plan)?;
        evidence.digests.push(LabelledDigest {
            label: format!("iteration {}", iterations.len()),
            digest: row.digest,
        });
        evidence.offered += row.records;
        evidence.failed += row.failed;
        iterations.push(row);
        last = rendered.or(last);
        if started.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    // Read before the reference runs below can raise it.
    let peak_rss_mib = host::peak_rss_mib();
    let metrics = end_to_end_metrics(&iterations, peak_rss_mib);
    evidence.refs = reference_checks(&plan, last.as_ref())?;
    evidence.rendered = last;
    Ok(Measured {
        iterations,
        metrics,
        layer_shares: Vec::new(),
    })
}

/// Runs one workload once. Never fails: whatever goes wrong is recorded as
/// evidence and turns up as a failed check.
pub fn run_one(args: &RunArgs) -> RunDetail {
    let work = work_root().join(format!("{}-{}", args.workload.name(), std::process::id()));
    let mut evidence = Evidence {
        workload: args.workload.name().to_string(),
        seed: args.seed,
        scale: args.scale.name().to_string(),
        ..Evidence::default()
    };
    let _ = std::fs::remove_dir_all(&work);
    let measured = std::fs::create_dir_all(&work)
        .map_err(|e| format!("{}: {e}", work.display()))
        .and_then(|()| match args.trace {
            true => measure_traced(args, &work, &mut evidence),
            false => measure_untraced(args, &work, &mut evidence),
        });
    let _ = std::fs::remove_dir_all(&work);
    let measured = measured.unwrap_or_else(|e| {
        evidence.errors.push(e);
        Measured {
            iterations: Vec::new(),
            metrics: Vec::new(),
            layer_shares: Vec::new(),
        }
    });
    evidence.golden = gate::golden_shape();

    let checks = gate::evaluate(std::slice::from_ref(&evidence));
    let correct = gate::report(&checks) == 0;
    let attempted = evidence.offered.max(1);
    RunDetail {
        workload: evidence.workload.clone(),
        seed: args.seed,
        scale: evidence.scale.clone(),
        trace: args.trace,
        seconds: args.seconds,
        host: HostInfo::collect(),
        iterations: measured.iterations,
        metrics: measured.metrics,
        layer_shares: measured.layer_shares,
        failed: if correct {
            0
        } else {
            evidence.failed.max(attempted)
        },
        evidence,
        checks,
        correct,
        attempted,
    }
}

impl RunDetail {
    /// Prints every metric by name with its unit, then — as the last line —
    /// the contract's result object.
    pub fn print(&self) {
        println!(
            "# {} seed {} ({}, {}): {} records in {}",
            self.workload,
            self.seed,
            self.scale,
            if self.trace { "traced" } else { "untraced" },
            self.attempted,
            match self.trace {
                true => "the traced passes".to_string(),
                false => format!("{} iteration(s)", self.iterations.len()),
            }
        );
        for m in &self.metrics {
            println!("{:<44} {:>16.6} {}", m.name, m.value, m.unit);
        }
        for (layer, share) in &self.layer_shares {
            println!("# self time {layer:<20} {:>6.1} %", share * 100.0);
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}

/// A finite JSON number with all its digits (non-finite values become 0,
/// which JSON can carry and a reader will notice).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".to_string()
    }
}
