//! The suite: every workload × repetition as a child process of this same
//! binary, one at a time, repetition-major so host drift spreads over the
//! workloads. A fresh child gives a clean `VmHWM`, a zeroed metrics registry
//! and a cold allocator. After the untraced repetitions each workload gets
//! one traced run; then the gate sees all the evidence at once, which adds
//! the cross-workload checks a single run cannot make.

use crate::gate::{self, Check, Evidence, LabelledDigest};
use crate::host::HostInfo;
use crate::names::{self, Metric};
use crate::run::{self, RunDetail};
use crate::stats;
use crate::workload::{Scale, Workload};
use serde::{Deserialize, Serialize};
use std::path::Path;
use std::process::{Command, Stdio};

/// Arguments of a suite run.
pub struct SuiteArgs {
    /// Input seed of every run.
    pub seed: u64,
    /// Untraced runs per workload.
    pub reps: usize,
    /// Measuring time of each run.
    pub seconds: f64,
    /// Whether to add the traced run per workload.
    pub traced: bool,
    /// Input sizes.
    pub scale: Scale,
}

/// One end-to-end metric of one workload over the repetitions.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricSummary {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Number of runs. (n = 5 supports no percentile above the maximum.)
    pub n: usize,
    /// Median over the runs.
    pub median: f64,
    /// Smallest run.
    pub min: f64,
    /// Largest run.
    pub max: f64,
    /// First quartile (Python `statistics.quantiles(…, n=4)`); the median
    /// when n < 2.
    pub q1: f64,
    /// Third quartile, likewise.
    pub q3: f64,
    /// The run values, in repetition order.
    pub values: Vec<f64>,
}

impl MetricSummary {
    /// Inter-quartile distance as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// One workload's results.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadSummary {
    /// Workload name.
    pub name: String,
    /// Records per iteration.
    pub records: u64,
    /// End-to-end metrics over the repetitions.
    pub end_to_end: Vec<MetricSummary>,
    /// Per-layer metrics of the traced run (empty with `--no-trace`).
    pub per_layer: Vec<Metric>,
    /// Self-time share per layer of the traced run, largest first.
    pub layer_shares: Vec<(String, f64)>,
}

/// What the suite writes to `--out` and `compare` reads.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    /// Provenance.
    pub host: HostInfo,
    /// Input seed.
    pub seed: u64,
    /// Untraced runs per workload.
    pub reps: usize,
    /// Measuring time per run.
    pub seconds: f64,
    /// `full` / `smoke`.
    pub scale: String,
    /// Per-workload results.
    pub workloads: Vec<WorkloadSummary>,
    /// Every check of the gate.
    pub checks: Vec<Check>,
    /// Records lost or failed ÷ records offered, over all runs; 1 when a
    /// check failed with nothing lost.
    pub failed_share: f64,
    /// This benchmark measures; it claims nothing.
    pub claim: Option<String>,
}

fn child(
    args: &SuiteArgs,
    workload: Workload,
    trace: bool,
    out: &Path,
) -> Result<RunDetail, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(out)
        .stdout(Stdio::null());
    if args.scale == Scale::Smoke {
        cmd.arg("--smoke");
    }
    let status = cmd.status().map_err(|e| format!("spawning child: {e}"))?;
    if !status.success() {
        return Err(format!("{} child exited with {status}", workload.name()));
    }
    let text = std::fs::read_to_string(out).map_err(|e| format!("{}: {e}", out.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", out.display()))
}

/// Order statistics of one metric over the runs.
pub fn summarize(name: &str, unit: &str, values: Vec<f64>) -> MetricSummary {
    let median = stats::median(&values);
    let (q1, q3) = stats::quartiles(&values).unwrap_or((median, median));
    MetricSummary {
        name: name.to_string(),
        unit: unit.to_string(),
        n: values.len(),
        median,
        min: values.iter().copied().fold(f64::INFINITY, f64::min),
        max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        q1,
        q3,
        values,
    }
}

/// Folds the evidence of several runs of one workload into one, so the gate
/// holds digests equal across repetitions and across untraced / traced runs.
fn merge(runs: &[(String, &RunDetail)]) -> Option<Evidence> {
    let (_, first) = runs.first()?;
    let mut merged = Evidence {
        digests: Vec::new(),
        refs: Vec::new(),
        errors: Vec::new(),
        count_mismatches: Vec::new(),
        offered: 0,
        failed: 0,
        ..first.evidence.clone()
    };
    for (label, detail) in runs {
        let e = &detail.evidence;
        merged
            .digests
            .extend(e.digests.iter().map(|d| LabelledDigest {
                label: format!("{label} {}", d.label),
                digest: d.digest,
            }));
        merged.refs.extend(e.refs.iter().cloned());
        merged.errors.extend(e.errors.iter().cloned());
        merged
            .count_mismatches
            .extend(e.count_mismatches.iter().cloned());
        merged.offered += e.offered;
        merged.failed += e.failed;
        merged.span_coverage = e.span_coverage.or(merged.span_coverage);
        merged.rendered = e.rendered.clone().or(merged.rendered);
    }
    Some(merged)
}

/// Runs the suite.
pub fn run(args: &SuiteArgs) -> Result<Summary, String> {
    let rows = run::work_root().join("rows");
    std::fs::create_dir_all(&rows).map_err(|e| format!("{}: {e}", rows.display()))?;
    let mut untraced: Vec<Vec<RunDetail>> = vec![Vec::new(); Workload::ALL.len()];
    for rep in 0..args.reps {
        for (i, w) in Workload::ALL.into_iter().enumerate() {
            eprintln!("== {} repetition {}/{}", w.name(), rep + 1, args.reps);
            let out = rows.join(format!("{}-rep{rep}.json", w.name()));
            untraced[i].push(child(args, w, false, &out)?);
        }
    }
    let mut traced: Vec<Option<RunDetail>> = vec![None; Workload::ALL.len()];
    if args.traced {
        for (i, w) in Workload::ALL.into_iter().enumerate() {
            eprintln!("== {} traced run", w.name());
            let out = rows.join(format!("{}-traced.json", w.name()));
            traced[i] = Some(child(args, w, true, &out)?);
        }
    }

    let mut workloads = Vec::new();
    let mut evidence = Vec::new();
    for (i, w) in Workload::ALL.into_iter().enumerate() {
        let end_to_end = names::END_TO_END
            .iter()
            .map(|def| {
                let values = untraced[i]
                    .iter()
                    .filter_map(|d| d.metrics.iter().find(|m| m.name == def.name))
                    .map(|m| m.value)
                    .collect();
                summarize(def.name, def.unit, values)
            })
            .collect();
        let traced_run = traced[i].as_ref();
        workloads.push(WorkloadSummary {
            name: w.name().to_string(),
            records: untraced[i]
                .first()
                .and_then(|d| d.iterations.first())
                .map_or(0, |r| r.records),
            end_to_end,
            per_layer: traced_run.map(|d| d.metrics.clone()).unwrap_or_default(),
            layer_shares: traced_run
                .map(|d| d.layer_shares.clone())
                .unwrap_or_default(),
        });
        let labelled: Vec<(String, &RunDetail)> = untraced[i]
            .iter()
            .enumerate()
            .map(|(rep, d)| (format!("rep {rep}"), d))
            .chain(traced_run.map(|d| ("traced".to_string(), d)))
            .collect();
        evidence.extend(merge(&labelled));
    }

    let checks = gate::evaluate(&evidence);
    let failed_checks = gate::report(&checks);
    let offered: u64 = evidence.iter().map(|e| e.offered).sum();
    let failed: u64 = evidence.iter().map(|e| e.failed).sum();
    Ok(Summary {
        host: HostInfo::collect(),
        seed: args.seed,
        reps: args.reps,
        seconds: args.seconds,
        scale: args.scale.name().to_string(),
        workloads,
        checks,
        failed_share: match (failed, failed_checks) {
            (0, 0) => 0.0,
            (0, _) => 1.0,
            (lost, _) => lost as f64 / offered.max(1) as f64,
        },
        claim: None,
    })
}

impl Summary {
    /// Prints every metric of every workload by name with its unit.
    pub fn print(&self) {
        println!(
            "# pipeline suite: seed {}, {} repetition(s) x {} s, {} scale, {} core(s), {}, commit {}",
            self.seed,
            self.reps,
            self.seconds,
            self.scale,
            self.host.host_cores,
            self.host.rustc,
            self.host.git_commit
        );
        for w in &self.workloads {
            println!("\n## {} ({} records per iteration)", w.name, w.records);
            println!(
                "{:<44} {:>14} {:>14} {:>14} {:>14} {:>14} {:>3}  unit",
                "metric", "median", "q1", "q3", "min", "max", "n"
            );
            for m in &w.end_to_end {
                println!(
                    "{:<44} {:>14.4} {:>14.4} {:>14.4} {:>14.4} {:>14.4} {:>3}  {}",
                    m.name, m.median, m.q1, m.q3, m.min, m.max, m.n, m.unit
                );
            }
            for m in &w.per_layer {
                println!("{:<44} {:>14.4} {:>62}  {}", m.name, m.value, "", m.unit);
            }
            for (layer, share) in &w.layer_shares {
                println!("# self time {layer:<20} {:>6.1} %", share * 100.0);
            }
        }
        println!("\nfailed_share {} ratio", self.failed_share);
    }
}
