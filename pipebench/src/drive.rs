//! The untraced product loops: one iteration sets a workload up, runs it to
//! its rendered report, and reads the clock at three points only — when the
//! first batch has been ingested (set-up is over), after the last step,
//! after the report is rendered.

use crate::host;
use crate::workload::{Plan, Reference, RunPlan, Workload};
use lumen6_detect::{SessionReport, Step};
use lumen6_serve::Daemon;
use serde::{Deserialize, Serialize};
use std::path::Path;
use std::time::Instant;

/// FNV-1a 64 — the digest reports are compared by.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Combines per-tenant report digests, in manifest order, into the digest of
/// a `serve-tenants` run.
pub fn combine_digests(digests: impl Iterator<Item = u64>) -> u64 {
    let bytes: Vec<u8> = digests.flat_map(u64::to_le_bytes).collect();
    fnv1a(&bytes)
}

/// Scans and sources detected at one aggregation level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LevelShape {
    /// Aggregation prefix length.
    pub level: u8,
    /// Scan events.
    pub scans: u64,
    /// Distinct scan sources.
    pub sources: u64,
}

/// What is kept of a finished run's report.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Rendered {
    /// FNV-1a 64 of the pretty-printed `SessionReport` — the bytes `serve`
    /// publishes as `report.json`.
    pub digest: u64,
    /// FNV-1a 64 of the per-level reports alone (no session counters), for
    /// comparisons across paths whose checkpoint counts differ.
    pub reports_digest: u64,
    /// Length of the rendered report.
    pub bytes: u64,
    /// Records ingested.
    pub records: u64,
    /// Late-dropped + decode-skipped records.
    pub lost: u64,
    /// Checkpoints written.
    pub checkpoints: u64,
    /// Per-level scans and sources.
    pub shape: Vec<LevelShape>,
}

impl Rendered {
    /// The per-level reports digest and record count, printable — the two
    /// sides of a same-reports comparison.
    pub fn reports_line(&self) -> String {
        format!(
            "reports {:016x}, {} records",
            self.reports_digest, self.records
        )
    }

    /// Total scan events over all levels.
    pub fn events(&self) -> u64 {
        self.shape.iter().map(|l| l.scans).sum()
    }
}

/// Renders a report the way `serve` publishes it and digests the result.
pub fn render(report: &SessionReport) -> Result<Rendered, String> {
    let json = serde_json::to_string_pretty(report).map_err(|e| format!("render: {e}"))?;
    Ok(digest_rendered(report, &json))
}

/// [`Rendered`] for a report whose rendering `json` is already at hand.
pub fn digest_rendered(report: &SessionReport, json: &str) -> Rendered {
    let reports = serde_json::to_string(&report.reports).unwrap_or_default();
    Rendered {
        digest: fnv1a(json.as_bytes()),
        reports_digest: fnv1a(reports.as_bytes()),
        bytes: json.len() as u64,
        records: report.records,
        lost: report.late_dropped + report.decode_skipped,
        checkpoints: report.checkpoints_written,
        shape: report
            .reports
            .iter()
            .map(|(lvl, r)| LevelShape {
                level: lvl.len(),
                scans: r.scans() as u64,
                sources: r.sources() as u64,
            })
            .collect(),
    }
}

/// Timings and counts of one untraced iteration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IterRow {
    /// Set-up wall: `make_source` + `make_session` + the first `step`
    /// (which builds the detector and primes the source), i.e. the time
    /// until detection is ingesting; `Daemon::new` for `serve-tenants`.
    pub setup_s: f64,
    /// Wall from there to the rendered report bytes, or `Daemon::run`.
    pub run_s: f64,
    /// Process CPU (user + sys, all threads) over the same interval.
    pub cpu_s: f64,
    /// Records ingested over the same interval ÷ `run_s`.
    pub records_per_s: f64,
    /// Records ingested in all.
    pub records: u64,
    /// Records lost or belonging to a failed tenant.
    pub failed: u64,
    /// Report digest (for `serve-tenants`: over all tenants' reports).
    pub digest: u64,
}

/// One untraced iteration of a session workload.
pub fn session_iteration(run: &RunPlan) -> Result<(IterRow, Rendered), String> {
    let err = |e: &dyn std::fmt::Display| format!("{}: {e}", run.label);
    run.clear_checkpoint();
    let t0 = Instant::now();
    let mut src = run.cfg.make_source().map_err(|e| err(&e))?;
    let mut session = run.make_session();
    // Set-up ends when the first batch is in: the first step builds the
    // detector and makes the source produce, which `make_*` alone leave
    // undone (opening a trace file takes microseconds; that is not yet a
    // pipeline that ingests).
    let mut step = session.step(src.as_mut()).map_err(|e| err(&e))?;
    let first = match step {
        Step::Ingested(n) => n as u64,
        _ => 0,
    };
    let setup_s = t0.elapsed().as_secs_f64();

    let cpu0 = host::cpu_seconds();
    let t1 = Instant::now();
    let report = loop {
        match step {
            Step::Finished(report) => break report,
            Step::Stopped { .. } => {
                return Err(err(&"session stopped before the end of its stream"))
            }
            Step::Ingested(_) => {}
            Step::Pending => std::thread::sleep(std::time::Duration::from_millis(2)),
        }
        step = session.step(src.as_mut()).map_err(|e| err(&e))?;
    };
    let rendered = render(&report)?;
    let run_s = t1.elapsed().as_secs_f64();
    let cpu_s = host::cpu_seconds() - cpu0;

    let row = IterRow {
        setup_s,
        run_s,
        cpu_s,
        records_per_s: rendered.records.saturating_sub(first) as f64 / run_s,
        records: rendered.records,
        failed: rendered.lost,
        digest: rendered.digest,
    };
    Ok((row, rendered))
}

/// One untraced iteration of `serve-tenants`: a fresh spool, `Daemon::new`,
/// `Daemon::run`. The digest covers every tenant's published `report.json`.
pub fn serve_iteration(plan: &Plan) -> Result<IterRow, String> {
    let config = plan
        .serve
        .clone()
        .ok_or("serve iteration on a session workload")?;
    let spool = std::path::PathBuf::from(&config.spool);
    // A spool left by the previous iteration would make every tenant
    // resume from its final checkpoint and finish at once.
    match std::fs::remove_dir_all(&spool) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => return Err(format!("clearing spool: {e}")),
    }
    let t0 = Instant::now();
    let daemon = Daemon::new(config).map_err(|e| format!("Daemon::new: {e}"))?;
    let setup_s = t0.elapsed().as_secs_f64();

    let cpu0 = host::cpu_seconds();
    let t1 = Instant::now();
    let summary = daemon.run().map_err(|e| format!("Daemon::run: {e}"))?;
    let run_s = t1.elapsed().as_secs_f64();
    let cpu_s = host::cpu_seconds() - cpu0;

    let records: u64 = summary.tenants.iter().map(|t| t.records).sum();
    let mut failed = 0;
    let mut digests = Vec::new();
    for t in &summary.tenants {
        let published = std::fs::read(spool.join(&t.name).join("report.json"));
        match published {
            Ok(bytes) if t.state == "finished" && t.error.is_none() => {
                digests.push(fnv1a(&bytes));
            }
            _ => {
                eprintln!(
                    "serve-tenants: tenant {} ended {} ({})",
                    t.name,
                    t.state,
                    t.error.as_deref().unwrap_or("no report")
                );
                failed += t.records.max(1);
            }
        }
    }
    Ok(IterRow {
        setup_s,
        run_s,
        cpu_s,
        records_per_s: records as f64 / run_s,
        records,
        failed,
        digest: combine_digests(digests.into_iter()),
    })
}

/// One untraced iteration of any workload; the report is kept for session
/// workloads.
pub fn iteration(plan: &Plan) -> Result<(IterRow, Option<Rendered>), String> {
    match plan.workload {
        Workload::ServeTenants => serve_iteration(plan).map(|row| (row, None)),
        _ => session_iteration(&plan.runs[0]).map(|(row, r)| (row, Some(r))),
    }
}

/// The published report of one tenant, parsed back.
pub fn published_report(spool: &Path, tenant: &str) -> Result<Rendered, String> {
    let path = spool.join(tenant).join("report.json");
    let json = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let report: SessionReport =
        serde_json::from_str(&json).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(digest_rendered(&report, &json))
}

/// One comparison of a measured result against its reference path.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RefCheck {
    /// Which run, against what.
    pub what: String,
    /// The measured side, printable.
    pub measured: String,
    /// The reference side, printable.
    pub reference: String,
}

fn shape_string(shape: &[LevelShape]) -> String {
    shape
        .iter()
        .map(|l| format!("/{}: scans={} sources={}", l.level, l.scans, l.sources))
        .collect::<Vec<_>>()
        .join(", ")
}

/// Runs `run`'s reference configuration (untimed) and pairs its result with
/// `measured`.
pub fn check_against_reference(run: &RunPlan, measured: &Rendered) -> Result<RefCheck, String> {
    match &run.reference {
        Reference::SameReports(cfg) => {
            let (_, reference) = session_iteration(&run.with_cfg(cfg.clone()))?;
            Ok(RefCheck {
                what: format!("{} reports == reference path", run.label),
                measured: measured.reports_line(),
                reference: reference.reports_line(),
            })
        }
        Reference::SameShape(cfg) => {
            let (_, reference) = session_iteration(&run.with_cfg(cfg.clone()))?;
            Ok(RefCheck {
                what: format!(
                    "{} scans/sources == {}x intensity",
                    run.label, cfg.intensity
                ),
                measured: shape_string(&measured.shape),
                reference: shape_string(&reference.shape),
            })
        }
    }
}
