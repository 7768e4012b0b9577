//! The correctness gate: one function over the evidence every run leaves,
//! shared by a single driver run (one workload), the suite parent (all
//! five, which adds the cross-workload checks) and `--smoke`. A failed check
//! is printed with both sides and counted — never a silent pass, never a
//! panic.

use crate::drive::{LevelShape, RefCheck, Rendered};
use lumen6_detect::{AggLevel, ArtifactFilter, Backend, DetectorBuilder, ScanDetectorConfig};
use lumen6_scanners::{FleetConfig, World};
use lumen6_trace::RecordBatch;
use serde::{Deserialize, Serialize};

/// A report digest and where it came from.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LabelledDigest {
    /// `iteration 3`, `pass A rep 1`, …
    pub label: String,
    /// The digest.
    pub digest: u64,
}

/// Everything one run of one workload hands to the gate.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Evidence {
    /// Workload name.
    pub workload: String,
    /// Seed the inputs were made from.
    pub seed: u64,
    /// `full` / `smoke`.
    pub scale: String,
    /// Report digest of every untraced iteration and every traced pass;
    /// all must be equal.
    pub digests: Vec<LabelledDigest>,
    /// Comparisons against the workload's reference path.
    pub refs: Vec<RefCheck>,
    /// The measured report (session workloads), for cross-workload checks.
    pub rendered: Option<Rendered>,
    /// Records offered over all measured iterations.
    pub offered: u64,
    /// Of those: late-dropped, decode-skipped, or of a run/tenant that
    /// errored.
    pub failed: u64,
    /// Errors that ended an iteration or a pass.
    pub errors: Vec<String>,
    /// `/128`, `/64`, `/48` shape of the small-fleet golden configuration as
    /// this build computes it.
    pub golden: Vec<LevelShape>,
    /// Exact-count metrics that differed between traced repetitions.
    pub count_mismatches: Vec<String>,
    /// `bench.span_coverage` of the traced run, when there was one.
    pub span_coverage: Option<f64>,
}

/// The outcome of one check.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Check {
    /// Workload(s) the check is about.
    pub workload: String,
    /// What was checked.
    pub name: String,
    /// Whether it held.
    pub ok: bool,
    /// Both sides, printable.
    pub detail: String,
}

/// The `/128`, `/64`, `/48` `scans= sources=` lines committed in
/// `tests/golden/shape_intensity.json` (seed 42, `FleetConfig::small()`,
/// `end_day 21`, sequential). Copied rather than read at run time so the
/// benchmark needs no file outside its own directory; a unit test below
/// fails if the copy and the golden file part.
pub const GOLDEN_SHAPE: [LevelShape; 3] = [
    LevelShape {
        level: 128,
        scans: 224,
        sources: 168,
    },
    LevelShape {
        level: 64,
        scans: 185,
        sources: 130,
    },
    LevelShape {
        level: 48,
        scans: 255,
        sources: 198,
    },
];

/// Recomputes [`GOLDEN_SHAPE`] the way the golden test does — materialized
/// trace, A.1 artifact prefilter, one sequential multi-level pass —
/// independent of every path the workloads time.
pub fn golden_shape() -> Vec<LevelShape> {
    let world = World::build(FleetConfig {
        seed: 42,
        end_day: 21,
        ..FleetConfig::small()
    });
    let (kept, _) = ArtifactFilter::default().filter(&world.cdn_trace());
    let levels = [AggLevel::L128, AggLevel::L64, AggLevel::L48, AggLevel::L32];
    let mut det = DetectorBuilder::new(ScanDetectorConfig {
        keep_dsts: false,
        ..Default::default()
    })
    .levels(&levels)
    .build(Backend::Sequential);
    let mut batch = RecordBatch::with_capacity(4096);
    for part in kept.chunks(4096) {
        batch.clear();
        for r in part {
            batch.push(*r);
        }
        det.observe_batch(&batch);
    }
    let reports = det.finish();
    GOLDEN_SHAPE
        .iter()
        .map(|g| {
            let r = &reports[&AggLevel::new(g.level)];
            LevelShape {
                level: g.level,
                scans: r.scans() as u64,
                sources: r.sources() as u64,
            }
        })
        .collect()
}

fn check(workload: &str, name: impl Into<String>, ok: bool, detail: String) -> Check {
    Check {
        workload: workload.to_string(),
        name: name.into(),
        ok,
        detail,
    }
}

fn find<'a>(evidence: &'a [Evidence], workload: &str, like: &Evidence) -> Option<&'a Rendered> {
    evidence
        .iter()
        .find(|e| e.workload == workload && e.seed == like.seed && e.scale == like.scale)
        .and_then(|e| e.rendered.as_ref())
}

/// Evaluates every check the evidence supports. Cross-workload checks run
/// when both workloads are present with the same seed and scale.
pub fn evaluate(evidence: &[Evidence]) -> Vec<Check> {
    let mut out = Vec::new();
    for e in evidence {
        let w = e.workload.as_str();
        for err in &e.errors {
            out.push(check(w, "run completed", false, err.clone()));
        }
        if let Some(first) = e.digests.first() {
            let odd = e.digests.iter().find(|d| d.digest != first.digest);
            out.push(check(
                w,
                format!("report digest identical over {} runs", e.digests.len()),
                odd.is_none(),
                match odd {
                    None => format!("{:016x}", first.digest),
                    Some(d) => format!(
                        "{} = {:016x}, {} = {:016x}",
                        first.label, first.digest, d.label, d.digest
                    ),
                },
            ));
        }
        for r in &e.refs {
            out.push(check(
                w,
                r.what.clone(),
                r.measured == r.reference,
                format!("measured [{}], reference [{}]", r.measured, r.reference),
            ));
        }
        out.push(check(
            w,
            "no record lost or failed",
            e.failed == 0,
            format!("{} of {} offered", e.failed, e.offered),
        ));
        if !e.golden.is_empty() {
            out.push(check(
                w,
                "small-fleet golden shape (tests/golden/shape_intensity.json)",
                e.golden == GOLDEN_SHAPE,
                format!("computed {:?}, committed {:?}", e.golden, GOLDEN_SHAPE),
            ));
        }
        for m in &e.count_mismatches {
            out.push(check(w, "exact counts repeat", false, m.clone()));
        }
        if let Some(c) = e.span_coverage {
            out.push(check(
                w,
                "top-level spans cover the traced wall within 5 %",
                (0.95..=1.05).contains(&c),
                format!("bench.span_coverage = {c:.4}"),
            ));
        }
    }
    // fused-par must render the very bytes fused-seq renders.
    for par in evidence.iter().filter(|e| e.workload == "fused-par") {
        if let (Some(p), Some(s)) = (&par.rendered, find(evidence, "fused-seq", par)) {
            out.push(check(
                "fused-par, fused-seq",
                "report bytes identical",
                p.digest == s.digest,
                format!("fused-par {:016x}, fused-seq {:016x}", p.digest, s.digest),
            ));
        }
    }
    // Intensity invariance across workloads: fused-ckpt (5x) and fused-seq
    // (10x) simulate the same horizon, so they must agree on /64.
    for ck in evidence.iter().filter(|e| e.workload == "fused-ckpt") {
        if let (Some(c), Some(s)) = (&ck.rendered, find(evidence, "fused-seq", ck)) {
            let at64 = |r: &Rendered| r.shape.iter().find(|l| l.level == 64).copied();
            out.push(check(
                "fused-ckpt, fused-seq",
                "/64 scans and sources equal at 5x and 10x",
                at64(c) == at64(s),
                format!("fused-ckpt {:?}, fused-seq {:?}", at64(c), at64(s)),
            ));
        }
    }
    out
}

/// Prints every failed check (and a one-line tally) to stderr; returns the
/// number failed.
pub fn report(checks: &[Check]) -> usize {
    let failed: Vec<&Check> = checks.iter().filter(|c| !c.ok).collect();
    for c in &failed {
        eprintln!("CHECK FAILED [{}] {}: {}", c.workload, c.name, c.detail);
    }
    eprintln!(
        "correctness gate: {} checks, {} failed",
        checks.len(),
        failed.len()
    );
    failed.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rendered(digest: u64, scans64: u64) -> Rendered {
        Rendered {
            digest,
            reports_digest: digest,
            bytes: 10,
            records: 100,
            lost: 0,
            checkpoints: 0,
            shape: vec![LevelShape {
                level: 64,
                scans: scans64,
                sources: 1,
            }],
        }
    }

    fn evidence(workload: &str, digests: &[u64]) -> Evidence {
        Evidence {
            workload: workload.into(),
            seed: 42,
            scale: "smoke".into(),
            digests: digests
                .iter()
                .enumerate()
                .map(|(i, &digest)| LabelledDigest {
                    label: format!("iteration {i}"),
                    digest,
                })
                .collect(),
            rendered: Some(rendered(digests[0], 5)),
            offered: 100,
            ..Evidence::default()
        }
    }

    #[test]
    fn golden_shape_copy_matches_the_committed_golden_file() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../tests/golden/shape_intensity.json"
        );
        let golden: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
        let Some(serde_json::Value::Str(output)) = golden.get("output") else {
            panic!("golden file has no output string");
        };
        for g in GOLDEN_SHAPE {
            let line = format!("/{}: scans={} sources={} ", g.level, g.scans, g.sources);
            assert!(output.contains(&line), "{line:?} not in {path}");
        }
    }

    #[test]
    fn clean_evidence_passes_every_check() {
        let checks = evaluate(&[evidence("fused-seq", &[7, 7]), evidence("fused-par", &[7])]);
        assert!(checks.iter().all(|c| c.ok), "{checks:?}");
        assert!(checks.iter().any(|c| c.name == "report bytes identical"));
    }

    #[test]
    fn a_differing_digest_names_both_sides() {
        let checks = evaluate(&[evidence("fused-seq", &[7, 7, 9])]);
        let bad: Vec<_> = checks.iter().filter(|c| !c.ok).collect();
        assert_eq!(bad.len(), 1);
        assert!(bad[0].detail.contains("iteration 0"), "{}", bad[0].detail);
        assert!(bad[0].detail.contains("iteration 2"), "{}", bad[0].detail);
        assert!(bad[0].detail.contains("0000000000000009"));
    }

    #[test]
    fn losses_errors_and_cross_workload_mismatches_fail() {
        let mut seq = evidence("fused-seq", &[7]);
        seq.failed = 3;
        seq.errors.push("boom".into());
        seq.refs.push(RefCheck {
            what: "x".into(),
            measured: "a".into(),
            reference: "b".into(),
        });
        seq.span_coverage = Some(0.80);
        let par = evidence("fused-par", &[8]);
        let mut ckpt = evidence("fused-ckpt", &[7]);
        ckpt.rendered = Some(rendered(7, 6));
        let checks = evaluate(&[seq, par, ckpt]);
        let failed: Vec<&str> = checks
            .iter()
            .filter(|c| !c.ok)
            .map(|c| c.name.as_str())
            .collect();
        assert_eq!(
            failed,
            [
                "run completed",
                "x",
                "no record lost or failed",
                "top-level spans cover the traced wall within 5 %",
                "report bytes identical",
                "/64 scans and sources equal at 5x and 10x",
            ]
        );
    }
}
