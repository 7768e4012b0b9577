//! `lumen6 soak`: fused-pipeline endurance harness.
//!
//! Drives the full generator→detector pipeline (`detect --fused`) as child
//! processes of the installed binary and proves the crash-recovery story
//! end to end, at full paper intensity by default (`--intensity 1250`):
//!
//! 1. **Reference pass** — one uninterrupted fused run with periodic
//!    checkpointing, recording wall time and peak RSS.
//! 2. **Kill/resume chain** — the same run restarted from scratch, but each
//!    segment is killed with `SIGKILL` (a real `kill -9`, not a cooperative
//!    `--stop-after` stop) once the harness has observed `--kill-after-checkpoints`
//!    fresh checkpoint writes, then resumed from the surviving checkpoint.
//!    `--kills` segments die this way; the final segment runs to completion.
//! 3. **Invariant checks** — the chain's final stdout must be byte-identical
//!    to the reference pass (a resumed session restores its counters, so
//!    even the `session:` accounting line must match), the final on-disk
//!    checkpoints of both runs must be byte-identical (same deterministic
//!    cadence ⇒ same last snapshot), every requested kill must actually
//!    have been injected, and — when `--max-rss-mb` is set — peak RSS
//!    across every child must stay under the bound.
//!
//! While a child runs, the harness polls every `--sample-ms`: RSS from
//! `/proc/<pid>/status` (absent on non-Linux hosts; sampling then degrades
//! to zero and the RSS bound is not enforced) and the checkpoint file's
//! bytes, whose changes both count observed checkpoints and trigger the
//! kill. Everything measured lands in `DIR/SOAK.json`, published with the
//! same write-to-temp-then-rename idiom as the metrics snapshots so a
//! dashboard tailing the file never sees a torn write.

use crate::{Args, CliError};
use lumen6_serve::RunConfig;
use lumen6_trace::write_atomic;
use serde::Serialize;
use std::io::{Read as _, Write as _};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// One point on a child's RSS timeline.
#[derive(Serialize)]
struct RssSample {
    /// Milliseconds since the child was spawned.
    ms: u64,
    rss_kb: u64,
}

/// What the harness measured for one child process.
#[derive(Serialize)]
struct Segment {
    /// `"finished"` (exit 0) or `"killed"` (died to our SIGKILL).
    kind: String,
    wall_ms: u64,
    peak_rss_kb: u64,
    /// Fresh checkpoint writes observed while this child ran.
    checkpoints_observed: u64,
    /// Coarse (at most one per second) RSS timeline.
    rss_samples: Vec<RssSample>,
}

/// The pass/fail verdicts of phase 3.
#[derive(Serialize)]
struct Invariants {
    report_identical: bool,
    checkpoint_identical: bool,
    all_kills_injected: bool,
    rss_within_bound: bool,
}

/// The machine-readable artifact written to `DIR/SOAK.json`.
#[derive(Serialize)]
struct SoakReport {
    intensity: f64,
    checkpoint_every: u64,
    kills_requested: u64,
    kills_injected: u64,
    records: u64,
    chain_wall_ms: u64,
    throughput_rps: f64,
    peak_rss_kb: u64,
    max_rss_mb: u64,
    reference: Segment,
    segments: Vec<Segment>,
    invariants: Invariants,
    passed: bool,
}

/// One finished or killed child: its captured stdout plus measurements.
struct Outcome {
    stdout: Vec<u8>,
    /// `None` when the child died to a signal.
    exit_code: Option<i32>,
    segment: Segment,
}

/// Resident set size of `pid` in kB, from `/proc/<pid>/status`. `None` when
/// procfs is unavailable (non-Linux) or the process is gone.
fn rss_kb(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Spawns one `detect --fused` child and supervises it to exit: samples RSS
/// and watches the checkpoint file every `sample`, and — when `kill_after`
/// is set — delivers SIGKILL once that many fresh checkpoint writes have
/// been observed. Stdout is piped and drained after exit; a fused run only
/// prints its report at the end, so the pipe cannot fill mid-run.
fn drive_child(
    exe: &Path,
    argv: &[String],
    ckpt: &Path,
    sample: Duration,
    kill_after: Option<u64>,
) -> Result<Outcome, CliError> {
    let start = Instant::now();
    let mut child = Command::new(exe)
        .args(argv)
        .stdout(Stdio::piped())
        .spawn()?;
    let pid = child.id();
    let mut last_ckpt = std::fs::read(ckpt).ok();
    let mut fresh = 0u64;
    let mut peak = 0u64;
    let mut samples: Vec<RssSample> = Vec::new();
    let mut next_sample_sec = 0u64;
    let mut kill_sent = false;
    loop {
        if let Some(status) = child.try_wait()? {
            let mut stdout = Vec::new();
            if let Some(mut pipe) = child.stdout.take() {
                pipe.read_to_end(&mut stdout)?;
            }
            let exit_code = status.code();
            return Ok(Outcome {
                stdout,
                exit_code,
                segment: Segment {
                    kind: if exit_code.is_none() {
                        "killed".into()
                    } else {
                        "finished".into()
                    },
                    wall_ms: start.elapsed().as_millis() as u64,
                    peak_rss_kb: peak,
                    checkpoints_observed: fresh,
                    rss_samples: samples,
                },
            });
        }
        if let Some(kb) = rss_kb(pid) {
            peak = peak.max(kb);
            let sec = start.elapsed().as_secs();
            if sec >= next_sample_sec {
                samples.push(RssSample {
                    ms: start.elapsed().as_millis() as u64,
                    rss_kb: kb,
                });
                next_sample_sec = sec + 1;
            }
        }
        if let Ok(bytes) = std::fs::read(ckpt) {
            if last_ckpt.as_deref() != Some(&bytes[..]) {
                fresh += 1;
                last_ckpt = Some(bytes);
            }
        }
        if !kill_sent && kill_after.is_some_and(|n| fresh >= n) {
            // SIGKILL; racing a child that just exited is fine — the error
            // is "already dead" and try_wait picks up the real status.
            child.kill().ok();
            kill_sent = true;
        }
        std::thread::sleep(sample);
    }
}

/// `records` from a detect run's `session: N records, ...` stdout line.
fn parse_records(stdout: &[u8]) -> Option<u64> {
    let text = String::from_utf8_lossy(stdout);
    let line = text.lines().find(|l| l.starts_with("session: "))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// The run a child checkpointing to `ckpt` performs, and its argv: `detect
/// --fused` at full paper intensity on a tight checkpoint cadence, then
/// soak's own command line — every detection flag `detect --fused` takes is
/// a key of the same table, so it reaches the children. Both chains resolve
/// it from the same flags, so any stdout divergence is the pipeline's
/// fault, not the harness's.
fn child(args: &Args, ckpt: &Path) -> Result<(RunConfig, Vec<String>), CliError> {
    let mut run = RunConfig {
        fused: true,
        intensity: 1_250.0,
        checkpoint: Some(ckpt.display().to_string()),
        checkpoint_every: 10_000,
        ..RunConfig::default()
    };
    run.apply_flags(args.flags()).map_err(CliError::Usage)?;
    if run.checkpoint_every == 0 {
        return Err(CliError::Usage(
            "soak needs --checkpoint-every > 0 (the kill trigger watches checkpoint writes)".into(),
        ));
    }
    let mut argv = vec!["detect".to_string()];
    argv.extend(run.to_flags().map_err(CliError::Internal)?);
    Ok((run, argv))
}

/// `soak`: see the module docs. Exit is non-zero unless every invariant
/// holds; `DIR/SOAK.json` is written either way so a failing run leaves
/// its evidence behind.
pub(crate) fn soak<W: std::io::Write>(args: &Args, out: &mut W) -> Result<(), CliError> {
    let Some(dir) = args.get("out") else {
        return Err(CliError::Usage("soak needs --out DIR".into()));
    };
    let dir = PathBuf::from(dir);
    std::fs::create_dir_all(&dir)?;
    let (ref_ckpt, soak_ckpt) = (dir.join("reference.l6ck"), dir.join("soak.l6ck"));
    let (run, reference) = child(args, &ref_ckpt)?;
    let (_, chain) = child(args, &soak_ckpt)?;
    let intensity = run.intensity;
    let kills: u64 = args.get_parsed("kills", 2)?;
    let kill_after: u64 = args.get_parsed("kill-after-checkpoints", 2)?;
    if kills > 0 && kill_after == 0 {
        return Err(CliError::Usage(
            "--kill-after-checkpoints must be > 0 when --kills > 0".into(),
        ));
    }
    let sample = Duration::from_millis(args.get_parsed("sample-ms", 50)?);
    let max_rss_mb: u64 = args.get_parsed("max-rss-mb", 0)?;
    let exe = std::env::current_exe()?;

    // Phase 1: uninterrupted reference pass.
    writeln!(out, "soak: reference pass (intensity {intensity})")?;
    let reference = drive_child(&exe, &reference, &ref_ckpt, sample, None)?;
    if reference.exit_code != Some(0) {
        return Err(CliError::Soak(format!(
            "reference run exited with {:?} instead of 0",
            reference.exit_code
        )));
    }
    writeln!(
        out,
        "soak: reference finished in {} ms, peak RSS {} kB, {} checkpoints seen",
        reference.segment.wall_ms,
        reference.segment.peak_rss_kb,
        reference.segment.checkpoints_observed
    )?;

    // Phase 2: kill/resume chain against a fresh checkpoint path.
    let mut segments: Vec<Segment> = Vec::new();
    let mut kills_injected = 0u64;
    let final_stdout = loop {
        let remaining = kills.saturating_sub(kills_injected);
        let trigger = (remaining > 0).then_some(kill_after);
        let outcome = drive_child(&exe, &chain, &soak_ckpt, sample, trigger)?;
        let exit_code = outcome.exit_code;
        writeln!(
            out,
            "soak: segment {} {} after {} ms ({} checkpoints observed)",
            segments.len() + 1,
            outcome.segment.kind,
            outcome.segment.wall_ms,
            outcome.segment.checkpoints_observed
        )?;
        segments.push(outcome.segment);
        match exit_code {
            Some(0) => break outcome.stdout,
            None => kills_injected += 1,
            Some(code) => {
                return Err(CliError::Soak(format!(
                    "soak segment {} exited with code {code}",
                    segments.len()
                )))
            }
        }
    };

    // Phase 3: invariants.
    let report_identical = final_stdout == reference.stdout;
    let checkpoint_identical = std::fs::read(&ref_ckpt)? == std::fs::read(&soak_ckpt)?;
    let all_kills_injected = kills_injected == kills;
    let peak_rss_kb = segments
        .iter()
        .map(|s| s.peak_rss_kb)
        .chain([reference.segment.peak_rss_kb])
        .max()
        .unwrap_or(0);
    let rss_within_bound = max_rss_mb == 0 || peak_rss_kb <= max_rss_mb * 1024;
    let passed = report_identical && checkpoint_identical && all_kills_injected && rss_within_bound;

    let records = parse_records(&final_stdout).unwrap_or(0);
    let chain_wall_ms: u64 = segments.iter().map(|s| s.wall_ms).sum();
    let throughput_rps = if chain_wall_ms == 0 {
        0.0
    } else {
        records as f64 * 1_000.0 / chain_wall_ms as f64
    };

    let soak_report = SoakReport {
        intensity,
        checkpoint_every: run.checkpoint_every,
        kills_requested: kills,
        kills_injected,
        records,
        chain_wall_ms,
        throughput_rps,
        peak_rss_kb,
        max_rss_mb,
        reference: reference.segment,
        segments,
        invariants: Invariants {
            report_identical,
            checkpoint_identical,
            all_kills_injected,
            rss_within_bound,
        },
        passed,
    };
    let json = serde_json::to_string_pretty(&soak_report)
        .map_err(|e| CliError::Internal(format!("serialize SOAK.json: {e}")))?;
    // Atomic publication, like the metrics snapshots: a failing invariant
    // still leaves complete evidence, never a torn file.
    let path = dir.join("SOAK.json");
    write_atomic(&path, |file| file.write_all(json.as_bytes()))?;
    writeln!(out, "soak -> {}", path.display())?;
    if args.has("json") {
        writeln!(out, "{json}")?;
    }

    if !passed {
        let mut broken = Vec::new();
        if !report_identical {
            broken.push("final report differs from the uninterrupted reference");
        }
        if !checkpoint_identical {
            broken.push("final checkpoint bytes differ from the reference chain");
        }
        if !all_kills_injected {
            broken.push("fewer kills injected than requested (workload too small?)");
        }
        if !rss_within_bound {
            broken.push("peak RSS exceeded --max-rss-mb");
        }
        return Err(CliError::Soak(broken.join("; ")));
    }
    writeln!(
        out,
        "soak: PASS — {kills_injected} kill -9 injected, {records} records, \
         {throughput_rps:.0} rec/s, peak RSS {peak_rss_kb} kB"
    )?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `--sequential` and `--timeout-secs` used to stop at the harness; the
    /// children get every detection flag soak was given, soak's own
    /// defaults, and nothing soak itself reads.
    #[test]
    fn children_receive_every_detection_flag_soak_was_given() {
        let line = "soak --out d --sequential --timeout-secs 900 --small --kills 1 --json";
        let args = Args::parse(line.split(' ').map(str::to_string)).unwrap();
        let (run, child) = child(&args, Path::new("d/soak.l6ck")).unwrap();
        let expected = "detect --fused --timeout-secs 900 --sequential --checkpoint d/soak.l6ck \
                        --checkpoint-every 10000 --small --intensity 1250";
        assert_eq!(child, expected.split(' ').collect::<Vec<_>>());
        // Which `detect` reads back as the very run soak resolved.
        let read_back = crate::commands::run_config(&Args::parse(child).unwrap()).unwrap();
        assert_eq!(read_back, run);

        let mut help = Vec::new();
        crate::commands::run(vec!["soak".into(), "--help".into()], &mut help).unwrap();
        let help = String::from_utf8(help).unwrap();
        assert!(
            help.contains("same detection flags as `detect --fused`"),
            "{help}"
        );
    }
}
