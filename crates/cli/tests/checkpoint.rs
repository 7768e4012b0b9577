//! Subprocess kill-and-resume test for `lumen6 detect --checkpoint`: a run
//! stopped after its first checkpoint (exit code 3) and then resumed must
//! produce stdout byte-identical to an uninterrupted run. Runs the real
//! binary so process death, the atomic checkpoint file, and the exit-code
//! contract are all exercised end to end.

use std::path::Path;
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

fn detect_args<'a>(trace: &'a str, ck: &'a str, extra: &[&'a str]) -> Vec<&'a str> {
    let mut v = vec![
        "detect",
        "--trace",
        trace,
        "--min-dsts",
        "50",
        "--checkpoint",
        ck,
        "--checkpoint-every",
        "5000",
    ];
    v.extend_from_slice(extra);
    v
}

fn record_count(trace: &str) -> u64 {
    stdout_of(&lumen6(&["info", "--trace", trace]))
        .lines()
        .find_map(|l| l.strip_prefix("records:"))
        .expect("info prints record count")
        .trim()
        .parse()
        .unwrap()
}

#[test]
fn kill_and_resume_is_byte_identical() {
    let dir = std::env::temp_dir().join(format!("lumen6-ckpt-e2e-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("t.l6tr");
    let t = trace.to_str().unwrap();
    stdout_of(&lumen6(&[
        "generate", "cdn", "--out", t, "--days", "6", "--seed", "9", "--small",
    ]));
    assert!(
        record_count(t) > 10_000,
        "trace too small to checkpoint mid-stream"
    );

    // Uninterrupted reference, same checkpoint cadence.
    let ref_ck = dir.join("ref.l6ck");
    let reference = stdout_of(&lumen6(&detect_args(t, ref_ck.to_str().unwrap(), &[])));
    assert!(reference.contains("session:"), "{reference}");

    // Interrupted run: dies (exit code 3) right after its first checkpoint.
    let ck = dir.join("kr.l6ck");
    let c = ck.to_str().unwrap();
    let stopped = lumen6(&detect_args(t, c, &["--stop-after", "1"]));
    assert_eq!(
        stopped.status.code(),
        Some(3),
        "stopped run must exit 3, stderr: {}",
        String::from_utf8_lossy(&stopped.stderr)
    );
    assert!(
        String::from_utf8_lossy(&stopped.stderr).contains("stopped after 1 checkpoints"),
        "stderr: {}",
        String::from_utf8_lossy(&stopped.stderr)
    );
    assert!(Path::new(c).exists(), "checkpoint file must exist");

    // Second interruption further into the stream, then a full resume.
    let stopped2 = lumen6(&detect_args(t, c, &["--stop-after", "2"]));
    assert_eq!(stopped2.status.code(), Some(3));

    let resumed = stdout_of(&lumen6(&detect_args(t, c, &[])));
    assert_eq!(
        resumed, reference,
        "resumed stdout differs from uninterrupted run"
    );

    // Resuming across a backend switch also matches.
    let ck_seq = dir.join("seq.l6ck");
    let cs = ck_seq.to_str().unwrap();
    let stopped = lumen6(&detect_args(t, cs, &["--stop-after", "1"]));
    assert_eq!(stopped.status.code(), Some(3));
    let resumed_seq = stdout_of(&lumen6(&detect_args(t, cs, &["--sequential"])));
    assert_eq!(
        resumed_seq, reference,
        "threaded->sequential resume differs"
    );

    std::fs::remove_dir_all(&dir).ok();
}

/// A checkpoint cut by a build without default retirement — `L6CK v2`, no
/// flush ever run (`last_flush_ms` 0), every source seen so far still open;
/// `--flush-idle-secs 0` writes that file byte for byte — resumes under the
/// default to the uninterrupted default run's stdout: the first row after
/// the resume flushes, and the next checkpoint holds what is live.
#[test]
fn a_checkpoint_cut_without_retirement_resumes_under_the_default() {
    use lumen6_detect::Checkpoint;
    let dir = std::env::temp_dir().join(format!("lumen6-ckpt-upgrade-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let run = |ck: &Path, extra: &[&str]| {
        let mut args = vec![
            "detect", "--fused", "--small", "--days", "60", "--seed", "7",
        ];
        args.extend(["--checkpoint", ck.to_str().unwrap()]);
        args.extend(["--checkpoint-every", "150000"]);
        args.extend_from_slice(extra);
        lumen6(&args)
    };
    let reference = stdout_of(&run(&dir.join("ref.l6ck"), &[]));
    assert!(reference.contains(" 2 checkpoints"), "{reference}");

    let ck = dir.join("old.l6ck");
    let cut = run(&ck, &["--flush-idle-secs", "0", "--stop-after", "1"]);
    assert_eq!(cut.status.code(), Some(3));
    let old = Checkpoint::load(&ck).unwrap();
    let open_runs = |ck: &Checkpoint| ck.detector.levels[0].runs.len();
    assert_eq!(old.last_flush_ms, 0);
    assert!(open_runs(&old) > 1_000, "{} open runs", open_runs(&old));

    let metrics = dir.join("m.json");
    let resumed = run(&ck, &["--metrics-out", metrics.to_str().unwrap()]);
    let resumed = stdout_of(&resumed);
    let report = resumed.find("session:").expect("a session line");
    assert_eq!(resumed[report..], reference, "resumed stdout differs");
    let snap: lumen6_obs::MetricsSnapshot =
        serde_json::from_str(&std::fs::read_to_string(&metrics).unwrap()).unwrap();
    assert_eq!(snap.counters["detect.session.resumes"], 1);
    assert!(snap.counters["detect.session.idle_flushes"] >= 1);
    let next = Checkpoint::load(&ck).unwrap();
    assert_eq!(next.checkpoints_written, 2);
    assert!(next.last_flush_ms > 0);
    assert!(open_runs(&next) <= 32, "{} open runs", open_runs(&next));
    let live = snap.gauges["detect.multi.l64.open_runs"];
    assert!((0..=32).contains(&live), "{live} open runs at finish");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_checkpoint_is_a_clean_error() {
    let dir = std::env::temp_dir().join(format!("lumen6-ckpt-corrupt-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("t.l6tr");
    let t = trace.to_str().unwrap();
    stdout_of(&lumen6(&[
        "generate", "cdn", "--out", t, "--days", "3", "--seed", "1", "--small",
    ]));
    let ck = dir.join("bad.l6ck");
    std::fs::write(&ck, "L6CK v1 0000000000000000 2\n{}").unwrap();
    let out = lumen6(&detect_args(t, ck.to_str().unwrap(), &[]));
    assert_eq!(out.status.code(), Some(2), "corrupt checkpoint must fail");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("checksum"),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// FNV-1a 64, as the `L6CK` header carries it — anyone can compute it, so
/// a correct checksum vouches for nothing under it.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn committed(name: &str) -> String {
    format!("{}/../../tests/data/{name}", env!("CARGO_MANIFEST_DIR"))
}

/// Runs `detect` over the committed compat trace from `checkpoint` and
/// holds it to a clean refusal: exit 2, a `corrupt checkpoint` message
/// naming `why`, no panic, no report.
fn assert_refused(checkpoint: &Path, why: &str) {
    let out = lumen6(&[
        "detect",
        "--trace",
        &committed("compat.l6tr"),
        "--min-dsts",
        "20",
        "--timeout-secs",
        "60",
        "--checkpoint",
        checkpoint.to_str().unwrap(),
        "--checkpoint-every",
        "400",
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(
        stderr.contains("corrupt checkpoint") && stderr.contains(why),
        "stderr: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    assert!(
        out.stdout.is_empty(),
        "a refused checkpoint printed a report"
    );
}

/// A checkpoint whose sketch cannot be inserted into used to load — the
/// checksum is anyone's to compute — restore, and kill the process at the
/// source's next packet (`index out of bounds` in `HyperLogLog::insert`,
/// exit 101). Both framings now refuse it at load.
#[test]
fn misshapen_sketch_under_a_correct_checksum_is_a_clean_error() {
    let dir = std::env::temp_dir().join(format!("lumen6-ckpt-sketch-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    // v1: the committed parent-written checkpoint with its first sketch's
    // register array emptied, under a recomputed header.
    let v1 = std::fs::read_to_string(committed("compat_sketch.v1.l6ck")).unwrap();
    let (_, json) = v1.split_once('\n').unwrap();
    let key = "\"registers\":[";
    let from = json.find(key).expect("fixture holds a sketch") + key.len();
    let to = from + json[from..].find(']').unwrap();
    let json = format!("{}{}", &json[..from], &json[to..]);
    assert!(json.contains("{\"Sketch\":{\"precision\":10,\"registers\":[]}}"));
    let bad_v1 = dir.join("v1.l6ck");
    std::fs::write(
        &bad_v1,
        format!(
            "L6CK v1 {:016x} {}\n{json}",
            fnv1a(json.as_bytes()),
            json.len()
        ),
    )
    .unwrap();
    assert_refused(&bad_v1, "registers");

    // Its v2 twin: one level, one run, whose `dsts` counter is a sketch of
    // precision 200.
    let mut body = vec![2u8]; // snapshot version
    body.extend_from_slice(&[0; 9]); // position, counters, reorder scalars
    body.extend_from_slice(&[0, 1]); // no reorder entries; one level
    body.extend_from_slice(&[64, 20, 60, 0, 0, 0, 0, 1]); // config, counters, one run
    body.extend_from_slice(&[0; 16]); // ::/64
    body.extend_from_slice(&[64, 0, 0, 1]); // start, last, packets
    body.extend_from_slice(&[1, 200]); // Sketch, precision 200
    body.extend_from_slice(&[0; 64]);
    let mut bad_v2 = format!("L6CK v2 {:016x} {:020}\n", fnv1a(&body), body.len()).into_bytes();
    bad_v2.extend_from_slice(&body);
    let path = dir.join("v2.l6ck");
    std::fs::write(&path, bad_v2).unwrap();
    assert_refused(&path, "sketch precision 200");

    std::fs::remove_dir_all(&dir).ok();
}

/// `--checkpoint state.tmp`: the temp file is `state.tmp.tmp`, so the live
/// checkpoint is replaced by rename, not written in place, and `.prev` is
/// the generation before it rather than a copy of it.
#[test]
fn a_checkpoint_named_dot_tmp_is_still_written_beside() {
    let dir = std::env::temp_dir().join(format!("lumen6-ckpt-tmpname-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let ck = dir.join("state.tmp");
    let out = lumen6(&[
        "detect",
        "--fused",
        "--small",
        "--days",
        "5",
        "--checkpoint",
        ck.to_str().unwrap(),
        "--checkpoint-every",
        "20000",
        "--stop-after",
        "2",
    ]);
    assert_eq!(out.status.code(), Some(3));
    let prev = dir.join("state.tmp.prev");
    let (main, prev) = (std::fs::read(&ck).unwrap(), std::fs::read(&prev).unwrap());
    assert!(main.starts_with(b"L6CK v2 ") && prev.starts_with(b"L6CK v2 "));
    assert_ne!(main, prev, ".prev must be the previous generation");
    assert!(!dir.join("state.tmp.tmp").exists(), "temp file left behind");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn stop_after_without_checkpoint_is_usage_error() {
    let out = lumen6(&["detect", "--trace", "x.l6tr", "--stop-after", "1"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("--checkpoint"),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// `--gen-threads N` must not change a fused run's output by one byte, and
/// is rejected outside `--fused` (parallel generation has no meaning for a
/// materialized trace).
#[test]
fn gen_threads_is_output_invariant_and_fused_only() {
    let fused = [
        "detect",
        "--fused",
        "--small",
        "--days",
        "2",
        "--intensity",
        "1",
        "--min-dsts",
        "25",
    ];
    let sequential = stdout_of(&lumen6(&fused));
    for n in ["2", "8", "0"] {
        let mut args = fused.to_vec();
        args.extend(["--gen-threads", n]);
        assert_eq!(
            stdout_of(&lumen6(&args)),
            sequential,
            "gen-threads={n} output differs"
        );
    }

    let out = lumen6(&["detect", "--trace", "x.l6tr", "--gen-threads", "4"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("gen_threads"),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}
