//! Golden outputs of the six subcommands that read a trace record by record
//! beside `detect`'s session: `detect --prefilter`, `fingerprint`,
//! `adaptive`, `mawi-detect`, `backscatter` and `export-pcap`.
//!
//! Each case runs the real binary in a scratch directory and compares its
//! exit code, stdout and stderr (and, for `export-pcap`, the pcap's size
//! and FNV-1a digest) with a text file under `tests/golden/`. The inputs:
//!
//! - a counted (`L6TR v2`) trace, `generate cdn --small --days 21
//!   --intensity 4` (709 876 records in 177 469 rows);
//! - the version 1 fixture `tests/data/compat.l6tr`;
//! - the first half of the counted trace, cut inside a row: every reader
//!   must fail with the codec's error and exit 2;
//! - a hand-built version 1 trace with one out-of-range field mid-file: a
//!   recoverable error that `detect` quarantines by default, but that ends
//!   every reader, `detect --prefilter` included, with exit 2.
//!
//! To re-bless after an intentional change:
//!
//! ```text
//! GOLDEN_BLESS=1 cargo test -p lumen6-cli --test readers
//! ```
//!
//! `experiments_all_matches_golden` pins `lumen6 experiments all` (the full
//! fleet, both vantages) to `tests/golden/experiments_all.txt` at the
//! repository root, from the generated world and from a 1x full-fleet trace
//! file. It takes about 25 s in release, so it is ignored by default; run
//! it with `cargo test --release -p lumen6-cli --test readers
//! -- --ignored`.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::OnceLock;

/// The scratch directory holding the generated inputs (made once per test
/// binary).
fn inputs() -> &'static Path {
    static DIR: OnceLock<PathBuf> = OnceLock::new();
    DIR.get_or_init(|| {
        let dir = std::env::temp_dir().join(format!("lumen6-readers-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let out = lumen6(
            &dir,
            &[
                "generate",
                "cdn",
                "--small",
                "--days",
                "21",
                "--intensity",
                "4",
                "--out",
                "s21.l6tr",
            ],
        );
        assert!(out.status.success(), "{out:?}");
        let bytes = std::fs::read(dir.join("s21.l6tr")).unwrap();
        std::fs::write(dir.join("trunc.l6tr"), &bytes[..bytes.len() / 2 + 3]).unwrap();
        std::fs::write(dir.join("bad.l6tr"), bad_field_trace()).unwrap();
        let compat = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/data/compat.l6tr");
        std::fs::copy(compat, dir.join("compat.l6tr")).unwrap();
        dir
    })
}

/// A version 1 trace of 300 probes, one a second, from one source to 300
/// destinations on TCP/22, whose 151st row carries source port 70 000 —
/// out of range, so decoding that row fails but the stream stays aligned.
fn bad_field_trace() -> Vec<u8> {
    fn varint(out: &mut Vec<u8>, mut v: u64) {
        while v >= 0x80 {
            out.push(v as u8 | 0x80);
            v >>= 7;
        }
        out.push(v as u8);
    }
    let mut bytes = b"L6TR\x01".to_vec();
    for i in 0..300u64 {
        varint(&mut bytes, 1_000); // the timestamp's delta
        bytes.extend(0x2001_0db8_0000_0000_0000_0000_0000_0001u128.to_be_bytes());
        bytes.extend((0x2001_0db8_ffff_0000_0000_0000_0000_0000 + u128::from(i)).to_be_bytes());
        bytes.push(6); // TCP
        varint(&mut bytes, if i == 150 { 70_000 } else { 40_000 });
        varint(&mut bytes, 22);
        varint(&mut bytes, 60);
    }
    bytes
}

fn lumen6(dir: &Path, args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_lumen6"))
        .current_dir(dir)
        .args(args)
        .output()
        .expect("spawn lumen6")
}

/// 64-bit FNV-1a of `bytes`.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Bytes of stdout past which a golden holds its digest, not its text.
const LONG: usize = 64 * 1024;

/// Runs `lumen6 <args>` (in the input directory) and renders what it did.
fn transcript(args: &[&str]) -> String {
    let dir = inputs();
    let out = lumen6(dir, args);
    let stdout = String::from_utf8_lossy(&out.stdout);
    // A long stdout (a `--json` event list) is pinned by its digest.
    let stdout = match stdout.lines().next() {
        Some(first) if stdout.len() > LONG => format!(
            "{} bytes, fnv1a64 {:016x}, first line {first:?}\n",
            stdout.len(),
            fnv1a64(stdout.as_bytes())
        ),
        _ => stdout.into_owned(),
    };
    let mut text = format!(
        "$ lumen6 {}\nexit: {}\n--- stdout\n{stdout}--- stderr\n{}",
        args.join(" "),
        out.status.code().map_or("signal".into(), |c| c.to_string()),
        String::from_utf8_lossy(&out.stderr),
    );
    if let Some(i) = args.iter().position(|&a| a == "--out") {
        let path = dir.join(args[i + 1]);
        if let Ok(bytes) = std::fs::read(&path) {
            let digest = fnv1a64(&bytes);
            text += &format!(
                "--- {}: {} bytes, fnv1a64 {digest:016x}\n",
                args[i + 1],
                bytes.len()
            );
            std::fs::remove_file(&path).unwrap();
        }
    }
    text
}

fn golden_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.txt"))
}

/// Compares `got` with the golden file at `path`, showing the first
/// differing lines; with `GOLDEN_BLESS=1`, rewrites the file instead.
fn check(path: &Path, got: &str) {
    if std::env::var_os("GOLDEN_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(path, got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(path).unwrap_or_else(|e| {
        panic!(
            "missing golden {}: {e}\nrun with GOLDEN_BLESS=1 to create it",
            path.display()
        )
    });
    if got == want {
        return;
    }
    let mut msg = format!("golden mismatch: {}\n", path.display());
    let (got, want): (Vec<_>, Vec<_>) = (got.lines().collect(), want.lines().collect());
    let differing = (0..got.len().max(want.len())).filter(|&i| got.get(i) != want.get(i));
    for i in differing.take(10) {
        let (g, w) = (got.get(i), want.get(i));
        msg += &format!("line {}:\n  expected: {w:?}\n  got:      {g:?}\n", i + 1);
    }
    panic!("{msg}re-bless with GOLDEN_BLESS=1 if the change is intentional");
}

/// Checks every `(golden name, command line)` case.
fn check_all(cases: &[(&str, &[&str])]) {
    for (name, args) in cases {
        check(&golden_path(name), &transcript(args));
    }
}

#[test]
fn counted_trace_readers_match_golden() {
    let t = ["--trace", "s21.l6tr"];
    check_all(&[
        (
            "s21_detect_prefilter",
            &[&["detect", "--prefilter"][..], &t].concat(),
        ),
        (
            "s21_detect_prefilter_min5",
            &[&["detect", "--prefilter", "--min-dsts", "5"][..], &t].concat(),
        ),
        (
            "s21_detect_prefilter_min5_json",
            &[
                &["detect", "--prefilter", "--min-dsts", "5", "--json"][..],
                &t,
            ]
            .concat(),
        ),
        ("s21_fingerprint", &[&["fingerprint"][..], &t].concat()),
        ("s21_adaptive", &[&["adaptive"][..], &t].concat()),
        ("s21_mawi_detect", &[&["mawi-detect"][..], &t].concat()),
        (
            "s21_mawi_detect_min5",
            &[&["mawi-detect", "--min-dsts", "5"][..], &t].concat(),
        ),
        ("s21_backscatter", &[&["backscatter"][..], &t].concat()),
        (
            "s21_export_pcap",
            &[&["export-pcap", "--out", "s21.pcap"][..], &t].concat(),
        ),
    ]);
}

#[test]
fn v1_trace_readers_match_golden() {
    let t = ["--trace", "compat.l6tr"];
    check_all(&[
        (
            "compat_detect_prefilter",
            &[&["detect", "--prefilter"][..], &t].concat(),
        ),
        (
            "compat_detect_prefilter_min5",
            &[&["detect", "--prefilter", "--min-dsts", "5"][..], &t].concat(),
        ),
        ("compat_fingerprint", &[&["fingerprint"][..], &t].concat()),
        ("compat_adaptive", &[&["adaptive"][..], &t].concat()),
        ("compat_mawi_detect", &[&["mawi-detect"][..], &t].concat()),
        ("compat_backscatter", &[&["backscatter"][..], &t].concat()),
        (
            "compat_export_pcap",
            &[&["export-pcap", "--out", "compat.pcap"][..], &t].concat(),
        ),
    ]);
}

/// A truncated trace and a bad field mid-file end every reader with the
/// codec's error; plain `detect` skips the bad row instead.
#[test]
fn corrupt_traces_fail_every_reader_alike() {
    let (t, b) = (["--trace", "trunc.l6tr"], ["--trace", "bad.l6tr"]);
    check_all(&[
        (
            "trunc_detect_prefilter",
            &[&["detect", "--prefilter"][..], &t].concat(),
        ),
        ("trunc_fingerprint", &[&["fingerprint"][..], &t].concat()),
        ("trunc_adaptive", &[&["adaptive"][..], &t].concat()),
        ("trunc_mawi_detect", &[&["mawi-detect"][..], &t].concat()),
        ("trunc_backscatter", &[&["backscatter"][..], &t].concat()),
        (
            "trunc_export_pcap",
            &[&["export-pcap", "--out", "trunc.pcap"][..], &t].concat(),
        ),
        ("bad_detect", &[&["detect"][..], &b].concat()),
        (
            "bad_detect_prefilter",
            &[&["detect", "--prefilter"][..], &b].concat(),
        ),
        ("bad_fingerprint", &[&["fingerprint"][..], &b].concat()),
        ("bad_adaptive", &[&["adaptive"][..], &b].concat()),
        ("bad_mawi_detect", &[&["mawi-detect"][..], &b].concat()),
        ("bad_backscatter", &[&["backscatter"][..], &b].concat()),
        (
            "bad_export_pcap",
            &[&["export-pcap", "--out", "bad.pcap"][..], &b].concat(),
        ),
    ]);
}

/// Under `--json`, stdout is the event list alone: the A.1 summary line
/// goes to stderr.
#[test]
fn prefilter_json_stdout_is_json() {
    let args = ["detect", "--prefilter", "--json", "--trace", "s21.l6tr"];
    let out = lumen6(inputs(), &args);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    let events: serde_json::Value = serde_json::from_str(&stdout).expect("stdout is JSON");
    assert!(
        events.as_array().is_some_and(|e| !e.is_empty()),
        "{events:?}"
    );
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.starts_with("prefilter: removed "), "{stderr}");
}

/// The paper's tables and figures on the full fleet (seed 42, both
/// vantages): the full-scale output every change to a reader must hold —
/// from the generated world, and from the trace `generate cdn` writes of
/// it.
#[test]
#[ignore = "full fleet, ~25 s in release: the deep CI tier runs it"]
fn experiments_all_matches_golden() {
    let golden =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/experiments_all.txt");
    let out = lumen6(inputs(), &["generate", "cdn", "--out", "full1.l6tr"]);
    assert!(out.status.success(), "{out:?}");
    for args in [
        &["experiments", "all"][..],
        &["experiments", "--trace", "full1.l6tr", "all"],
    ] {
        let out = lumen6(inputs(), args);
        assert!(out.status.success(), "{args:?}: {out:?}");
        check(&golden, &String::from_utf8(out.stdout).unwrap());
    }
    std::fs::remove_file(inputs().join("full1.l6tr")).unwrap();
}
