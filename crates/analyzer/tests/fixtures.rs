//! Fixture-based self-tests: every known-bad snippet must trip exactly
//! its lint at the expected lines; known-good snippets must stay clean.

use lumen6_analyzer::{run, Options};
use std::path::PathBuf;

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name)
}

/// Runs single-file analysis of a fixture as if it lived in `as_crate`.
fn analyze(name: &str, as_crate: Option<&str>) -> lumen6_analyzer::Outcome {
    let opts = Options {
        root: PathBuf::from("."),
        bless_snapshot: false,
        force_bless: false,
        single_file: Some((fixture(name), as_crate.map(String::from))),
    };
    run(&opts).expect("fixture analyzes")
}

/// (lint, line) pairs of unsuppressed findings, sorted.
fn hits(outcome: &lumen6_analyzer::Outcome) -> Vec<(&'static str, u32)> {
    let mut v: Vec<(&'static str, u32)> =
        outcome.unsuppressed().map(|f| (f.lint, f.line)).collect();
    v.sort();
    v
}

#[test]
fn l001_bad_trips_each_panic_site() {
    let out = analyze("l001_bad.rs", Some("detect"));
    assert_eq!(hits(&out), vec![("L001", 4), ("L001", 5), ("L001", 7)]);
}

#[test]
fn l001_good_is_clean_with_suppressed_allows() {
    let out = analyze("l001_good.rs", Some("detect"));
    assert_eq!(hits(&out), Vec::<(&str, u32)>::new());
    let suppressed: Vec<_> = out.findings.iter().filter(|f| f.suppressed).collect();
    assert_eq!(suppressed.len(), 2, "both allow forms must match");
    assert!(suppressed.iter().all(|f| f.reason.is_some()));
}

#[test]
fn l001_only_applies_to_library_crates() {
    // Same bad file, but attributed to the scanners simulation crate,
    // which is outside the panic-freedom scope: no findings.
    let out = analyze("l001_bad.rs", Some("scanners"));
    assert_eq!(hits(&out), Vec::<(&str, u32)>::new());
}

#[test]
fn l001_covers_serve_and_cli_crates() {
    // The daemon and the CLI library half are long-running / scripted
    // surfaces; a panic there kills tenants or breaks pipelines.
    for krate in ["serve", "cli"] {
        let out = analyze("l001_bad.rs", Some(krate));
        assert_eq!(
            hits(&out),
            vec![("L001", 4), ("L001", 5), ("L001", 7)],
            "crate {krate} must be in L001 scope"
        );
    }
}

#[test]
fn l001_covers_mawi_and_report_crates() {
    // The panic-freedom scope includes the mawi and report library crates.
    for krate in ["mawi", "report"] {
        let out = analyze("l001_bad.rs", Some(krate));
        assert_eq!(
            hits(&out),
            vec![("L001", 4), ("L001", 5), ("L001", 7)],
            "crate {krate} must be in L001 scope"
        );
    }
}

#[test]
fn l002_bad_flags_partial_cmp_call() {
    let out = analyze("l002_bad.rs", None);
    assert_eq!(hits(&out), vec![("L002", 4)]);
}

#[test]
fn l002_good_allows_total_cmp_and_trait_impls() {
    let out = analyze("l002_good.rs", None);
    assert_eq!(hits(&out), Vec::<(&str, u32)>::new());
}

#[test]
fn l003_bad_flags_wallclock_and_entropy() {
    let out = analyze("l003_bad.rs", Some("scanners"));
    assert_eq!(hits(&out), vec![("L003", 7), ("L003", 8), ("L003", 9)]);
}

#[test]
fn l003_good_is_clean_and_scoped() {
    assert_eq!(
        hits(&analyze("l003_good.rs", Some("scanners"))),
        Vec::<(&str, u32)>::new()
    );
    // The bad file is fine in a non-deterministic crate.
    assert_eq!(
        hits(&analyze("l003_bad.rs", Some("detect"))),
        Vec::<(&str, u32)>::new()
    );
}

#[test]
fn l005_bad_flags_scheme_violations() {
    let out = analyze("l005_bad.rs", None);
    assert_eq!(hits(&out), vec![("L005", 5), ("L005", 6), ("L005", 7)]);
}

#[test]
fn l005_good_is_clean() {
    assert_eq!(
        hits(&analyze("l005_good.rs", None)),
        Vec::<(&str, u32)>::new()
    );
}

/// Unsuppressed findings must be empty, and exactly one suppressed
/// finding with a recorded reason must remain (the audited exception
/// each good fixture carries).
fn assert_clean_with_one_audited(out: &lumen6_analyzer::Outcome) {
    assert_eq!(hits(out), Vec::<(&str, u32)>::new());
    let suppressed: Vec<_> = out.findings.iter().filter(|f| f.suppressed).collect();
    assert_eq!(suppressed.len(), 1, "findings: {:?}", out.findings);
    assert!(suppressed[0].reason.is_some());
}

#[test]
fn l006_bad_flags_guard_held_across_blocking() {
    // .recv() (line 14), thread::sleep (line 21), and a same-file call
    // that blocks transitively (line 34).
    let out = analyze("l006_bad.rs", Some("serve"));
    assert_eq!(hits(&out), vec![("L006", 14), ("L006", 21), ("L006", 34)]);
}

#[test]
fn l006_good_accepts_scoping_drop_and_condvar_wait() {
    assert_clean_with_one_audited(&analyze("l006_good.rs", Some("serve")));
}

#[test]
fn l006_is_scoped_to_daemon_crates() {
    // The same guard-across-recv file in the simulation crate is fine:
    // scanner models are not resident in the daemon process.
    let out = analyze("l006_bad.rs", Some("scanners"));
    assert_eq!(hits(&out), Vec::<(&str, u32)>::new());
}

#[test]
fn l007_bad_flags_truncating_casts() {
    // Address field u128->u64, u64 param ->u32, .len() ->u32, and a
    // u128-suffixed literal binding ->usize — in every crate L007 covers,
    // the generator and the CLI included.
    for krate in ["detect", "serve", "trace", "scanners", "cli"] {
        let out = analyze("l007_bad.rs", Some(krate));
        assert_eq!(
            hits(&out),
            vec![("L007", 10), ("L007", 14), ("L007", 18), ("L007", 23)],
            "{krate}"
        );
    }
}

#[test]
fn l007_good_accepts_exact_shift_mask_and_widening() {
    assert_clean_with_one_audited(&analyze("l007_good.rs", Some("detect")));
}

#[test]
fn l007_exempts_the_addr_crate() {
    // The cast helpers (low64/high64/sat_*) live in addr, deliberately
    // outside L007 scope, so they need no allows of their own.
    let out = analyze("l007_bad.rs", Some("addr"));
    assert_eq!(hits(&out), Vec::<(&str, u32)>::new());
}

#[test]
fn l008_bad_flags_direct_spool_writes() {
    let out = analyze("l008_bad.rs", Some("cli"));
    assert_eq!(hits(&out), vec![("L008", 5), ("L008", 9)]);
}

#[test]
fn l008_good_accepts_temp_plus_rename() {
    assert_clean_with_one_audited(&analyze("l008_good.rs", Some("cli")));
}

#[test]
fn l009_bad_flags_unbounded_growth_and_channels() {
    let out = analyze("l009_bad.rs", Some("detect"));
    assert_eq!(hits(&out), vec![("L009", 13), ("L009", 20), ("L009", 25)]);
}

#[test]
fn l009_good_accepts_cleared_bounded_and_local_state() {
    assert_clean_with_one_audited(&analyze("l009_good.rs", Some("detect")));
}

#[test]
fn malformed_and_stale_allows_are_rejected() {
    let out = analyze("allow_bad.rs", Some("detect"));
    let got = hits(&out);
    // Three malformed directives (no reason / unknown lint / wrong
    // keyword), one stale directive, and the two unwraps the malformed
    // directives failed to suppress.
    assert_eq!(
        got,
        vec![
            ("L000", 5),
            ("L000", 7),
            ("L000", 9),
            ("L000", 14),
            ("L001", 6),
            ("L001", 8),
        ]
    );
}

#[test]
fn l004_fixture_tree_detects_unbumped_drift() {
    let opts = Options::workspace(fixture("l004_tree"));
    let out = run(&opts).expect("fixture tree analyzes");
    let l004: Vec<_> = out.unsuppressed().filter(|f| f.lint == "L004").collect();
    assert_eq!(l004.len(), 1, "findings: {:?}", out.findings);
    assert!(
        l004[0].message.contains("without a SNAPSHOT_VERSION bump"),
        "message: {}",
        l004[0].message
    );
    assert!(l004[0].message.contains("DetectorSnapshot"));
}

#[test]
fn real_workspace_is_clean() {
    // The acceptance criterion: zero unsuppressed violations over the
    // actual workspace, and the committed fingerprint is current.
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let out = run(&Options::workspace(root)).expect("workspace analyzes");
    let bad: Vec<_> = out.unsuppressed().collect();
    assert!(bad.is_empty(), "unsuppressed violations: {bad:?}");
    assert!(
        out.files_scanned > 50,
        "walker must see the whole workspace"
    );
}
