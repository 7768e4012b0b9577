//! Subprocess tests of the `lumen6-analyzer` binary: exit codes and the
//! machine-readable report, exactly as CI invokes it.

use std::path::PathBuf;
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_lumen6-analyzer"))
}

fn fixture(name: &str) -> String {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name)
        .display()
        .to_string()
}

#[test]
fn bad_fixtures_exit_nonzero_with_expected_lint_id() {
    for (file, as_crate, lint) in [
        ("l001_bad.rs", "detect", "L001"),
        ("l002_bad.rs", "cli", "L002"),
        ("l003_bad.rs", "scanners", "L003"),
        ("l005_bad.rs", "cli", "L005"),
        ("l006_bad.rs", "serve", "L006"),
        ("l007_bad.rs", "detect", "L007"),
        ("l008_bad.rs", "cli", "L008"),
        ("l009_bad.rs", "detect", "L009"),
        ("allow_bad.rs", "detect", "L000"),
    ] {
        let out = bin()
            .args(["--file", &fixture(file), "--as-crate", as_crate, "--json"])
            .output()
            .expect("spawn analyzer");
        assert_eq!(
            out.status.code(),
            Some(1),
            "{file}: {}",
            String::from_utf8_lossy(&out.stdout)
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            stdout.contains(&format!("\"{lint}\"")),
            "{file} report missing {lint}: {stdout}"
        );
    }
}

#[test]
fn good_fixtures_exit_zero() {
    for (file, as_crate) in [
        ("l001_good.rs", "detect"),
        ("l002_good.rs", "cli"),
        ("l003_good.rs", "scanners"),
        ("l005_good.rs", "cli"),
        ("l006_good.rs", "serve"),
        ("l007_good.rs", "detect"),
        ("l008_good.rs", "trace"),
        ("l009_good.rs", "detect"),
    ] {
        let out = bin()
            .args(["--file", &fixture(file), "--as-crate", as_crate])
            .output()
            .expect("spawn analyzer");
        assert_eq!(
            out.status.code(),
            Some(0),
            "{file}: {}",
            String::from_utf8_lossy(&out.stdout)
        );
    }
}

#[test]
fn l004_tree_exits_nonzero_with_l004() {
    let out = bin()
        .args(["--root", &fixture("l004_tree")])
        .output()
        .expect("spawn analyzer");
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stdout).contains("L004"));
}

#[test]
fn workspace_is_clean_via_cli() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let out = bin()
        .args(["--root", &root.display().to_string()])
        .output()
        .expect("spawn analyzer");
    assert_eq!(
        out.status.code(),
        Some(0),
        "workspace not clean: {}",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn report_file_is_written_and_parses() {
    let dir = std::env::temp_dir().join("lumen6-analyzer-test");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let report = dir.join("report.json");
    let out = bin()
        .args([
            "--file",
            &fixture("l001_bad.rs"),
            "--as-crate",
            "detect",
            "--report",
            &report.display().to_string(),
        ])
        .output()
        .expect("spawn analyzer");
    assert_eq!(out.status.code(), Some(1));
    let text = std::fs::read_to_string(&report).expect("report written");
    assert!(text.contains("\"L001\"") && text.contains("\"files_scanned\""));
}

#[test]
fn usage_errors_exit_two() {
    let out = bin().arg("--bogus").output().expect("spawn analyzer");
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn list_lints_names_all_nine() {
    let out = bin().arg("--list-lints").output().expect("spawn analyzer");
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    for id in [
        "L001", "L002", "L003", "L004", "L005", "L006", "L007", "L008", "L009",
    ] {
        assert!(stdout.contains(id), "missing {id}: {stdout}");
    }
}

#[test]
fn github_format_emits_error_annotations() {
    let out = bin()
        .args([
            "--file",
            &fixture("l007_bad.rs"),
            "--as-crate",
            "detect",
            "--format",
            "github",
        ])
        .output()
        .expect("spawn analyzer");
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let annotations: Vec<&str> = stdout
        .lines()
        .filter(|l| l.starts_with("::error file="))
        .collect();
    assert_eq!(annotations.len(), 4, "stdout: {stdout}");
    assert!(
        annotations[0].contains("line=10") && annotations[0].contains("title=L007"),
        "stdout: {stdout}"
    );
}

#[test]
fn github_format_on_clean_input_exits_zero() {
    let out = bin()
        .args([
            "--file",
            &fixture("l007_good.rs"),
            "--as-crate",
            "detect",
            "--format",
            "github",
        ])
        .output()
        .expect("spawn analyzer");
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(!stdout.contains("::error"), "stdout: {stdout}");
}

#[test]
fn unknown_format_exits_two() {
    let out = bin()
        .args(["--format", "sarif"])
        .output()
        .expect("spawn analyzer");
    assert_eq!(out.status.code(), Some(2));
}
