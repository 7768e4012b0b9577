//! Runs `pipeline --smoke` (the whole suite at the small-fleet scale: two
//! repetitions per workload, the traced runs, the cross-workload gate) and
//! holds the names it prints equal to the names `BENCHMARK.json` declares.

use serde_json::Value;
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::Command;

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..")
}

fn text(v: &Value) -> String {
    match v {
        Value::Str(s) => s.clone(),
        other => panic!("expected a string, found {other:?}"),
    }
}

/// The `name` of every entry of the array at `key`.
fn declared(benchmark: &Value, key: &str) -> BTreeSet<String> {
    benchmark
        .get(key)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no array {key:?}"))
        .iter()
        .map(|entry| text(entry.get("name").expect("entry without a name")))
        .collect()
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn smoke_suite_prints_exactly_the_declared_names() {
    let benchmark: Value = serde_json::from_str(
        &std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json"),
    )
    .expect("BENCHMARK.json parses");
    let work = std::env::temp_dir().join(format!("pipebench-smoke-{}", std::process::id()));
    std::fs::create_dir_all(&work).unwrap();

    let output = Command::new(env!("CARGO_BIN_EXE_pipeline"))
        .args(["--smoke", "--seed", "42", "--out", "summary.json"])
        .current_dir(&work)
        .output()
        .expect("pipeline runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        output.status.success(),
        "pipeline --smoke failed ({}):\n{stdout}\n{stderr}",
        output.status
    );

    // `## <workload> (…)` opens a workload; a metric line starts with its
    // name; `#` lines are commentary.
    let mut workloads = BTreeSet::new();
    let mut metrics = BTreeSet::new();
    for line in stdout.lines() {
        if let Some(rest) = line.strip_prefix("## ") {
            workloads.insert(rest.split(' ').next().unwrap().to_string());
        } else if !line.starts_with('#') {
            match line.split_whitespace().next() {
                None | Some("metric" | "failed_share") => {}
                Some(name) => {
                    metrics.insert(name.to_string());
                }
            }
        }
    }
    let declared_metrics: BTreeSet<String> = declared(&benchmark, "end_to_end")
        .union(&declared(&benchmark, "per_layer"))
        .cloned()
        .collect();
    assert_eq!(workloads, declared(&benchmark, "workloads"));
    assert_eq!(metrics, declared_metrics);
    for name in workloads.iter().chain(&metrics) {
        assert!(valid_name(name), "{name:?} is not [A-Za-z0-9_.-]+");
    }

    // The summary ends by claiming nothing, and nothing failed.
    let summary: Value =
        serde_json::from_str(&std::fs::read_to_string(work.join("summary.json")).unwrap()).unwrap();
    assert_eq!(summary.get("claim"), Some(&Value::Null));
    assert_eq!(summary.get("failed_share"), Some(&Value::Float(0.0)));
    let _ = std::fs::remove_dir_all(&work);
}

/// The bounds `pipeline compare` judges by are the ones `BENCHMARK.json`
/// fixes, and the command it names is this package.
#[test]
fn declared_bounds_and_units_match_the_binary() {
    let benchmark: Value = serde_json::from_str(
        &std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json"),
    )
    .unwrap();
    let output = Command::new(env!("CARGO_BIN_EXE_pipeline"))
        .arg("names")
        .output()
        .expect("pipeline runs");
    assert!(output.status.success());
    let printed: Value = serde_json::from_str(&String::from_utf8_lossy(&output.stdout)).unwrap();
    for key in ["end_to_end", "per_layer", "workloads"] {
        assert_eq!(printed.get(key), benchmark.get(key), "{key} differs");
    }
    let paths = benchmark.get("paths").and_then(Value::as_array).unwrap();
    assert_eq!(paths, &vec![Value::Str("pipebench".into())]);
}
