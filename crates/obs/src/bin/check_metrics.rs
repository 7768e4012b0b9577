//! CI schema checker for `--metrics-out` snapshots.
//!
//! Usage: `check_metrics FILE.json [--expect-records N]`
//!
//! Validates the snapshot invariants (name scheme, histogram bucket
//! consistency) and, with `--expect-records N`, asserts the session read
//! every input record from its source, on any backend: `source.records` is
//! N and every `trace.codec.errors.*` counter is zero. Exits nonzero on any
//! failure.

use lumen6_obs::MetricsSnapshot;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let Some(path) = args.next() else {
        eprintln!("usage: check_metrics FILE.json [--expect-records N]");
        return ExitCode::from(2);
    };
    let mut expect_records: Option<u64> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--expect-records" => {
                let Some(v) = args.next().and_then(|s| s.parse().ok()) else {
                    eprintln!("--expect-records needs an integer");
                    return ExitCode::from(2);
                };
                expect_records = Some(v);
            }
            other => {
                eprintln!("unknown argument: {other}");
                return ExitCode::from(2);
            }
        }
    }

    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("{path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let snap: MetricsSnapshot = match serde_json::from_str(&text) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{path}: not a MetricsSnapshot: {e}");
            return ExitCode::FAILURE;
        }
    };

    let mut errs = lumen6_obs::validate(&snap);
    if let Some(n) = expect_records {
        let records = snap.counters.get("source.records").copied().unwrap_or(0);
        if records != n {
            errs.push(format!("source.records is {records}, expected {n}"));
        }
        let decode_errs = snap.counter_sum("trace.codec.errors.", "");
        if decode_errs != 0 {
            errs.push(format!("{decode_errs} decode errors recorded, expected 0"));
        }
    }

    if errs.is_empty() {
        println!(
            "{path}: ok ({} counters, {} gauges, {} histograms)",
            snap.counters.len(),
            snap.gauges.len(),
            snap.histograms.len()
        );
        ExitCode::SUCCESS
    } else {
        for e in &errs {
            eprintln!("{path}: {e}");
        }
        ExitCode::FAILURE
    }
}
