//! Bench regression guard for CI.
//!
//! Re-measures the batched columnar detection hot path on the standard
//! bench fixture and compares it against the committed baseline in
//! `BENCH_detection.json`. Exits non-zero when:
//!
//! - sequential (batched) throughput regressed more than the tolerance
//!   (default 10%, override with `BENCH_GUARD_TOLERANCE=0.25`),
//! - the batch-routed sharded pipeline at 4 shards fails to reach the
//!   required speedup over sequential (default 1.5x, override with
//!   `BENCH_GUARD_SHARDED_SPEEDUP`). This gate only runs on multi-core
//!   hosts: on a single core the sharded pipeline is sequential work plus
//!   routing overhead, so the gate is skipped with an explicit log line, or
//! - a single fused tenant hosted by the `lumen6 serve` daemon (one
//!   worker, mid-run publication disabled) runs more than the allowed
//!   overhead slower than the identical `RunConfig` driven raw through
//!   `Session::run_source` (default 10%, override with
//!   `BENCH_GUARD_SERVE_OVERHEAD`) — the scheduling, locking, and spool
//!   bookkeeping a tenant pays for living inside the daemon.
//!
//! Run with `cargo run --release -p lumen6-bench --bin bench_guard`; a debug
//! build measures debug-build throughput, which is meaningless against a
//! release baseline.

use lumen6_bench::{detect_levels, CdnFixture};
use lumen6_detect::parallel::ShardPlan;
use lumen6_detect::{Backend, SessionOutcome};
use lumen6_serve::{Daemon, RunConfig, ServeConfig, TenantSpec};
use serde::value::Value;
use std::time::Instant;

const RUNS: usize = 5;

/// Median wall-clock seconds over `RUNS` runs of `f`.
fn median_secs(mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..RUNS)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

fn as_f64(v: &Value) -> Option<f64> {
    match *v {
        Value::UInt(n) => Some(n as f64),
        Value::Int(n) => Some(n as f64),
        Value::Float(f) => Some(f),
        _ => None,
    }
}

fn env_f64(name: &str, default: f64) -> f64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_detection.json");
    let baseline: Value = match std::fs::read_to_string(path) {
        Ok(text) => serde_json::from_str(&text).expect("BENCH_detection.json parses"),
        Err(e) => {
            eprintln!("bench_guard: cannot read {path}: {e}");
            std::process::exit(1);
        }
    };
    let baseline_rps = baseline
        .get("sequential")
        .and_then(|s| s.get("records_per_s"))
        .and_then(as_f64)
        .expect("baseline sequential.records_per_s");
    let tolerance = env_f64("BENCH_GUARD_TOLERANCE", 0.10);
    let min_sharded_speedup = env_f64("BENCH_GUARD_SHARDED_SPEEDUP", 1.5);
    let host_cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);

    let fx = CdnFixture::new();
    let records = fx.filtered.len() as f64;

    let sequential_s = median_secs(|| {
        std::hint::black_box(detect_levels(Backend::Sequential, &fx.filtered));
    });

    // Serve gate: the same fused run, once raw and once as the daemon's
    // only tenant. Both sides rebuild their world inside the timed region
    // and share the checkpoint cadence; leftover state is wiped between
    // runs so neither side can cheat by resuming finished work.
    let serve_overhead_limit = env_f64("BENCH_GUARD_SERVE_OVERHEAD", 0.10);
    let scratch = std::env::temp_dir().join(format!("lumen6-bench-serve-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch).expect("bench scratch dir");
    let raw_ck = scratch.join("raw.l6ck");
    // Long enough that the daemon's fixed per-run costs (thread setup,
    // the final spool publication) amortize the way they do in a
    // long-lived deployment; short runs measure mostly those constants.
    let bench_run = |checkpoint: Option<String>| RunConfig {
        fused: true,
        small: true,
        days: Some(90),
        sequential: true,
        checkpoint,
        ..RunConfig::default()
    };
    let mut serve_records = 0u64;
    let raw_s = median_secs(|| {
        let _ = std::fs::remove_file(&raw_ck);
        let run = bench_run(Some(raw_ck.to_string_lossy().into_owned()));
        let mut src = run.make_source().expect("fleet source");
        match run
            .make_session()
            .run_source(src.as_mut())
            .expect("raw run")
        {
            SessionOutcome::Finished(rep) => {
                // The daemon publishes its final report to the spool;
                // `detect` likewise emits its report. Persist on the raw
                // side too so the gate isolates *hosting* overhead, not
                // report serialization.
                let json = serde_json::to_string_pretty(&rep).expect("report serializes");
                std::fs::write(scratch.join("raw-report.json"), json).expect("write raw report");
                serve_records = rep.records;
            }
            SessionOutcome::Stopped { .. } => unreachable!("no stop_after configured"),
        }
    });
    let spool = scratch.join("spool");
    let serve_s = median_secs(|| {
        let _ = std::fs::remove_dir_all(&spool);
        let daemon = Daemon::new(ServeConfig {
            spool: spool.to_string_lossy().into_owned(),
            workers: 1,
            steps_per_slice: 64,
            publish_every_slices: u64::MAX,
            stop_file: None,
            tenants: vec![TenantSpec {
                name: "bench".into(),
                run: bench_run(None),
            }],
        })
        .expect("daemon builds");
        let summary = daemon.run().expect("daemon runs");
        assert!(!summary.any_failed(), "bench tenant failed");
    });
    let _ = std::fs::remove_dir_all(&scratch);

    let sharded_s = (host_cores > 1).then(|| {
        let backend = Backend::Sharded(ShardPlan::with_shards(4));
        median_secs(|| {
            std::hint::black_box(detect_levels(backend, &fx.filtered));
        })
    });

    let current_rps = records / sequential_s;
    println!(
        "bench_guard: sequential {current_rps:.0} rec/s (baseline {baseline_rps:.0}, \
         tolerance {:.0}%)",
        tolerance * 100.0
    );

    let serve_overhead = serve_s / raw_s - 1.0;
    println!(
        "bench_guard: serve single-tenant {:.0} rec/s vs raw {:.0} rec/s, \
         overhead {:+.1}% (limit {:.0}%)",
        serve_records as f64 / serve_s,
        serve_records as f64 / raw_s,
        serve_overhead * 100.0,
        serve_overhead_limit * 100.0
    );

    let mut failed = false;
    if current_rps < baseline_rps * (1.0 - tolerance) {
        eprintln!(
            "bench_guard: FAIL — sequential throughput regressed {:.1}% (allowed {:.1}%)",
            (1.0 - current_rps / baseline_rps) * 100.0,
            tolerance * 100.0
        );
        failed = true;
    }
    if serve_overhead > serve_overhead_limit {
        eprintln!(
            "bench_guard: FAIL — serve daemon overhead {:.1}% over raw run_source \
             exceeds {:.1}%",
            serve_overhead * 100.0,
            serve_overhead_limit * 100.0
        );
        failed = true;
    }
    match sharded_s {
        None => println!(
            "bench_guard: sharded gate SKIPPED (host_cores={host_cores}): a single core \
             cannot show multi-core speedup — sharding is sequential work plus routing there"
        ),
        Some(s) => {
            let speedup = sequential_s / s;
            println!(
                "bench_guard: sharded 4-shard {:.0} rec/s, speedup {speedup:.2}x \
                 (required {min_sharded_speedup:.2}x, host_cores={host_cores})",
                records / s
            );
            if speedup < min_sharded_speedup {
                eprintln!(
                    "bench_guard: FAIL — sharded speedup {speedup:.2}x below required \
                     {min_sharded_speedup:.2}x at 4 shards"
                );
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
    println!("bench_guard: OK");
}
