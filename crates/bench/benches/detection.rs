//! Detection-pipeline benchmarks: Table 1 (per-level detection), the §2.2
//! sensitivity sweep, the artifact prefilter, the MAWI detector, and the
//! sharded-parallel comparison (machine-readable results land in
//! `BENCH_detection.json` at the workspace root).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use lumen6_bench::{detect_levels, CdnFixture, MawiFixture, BATCH};
use lumen6_detect::parallel::ShardPlan;
use lumen6_detect::{
    detector::detect, AggLevel, ArtifactFilter, Backend, MawiConfig as FhConfig, MawiDetector,
    ScanDetectorConfig,
};
use lumen6_trace::codec::encode;
use std::time::Instant;

/// Shard counts the tentpole comparison sweeps.
const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Table 1: full scan detection at each aggregation level.
fn table1_detection(c: &mut Criterion) {
    let fx = CdnFixture::new();
    let mut g = c.benchmark_group("table1_detection");
    g.throughput(Throughput::Elements(fx.filtered.len() as u64));
    g.sample_size(10);
    for lvl in [AggLevel::L128, AggLevel::L64, AggLevel::L48] {
        g.bench_with_input(BenchmarkId::from_parameter(lvl), &lvl, |b, &lvl| {
            b.iter(|| detect(black_box(&fx.filtered), ScanDetectorConfig::paper(lvl)));
        });
    }
    g.finish();
}

/// §2.2: timeout and destination-threshold sensitivity sweep.
fn sensitivity_sweep(c: &mut Criterion) {
    let fx = CdnFixture::new();
    let mut g = c.benchmark_group("sensitivity_sweep");
    g.sample_size(10);
    for (label, timeout_ms, min_dsts) in [
        ("t3600_d100", 3_600_000u64, 100u64),
        ("t1800_d100", 1_800_000, 100),
        ("t900_d100", 900_000, 100),
        ("t3600_d50", 3_600_000, 50),
        ("t3600_d5", 3_600_000, 5),
    ] {
        g.bench_function(label, |b| {
            b.iter(|| {
                detect(
                    black_box(&fx.filtered),
                    ScanDetectorConfig {
                        agg: AggLevel::L64,
                        timeout_ms,
                        min_dsts,
                        ..Default::default()
                    },
                )
            });
        });
    }
    g.finish();
}

/// Appendix A.1: the 5-duplicate artifact prefilter.
fn a1_prefilter(c: &mut Criterion) {
    let fx = CdnFixture::new();
    let mut g = c.benchmark_group("a1_prefilter");
    g.throughput(Throughput::Elements(fx.trace.len() as u64));
    g.sample_size(10);
    g.bench_function("filter", |b| {
        b.iter(|| ArtifactFilter::default().filter(black_box(&fx.trace)));
    });
    g.finish();
}

/// Figs. 5/6 substrate: per-window MAWI (Fukuda–Heidemann-extended)
/// detection at both destination thresholds.
fn mawi_detection(c: &mut Criterion) {
    let fx = MawiFixture::new();
    let days = lumen6_mawi::split_days(&fx.trace, 0, 21);
    let mut g = c.benchmark_group("fig5_mawi_detection");
    g.sample_size(10);
    for min in [100u64, 5] {
        let det = MawiDetector::new(FhConfig {
            agg: AggLevel::L64,
            min_dsts: min,
            ..Default::default()
        });
        g.bench_function(format!("min_dsts_{min}"), |b| {
            b.iter(|| {
                let mut total = 0usize;
                for (_, slice) in &days {
                    total += det.detect(black_box(slice)).len();
                }
                total
            });
        });
    }
    g.finish();
}

/// Tentpole comparison: sequential multi-level detection vs the sharded
/// parallel pipeline at 1/2/4/8 shards on the same workload.
fn sharded_vs_sequential(c: &mut Criterion) {
    let fx = CdnFixture::new();
    let mut g = c.benchmark_group("sharded_vs_sequential");
    g.throughput(Throughput::Elements(fx.filtered.len() as u64));
    g.sample_size(10);
    g.bench_function("sequential_batched", |b| {
        b.iter(|| detect_levels(Backend::Sequential, black_box(&fx.filtered)));
    });
    for shards in SHARD_COUNTS {
        g.bench_with_input(BenchmarkId::new("sharded", shards), &shards, |b, &s| {
            let backend = Backend::Sharded(ShardPlan::with_shards(s));
            b.iter(|| detect_levels(backend, black_box(&fx.filtered)));
        });
    }
    g.finish();
}

/// Median wall-clock seconds over `n` runs of `f`.
fn median_secs(n: usize, mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..n.max(1))
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Writes `BENCH_detection.json` at the workspace root: throughput of the
/// sequential and sharded pipelines and the measured host core count (shard
/// speedups are bounded by it — a single-core host shows parity, not gains).
/// `bench_guard`
/// compares a fresh measurement against this committed baseline.
fn emit_bench_json(_c: &mut Criterion) {
    let fx = CdnFixture::new();
    let records = fx.filtered.len();
    let bytes = encode(&fx.filtered).expect("encode fixture trace");
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    const RUNS: usize = 5;

    let sequential_s = median_secs(RUNS, || {
        black_box(detect_levels(Backend::Sequential, &fx.filtered));
    });
    let mut sharded = Vec::new();
    for shards in SHARD_COUNTS {
        let backend = Backend::Sharded(ShardPlan::with_shards(shards));
        let secs = median_secs(RUNS, || {
            black_box(detect_levels(backend, &fx.filtered));
        });
        sharded.push((shards, secs));
    }

    let sharded_json: Vec<String> = sharded
        .iter()
        .map(|&(n, s)| {
            format!(
                "    {{\"shards\": {n}, \"seconds\": {s:.6}, \"records_per_s\": {:.0}, \"speedup\": {:.3}}}",
                records as f64 / s,
                sequential_s / s
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"detection\",\n  \"host_cores\": {cores},\n  \"records\": {records},\n  \"trace_bytes\": {},\n  \"levels\": [\"/128\", \"/64\", \"/48\"],\n  \"batch\": {BATCH},\n  \"sequential\": {{\"seconds\": {sequential_s:.6}, \"records_per_s\": {:.0}}},\n  \"sharded\": [\n{}\n  ],\n  \"note\": \"sequential is the batched columnar path the pipeline runs; sharded routes columnar sub-batches (kernel route_column + column scatter) to shard workers; speedup is bounded by host_cores — on a single-core host expect parity with sequential, not gains\"\n}}\n",
        bytes.len(),
        records as f64 / sequential_s,
        sharded_json.join(",\n"),
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_detection.json");
    match std::fs::write(path, &json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

criterion_group! {
    name = benches;
    // Short windows keep the full suite to a few minutes; these are
    // comparative benchmarks, not microsecond-precision regressions.
    config = Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(2))
        .sample_size(10);
    targets = table1_detection,
    sensitivity_sweep,
    a1_prefilter,
    mawi_detection,
    sharded_vs_sequential,
    emit_bench_json
}
criterion_main!(benches);
