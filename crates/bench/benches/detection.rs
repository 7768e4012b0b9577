//! Detection-pipeline benchmarks: Table 1 (per-level detection), the §2.2
//! sensitivity sweep, the artifact prefilter and the MAWI detector.
//! Kernel-level and comparative only: pipeline throughput is measured end to
//! end by `pipebench/` (BENCHMARK.json).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use lumen6_bench::{CdnFixture, MawiFixture};
use lumen6_detect::{
    detector::detect, AggLevel, ArtifactFilter, MawiConfig as FhConfig, MawiDetector,
    ScanDetectorConfig,
};

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
    mawi_detection
}
criterion_main!(benches);
