//! Design-choice ablations called out in DESIGN.md:
//!
//! - one-pass simultaneous multi-level detection vs one pass per level;
//! - adaptive aggregation vs fixed-mask detection on the two adversarial
//!   workloads (the /32-spread AS#18 actor and the multi-tenant cloud);
//! - sketched vs exact destination counting inside the detector.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use lumen6_bench::{detect_levels, CdnFixture};
use lumen6_detect::adaptive::{AdaptiveConfig, AdaptiveIds};
use lumen6_detect::{detector::detect, AggLevel, ScanDetectorConfig};

/// One pass maintaining all three levels vs three passes.
fn multi_vs_single_pass(c: &mut Criterion) {
    let fx = CdnFixture::new();
    let mut g = c.benchmark_group("multilevel_ablation");
    g.sample_size(10);
    g.bench_function("single_pass_all_levels", |b| {
        b.iter(|| detect_levels(black_box(&fx.filtered)));
    });
    g.bench_function("one_pass_per_level", |b| {
        b.iter(|| {
            AggLevel::PAPER_LEVELS
                .iter()
                .map(|&lvl| detect(black_box(&fx.filtered), ScanDetectorConfig::paper(lvl)).scans())
                .sum::<usize>()
        });
    });
    g.finish();
}

/// Adaptive aggregation vs fixed /64 on the full mixed workload.
fn adaptive_vs_fixed(c: &mut Criterion) {
    let fx = CdnFixture::new();
    let mut g = c.benchmark_group("adaptive_vs_fixed");
    g.sample_size(10);
    g.bench_function("fixed_64", |b| {
        b.iter(|| {
            detect(
                black_box(&fx.filtered),
                ScanDetectorConfig::paper(AggLevel::L64),
            )
            .scans()
        });
    });
    g.bench_function("adaptive", |b| {
        b.iter(|| {
            AdaptiveIds::new(AdaptiveConfig::default())
                .analyze(black_box(&fx.filtered))
                .len()
        });
    });
    g.finish();
}

/// Exact destination sets vs HyperLogLog spill inside the streaming
/// detector.
fn sketch_vs_exact_detector(c: &mut Criterion) {
    let fx = CdnFixture::new();
    let mut g = c.benchmark_group("sketch_vs_exact_detector");
    g.sample_size(10);
    g.bench_function("exact", |b| {
        b.iter(|| {
            detect(
                black_box(&fx.filtered),
                ScanDetectorConfig::paper(AggLevel::L64),
            )
            .scans()
        });
    });
    g.bench_function("sketched_spill_256_p12", |b| {
        b.iter(|| {
            let mut cfg = ScanDetectorConfig::paper(AggLevel::L64);
            cfg.sketch = Some((256, 12).into());
            detect(black_box(&fx.filtered), cfg).scans()
        });
    });
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
    targets = multi_vs_single_pass,
    adaptive_vs_fixed,
    sketch_vs_exact_detector
}
criterion_main!(benches);
