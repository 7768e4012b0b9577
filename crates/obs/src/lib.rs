//! Process-wide pipeline observability: named counters, gauges, and
//! log₂-bucketed histograms behind a [`MetricsRegistry`], plus a
//! [`StageTimer`] span guard and a serializable [`MetricsSnapshot`].
//!
//! The workspace is offline/vendored, so this crate is dependency-free by
//! design: plain `std` atomics, no `tracing`/`metrics`. Hot paths hold
//! cloned handles ([`Counter`], [`Gauge`], [`Histogram`]) — an increment is
//! one relaxed atomic RMW; the registry lock is only taken on lookup and
//! snapshot. Instrumented readers and detectors typically accumulate plain
//! `u64`s locally and flush once per refill/finish, so per-record overhead
//! is zero atomics.
//!
//! # Naming scheme
//!
//! Metric names are dotted lowercase paths, `crate.subsystem.metric`
//! (e.g. `trace.codec.records_decoded`, `detect.multi.l64.runs_opened`).
//! These names are a **stable interface**: BENCH_*.json tooling and the CI
//! schema checker key on them. Rename only with a migration note in
//! DESIGN.md.
//!
//! ```
//! use lumen6_obs::MetricsRegistry;
//! let reg = MetricsRegistry::new();
//! let c = reg.counter("demo.widgets_built");
//! c.add(3);
//! let snap = reg.snapshot();
//! assert_eq!(snap.counters["demo.widgets_built"], 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Number of histogram buckets: one per possible bit length of a `u64`
/// value (0, 1, 2, 4, 8, … 2⁶³..) — bucket `i` holds values of bit length
/// `i`, i.e. `2^(i-1) <= v < 2^i`, with bucket 0 reserved for zero.
pub const HIST_BUCKETS: usize = 65;

/// A monotonically increasing counter handle. Cloning is cheap (an `Arc`);
/// all clones address the same underlying value.
#[derive(Debug, Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A settable signed gauge handle.
#[derive(Debug, Clone)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Sets the gauge to `v`.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `d` (may be negative).
    pub fn add(&self, d: i64) {
        self.0.fetch_add(d, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct HistogramCore {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl HistogramCore {
    fn new() -> Self {
        HistogramCore {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

/// Bucket index of a value: its bit length (0 for 0, 64 for `>= 2^63`).
#[inline]
fn bucket_of(v: u64) -> usize {
    (64 - v.leading_zeros()) as usize
}

/// Inclusive upper bound of bucket `i` (`2^i - 1`; `u64::MAX` for the last).
fn bucket_le(i: usize) -> u64 {
    if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// A log₂-bucketed histogram handle (65 buckets covering the full `u64`
/// range). Records are lock-free relaxed atomic adds; `count`/`sum`/bucket
/// totals are each exact under concurrency, though a snapshot taken while
/// writers are active may observe them mid-update relative to each other.
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistogramCore>);

impl Histogram {
    /// Records one value.
    #[inline]
    pub fn record(&self, v: u64) {
        self.0.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.0.count.fetch_add(1, Ordering::Relaxed);
        self.0.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Records a duration in whole microseconds.
    pub fn record_duration(&self, d: std::time::Duration) {
        self.record(u64::try_from(d.as_micros()).unwrap_or(u64::MAX));
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded values.
    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }
}

/// An RAII span guard: measures wall time from construction and records it
/// (in microseconds) into a [`Histogram`] when dropped or [`stop`]ped.
///
/// [`stop`]: StageTimer::stop
///
/// ```
/// use lumen6_obs::MetricsRegistry;
/// let reg = MetricsRegistry::new();
/// {
///     let _t = lumen6_obs::StageTimer::new(reg.histogram("demo.stage_us"));
///     // ... timed work ...
/// }
/// assert_eq!(reg.snapshot().histograms["demo.stage_us"].count, 1);
/// ```
#[derive(Debug)]
pub struct StageTimer {
    hist: Option<Histogram>,
    start: Instant,
}

impl StageTimer {
    /// Starts timing into the given histogram.
    pub fn new(hist: Histogram) -> Self {
        StageTimer {
            hist: Some(hist),
            start: Instant::now(),
        }
    }

    /// Stops early and returns the elapsed microseconds just recorded.
    pub fn stop(mut self) -> u64 {
        let us = u64::try_from(self.start.elapsed().as_micros()).unwrap_or(u64::MAX);
        if let Some(h) = self.hist.take() {
            h.record(us);
        }
        us
    }
}

impl Drop for StageTimer {
    fn drop(&mut self) {
        if let Some(h) = self.hist.take() {
            h.record_duration(self.start.elapsed());
        }
    }
}

#[derive(Debug, Default)]
struct Inner {
    counters: BTreeMap<String, Arc<AtomicU64>>,
    gauges: BTreeMap<String, Arc<AtomicI64>>,
    histograms: BTreeMap<String, Arc<HistogramCore>>,
}

/// A registry of named metrics. One process-wide instance is reachable via
/// [`MetricsRegistry::global`]; independent instances (for tests) via
/// [`MetricsRegistry::new`].
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    inner: Mutex<Inner>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// The process-wide registry all built-in instrumentation reports to.
    pub fn global() -> &'static MetricsRegistry {
        static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();
        GLOBAL.get_or_init(MetricsRegistry::new)
    }

    /// Returns (creating on first use) the counter with this name.
    ///
    /// Lock poisoning is recovered throughout this registry: the guarded
    /// state is plain maps of atomic handles with no multi-step invariants,
    /// so a panic elsewhere must not take observability down with it.
    pub fn counter(&self, name: &str) -> Counter {
        let mut inner = self
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        Counter(Arc::clone(
            inner.counters.entry(name.to_string()).or_default(),
        ))
    }

    /// Returns (creating on first use) the gauge with this name.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut inner = self
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        Gauge(Arc::clone(
            inner.gauges.entry(name.to_string()).or_default(),
        ))
    }

    /// Returns (creating on first use) the histogram with this name.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut inner = self
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        Histogram(Arc::clone(
            inner
                .histograms
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(HistogramCore::new())),
        ))
    }

    /// Starts a [`StageTimer`] recording into the named histogram.
    pub fn stage(&self, name: &str) -> StageTimer {
        StageTimer::new(self.histogram(name))
    }

    /// Takes a point-in-time snapshot of every registered metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        MetricsSnapshot {
            counters: inner
                .counters
                .iter()
                .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
                .collect(),
            gauges: inner
                .gauges
                .iter()
                .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
                .collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|(k, h)| {
                    let buckets = h
                        .buckets
                        .iter()
                        .enumerate()
                        .filter_map(|(i, b)| {
                            let count = b.load(Ordering::Relaxed);
                            (count > 0).then_some(BucketCount {
                                le: bucket_le(i),
                                count,
                            })
                        })
                        .collect();
                    (
                        k.clone(),
                        HistogramSnapshot {
                            count: h.count.load(Ordering::Relaxed),
                            sum: h.sum.load(Ordering::Relaxed),
                            buckets,
                        },
                    )
                })
                .collect(),
        }
    }

    /// Zeroes every registered metric (handles stay valid). Test helper —
    /// concurrent writers may land increments before or after the sweep.
    pub fn reset(&self) {
        let inner = self
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        for c in inner.counters.values() {
            c.store(0, Ordering::Relaxed);
        }
        for g in inner.gauges.values() {
            g.store(0, Ordering::Relaxed);
        }
        for h in inner.histograms.values() {
            for b in &h.buckets {
                b.store(0, Ordering::Relaxed);
            }
            h.count.store(0, Ordering::Relaxed);
            h.sum.store(0, Ordering::Relaxed);
        }
    }
}

/// One non-empty histogram bucket: `count` values `<= le` (and above the
/// previous bucket's bound).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BucketCount {
    /// Inclusive upper bound of the bucket.
    pub le: u64,
    /// Values recorded into the bucket.
    pub count: u64,
}

/// Snapshot of one histogram.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Total values recorded.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Non-empty buckets, ascending by `le`.
    pub buckets: Vec<BucketCount>,
}

impl HistogramSnapshot {
    /// Mean recorded value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// A point-in-time, serde-serializable view of a [`MetricsRegistry`].
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram snapshots by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// The change since `baseline`: counters and histogram buckets are
    /// subtracted (saturating; a metric absent from the baseline counts
    /// from zero), gauges keep their current value. Use this to scope a
    /// process-wide registry to one command invocation.
    pub fn delta(&self, baseline: &MetricsSnapshot) -> MetricsSnapshot {
        let counters = self
            .counters
            .iter()
            .map(|(k, &v)| {
                (
                    k.clone(),
                    v.saturating_sub(baseline.counters.get(k).copied().unwrap_or(0)),
                )
            })
            .collect();
        let histograms = self
            .histograms
            .iter()
            .map(|(k, h)| {
                let base: BTreeMap<u64, u64> = baseline
                    .histograms
                    .get(k)
                    .map(|b| b.buckets.iter().map(|bc| (bc.le, bc.count)).collect())
                    .unwrap_or_default();
                let (base_count, base_sum) = baseline
                    .histograms
                    .get(k)
                    .map(|b| (b.count, b.sum))
                    .unwrap_or((0, 0));
                let buckets = h
                    .buckets
                    .iter()
                    .filter_map(|bc| {
                        let count = bc
                            .count
                            .saturating_sub(base.get(&bc.le).copied().unwrap_or(0));
                        (count > 0).then_some(BucketCount { le: bc.le, count })
                    })
                    .collect();
                (
                    k.clone(),
                    HistogramSnapshot {
                        count: h.count.saturating_sub(base_count),
                        sum: h.sum.saturating_sub(base_sum),
                        buckets,
                    },
                )
            })
            .collect();
        MetricsSnapshot {
            counters,
            gauges: self.gauges.clone(),
            histograms,
        }
    }

    /// Sum of all counters whose name starts with `prefix` and ends with
    /// `suffix` (either may be empty). E.g.
    /// `counter_sum("trace.codec.errors.", "")` totals the decode errors of
    /// every kind.
    pub fn counter_sum(&self, prefix: &str, suffix: &str) -> u64 {
        self.counters
            .iter()
            .filter(|(k, _)| k.starts_with(prefix) && k.ends_with(suffix))
            .map(|(_, &v)| v)
            .sum()
    }

    /// Renders a compact human-readable summary (counters and gauges with
    /// their values; histograms with count / mean / upper bound), dropping
    /// zero-valued counters to keep the table focused.
    pub fn summary_table(&self) -> String {
        let mut t = lumen6_report::Table::new(vec!["metric", "value", "count", "mean", "max≤"]);
        for c in 1..=4 {
            t.align_right(c);
        }
        for (name, &v) in &self.counters {
            if v > 0 {
                t.row(vec![name.clone(), v.to_string()]);
            }
        }
        for (name, &v) in &self.gauges {
            t.row(vec![name.clone(), v.to_string()]);
        }
        for (name, h) in &self.histograms {
            t.row(vec![
                name.clone(),
                h.sum.to_string(),
                h.count.to_string(),
                format!("{:.1}", h.mean()),
                h.buckets
                    .last()
                    .map_or_else(String::new, |b| b.le.to_string()),
            ]);
        }
        t.render()
    }
}

/// The `crate.subsystem.metric` name scheme: at least two non-empty
/// dot-separated segments of `[a-z0-9_]`. This is the single source of
/// truth — [`validate`] applies it to runtime snapshots and the
/// `lumen6-analyzer` L005 lint applies it to metric-name literals at
/// lint time.
pub fn valid_metric_name(n: &str) -> bool {
    !n.is_empty()
        && n.split('.').count() >= 2
        && n.split('.').all(|seg| {
            !seg.is_empty()
                && seg
                    .chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
        })
}

/// Validates snapshot invariants (used by the `check_metrics` CI binary and
/// reusable from tests). Returns every violated rule.
pub fn validate(snap: &MetricsSnapshot) -> Vec<String> {
    let mut errs = Vec::new();
    for name in snap
        .counters
        .keys()
        .chain(snap.gauges.keys())
        .chain(snap.histograms.keys())
    {
        if !valid_metric_name(name) {
            errs.push(format!(
                "metric name {name:?} violates the crate.subsystem.metric scheme"
            ));
        }
    }
    for (name, h) in &snap.histograms {
        let bucket_total: u64 = h.buckets.iter().map(|b| b.count).sum();
        if bucket_total != h.count {
            errs.push(format!(
                "histogram {name}: bucket counts sum to {bucket_total}, count says {}",
                h.count
            ));
        }
        if !h.buckets.windows(2).all(|w| w[0].le < w[1].le) {
            errs.push(format!("histogram {name}: bucket bounds not increasing"));
        }
        if h.count == 0 && h.sum != 0 {
            errs.push(format!("histogram {name}: empty but sum = {}", h.sum));
        }
    }
    errs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_roundtrip() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("a.b.c");
        c.inc();
        c.add(9);
        assert_eq!(c.get(), 10);
        // Same name → same counter.
        assert_eq!(reg.counter("a.b.c").get(), 10);
        let g = reg.gauge("a.b.g");
        g.set(-3);
        g.add(1);
        assert_eq!(g.get(), -2);
        let snap = reg.snapshot();
        assert_eq!(snap.counters["a.b.c"], 10);
        assert_eq!(snap.gauges["a.b.g"], -2);
    }

    #[test]
    fn histogram_buckets_are_log2() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("t.h");
        for v in [0u64, 1, 2, 3, 4, 7, 8, u64::MAX] {
            h.record(v);
        }
        let snap = &reg.snapshot().histograms["t.h"];
        assert_eq!(snap.count, 8);
        assert_eq!(snap.sum, 0u64.wrapping_add(25).wrapping_add(u64::MAX));
        let by_le: BTreeMap<u64, u64> = snap.buckets.iter().map(|b| (b.le, b.count)).collect();
        assert_eq!(by_le[&0], 1); // 0
        assert_eq!(by_le[&1], 1); // 1
        assert_eq!(by_le[&3], 2); // 2, 3
        assert_eq!(by_le[&7], 2); // 4, 7
        assert_eq!(by_le[&15], 1); // 8
        assert_eq!(by_le[&u64::MAX], 1);
        assert!(validate(&reg.snapshot()).is_empty());
    }

    #[test]
    fn stage_timer_records_on_drop_and_stop() {
        let reg = MetricsRegistry::new();
        {
            let _t = reg.stage("t.stage_us");
        }
        let us = StageTimer::new(reg.histogram("t.stage_us")).stop();
        let snap = &reg.snapshot().histograms["t.stage_us"];
        assert_eq!(snap.count, 2);
        assert!(snap.sum >= us);
    }

    #[test]
    fn delta_subtracts_counters_and_buckets() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("d.c");
        let h = reg.histogram("d.h");
        c.add(5);
        h.record(3);
        let base = reg.snapshot();
        c.add(2);
        h.record(3);
        h.record(100);
        let d = reg.snapshot().delta(&base);
        assert_eq!(d.counters["d.c"], 2);
        assert_eq!(d.histograms["d.h"].count, 2);
        assert_eq!(d.histograms["d.h"].sum, 103);
        let by_le: BTreeMap<u64, u64> = d.histograms["d.h"]
            .buckets
            .iter()
            .map(|b| (b.le, b.count))
            .collect();
        assert_eq!(by_le[&3], 1);
        assert_eq!(by_le[&127], 1);
        assert!(validate(&d).is_empty());
    }

    #[test]
    fn counter_sum_matches_prefix_suffix() {
        let reg = MetricsRegistry::new();
        reg.counter("p.shard.0.routed").add(3);
        reg.counter("p.shard.1.routed").add(4);
        reg.counter("p.shard.1.other").add(9);
        let snap = reg.snapshot();
        assert_eq!(snap.counter_sum("p.shard.", ".routed"), 7);
        assert_eq!(snap.counter_sum("", ""), 16);
    }

    #[test]
    fn reset_zeroes_but_keeps_handles() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("r.c");
        c.add(7);
        reg.reset();
        assert_eq!(c.get(), 0);
        c.inc();
        assert_eq!(reg.snapshot().counters["r.c"], 1);
    }

    #[test]
    fn validate_flags_bad_names() {
        let mut snap = MetricsSnapshot::default();
        snap.counters.insert("NoDots".into(), 1);
        snap.counters.insert("ok.name".into(), 1);
        snap.counters.insert("Bad.Case".into(), 1);
        let errs = validate(&snap);
        assert_eq!(errs.len(), 2, "{errs:?}");
    }

    #[test]
    fn summary_table_renders_nonzero_metrics() {
        let reg = MetricsRegistry::new();
        reg.counter("s.zero");
        reg.counter("s.nonzero").add(5);
        reg.histogram("s.hist_us").record(10);
        let text = reg.snapshot().summary_table();
        assert!(text.contains("s.nonzero"));
        assert!(text.contains("s.hist_us"));
        assert!(!text.contains("s.zero"));
    }
}
