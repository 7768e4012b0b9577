//! The metric and workload names this benchmark prints. `BENCHMARK.json`
//! declares the same sets; `tests/pipeline_smoke.rs` holds the two equal.

use serde::{Deserialize, Serialize};

/// One named measurement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Metric {
    /// Name as declared in `BENCHMARK.json`.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Unit as declared in `BENCHMARK.json`.
    pub unit: String,
}

/// Declaration of a per-layer metric.
pub struct MetricDef {
    /// Name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// A count made by the program or the harness that must be identical
    /// on every repetition of the same inputs.
    pub exact: bool,
    /// Direction of improvement (for a plain count: the direction an
    /// optimisation is expected to move it, if any).
    pub higher_is_better: bool,
}

impl MetricDef {
    const fn higher(mut self) -> MetricDef {
        self.higher_is_better = true;
        self
    }
}

/// A time, a rate or a timing-dependent count: reduced by the median.
const fn timing(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        exact: false,
        higher_is_better: false,
    }
}

/// A count that must repeat exactly.
const fn count(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        exact: true,
        higher_is_better: false,
    }
}

/// Declaration of an end-to-end metric.
pub struct EndToEndDef {
    /// Name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub higher_is_better: bool,
    /// Share of the base median by which the metric may worsen before it
    /// counts as a regression.
    pub bound: f64,
}

/// End-to-end metrics, printed with `--trace 0`. Every workload reports all
/// of them. The bounds are the contract's maximum: on the 2-core VM the
/// baseline was taken on, run-to-run inter-quartile spread of the timed
/// metrics is 3–12 % of the median (a bare ALU loop alone wanders ±5 %), so
/// a tighter bound would reject unchanged code. Tighten them on a quieter
/// host, in a change of their own. The fifth the issue lists, `failed_share`, is expected to be 0
/// and so cannot carry a relative bound: it is the `failed` ÷ `attempted`
/// of every result line instead.
pub const END_TO_END: &[EndToEndDef] = &[
    EndToEndDef {
        name: "setup_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEndDef {
        name: "records_per_s",
        unit: "rec/s",
        higher_is_better: true,
        bound: 0.25,
    },
    EndToEndDef {
        name: "cpu_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEndDef {
        name: "peak_rss_mib",
        unit: "MiB",
        higher_is_better: false,
        bound: 0.25,
    },
];

/// Per-layer metrics, printed with `--trace 1`. A workload that does not use
/// a layer prints 0 for that layer's metrics.
pub const PER_LAYER: &[MetricDef] = &[
    timing("scanners.world_build_s", "s"),
    timing("scanners.source_new_s", "s"),
    timing("scanners.fill_s", "s"),
    timing("scanners.fill_ns_per_record", "ns"),
    count("scanners.fill_calls", "count"),
    count("scanners.records", "count").higher(),
    count("scanners.distinct_row_ratio", "ratio"),
    count("scanners.artifact_share", "ratio"),
    timing("scanners.expand_ns_per_record", "ns"),
    timing("scanners.parallel.merge_stalls", "count"),
    timing("scanners.parallel.runs_merged", "count"),
    timing("scanners.parallel.peak_buffered_records", "records"),
    timing("scanners.resume_seek_s", "s"),
    timing("telescope.capture_ns_per_record", "ns"),
    count("telescope.capture_pass_ratio", "ratio"),
    timing("trace.encode_s", "s"),
    timing("trace.encode_mib_per_s", "MiB/s").higher(),
    count("trace.file_bytes", "bytes"),
    timing("trace.decode_s", "s"),
    timing("trace.decode_ns_per_record", "ns"),
    timing("trace.decode_mib_per_s", "MiB/s").higher(),
    count("trace.codec.bytes_read", "bytes"),
    count("trace.codec.refills", "count"),
    timing("detect.observe_s", "s"),
    timing("detect.observe_ns_per_record", "ns"),
    count("detect.memo_hit_ratio", "ratio").higher(),
    timing("detect.finish_s", "s"),
    count("detect.events", "count"),
    timing("detect.session.step_self_s", "s"),
    timing("detect.session.overhead_s", "s"),
    timing("detect.session.step_ms_p50", "ms"),
    timing("detect.session.step_ms_max", "ms"),
    timing("detect.snapshot_s", "s"),
    timing("detect.checkpoint_save_s", "s"),
    count("detect.checkpoints", "count"),
    count("detect.checkpoint_bytes", "bytes"),
    count("detect.checkpoint_bytes_written", "bytes"),
    timing("detect.resume_load_s", "s"),
    timing("detect.shard.imbalance_permille", "permille"),
    count("detect.parallel.batches_sent", "count"),
    timing("detect.parallel.channel_full_stalls", "count"),
    timing("report.render_s", "s"),
    count("report.bytes", "bytes"),
    timing("serve.daemon_new_s", "s"),
    timing("serve.run_s", "s"),
    count("serve.slices", "count"),
    count("serve.publishes", "count"),
    timing("serve.pending_polls", "count"),
    timing("serve.spool_bytes", "bytes"),
    timing("serve.overhead_ratio", "ratio"),
    timing("bench.span_coverage", "ratio").higher(),
    timing("bench.trace_overhead_ratio", "ratio"),
];

/// The definition of a per-layer metric.
///
/// # Panics
/// On a name that is not declared — a typo in the harness, caught by the
/// first smoke run.
pub fn per_layer(name: &str) -> &'static MetricDef {
    PER_LAYER
        .iter()
        .find(|d| d.name == name)
        .unwrap_or_else(|| panic!("undeclared per-layer metric {name:?}"))
}

fn better(higher_is_better: bool) -> &'static str {
    if higher_is_better {
        "higher"
    } else {
        "lower"
    }
}

/// The `workloads`, `end_to_end` and `per_layer` sections of
/// `BENCHMARK.json`, rendered from the tables above — what `pipeline names`
/// prints and the smoke test holds equal to the committed file.
pub fn declaration() -> serde_json::Value {
    use serde_json::Value;
    let text = |s: &str| Value::Str(s.to_string());
    let object = |fields: Vec<(&str, Value)>| {
        Value::Object(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    };
    let workloads = crate::workload::Workload::ALL
        .iter()
        .map(|w| object(vec![("name", text(w.name())), ("why", text(w.why()))]))
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|d| {
            object(vec![
                ("name", text(d.name)),
                ("unit", text(d.unit)),
                ("better", text(better(d.higher_is_better))),
                ("bound", Value::Float(d.bound)),
            ])
        })
        .collect();
    let per_layer = PER_LAYER
        .iter()
        .map(|d| {
            object(vec![
                ("name", text(d.name)),
                ("unit", text(d.unit)),
                ("better", text(better(d.higher_is_better))),
            ])
        })
        .collect();
    object(vec![
        ("workloads", Value::Array(workloads)),
        ("end_to_end", Value::Array(end_to_end)),
        ("per_layer", Value::Array(per_layer)),
    ])
}
