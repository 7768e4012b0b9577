//! Run and daemon configuration.
//!
//! [`RunConfig`] consolidates every knob of a single detection run — the
//! ~20 `lumen6 detect` command-line flags — into one serde struct, loadable
//! from a TOML file (`lumen6 detect --config FILE`, flags override) and
//! reused verbatim as the per-tenant configuration of `lumen6 serve`.
//!
//! [`ServeConfig`] is the daemon manifest: scheduler shape plus a named
//! [`RunConfig`] per tenant:
//!
//! ```toml
//! spool = "spool"
//! workers = 2
//!
//! [tenants.cdn-live]
//! tail = "ingest/cdn.l6tr"
//! min_dsts = 100
//! watermark_secs = 5
//!
//! [tenants.replay]
//! trace = "archive/week12.l6tr"
//! ```
//!
//! Both structs derive `Serialize`, which places their schemas under the
//! L004 fingerprint: renaming or re-typing a field without blessing the
//! analyzer snapshot is a build failure, exactly like checkpoint drift.
//! `Deserialize` and the command line both go through one key table per
//! struct ([`RunConfig::KEYS`]), so every key is optional with the CLI's
//! defaults and an unknown one is rejected by name, in a file or as a flag.

use crate::toml;
use lumen6_detect::{
    AggLevel, Backend, CheckpointPolicy, DetectorBuilder, ScanDetectorConfig, Session,
    SessionConfig, SketchConfig,
};
use lumen6_scanners::{FleetConfig, FleetSource, World};
use lumen6_trace::{CodecError, FileStreamSource, Source, TailSource};
use serde::value::{DeError, Value};
use serde::{Deserialize, Serialize};
use std::path::Path;

/// Complete configuration of one detection run. Field names match the
/// `lumen6 detect` flags with `-` → `_`; paths are strings so the struct
/// round-trips through the vendored serde (which has no `PathBuf` impl).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct RunConfig {
    /// Ingest: an L6TR trace file read to EOF.
    pub trace: Option<String>,
    /// Ingest: a growing L6TR file followed live ([`TailSource`]); ends
    /// when the `<path>.eof` marker appears.
    pub tail: Option<String>,
    /// Ingest: synthesize the CDN fleet stream in-process (no file).
    pub fused: bool,
    /// Source aggregation prefix length (128/64/48/32).
    pub agg: u8,
    /// Minimum distinct destinations for a run to qualify as a scan.
    pub min_dsts: u64,
    /// Maximum intra-scan packet gap, seconds.
    pub timeout_secs: u64,
    /// HyperLogLog precision for spill-to-sketch counting; `None` = exact.
    /// Memory per spilled source is 2^P registers, error ≈ 1.04/sqrt(2^P);
    /// out-of-range values are clamped to the supported 4..=16.
    pub sketch_precision: Option<u8>,
    /// Retired: the detector runs on one worker thread, or on the caller's
    /// with `sequential`. Only the default, 0, is accepted; the key stays so
    /// configurations that spell it still parse.
    pub threads: usize,
    /// Detect on the ingesting thread instead of a worker thread.
    pub sequential: bool,
    /// Reorder-buffer watermark, seconds; 0 = sorted input.
    pub watermark_secs: u64,
    /// Records pulled from the source per session step.
    pub batch: usize,
    /// Abort on recoverable decode errors instead of quarantine-and-skip.
    pub strict: bool,
    /// Checkpoint file; `None` disables durability (the daemon assigns a
    /// spool path instead).
    pub checkpoint: Option<String>,
    /// Checkpoint every this many records.
    pub checkpoint_every: u64,
    /// Stop (exit-3 style) after N checkpoints — a resume-test knob,
    /// rejected for daemon tenants.
    pub stop_after: Option<u64>,
    /// Close idle detector runs whenever stream time advances this far,
    /// seconds; `None` = `timeout_secs` (a run cannot go idle sooner), 0
    /// never. Report-neutral for input time-ordered at the detector.
    pub flush_idle_secs: Option<u64>,
    /// Fused generation: days to simulate (`None` = generator default).
    pub days: Option<u64>,
    /// Fused generation: master seed.
    pub seed: u64,
    /// Fused generation: the small calibration fleet.
    pub small: bool,
    /// Fused generation: packet-volume multiplier.
    pub intensity: f64,
    /// Fused generation: [`FleetSource`] lanes. 1 = generate on the
    /// ingesting thread (nothing spawned); N > 1 = N generator threads;
    /// 0 = one per hardware thread. Output is byte-identical for every
    /// value.
    pub gen_threads: usize,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            trace: None,
            tail: None,
            fused: false,
            agg: 64,
            min_dsts: 100,
            timeout_secs: 3_600,
            sketch_precision: None,
            threads: 0,
            sequential: false,
            watermark_secs: 0,
            batch: lumen6_detect::DEFAULT_SESSION_BATCH,
            strict: false,
            checkpoint: None,
            checkpoint_every: 100_000,
            stop_after: None,
            flush_idle_secs: None,
            days: None,
            seed: 42,
            small: false,
            intensity: 1.0,
            gen_threads: 1,
        }
    }
}

/// A command line as the key tables see it: `--flag [text]` pairs in argv
/// order, without the dashes; `None` after a flag that takes no value.
pub type Flags = [(String, Option<String>)];

/// One settable key of the config struct `C`, written once — a row of
/// [`RunConfig::KEYS`] or [`ServeConfig::KEYS`] — for everything that sets
/// it: `--config` files and daemon manifests (the `Deserialize` impls) and
/// the command line. The field's type is the key's kind.
pub struct Key<C: 'static> {
    /// The key as a config file spells it.
    pub name: &'static str,
    set: fn(&mut C, &Value) -> Result<(), DeError>,
    /// The flag a *flag* for this key needs beside it, when `C` lacks it (a
    /// file may leave the same to the daemon). Flags are applied in table
    /// order, so the key it names is a row above.
    needs: fn(&C) -> Option<&'static str>,
}

impl<C> Key<C> {
    /// The key as the command line spells it, without the leading `--`.
    pub fn flag(&self) -> String {
        self.name.replace('_', "-")
    }
}

/// A table row: the key's name and the field it sets.
macro_rules! key {
    ($cfg:ty, $name:literal, $field:ident) => {
        key!($cfg, $name, $field, |_| None)
    };
    ($cfg:ty, $name:literal, $field:ident, $needs:expr) => {
        Key {
            name: $name,
            set: |c: &mut $cfg, v| {
                c.$field = Deserialize::from_value(v)?;
                Ok(())
            },
            needs: $needs,
        }
    };
}

/// A parsed file's table through `keys`, over the defaults. A null is a
/// serialized `None`: not set. A name `keys` does not hold is an error
/// naming it — a typo'd knob must not silently fall back to its default.
fn from_table<C: Default>(keys: &[Key<C>], what: &str, v: &Value) -> Result<C, DeError> {
    let Value::Object(fields) = v else {
        return Err(DeError::expected(&format!("{what} table"), v));
    };
    let mut cfg = C::default();
    for (name, value) in fields.iter().filter(|(_, v)| !matches!(v, Value::Null)) {
        let key = keys.iter().find(|key| key.name == name);
        let key = key.ok_or_else(|| DeError::msg(format!("unknown {what} key {name:?}")))?;
        (key.set)(&mut cfg, value)?;
    }
    Ok(cfg)
}

/// Sets every key of `keys` whose flag is among `flags` (the first
/// occurrence wins) by the assignment a file's key goes through. Flags that
/// name no key are the caller's to read or reject.
fn set_flags<C>(keys: &[Key<C>], cfg: &mut C, flags: &Flags) -> Result<(), String> {
    for key in keys {
        let flag = key.flag();
        let Some((_, text)) = flags.iter().find(|(name, _)| *name == flag) else {
            continue;
        };
        // What a file could have held for the text, for the field's type to
        // pick from: an integer, a number, the text as written — or `true`,
        // when nothing follows the flag.
        let text = text.as_deref();
        let readings = [
            text.is_none().then_some(Value::Bool(true)),
            text.and_then(|t| t.parse().ok()).map(Value::UInt),
            text.and_then(|t| t.parse().ok()).map(Value::Float),
            text.map(|t| Value::Str(t.to_string())),
        ];
        let mut readings = readings.into_iter().flatten();
        if !readings.any(|value| (key.set)(cfg, &value).is_ok()) {
            let text = text.unwrap_or_default();
            return Err(format!("invalid value for --{flag}: {text:?}"));
        }
        if let Some(what) = (key.needs)(cfg) {
            return Err(format!("--{flag} needs {what}"));
        }
    }
    Ok(())
}

fn needs_checkpoint(run: &RunConfig) -> Option<&'static str> {
    run.checkpoint.is_none().then_some("--checkpoint FILE")
}

impl Deserialize for RunConfig {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        from_table(RunConfig::KEYS, "RunConfig", v)
    }
}

/// `(name, value)` of a field, the name read off the field itself.
macro_rules! named {
    ($cfg:ident.$field:ident) => {
        (stringify!($field), $cfg.$field)
    };
}

/// `(name, whether the field is off its default)`.
macro_rules! moved {
    ($cfg:ident.$field:ident) => {
        (
            stringify!($field),
            $cfg.$field != RunConfig::default().$field,
        )
    };
}

impl RunConfig {
    /// The key table: adding a key is a field, its default and a row here.
    pub const KEYS: &'static [Key<RunConfig>] = &[
        key!(Self, "trace", trace),
        key!(Self, "tail", tail),
        key!(Self, "fused", fused),
        key!(Self, "agg", agg),
        key!(Self, "min_dsts", min_dsts),
        key!(Self, "timeout_secs", timeout_secs),
        key!(Self, "sketch_precision", sketch_precision),
        key!(Self, "threads", threads),
        key!(Self, "sequential", sequential),
        key!(Self, "watermark_secs", watermark_secs),
        key!(Self, "batch", batch),
        key!(Self, "strict", strict),
        key!(Self, "checkpoint", checkpoint),
        key!(Self, "checkpoint_every", checkpoint_every, needs_checkpoint),
        key!(Self, "stop_after", stop_after, needs_checkpoint),
        key!(Self, "flush_idle_secs", flush_idle_secs),
        key!(Self, "days", days),
        key!(Self, "seed", seed),
        key!(Self, "small", small),
        key!(Self, "intensity", intensity),
        key!(Self, "gen_threads", gen_threads),
    ];

    /// Parses a flat TOML file (the `detect --config FILE` format).
    pub fn from_toml_str(text: &str) -> Result<RunConfig, String> {
        let value = toml::parse(text)?;
        RunConfig::from_value(&value).map_err(|e| e.to_string())
    }

    /// Applies a command line over `self` (a `--config` file's keys, or the
    /// defaults): every flag that names a key sets it. The three source
    /// selectors override as a group, so one flag cleanly retargets a file
    /// that already names a source.
    pub fn apply_flags(&mut self, flags: &Flags) -> Result<(), String> {
        let file = (
            self.trace.take(),
            self.tail.take(),
            std::mem::take(&mut self.fused),
        );
        set_flags(Self::KEYS, self, flags)?;
        match self.sources() {
            0 => (self.trace, self.tail, self.fused) = file,
            1 => {}
            _ => return Err("--trace, --tail, and --fused are mutually exclusive".into()),
        }
        Ok(())
    }

    /// The flags that turn the default configuration into `self`, in key
    /// order — [`apply_flags`](Self::apply_flags) read backwards, and what
    /// `soak` hands the `detect` children it spawns. An `Err` is a bug: a
    /// field no flag can spell.
    pub fn to_flags(&self) -> Result<Vec<String>, String> {
        let fields = |cfg: &RunConfig| {
            let json = serde_json::to_string(cfg).map_err(|e| e.to_string())?;
            match serde_json::from_str(&json) {
                Ok(Value::Object(fields)) => Ok(fields),
                other => Err(format!("a RunConfig serialized to {other:?}")),
            }
        };
        let mut argv = Vec::new();
        for ((name, value), (_, default)) in
            fields(self)?.into_iter().zip(fields(&Self::default())?)
        {
            if value == default {
                continue;
            }
            argv.push(format!("--{}", name.replace('_', "-")));
            match value {
                Value::Bool(_) => {}
                Value::Str(text) => argv.push(text),
                Value::UInt(n) => argv.push(n.to_string()),
                Value::Float(f) => argv.push(f.to_string()),
                other => return Err(format!("no flag spells {name} = {other:?}")),
            }
        }
        Ok(argv)
    }

    /// How many ingest sources are named.
    fn sources(&self) -> usize {
        usize::from(self.trace.is_some())
            + usize::from(self.tail.is_some())
            + usize::from(self.fused)
    }

    /// Checks cross-field consistency: exactly one ingest source, positive
    /// finite intensity, `stop_after` only with a checkpoint path, every
    /// seconds value representable in the milliseconds the detector and
    /// session count in, a `batch` whose rows the detectors' `u32` row
    /// indices can address, and no key the run would clamp (`agg`) or
    /// ignore (a generation key without `fused`, `threads` off its default).
    pub fn validate(&self) -> Result<(), String> {
        self.agg_level()?;
        if let (key, threads @ 1..) = named!(self.threads) {
            return Err(format!(
                "{key} = {threads}: the detector runs on one worker thread \
                 (set sequential to run it on the ingesting thread)"
            ));
        }
        if u32::try_from(self.batch).is_err() {
            return Err(format!(
                "batch = {} is more rows than a batch can index (at most {})",
                self.batch,
                u32::MAX
            ));
        }
        let (flush_idle, idle) = named!(self.flush_idle_secs);
        for (key, secs) in [
            named!(self.timeout_secs),
            named!(self.watermark_secs),
            (flush_idle, idle.unwrap_or(0)),
        ] {
            if secs.checked_mul(1000).is_none() {
                return Err(format!(
                    "{key} = {secs} does not fit in milliseconds (at most {})",
                    u64::MAX / 1000
                ));
            }
        }
        let sources = self.sources();
        if sources == 0 {
            return Err("no ingest source: set one of trace, tail, or fused".into());
        }
        if sources > 1 {
            return Err("ambiguous ingest: trace, tail, and fused are mutually exclusive".into());
        }
        if !self.intensity.is_finite() || self.intensity <= 0.0 {
            return Err(format!(
                "intensity must be a positive finite number, got {}",
                self.intensity
            ));
        }
        if self.stop_after.is_some() && self.checkpoint.is_none() {
            return Err("stop_after needs a checkpoint path".into());
        }
        let generation = [
            moved!(self.days),
            moved!(self.seed),
            moved!(self.small),
            moved!(self.intensity),
            moved!(self.gen_threads),
        ];
        match generation.into_iter().find(|&(_, moved)| moved) {
            Some((key, _)) if !self.fused => Err(format!("{key} applies only to fused generation")),
            _ => Ok(()),
        }
    }

    /// The aggregation level `agg` names — an error past 128 bits, where
    /// [`AggLevel::new`] would clamp to /128.
    pub fn agg_level(&self) -> Result<AggLevel, String> {
        match named!(self.agg) {
            (key, len @ 129..) => Err(format!(
                "{key} = {len} is longer than an address (at most 128)"
            )),
            (_, len) => Ok(AggLevel::new(len)),
        }
    }

    /// The detector-layer configuration. Seconds become milliseconds,
    /// saturating: [`validate`](Self::validate) rejects a value that would.
    pub fn detector_config(&self) -> ScanDetectorConfig {
        ScanDetectorConfig {
            agg: AggLevel::new(self.agg),
            min_dsts: self.min_dsts,
            timeout_ms: self.timeout_secs.saturating_mul(1000),
            sketch: self.sketch_precision.map(|precision| SketchConfig {
                spill_threshold: 4_096,
                precision,
            }),
            ..Default::default()
        }
    }

    /// The dispatch backend: [`Backend::Sequential`] with `sequential`,
    /// else the default, [`Backend::Threaded`].
    pub fn backend(&self) -> Backend {
        if self.sequential {
            Backend::Sequential
        } else {
            Backend::Threaded
        }
    }

    /// The session-layer configuration — and the one place an unset
    /// `flush_idle_secs` becomes the run's own timeout.
    pub fn session_config(&self) -> SessionConfig {
        let flush_idle_secs = self.flush_idle_secs.unwrap_or(self.timeout_secs);
        SessionConfig {
            watermark_ms: self.watermark_secs.saturating_mul(1000),
            checkpoint: self.checkpoint.as_ref().map(|path| CheckpointPolicy {
                path: path.into(),
                every_records: self.checkpoint_every,
                stop_after: self.stop_after,
            }),
            flush_idle_every_ms: flush_idle_secs.saturating_mul(1000),
            strict: self.strict,
            batch: self.batch,
        }
    }

    /// The fused-generation fleet configuration.
    pub fn fleet_config(&self) -> FleetConfig {
        let mut cfg = if self.small {
            FleetConfig::small()
        } else {
            FleetConfig::default()
        };
        cfg.seed = self.seed;
        cfg.end_day = self.days.unwrap_or(cfg.end_day);
        cfg.intensity = self.intensity;
        cfg
    }

    /// Opens the configured ingest source.
    pub fn make_source(&self) -> Result<Box<dyn Source>, CodecError> {
        let permissive = !self.strict;
        if let Some(path) = &self.trace {
            return Ok(Box::new(
                FileStreamSource::open(Path::new(path))?.permissive(permissive),
            ));
        }
        if let Some(path) = &self.tail {
            return Ok(Box::new(
                TailSource::open(Path::new(path)).permissive(permissive),
            ));
        }
        // Auto (0): one generator per hardware thread. Purely a throughput
        // knob — the output is thread-count-invariant.
        let gen_threads = match self.gen_threads {
            0 => std::thread::available_parallelism().map_or(1, std::num::NonZero::get),
            n => n,
        };
        Ok(Box::new(FleetSource::with_gen_threads(
            World::build(self.fleet_config()),
            gen_threads,
        )))
    }

    /// Builds the full [`Session`] this configuration describes.
    pub fn make_session(&self) -> Session {
        Session::new(
            DetectorBuilder::new(self.detector_config()),
            self.backend(),
            self.session_config(),
        )
    }
}

/// One daemon tenant: a unique name (also its spool subdirectory) plus the
/// run it hosts.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TenantSpec {
    /// Tenant name; restricted to `[A-Za-z0-9._-]` so it is usable as a
    /// directory name.
    pub name: String,
    /// The tenant's detection run.
    pub run: RunConfig,
}

/// The `lumen6 serve` manifest.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ServeConfig {
    /// Spool directory: per-tenant checkpoints, reports, metrics, status.
    pub spool: String,
    /// Worker threads multiplexing the tenants.
    pub workers: usize,
    /// Session steps a worker runs per scheduling slice before requeueing
    /// the tenant.
    pub steps_per_slice: u32,
    /// Publish each tenant's report/metrics/status every this many slices.
    pub publish_every_slices: u64,
    /// Graceful-shutdown trigger file; `None` = `<spool>/shutdown`.
    pub stop_file: Option<String>,
    /// The hosted tenants, in manifest order.
    pub tenants: Vec<TenantSpec>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            spool: "spool".into(),
            workers: 2,
            steps_per_slice: 8,
            publish_every_slices: 16,
            stop_file: None,
            tenants: Vec::new(),
        }
    }
}

impl Deserialize for ServeConfig {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        from_table(ServeConfig::KEYS, "ServeConfig", v)
    }
}

impl ServeConfig {
    /// The manifest's key table: the scheduler's five keys, and `tenants`,
    /// a table of [`RunConfig`] tables that no flag can spell.
    pub const KEYS: &'static [Key<ServeConfig>] = &[
        key!(Self, "spool", spool),
        key!(Self, "workers", workers),
        key!(Self, "steps_per_slice", steps_per_slice),
        key!(Self, "publish_every_slices", publish_every_slices),
        key!(Self, "stop_file", stop_file),
        Key {
            name: "tenants",
            set: |cfg, tenants| {
                let Value::Object(tenants) = tenants else {
                    return Err(DeError::expected("tenants table", tenants));
                };
                for (name, spec) in tenants {
                    let run = RunConfig::from_value(spec)?;
                    let name = name.clone();
                    cfg.tenants.push(TenantSpec { name, run });
                }
                Ok(())
            },
            needs: |_| None,
        },
    ];

    /// Applies a command line over the manifest's scheduler keys.
    pub fn apply_flags(&mut self, flags: &Flags) -> Result<(), String> {
        set_flags(Self::KEYS, self, flags)
    }

    /// Parses a daemon manifest (`[tenants.<name>]` sections).
    pub fn from_toml_str(text: &str) -> Result<ServeConfig, String> {
        let value = toml::parse(text)?;
        ServeConfig::from_value(&value).map_err(|e| e.to_string())
    }

    /// Validates the manifest: at least one tenant, unique directory-safe
    /// names, per-tenant run validity, no `stop_after` resume-test knobs.
    pub fn validate(&self) -> Result<(), String> {
        if self.tenants.is_empty() {
            return Err("no tenants configured".into());
        }
        if self.workers == 0 {
            return Err("workers must be at least 1".into());
        }
        if self.steps_per_slice == 0 {
            return Err("steps_per_slice must be at least 1".into());
        }
        let mut seen = std::collections::BTreeSet::new();
        for t in &self.tenants {
            if t.name.is_empty()
                || !t
                    .name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "._-".contains(c))
            {
                return Err(format!(
                    "tenant name {:?} must be non-empty [A-Za-z0-9._-]",
                    t.name
                ));
            }
            if !seen.insert(&t.name) {
                return Err(format!("duplicate tenant name {:?}", t.name));
            }
            t.run
                .validate()
                .map_err(|e| format!("tenant {:?}: {e}", t.name))?;
            if t.run.stop_after.is_some() {
                return Err(format!(
                    "tenant {:?}: stop_after is a resume-test knob, not valid under serve",
                    t.name
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_config_defaults_match_cli_defaults() {
        let cfg = RunConfig::from_toml_str("trace = \"t.l6tr\"\n").unwrap();
        assert_eq!(cfg.agg, 64);
        assert_eq!(cfg.min_dsts, 100);
        assert_eq!(cfg.timeout_secs, 3_600);
        assert_eq!(cfg.batch, lumen6_detect::DEFAULT_SESSION_BATCH);
        assert_eq!(cfg.checkpoint_every, 100_000);
        assert_eq!(cfg.seed, 42);
        assert!((cfg.intensity - 1.0).abs() < f64::EPSILON);
        assert!(cfg.validate().is_ok());
        let det = cfg.detector_config();
        assert_eq!(det, ScanDetectorConfig::default());
        assert_eq!(cfg.backend(), Backend::Threaded);
    }

    #[test]
    fn unknown_key_is_rejected_with_its_name() {
        let err = RunConfig::from_toml_str("trace = \"t\"\nmin_dst = 5\n").unwrap_err();
        assert!(err.contains("min_dst"), "{err}");
    }

    /// The command line's own rules, on top of the table a file shares:
    /// source selectors override as a group, a value is checked against the
    /// key's type, a checkpoint cadence needs a checkpoint, and `to_flags`
    /// reads `apply_flags` backwards.
    #[test]
    fn flags_override_a_file_through_the_key_table() {
        let flags = |line: &[&str]| -> Vec<(String, Option<String>)> {
            let pair = |f: &&str| match f.split_once(' ') {
                Some((flag, text)) => (flag.to_string(), Some(text.to_string())),
                None => (f.to_string(), None),
            };
            line.iter().map(pair).collect()
        };
        let file = RunConfig::from_toml_str("trace = \"t.l6tr\"\nmin_dsts = 5\n").unwrap();
        let mut run = file.clone();
        run.apply_flags(&flags(&[
            "fused",
            "min-dsts 7",
            "min-dsts 9",
            "json",
            "top 3",
        ]))
        .unwrap();
        let retargeted = RunConfig {
            fused: true,
            min_dsts: 7,
            ..RunConfig::default()
        };
        assert_eq!(
            run, retargeted,
            "first occurrence wins, strangers are skipped"
        );
        let mut kept = file.clone();
        kept.apply_flags(&flags(&["sequential"])).unwrap();
        assert_eq!(kept.trace.as_deref(), Some("t.l6tr"));

        for (line, needle) in [
            (&["trace a", "tail b"][..], "mutually exclusive"),
            (&["agg 300"], "invalid value for --agg: \"300\""),
            (&["threads -1"], "--threads"),
            (&["intensity fast"], "--intensity"),
            (
                &["checkpoint-every 5"],
                "--checkpoint-every needs --checkpoint FILE",
            ),
            (&["stop-after 1"], "--stop-after needs --checkpoint FILE"),
        ] {
            let err = file.clone().apply_flags(&flags(line)).unwrap_err();
            assert!(err.contains(needle), "{line:?}: {err}");
        }
        let mut cadence = file.clone();
        cadence
            .apply_flags(&flags(&["checkpoint-every 5", "checkpoint c.l6ck"]))
            .unwrap();
        assert_eq!(cadence.checkpoint_every, 5);

        assert!(RunConfig::default().to_flags().unwrap().is_empty());
        let argv = cadence.to_flags().unwrap();
        let spelled = "--trace t.l6tr --min-dsts 5 --checkpoint c.l6ck --checkpoint-every 5";
        assert_eq!(argv, spelled.split(' ').collect::<Vec<_>>());
    }

    #[test]
    fn source_exclusivity_is_validated() {
        let none = RunConfig::default();
        assert!(none.validate().unwrap_err().contains("no ingest source"));
        let both = RunConfig {
            trace: Some("a".into()),
            fused: true,
            ..Default::default()
        };
        assert!(both.validate().unwrap_err().contains("mutually exclusive"));
    }

    /// `sequential` picks the backend alone; `threads` is accepted at its
    /// default and refused by name otherwise — in a file, a manifest's
    /// tenant, or (through the same check) a flag.
    #[test]
    fn sequential_alone_picks_the_backend_and_threads_is_retired() {
        let seq = RunConfig {
            sequential: true,
            ..Default::default()
        };
        assert_eq!(seq.backend(), Backend::Sequential);
        assert_eq!(RunConfig::default().backend(), Backend::Threaded);

        let zero = RunConfig::from_toml_str("fused = true\nthreads = 0\n").unwrap();
        assert_eq!(zero.validate(), Ok(()));
        for source in ["fused = true", "trace = \"t\""] {
            let text = format!("{source}\nthreads = 2\n");
            let err = RunConfig::from_toml_str(&text).unwrap().validate();
            assert!(err.unwrap_err().contains("threads = 2"), "{text}");
            let manifest = format!("[tenants.par]\n{text}");
            let err = ServeConfig::from_toml_str(&manifest).unwrap().validate();
            let err = err.unwrap_err();
            assert!(err.contains("par") && err.contains("threads"), "{err}");
        }
    }

    #[test]
    fn session_config_maps_units_and_policy() {
        let cfg = RunConfig {
            trace: Some("t".into()),
            watermark_secs: 5,
            checkpoint: Some("/tmp/x.l6ck".into()),
            checkpoint_every: 7,
            flush_idle_secs: Some(2),
            strict: true,
            batch: 9,
            ..Default::default()
        };
        let s = cfg.session_config();
        assert_eq!(s.watermark_ms, 5_000);
        assert_eq!(s.flush_idle_every_ms, 2_000);
        assert!(s.strict);
        assert_eq!(s.batch, 9);
        let p = s.checkpoint.unwrap();
        assert_eq!(p.path, std::path::PathBuf::from("/tmp/x.l6ck"));
        assert_eq!(p.every_records, 7);
        assert_eq!(p.stop_after, None);
    }

    /// An unset `flush_idle_secs` is the run's own timeout, resolved in
    /// `session_config` and nowhere else; 0 still means never, and a
    /// manifest that spells either survives a round trip.
    #[test]
    fn unset_flush_idle_secs_is_the_timeout() {
        let flush_ms = |text: &str| {
            let cfg = RunConfig::from_toml_str(&format!("trace = \"t\"\n{text}")).unwrap();
            let back: RunConfig =
                serde_json::from_str(&serde_json::to_string(&cfg).unwrap()).unwrap();
            assert_eq!(back, cfg, "{text:?} round trip");
            (
                cfg.flush_idle_secs,
                cfg.session_config().flush_idle_every_ms,
            )
        };
        assert_eq!(flush_ms(""), (None, 3_600_000));
        assert_eq!(flush_ms("timeout_secs = 900\n"), (None, 900_000));
        assert_eq!(flush_ms("flush_idle_secs = 0\n"), (Some(0), 0));
        assert_eq!(
            flush_ms("flush_idle_secs = 30\ntimeout_secs = 900\n"),
            (Some(30), 30_000)
        );
        assert_eq!(
            SessionConfig::default().flush_idle_every_ms,
            0,
            "the library primitive stays off"
        );

        let manifest = "spool = \"s\"\n[tenants.never]\nfused = true\nflush_idle_secs = 0\n\
                        [tenants.unset]\nfused = true\n";
        let serve = ServeConfig::from_toml_str(manifest).unwrap();
        assert_eq!(serve.tenants[0].run.flush_idle_secs, Some(0));
        assert_eq!(serve.tenants[1].run.flush_idle_secs, None);
        let json = serde_json::to_string(&serve.tenants[0].run).unwrap();
        assert!(json.contains("\"flush_idle_secs\":0"), "{json}");
    }

    #[test]
    fn seconds_that_overflow_milliseconds_are_rejected_by_key() {
        for key in ["timeout_secs", "watermark_secs", "flush_idle_secs"] {
            let text = format!("trace = \"t.l6tr\"\n{key} = {}\n", u64::MAX);
            let cfg = RunConfig::from_toml_str(&text).unwrap();
            let err = cfg.validate().unwrap_err();
            assert!(err.contains(key), "{key}: {err}");
            // The conversions themselves never wrap or panic.
            let _ = (cfg.detector_config(), cfg.session_config());

            // The largest value that fits is accepted.
            let fits = format!("trace = \"t.l6tr\"\n{key} = {}\n", u64::MAX / 1000);
            assert!(RunConfig::from_toml_str(&fits).unwrap().validate().is_ok());
            // Under `serve` the rejection names the tenant too.
            let manifest = format!("spool = \"s\"\n[tenants.bad]\n{text}");
            let err = ServeConfig::from_toml_str(&manifest)
                .unwrap()
                .validate()
                .unwrap_err();
            assert!(err.contains("bad") && err.contains(key), "{err}");
        }
    }

    #[test]
    fn batch_beyond_u32_row_indices_is_rejected_by_key() {
        for batch in [u64::from(u32::MAX) + 1, u64::MAX] {
            let text = format!("trace = \"t.l6tr\"\nbatch = {batch}\n");
            let err = RunConfig::from_toml_str(&text)
                .unwrap()
                .validate()
                .unwrap_err();
            assert!(err.contains("batch"), "{err}");
            let manifest = format!("spool = \"s\"\n[tenants.bad]\n{text}");
            let err = ServeConfig::from_toml_str(&manifest)
                .unwrap()
                .validate()
                .unwrap_err();
            assert!(err.contains("bad") && err.contains("batch"), "{err}");
        }
        let fits = format!("trace = \"t.l6tr\"\nbatch = {}\n", u32::MAX);
        assert!(RunConfig::from_toml_str(&fits).unwrap().validate().is_ok());
    }

    #[test]
    fn serve_manifest_parses_tenant_sections_in_order() {
        let cfg = ServeConfig::from_toml_str(
            "spool = \"run/spool\"\n\
             workers = 3\n\
             [tenants.alpha]\n\
             trace = \"a.l6tr\"\n\
             min_dsts = 50\n\
             [tenants.beta]\n\
             fused = true\n\
             small = true\n\
             days = 4\n",
        )
        .unwrap();
        assert_eq!(cfg.spool, "run/spool");
        assert_eq!(cfg.workers, 3);
        let names: Vec<&str> = cfg.tenants.iter().map(|t| t.name.as_str()).collect();
        assert_eq!(names, ["alpha", "beta"]);
        assert_eq!(cfg.tenants[0].run.min_dsts, 50);
        assert_eq!(cfg.tenants[1].run.days, Some(4));
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn serve_validation_rejects_bad_manifests() {
        let empty = ServeConfig::default();
        assert!(empty.validate().unwrap_err().contains("no tenants"));

        let mut dup = ServeConfig::default();
        let run = RunConfig {
            fused: true,
            ..Default::default()
        };
        dup.tenants.push(TenantSpec {
            name: "a".into(),
            run: run.clone(),
        });
        dup.tenants.push(TenantSpec {
            name: "a".into(),
            run: run.clone(),
        });
        assert!(dup.validate().unwrap_err().contains("duplicate"));

        let mut bad_name = ServeConfig::default();
        bad_name.tenants.push(TenantSpec {
            name: "a/b".into(),
            run: run.clone(),
        });
        assert!(bad_name.validate().unwrap_err().contains("a/b"));

        let mut stopper = ServeConfig::default();
        stopper.tenants.push(TenantSpec {
            name: "s".into(),
            run: RunConfig {
                checkpoint: Some("c".into()),
                stop_after: Some(1),
                ..run
            },
        });
        assert!(stopper.validate().unwrap_err().contains("stop_after"));
    }

    #[test]
    fn gen_threads_parses_and_is_fused_only() {
        let cfg = RunConfig::from_toml_str("fused = true\ngen_threads = 4\n").unwrap();
        assert_eq!(cfg.gen_threads, 4);
        assert!(cfg.validate().is_ok());
        let auto = RunConfig::from_toml_str("fused = true\ngen_threads = 0\n").unwrap();
        assert!(auto.validate().is_ok());
        let bad = RunConfig::from_toml_str("trace = \"t\"\ngen_threads = 4\n").unwrap();
        assert!(bad.validate().unwrap_err().contains("gen_threads"));
    }

    /// A key the run would ignore or clamp is refused by name — in a file,
    /// a manifest's tenant and (through the same check) a flag — and its
    /// default, or a value the run reads, is not.
    #[test]
    fn a_key_the_run_would_ignore_or_clamp_is_rejected_by_key() {
        for (source, key, value, fine) in [
            ("trace = \"t\"", "agg", "129", Some("128")),
            ("fused = true", "agg", "255", Some("48")),
            ("trace = \"t\"", "days", "3", None),
            ("tail = \"t\"", "seed", "3", Some("42")),
            ("trace = \"t\"", "small", "true", Some("false")),
            ("trace = \"t\"", "intensity", "3.0", Some("1.0")),
        ] {
            let text = format!("{source}\n{key} = {value}\n");
            let err = RunConfig::from_toml_str(&text).unwrap().validate();
            assert!(err.unwrap_err().contains(key), "{text}");
            let manifest = format!("[tenants.bad]\n{text}");
            let err = ServeConfig::from_toml_str(&manifest).unwrap().validate();
            let err = err.unwrap_err();
            assert!(err.contains("bad") && err.contains(key), "{err}");
            if let Some(fine) = fine {
                let text = format!("{source}\n{key} = {fine}\n");
                assert_eq!(RunConfig::from_toml_str(&text).unwrap().validate(), Ok(()));
            }
            let fused = format!("fused = true\n{key} = {value}\n");
            assert_eq!(
                RunConfig::from_toml_str(&fused).unwrap().validate().is_ok(),
                key != "agg"
            );
        }
        let run = RunConfig::from_toml_str("trace = \"t\"\nagg = 200\n").unwrap();
        assert!(run.agg_level().unwrap_err().contains("agg = 200"));
    }

    #[test]
    fn run_config_round_trips_through_serialize() {
        let cfg = RunConfig {
            tail: Some("x.l6tr".into()),
            sketch_precision: Some(12),
            days: Some(9),
            stop_after: Some(2),
            checkpoint: Some("c.l6ck".into()),
            ..Default::default()
        };
        let back: RunConfig = serde_json::from_str(&serde_json::to_string(&cfg).unwrap()).unwrap();
        assert_eq!(back, cfg);
    }
}
