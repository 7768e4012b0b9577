//! A from-scratch HyperLogLog sketch for distinct-destination counting.
//!
//! The scan definition hinges on *distinct destination IPv6 addresses per
//! source*. Offline analysis can afford exact `HashSet<u128>`s, but an
//! operational IDS tracking tens of thousands of candidate sources cannot:
//! a single heavy scanner may probe millions of destinations. HyperLogLog
//! bounds per-source memory at `2^precision` bytes with ~1.04/√m relative
//! error — at the default precision 12 that is 4 KiB and ≈1.6% error,
//! far finer than the detection threshold needs.
//!
//! The implementation follows Flajolet et al. (2007) with the standard
//! small-range (linear counting) correction. Hashing is a splitmix64-style
//! finalizer over the folded 128-bit address.

use lumen6_addr::cast::{high64, low64};
use serde::value::{DeError, Value};
use serde::{Deserialize, Serialize};

/// Named configuration for spilling exact distinct-sets to HyperLogLog
/// sketches, replacing the old opaque `(usize, u8)` tuple on
/// [`ScanDetectorConfig`](crate::ScanDetectorConfig).
///
/// Serialization is backward compatible: deserialization accepts both the
/// new named-field object and the legacy two-element `[spill_threshold,
/// precision]` array that older JSON configs contain. Serialization always
/// emits the named form. Both decode arms clamp `precision` into the
/// supported `4..=16` range (see [`SketchConfig::clamped`]), so no
/// out-of-range precision survives deserialization.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct SketchConfig {
    /// Exact-set size beyond which a per-source counter spills to a sketch.
    pub spill_threshold: usize,
    /// HyperLogLog precision (log2 register count), clamped to 4..=16 at
    /// sketch construction.
    pub precision: u8,
}

/// Smallest supported HyperLogLog precision (16 registers).
pub const MIN_PRECISION: u8 = 4;
/// Largest supported HyperLogLog precision (64 KiB of registers).
pub const MAX_PRECISION: u8 = 16;
/// Default HyperLogLog precision: 4 KiB per sketch, ≈1.6% relative error.
pub const DEFAULT_PRECISION: u8 = 12;

impl SketchConfig {
    /// A sketch configuration with the default precision of 12
    /// (4 KiB per sketch, ≈1.6% relative error).
    pub fn spill_at(spill_threshold: usize) -> Self {
        SketchConfig {
            spill_threshold,
            precision: DEFAULT_PRECISION,
        }
    }

    /// The same configuration with `precision` clamped to the supported
    /// `4..=16` range.
    ///
    /// [`HyperLogLog::new`] clamps too, but only at sketch *construction* —
    /// a config carrying an out-of-range precision (hand-edited JSON, a
    /// corrupted checkpoint) used to survive as-is until a freshly built
    /// clamped sketch failed to [`merge`](HyperLogLog::merge) with one
    /// restored unclamped, mid-run. Every deserialization and
    /// snapshot-restore boundary now normalizes through this helper so an
    /// in-memory `SketchConfig` is always in range.
    #[must_use]
    pub fn clamped(self) -> Self {
        SketchConfig {
            spill_threshold: self.spill_threshold,
            precision: self.precision.clamp(MIN_PRECISION, MAX_PRECISION),
        }
    }
}

impl From<(usize, u8)> for SketchConfig {
    fn from((spill_threshold, precision): (usize, u8)) -> Self {
        SketchConfig {
            spill_threshold,
            precision,
        }
    }
}

/// The named field of a JSON object, for the hand-written decoders below.
fn field<'a>(v: &'a Value, name: &str) -> Result<&'a Value, DeError> {
    v.get(name)
        .ok_or_else(|| DeError::msg(format!("missing field `{name}`")))
}

impl Deserialize for SketchConfig {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            // Legacy tuple encoding: [spill_threshold, precision].
            Value::Array(items) if items.len() == 2 => Ok(SketchConfig {
                spill_threshold: usize::from_value(&items[0])?,
                precision: u8::from_value(&items[1])?,
            }
            .clamped()),
            Value::Object(_) => Ok(SketchConfig {
                spill_threshold: usize::from_value(field(v, "spill_threshold")?)?,
                precision: u8::from_value(field(v, "precision")?)?,
            }
            .clamped()),
            other => Err(DeError::expected(
                "SketchConfig object or [spill, precision]",
                other,
            )),
        }
    }
}

/// Mixes a 128-bit value into a well-distributed 64-bit hash.
#[inline]
fn mix128(x: u128) -> u64 {
    // Fold, then two rounds of splitmix64 finalization.
    let mut z = low64(x) ^ high64(x).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// HyperLogLog distinct counter over 128-bit items.
///
/// ```
/// use lumen6_detect::HyperLogLog;
/// let mut h = HyperLogLog::new(12);
/// for i in 0..10_000u128 { h.insert(i); }
/// let est = h.estimate();
/// assert!((est as f64 - 10_000.0).abs() / 10_000.0 < 0.05);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct HyperLogLog {
    precision: u8,
    registers: Vec<u8>,
}

impl HyperLogLog {
    /// Creates a sketch with `2^precision` registers. Precision is clamped
    /// to 4..=16.
    pub fn new(precision: u8) -> Self {
        let p = precision.clamp(MIN_PRECISION, MAX_PRECISION);
        HyperLogLog {
            precision: p,
            registers: vec![0; 1 << p],
        }
    }

    /// Rebuilds a sketch from stored parts — the one way a checkpoint of
    /// either format becomes a sketch. [`insert`](Self::insert) indexes by
    /// the top `precision` hash bits and shifts by `64 - precision`, so the
    /// precision must be in range, with exactly `2^precision` registers, none
    /// above the highest rank `insert` produces (`64 - precision + 1`).
    pub fn from_registers(precision: u8, registers: Vec<u8>) -> Result<Self, String> {
        if !(MIN_PRECISION..=MAX_PRECISION).contains(&precision) {
            return Err(format!("sketch precision {precision} out of range"));
        }
        let (want, max_rank) = (1usize << precision, 64 - precision + 1);
        if registers.len() != want || registers.iter().any(|&r| r > max_rank) {
            let (has, top) = (
                registers.len(),
                registers.iter().max().copied().unwrap_or(0),
            );
            return Err(format!(
                "sketch of precision {precision} needs {want} registers of rank <= {max_rank}, \
                 has {has} reaching rank {top}"
            ));
        }
        Ok(HyperLogLog {
            precision,
            registers,
        })
    }

    /// The precision (log2 of register count).
    pub fn precision(&self) -> u8 {
        self.precision
    }

    /// The register array, `2^precision` ranks.
    pub fn registers(&self) -> &[u8] {
        &self.registers
    }

    /// Inserts an item.
    #[inline]
    pub fn insert(&mut self, item: u128) {
        let h = mix128(item);
        let idx = (h >> (64 - self.precision)) as usize;
        let rest = h << self.precision;
        // Rank: position of the leftmost 1 in the remaining bits, 1-based;
        // all-zero remainder gets the maximum rank.
        let rank = (rest.leading_zeros() as u8).min(64 - self.precision) + 1;
        if self.registers[idx] < rank {
            self.registers[idx] = rank;
        }
    }

    /// Estimated distinct count.
    pub fn estimate(&self) -> u64 {
        let m = self.registers.len() as f64;
        let sum: f64 = self
            .registers
            .iter()
            .map(|&r| 2f64.powi(-(i32::from(r))))
            .sum();
        let alpha = match self.registers.len() {
            16 => 0.673,
            32 => 0.697,
            64 => 0.709,
            n => 0.7213 / (1.0 + 1.079 / n as f64),
        };
        let raw = alpha * m * m / sum;
        // Small-range correction: linear counting while registers are sparse.
        if raw <= 2.5 * m {
            let zeros = self.registers.iter().filter(|&&r| r == 0).count();
            if zeros > 0 {
                return (m * (m / zeros as f64).ln()).round() as u64;
            }
        }
        raw.round() as u64
    }

    /// Merges another sketch of the same precision; error if they differ.
    pub fn merge(&mut self, other: &HyperLogLog) -> Result<(), &'static str> {
        if self.precision != other.precision {
            return Err("cannot merge HyperLogLog sketches of different precision");
        }
        for (a, b) in self.registers.iter_mut().zip(other.registers.iter()) {
            if *b > *a {
                *a = *b;
            }
        }
        Ok(())
    }

    /// Whether no item was ever inserted.
    pub fn is_empty(&self) -> bool {
        self.registers.iter().all(|&r| r == 0)
    }
}

/// Hand-written so a stored sketch passes [`HyperLogLog::from_registers`]: a
/// derived impl takes any `precision`/`registers` pair and panics on insert.
impl Deserialize for HyperLogLog {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        HyperLogLog::from_registers(
            u8::from_value(field(v, "precision")?)?,
            Vec::from_value(field(v, "registers")?)?,
        )
        .map_err(DeError::msg)
    }
}

/// A distinct counter that is exact up to a bound, then switches to a
/// HyperLogLog. This is what the streaming detector uses: almost all
/// candidate sources touch only a handful of destinations (Fig. 1 of the
/// paper), so the exact small-set path dominates and sketches are only built
/// for the heavy hitters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum DistinctCounter {
    /// Exact set, used while small. Hashed with the deterministic
    /// [`FxBuildHasher`](crate::fxhash::FxBuildHasher) — this insert is on
    /// the per-packet hot path, and the serialized form
    /// ([`CounterState`](crate::snapshot::CounterState)) sorts the set, so
    /// iteration order never reaches any output.
    Exact(crate::fxhash::FxHashSet<u128>),
    /// Sketch, after spilling.
    Sketch(HyperLogLog),
}

impl DistinctCounter {
    /// Creates an exact counter.
    pub fn new() -> Self {
        DistinctCounter::Exact(Default::default())
    }

    /// Inserts, spilling to a sketch once the exact set exceeds `spill_at`;
    /// returns whether `item` may be new (a sketch cannot tell, so it may).
    pub fn insert(&mut self, item: u128, spill_at: usize, precision: u8) -> bool {
        match self {
            DistinctCounter::Exact(set) => {
                let new = set.insert(item);
                if set.len() > spill_at {
                    let mut hll = HyperLogLog::new(precision);
                    for &x in set.iter() {
                        hll.insert(x);
                    }
                    *self = DistinctCounter::Sketch(hll);
                }
                new
            }
            DistinctCounter::Sketch(hll) => {
                hll.insert(item);
                true
            }
        }
    }

    /// Distinct count (exact or estimated).
    pub fn count(&self) -> u64 {
        match self {
            DistinctCounter::Exact(set) => set.len() as u64,
            DistinctCounter::Sketch(hll) => hll.estimate(),
        }
    }
}

impl Default for DistinctCounter {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn sketch_config_parses_legacy_tuple_json() {
        let cfg: SketchConfig = serde_json::from_str("[256, 12]").unwrap();
        assert_eq!(
            cfg,
            SketchConfig {
                spill_threshold: 256,
                precision: 12
            }
        );
    }

    #[test]
    fn sketch_config_roundtrips_named_form() {
        let cfg = SketchConfig {
            spill_threshold: 64,
            precision: 10,
        };
        let json = serde_json::to_string(&cfg).unwrap();
        assert!(json.contains("spill_threshold"), "{json}");
        let back: SketchConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, cfg);
    }

    #[test]
    fn sketch_config_rejects_malformed_json() {
        assert!(serde_json::from_str::<SketchConfig>("[256]").is_err());
        assert!(serde_json::from_str::<SketchConfig>("\"nope\"").is_err());
        assert!(serde_json::from_str::<SketchConfig>("{\"spill_threshold\": 4}").is_err());
    }

    #[test]
    fn sketch_config_clamps_out_of_range_precision_on_deserialize() {
        // Named form, precision far above the supported range: the decoded
        // config must already be clamped, not carry 99 until a mid-run
        // sketch merge explodes.
        let high: SketchConfig =
            serde_json::from_str("{\"spill_threshold\": 256, \"precision\": 99}").unwrap();
        assert_eq!(high.precision, MAX_PRECISION);
        let low: SketchConfig =
            serde_json::from_str("{\"spill_threshold\": 256, \"precision\": 0}").unwrap();
        assert_eq!(low.precision, MIN_PRECISION);
        // Legacy tuple form clamps identically.
        let legacy: SketchConfig = serde_json::from_str("[256, 99]").unwrap();
        assert_eq!(legacy.precision, MAX_PRECISION);
        // Round trip: serializing the clamped config and reading it back is
        // a fixed point.
        let json = serde_json::to_string(&high).unwrap();
        let back: SketchConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, high);
    }

    #[test]
    fn clamped_is_identity_in_range() {
        for p in MIN_PRECISION..=MAX_PRECISION {
            let cfg = SketchConfig {
                spill_threshold: 64,
                precision: p,
            };
            assert_eq!(cfg.clamped(), cfg);
        }
    }

    #[test]
    fn detector_config_accepts_both_sketch_encodings() {
        use crate::detector::ScanDetectorConfig;
        let legacy = serde_json::to_string(&ScanDetectorConfig {
            sketch: Some(SketchConfig::spill_at(256)),
            ..Default::default()
        })
        .unwrap()
        .replace("{\"spill_threshold\":256,\"precision\":12}", "[256,12]");
        assert!(legacy.contains("[256,12]"), "{legacy}");
        let parsed: ScanDetectorConfig = serde_json::from_str(&legacy).unwrap();
        assert_eq!(parsed.sketch, Some(SketchConfig::spill_at(256)));
    }

    #[test]
    fn empty_sketch_estimates_zero() {
        let h = HyperLogLog::new(12);
        assert!(h.is_empty());
        assert_eq!(h.estimate(), 0);
    }

    #[test]
    fn small_counts_are_near_exact() {
        let mut h = HyperLogLog::new(12);
        for i in 0..100u128 {
            h.insert(i);
        }
        let est = h.estimate();
        assert!((95..=105).contains(&est), "est={est}");
    }

    #[test]
    fn duplicate_inserts_do_not_inflate() {
        let mut h = HyperLogLog::new(12);
        for _ in 0..50 {
            for i in 0..20u128 {
                h.insert(i);
            }
        }
        let est = h.estimate();
        assert!((18..=22).contains(&est), "est={est}");
    }

    #[test]
    fn error_within_bounds_at_scale() {
        let mut rng = SmallRng::seed_from_u64(1);
        for &n in &[1_000u64, 50_000, 500_000] {
            let mut h = HyperLogLog::new(12);
            for _ in 0..n {
                h.insert(rng.gen::<u128>());
            }
            let est = h.estimate() as f64;
            let err = (est - n as f64).abs() / n as f64;
            assert!(err < 0.05, "n={n} est={est} err={err}");
        }
    }

    #[test]
    fn merge_equals_union() {
        let mut a = HyperLogLog::new(10);
        let mut b = HyperLogLog::new(10);
        let mut u = HyperLogLog::new(10);
        for i in 0..5_000u128 {
            a.insert(i);
            u.insert(i);
        }
        for i in 2_500..7_500u128 {
            b.insert(i);
            u.insert(i);
        }
        a.merge(&b).unwrap();
        assert_eq!(a, u);
    }

    #[test]
    fn merge_rejects_mismatched_precision() {
        let mut a = HyperLogLog::new(10);
        let b = HyperLogLog::new(12);
        assert!(a.merge(&b).is_err());
    }

    #[test]
    fn precision_clamped() {
        assert_eq!(HyperLogLog::new(0).precision(), 4);
        assert_eq!(HyperLogLog::new(40).precision(), 16);
        assert_eq!(HyperLogLog::new(12).registers().len(), 4096);
    }

    #[test]
    fn distinct_counter_spills_and_stays_accurate() {
        let mut c = DistinctCounter::new();
        for i in 0..10_000u128 {
            c.insert(i, 256, 12);
        }
        assert!(matches!(c, DistinctCounter::Sketch(_)));
        let est = c.count() as f64;
        assert!((est - 10_000.0).abs() / 10_000.0 < 0.05, "est={est}");
    }

    #[test]
    fn distinct_counter_exact_below_spill() {
        let mut c = DistinctCounter::new();
        for i in 0..100u128 {
            c.insert(i, 256, 12);
            c.insert(i, 256, 12);
        }
        assert!(matches!(c, DistinctCounter::Exact(_)));
        assert_eq!(c.count(), 100);
    }
}
