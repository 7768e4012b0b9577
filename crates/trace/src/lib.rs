//! Packet-record model, binary trace codec, and simulation time utilities.
//!
//! Everything downstream of the traffic generators — the detection pipeline,
//! the analysis modules, the CLI — consumes a stream of [`PacketRecord`]s:
//! the (timestamp, source, destination, transport, ports, length) tuple that
//! a firewall log line or a packet-header capture reduces to. This crate
//! defines that record, a compact binary on-disk format for it
//! ([`codec`]), and the simulation clock ([`time`]): milliseconds since
//! 2021-01-01T00:00:00Z, the start of the paper's measurement window, with a
//! from-scratch proleptic-Gregorian calendar for labeling days and weeks.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod codec;
pub mod day;
pub mod pcap;
pub mod publish;
pub mod record;
pub mod source;
pub mod time;

pub use batch::RecordBatch;
pub use codec::{CodecError, StreamingTraceReader, TracePosition, TraceWriter};
pub use day::{DayRows, DayStepper};
pub use publish::write_atomic;
pub use record::{PacketRecord, Transport};
pub use source::{FileStreamSource, FillOutcome, MaterializedSource, Source, TailSource};
pub use time::{SimTime, DAY_MS, HOUR_MS, MINUTE_MS, WEEK_MS};

/// Sorts records by timestamp (stable), the canonical trace order.
pub fn sort_by_time(records: &mut [PacketRecord]) {
    records.sort_by_key(|r| r.ts_ms);
}

/// Sorts the items of simulation day `day` by their timestamp `ts_ms`
/// (stable): the [`sort_by_time`] order, by an LSD radix sort on the
/// millisecond of the day. Each item becomes one word, its millisecond (27
/// bits) above its index, so three 9-bit passes move words, not items, and
/// one gather moves each item once. An item outside the day falls back to
/// a stable comparison sort: a violated precondition costs speed, never
/// order.
pub fn sort_day_by_time<T: Copy>(items: &mut [T], day: u64, ts_ms: impl Fn(&T) -> u64) {
    const INDEX_BITS: u32 = 64 - 27;
    let t0 = day.checked_mul(DAY_MS);
    let word = |(i, item): (usize, &T)| {
        let ms = ts_ms(item).checked_sub(t0?).filter(|&ms| ms < DAY_MS)?;
        ((i as u64) >> INDEX_BITS == 0).then_some((ms << INDEX_BITS) | i as u64)
    };
    let words: Option<Vec<u64>> = items.iter().enumerate().map(word).collect();
    let Some(mut words) = words else {
        return items.sort_by_key(ts_ms);
    };
    let mut scratch = vec![0; words.len()];
    for shift in [INDEX_BITS, INDEX_BITS + 9, INDEX_BITS + 18] {
        let mut starts = [0usize; 512];
        for w in &words {
            starts[(w >> shift) as usize % 512] += 1;
        }
        let mut next = 0;
        for s in &mut starts {
            (*s, next) = (next, next + *s);
        }
        for &w in &words {
            let at = &mut starts[(w >> shift) as usize % 512];
            scratch[*at] = w;
            *at += 1;
        }
        std::mem::swap(&mut words, &mut scratch);
    }
    let unsorted = items.to_vec();
    for (item, w) in items.iter_mut().zip(&words) {
        *item = unsorted[(w % (1 << INDEX_BITS)) as usize];
    }
}

/// Scales `base` by `factor` — how `--intensity` scales a volume: the
/// fleet's packets per session and repeat streams, and the A.1 filter's
/// duplicate threshold — with *exact* integer arithmetic: the result is
/// `round(base × factor)` where `factor` is taken at its exact rational
/// value as an IEEE-754 double (mantissa × 2^exponent), the product is
/// formed in 128 bits, and rounding is explicit (half away from zero).
///
/// Exact for every `base` at intensity 1.0 (the identity; going through
/// `base as f64` would drop low bits above 2^53), with no floor at one
/// packet (a session that scales below half a packet emits none), monotone
/// in both arguments, and saturating at `u64::MAX` instead of wrapping.
/// Non-finite or non-positive factors scale to 0.
#[inline]
pub fn scale_intensity(base: u64, factor: f64) -> u64 {
    if base == 0 || !factor.is_finite() || factor <= 0.0 {
        return 0;
    }
    // Decompose the (positive, finite) double: value = mantissa × 2^exp.
    let bits = factor.to_bits();
    let raw_exp = ((bits >> 52) & 0x7ff) as i64;
    let frac = bits & ((1u64 << 52) - 1);
    let (mantissa, exp) = if raw_exp == 0 {
        (frac, -1074i64) // subnormal
    } else {
        (frac | (1u64 << 52), raw_exp - 1075)
    };
    let prod = u128::from(base) * u128::from(mantissa); // ≤ 2^117, exact
    if exp >= 0 {
        // Integral scale factor: shift up, saturating.
        if exp >= 128 || prod.leading_zeros() < exp as u32 {
            return u64::MAX;
        }
        u64::try_from(prod << exp).unwrap_or(u64::MAX)
    } else {
        let shift = -exp as u32;
        if shift >= 128 {
            return 0;
        }
        // Round half away from zero: add 2^(shift-1) before truncating.
        let half = 1u128 << (shift - 1);
        u64::try_from(prod.saturating_add(half) >> shift).unwrap_or(u64::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(ts: u64) -> PacketRecord {
        PacketRecord::tcp(ts, 1, 2, 1000, 22, 60)
    }

    #[test]
    fn sort_by_time_orders() {
        let mut v = vec![rec(5), rec(1), rec(3)];
        sort_by_time(&mut v);
        assert_eq!(v.iter().map(|r| r.ts_ms).collect::<Vec<_>>(), vec![1, 3, 5]);
    }
}
