//! Simulation time: milliseconds since 2021-01-01T00:00:00Z, plus a
//! from-scratch proleptic-Gregorian calendar for day/week/month labels.
//!
//! The paper's measurement window is 2021-01-01 through 2022-03-15 (≈ 439
//! days). Weekly series (Figs. 2, 3) bucket by 7-day windows from the epoch;
//! daily series (MAWI, Figs. 5, 6) bucket by day. No wall-clock access —
//! every timestamp is synthetic and deterministic.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Milliseconds per second.
pub const SECOND_MS: u64 = 1_000;
/// Milliseconds per minute.
pub const MINUTE_MS: u64 = 60 * SECOND_MS;
/// Milliseconds per hour.
pub const HOUR_MS: u64 = 60 * MINUTE_MS;
/// Milliseconds per day.
pub const DAY_MS: u64 = 24 * HOUR_MS;
/// Milliseconds per 7-day week.
pub const WEEK_MS: u64 = 7 * DAY_MS;

/// Days from 0000-03-01 (the algorithm's internal era origin) to 2021-01-01.
const EPOCH_DAYS_FROM_CE: i64 = days_from_civil(2021, 1, 1);

/// A timestamp in the simulation: milliseconds since 2021-01-01T00:00:00Z.
///
/// A thin newtype over `u64`; the packet record stores the raw `u64` for
/// compactness and this type is used where calendar arithmetic is needed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct SimTime(pub u64);

impl SimTime {
    /// Builds a timestamp from a civil date (and optional time of day).
    ///
    /// Panics if the date precedes the epoch (2021-01-01).
    pub fn from_date(year: i32, month: u32, day: u32) -> SimTime {
        let d = days_from_civil(year, month, day) - EPOCH_DAYS_FROM_CE;
        assert!(
            d >= 0,
            "date {year}-{month:02}-{day:02} precedes simulation epoch"
        );
        SimTime(d as u64 * DAY_MS)
    }

    /// Raw milliseconds since the epoch.
    #[inline]
    pub fn ms(self) -> u64 {
        self.0
    }

    /// Day index since the epoch (day 0 = 2021-01-01).
    #[inline]
    pub fn day_index(self) -> u64 {
        self.0 / DAY_MS
    }

    /// The civil (year, month, day) of this timestamp.
    pub fn civil(self) -> (i32, u32, u32) {
        civil_from_days(EPOCH_DAYS_FROM_CE + (self.0 / DAY_MS) as i64)
    }

    /// ISO-style date label, e.g. `2021-11-03`.
    pub fn date_label(self) -> String {
        let (y, m, d) = self.civil();
        format!("{y}-{m:02}-{d:02}")
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let secs = (self.0 % DAY_MS) / SECOND_MS;
        write!(
            f,
            "{}T{:02}:{:02}:{:02}Z",
            self.date_label(),
            secs / 3600,
            (secs % 3600) / 60,
            secs % 60
        )
    }
}

/// The half-open millisecond range `[start, end)` of a calendar month.
pub fn month_range(year: i32, month: u32) -> (u64, u64) {
    let start = SimTime::from_date(year, month, 1).ms();
    let (ny, nm) = if month == 12 {
        (year + 1, 1)
    } else {
        (year, month + 1)
    };
    let end = SimTime::from_date(ny, nm, 1).ms();
    (start, end)
}

/// Days from the civil era origin to `year-month-day`, proleptic Gregorian.
///
/// Howard Hinnant's `days_from_civil` algorithm; exact for all i32 years.
pub const fn days_from_civil(y: i32, m: u32, d: u32) -> i64 {
    let y = if m <= 2 { y - 1 } else { y } as i64;
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = y - era * 400; // [0, 399]
    let mp = ((m as i64) + 9) % 12; // [0, 11], Mar=0
    let doy = (153 * mp + 2) / 5 + (d as i64) - 1; // [0, 365]
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy; // [0, 146096]
    era * 146097 + doe - 719468
}

/// Inverse of [`days_from_civil`].
pub const fn civil_from_days(z: i64) -> (i32, u32, u32) {
    let z = z + 719468;
    let era = if z >= 0 { z } else { z - 146096 } / 146097;
    let doe = z - era * 146097; // [0, 146096]
    let yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365; // [0, 399]
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
    let mp = (5 * doy + 2) / 153; // [0, 11]
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32; // [1, 31]
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32; // [1, 12]
    let y = if m <= 2 { y + 1 } else { y };
    (y as i32, m, d)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_is_day_zero() {
        let t = SimTime::from_date(2021, 1, 1);
        assert_eq!(t.ms(), 0);
        assert_eq!(t.day_index(), 0);
        assert_eq!(t.date_label(), "2021-01-01");
    }

    #[test]
    fn known_dates() {
        assert_eq!(SimTime::from_date(2021, 1, 2).day_index(), 1);
        assert_eq!(SimTime::from_date(2021, 2, 1).day_index(), 31);
        assert_eq!(SimTime::from_date(2021, 12, 31).day_index(), 364);
        assert_eq!(SimTime::from_date(2022, 1, 1).day_index(), 365);
        // The paper's window end: 2022-03-15 is day 438 (439 days total).
        assert_eq!(SimTime::from_date(2022, 3, 15).day_index(), 438);
        // July 6 and Dec 24 2021, the MAWI ICMPv6 peaks.
        assert_eq!(SimTime::from_date(2021, 7, 6).date_label(), "2021-07-06");
        assert_eq!(SimTime::from_date(2021, 12, 24).date_label(), "2021-12-24");
    }

    #[test]
    fn civil_roundtrip_across_window() {
        for day in 0..500u64 {
            let t = SimTime(day * DAY_MS);
            let (y, m, d) = t.civil();
            assert_eq!(SimTime::from_date(y, m, d).day_index(), day);
        }
    }

    #[test]
    fn civil_handles_leap_year_2024() {
        let t = SimTime::from_date(2024, 2, 29);
        assert_eq!(t.civil(), (2024, 2, 29));
        assert_eq!(
            SimTime::from_date(2024, 3, 1).day_index(),
            t.day_index() + 1
        );
    }

    #[test]
    #[should_panic(expected = "precedes simulation epoch")]
    fn pre_epoch_dates_panic() {
        SimTime::from_date(2020, 12, 31);
    }

    #[test]
    fn month_range_november_2021() {
        let (s, e) = month_range(2021, 11);
        assert_eq!(SimTime(s).date_label(), "2021-11-01");
        assert_eq!(SimTime(e).date_label(), "2021-12-01");
        assert_eq!((e - s) / DAY_MS, 30);
    }

    #[test]
    fn month_range_december_wraps_year() {
        let (s, e) = month_range(2021, 12);
        assert_eq!((e - s) / DAY_MS, 31);
        assert_eq!(SimTime(e).date_label(), "2022-01-01");
    }

    #[test]
    fn display_shows_time_of_day() {
        let day = SimTime::from_date(2021, 7, 6);
        let t = SimTime(day.ms() + 13 * HOUR_MS + 30 * MINUTE_MS + 15 * SECOND_MS);
        assert_eq!(t.to_string(), "2021-07-06T13:30:15Z");
        assert_eq!(t.day_index(), day.day_index());
    }
}
