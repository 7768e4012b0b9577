//! MAWI-style transit-link vantage simulator (paper §4, Appendix A.2).
//!
//! The MAWI archive publishes 15-minute daily captures from a transit link
//! of the WIDE network. Unlike the CDN firewall, this vantage
//!
//! - sees ICMPv6 (the CDN's dataset excludes it),
//! - sees traffic on TCP/80 and TCP/443,
//! - carries *real* bidirectional traffic next to the scan probes, and
//! - offers only a 15-minute window per day.
//!
//! [`MawiWorld`] assembles the scanners visible at this vantage:
//!
//! - the paper's **AS#1** heavy scanner (the same source entity as in the
//!   CDN fleet — the cross-vantage confirmation of §4), sweeping downstream
//!   prefixes with structured low-Hamming-weight IIDs; on **2021-05-27** it
//!   probes the public IPv6 hitlist instead (99.2% overlap, far fewer
//!   uniques) and switches from hundreds of ports to six;
//! - the **July 6** ICMPv6 event: 7 sources within one /124 of the AS#3
//!   cybersecurity company;
//! - the **December 24** peak: a single /128 from a US cloud provider
//!   sending ICMPv6 echo requests to a distinct /64 per packet with
//!   uniformly random IIDs (Gaussian Hamming weights);
//! - a recurring population of ICMPv6 and TCP scanners (ICMPv6 scans occur
//!   on most days and often dominate the daily source count);
//! - background cross-traffic with variable packet lengths and repeated
//!   per-destination packets, which the Fukuda–Heidemann entropy and
//!   packets-per-destination criteria must reject.
//!
//! All traffic is generated *within* the daily capture window — the
//! simulator models what the vantage records, not what the sources do
//! around the clock.
//!
//! The trace is never collected to be written or read: [`MawiWorld::source`]
//! streams it from the engine that generates the CDN trace
//! (`lumen6_scanners::FleetSource` over the world's [`MawiWorld::vantage`]:
//! the actors, then background traffic, then the small scanners), and
//! [`each_window`] hands a time-sorted stream over a closed capture window
//! at a time.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod background;
pub mod world;

pub use world::{MawiConfig, MawiWorld};

use lumen6_detect::day::DayBuffer;
use lumen6_trace::{CodecError, RecordBatch, Source, DAY_MS, MINUTE_MS};

/// Capture window start offset within a day (14:00 local-equivalent).
pub const WINDOW_START_MS: u64 = 14 * 60 * MINUTE_MS;
/// Capture window length: 15 minutes.
pub const WINDOW_LEN_MS: u64 = 15 * MINUTE_MS;

/// The half-open capture window `[start, end)` of a day.
pub fn capture_window(day: u64) -> (u64, u64) {
    let start = day * DAY_MS + WINDOW_START_MS;
    (start, start + WINDOW_LEN_MS)
}

/// Drains `source`, a time-sorted trace, and hands each day's capture
/// window to `window` as counted rows, in day order, once a later record
/// closes it (the last one when the source ends). Records outside every
/// window are dropped, and so is the open day when a decode error ends the
/// drain with that error.
pub fn each_window(
    source: &mut dyn Source,
    mut window: impl FnMut(u64, &RecordBatch),
) -> Result<(), CodecError> {
    let (mut batch, mut days) = (RecordBatch::new(), DayBuffer::default());
    while source.fill(&mut batch, lumen6_detect::DEFAULT_SESSION_BATCH)? > 0 {
        for i in 0..batch.rows() {
            let r = batch.get(i);
            let (start, end) = capture_window(r.ts_ms / DAY_MS);
            if (start..end).contains(&r.ts_ms) {
                days.push(r, batch.count(i), &mut window);
            }
        }
    }
    days.finish(&mut window);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_are_15_minutes() {
        let (s, e) = capture_window(3);
        assert_eq!(e - s, 15 * MINUTE_MS);
        assert_eq!(s % DAY_MS, WINDOW_START_MS);
    }
}
