//! One UTC day at a time: the stage the paper's per-day rules run on.
//!
//! The A.1 artifact filter decides each /64 source per day, and a MAWI
//! capture is one 15-minute window per day, so both read a time-sorted
//! stream a closed day at a time. [`DayBuffer`] holds the current day's
//! counted rows and hands the day over once a later row closes it; a day of
//! the CDN fleet is 12–16 k rows at any intensity, because a row carries its
//! copies. [`Prefiltered`] is the A.1 filter as a [`Source`]: it wraps any
//! source, filters each closed day and releases the kept rows, so `detect
//! --prefilter` runs through the same session as every other detection.
//!
//! # Not yet resumable
//!
//! A checkpoint records one position in the wrapped source. The rows a
//! [`DayBuffer`] holds were pulled from the source but not yet released, so
//! no position after them describes the stream the session saw; a resumable
//! day stage needs the position of the open day's first row, which no
//! source reports today. Until it does, [`Prefiltered::resume`] refuses
//! with an error instead of seeking to a wrong place, and the CLI refuses
//! `--prefilter` beside `--checkpoint`, `--watermark-secs` and `--tail`.

use crate::prefilter::{ArtifactFilter, FilterReport, FilterTally};
use lumen6_trace::{CodecError, PacketRecord, RecordBatch, Source, TracePosition, DAY_MS};

/// The rows of the current UTC day of a time-sorted stream, handed over
/// when the day closes. A "day" is a maximal run of rows whose timestamps
/// share `ts_ms / DAY_MS`.
#[derive(Debug, Default)]
pub struct DayBuffer {
    day: Option<u64>,
    rows: RecordBatch,
}

impl DayBuffer {
    /// Appends a row of `copies` records; if `r` closes the open day, that
    /// day goes to `closed` first, with its day number.
    pub fn push(&mut self, r: PacketRecord, copies: u32, closed: impl FnOnce(u64, &RecordBatch)) {
        let day = r.ts_ms / DAY_MS;
        if self.day != Some(day) {
            self.finish(closed);
            self.day = Some(day);
        }
        self.rows.push_n(r, copies as usize);
    }

    /// Hands over the open day, if any (the stream ended).
    pub fn finish(&mut self, closed: impl FnOnce(u64, &RecordBatch)) {
        if let Some(day) = self.day.take() {
            closed(day, &self.rows);
            self.rows.clear();
        }
    }
}

/// Records pulled from the wrapped source per fill.
const PULL: usize = 4096;

/// A [`Source`] over `inner` with the A.1 artifact filter applied a closed
/// day at a time (see the [module docs](self) for why it cannot resume).
pub struct Prefiltered {
    inner: Box<dyn Source>,
    filter: ArtifactFilter,
    tally: FilterTally,
    days: DayBuffer,
    /// What `inner` filled last.
    incoming: RecordBatch,
    /// Kept rows of the days closed so far, not yet delivered.
    ready: RecordBatch,
    /// The next row of `ready` to deliver, and its copies delivered.
    next: usize,
    taken: u32,
    ended: bool,
}

impl Prefiltered {
    /// Filters `inner` with `filter`.
    pub fn new(inner: Box<dyn Source>, filter: ArtifactFilter) -> Self {
        Prefiltered {
            inner,
            filter,
            tally: FilterTally::default(),
            days: DayBuffer::default(),
            incoming: RecordBatch::new(),
            ready: RecordBatch::new(),
            next: 0,
            taken: 0,
            ended: false,
        }
    }

    /// What the filter removed from the days closed so far — the whole
    /// stream once a fill returned 0.
    pub fn report(&self) -> FilterReport {
        self.tally.report()
    }

    /// Pulls `inner` until a day closes with rows to keep, or the stream
    /// ends; `false` when nothing is left.
    fn release(&mut self) -> Result<bool, CodecError> {
        self.ready.clear();
        (self.next, self.taken) = (0, 0);
        while self.ready.rows() == 0 && !self.ended {
            let Prefiltered {
                inner,
                filter,
                tally,
                days,
                incoming,
                ready,
                ended,
                ..
            } = self;
            let mut closed = |_, day: &RecordBatch| filter.filter_day(day, ready, tally);
            if inner.fill(incoming, PULL)? == 0 {
                days.finish(&mut closed);
                *ended = true;
            }
            for i in 0..incoming.rows() {
                days.push(incoming.get(i), incoming.count(i), &mut closed);
            }
        }
        Ok(self.ready.rows() > 0)
    }
}

impl Source for Prefiltered {
    fn fill(&mut self, out: &mut RecordBatch, max: usize) -> Result<usize, CodecError> {
        out.clear();
        while out.len() < max {
            if self.next == self.ready.rows() && !self.release()? {
                break;
            }
            let copies = self.ready.count(self.next) - self.taken;
            let n = copies.min(u32::try_from(max - out.len()).unwrap_or(u32::MAX));
            out.push_n(self.ready.get(self.next), n as usize);
            self.taken += n;
            if self.taken == self.ready.count(self.next) {
                self.next += 1;
                self.taken = 0;
            }
        }
        Ok(out.len())
    }

    /// The wrapped source's position, which is past the rows buffered
    /// here: a checkpoint taken at it cannot resume (see [`Self::resume`]).
    fn position(&self) -> TracePosition {
        self.inner.position()
    }

    /// Always an error: the open day's first row has no position yet (see
    /// the [module docs](self)).
    fn resume(&mut self, _at: TracePosition) -> Result<(), CodecError> {
        Err(CodecError::Io(std::io::Error::new(
            std::io::ErrorKind::Unsupported,
            "a prefiltered stream cannot resume: its day buffer has no checkpoint position",
        )))
    }

    fn skipped(&self) -> u64 {
        self.inner.skipped()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lumen6_trace::MaterializedSource;

    /// Three days: an SMTP artifact source on day 0 and day 2 (removed), a
    /// scan-like source throughout (kept), at 1x.
    fn days_of_traffic() -> Vec<PacketRecord> {
        let mut recs = Vec::new();
        for day in 0..3u64 {
            let t0 = day * DAY_MS;
            for i in 0..40u64 {
                recs.push(PacketRecord::tcp(
                    t0 + i * 1_000,
                    1 << 64,
                    0xd000 + u128::from(i),
                    1,
                    22,
                    60,
                ));
                if day != 1 {
                    recs.push(PacketRecord::tcp(
                        t0 + i * 1_000 + 1,
                        2 << 64,
                        0xbeef,
                        2525,
                        25,
                        80,
                    ));
                }
            }
        }
        recs
    }

    fn drain(src: &mut dyn Source, max: usize) -> Vec<PacketRecord> {
        let (mut out, mut batch) = (Vec::new(), RecordBatch::new());
        while src.fill(&mut batch, max).unwrap() > 0 {
            assert!(batch.len() <= max, "{} records past max {max}", batch.len());
            out.extend(batch.iter());
        }
        out
    }

    #[test]
    fn day_buffer_hands_over_each_day_once_with_its_copies() {
        let mut days = DayBuffer::default();
        let mut seen = Vec::new();
        let mut closed = |day, rows: &RecordBatch| seen.push((day, rows.len(), rows.rows()));
        for (ts, copies) in [(5, 1), (6, 3), (DAY_MS, 2), (3 * DAY_MS + 1, 1)] {
            days.push(PacketRecord::tcp(ts, 1, 2, 3, 22, 60), copies, &mut closed);
        }
        days.finish(&mut closed);
        days.finish(|_, _| panic!("a finished buffer holds no day"));
        assert_eq!(seen, vec![(0, 4, 2), (1, 2, 1), (3, 1, 1)]);
    }

    /// The streamed filter keeps what the resident one keeps, in order, and
    /// reports the same removals — at every fill size, at 1x and with the
    /// copies of a 10x stream riding as counted rows.
    #[test]
    fn prefiltered_equals_the_resident_filter_at_any_fill_size() {
        let trace = days_of_traffic();
        let (kept, report) = ArtifactFilter::default().filter(&trace);
        assert!(report.removed_packets > 0 && !kept.is_empty());
        for max in [1, 7, 4096] {
            let inner = Box::new(MaterializedSource::new(trace.clone()));
            let mut src = Prefiltered::new(inner, ArtifactFilter::default());
            assert_eq!(drain(&mut src, max), kept, "max {max}");
            assert_eq!(format!("{:?}", src.report()), format!("{report:?}"));
        }

        // A version 2 file stores each probe's ten copies as one row.
        let path = std::env::temp_dir().join(format!("lumen6-day-{}.l6tr", std::process::id()));
        let file = std::fs::File::create(&path).unwrap();
        let mut writer = lumen6_trace::TraceWriter::new(file).unwrap();
        trace.iter().for_each(|r| writer.append_n(r, 10).unwrap());
        writer.finish().unwrap();
        let expect: Vec<PacketRecord> = kept.iter().flat_map(|&r| [r; 10]).collect();
        for max in [7, 4096] {
            let inner = Box::new(lumen6_trace::FileStreamSource::open(&path).unwrap());
            let mut src = Prefiltered::new(inner, ArtifactFilter::at_intensity(10.0));
            assert_eq!(drain(&mut src, max), expect, "max {max}");
            let at10 = src.report();
            assert_eq!(at10.removed_packets, 10 * report.removed_packets);
            assert_eq!(at10.removed_source_days, report.removed_source_days);
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_prefiltered_stream_refuses_to_resume() {
        let inner = Box::new(MaterializedSource::new(days_of_traffic()));
        let mut src = Prefiltered::new(inner, ArtifactFilter::default());
        let at = src.position();
        let err = src.resume(at).unwrap_err();
        assert!(err.to_string().contains("cannot resume"), "{err}");
    }
}
