//! [`TimedSource`]: a [`Source`] wrapper that records one span per pull, so
//! generation or decode time is attributed from the caller's side of
//! `Source::poll_fill` without touching the source (the `scanners` crate
//! stays clock-free). Everything but the pull is forwarded unchanged, so a
//! traced session still checkpoints and resumes exactly like an untraced one.

use crate::span::Trace;
use lumen6_trace::{CodecError, FillOutcome, RecordBatch, Source, TracePosition};

/// Wraps any boxed source; see the module docs.
pub struct TimedSource {
    inner: Box<dyn Source>,
    trace: Trace,
    pull: &'static str,
    calls: u64,
    records: u64,
}

impl TimedSource {
    /// Times every pull of `inner` into `trace`, as spans called `pull`
    /// (`fill` for a generator, `decode` for a file).
    pub fn new(inner: Box<dyn Source>, trace: Trace, pull: &'static str) -> TimedSource {
        TimedSource {
            inner,
            trace,
            pull,
            calls: 0,
            records: 0,
        }
    }

    /// Pulls made so far (including the one that reported end of stream).
    pub fn calls(&self) -> u64 {
        self.calls
    }

    /// Records delivered so far.
    pub fn records(&self) -> u64 {
        self.records
    }
}

impl Source for TimedSource {
    fn fill(&mut self, out: &mut RecordBatch, max: usize) -> Result<usize, CodecError> {
        let _span = self.trace.span(self.pull);
        self.calls += 1;
        let n = self.inner.fill(out, max)?;
        self.records += n as u64;
        Ok(n)
    }

    fn poll_fill(&mut self, out: &mut RecordBatch, max: usize) -> Result<FillOutcome, CodecError> {
        let _span = self.trace.span(self.pull);
        self.calls += 1;
        let outcome = self.inner.poll_fill(out, max)?;
        if let FillOutcome::Filled(n) = outcome {
            self.records += n as u64;
        }
        Ok(outcome)
    }

    fn position(&self) -> TracePosition {
        self.inner.position()
    }

    fn resume(&mut self, at: TracePosition) -> Result<(), CodecError> {
        self.inner.resume(at)
    }

    fn skipped(&self) -> u64 {
        self.inner.skipped()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lumen6_trace::{MaterializedSource, PacketRecord};

    fn records(n: u64) -> Vec<PacketRecord> {
        (0..n)
            .map(|i| PacketRecord::tcp(i * 10, 1, 2 + u128::from(i), 1000, 22, 60))
            .collect()
    }

    /// A source with a non-zero `skipped`, to show it is forwarded.
    struct Skippy(MaterializedSource);

    impl Source for Skippy {
        fn fill(&mut self, out: &mut RecordBatch, max: usize) -> Result<usize, CodecError> {
            self.0.fill(out, max)
        }
        fn position(&self) -> TracePosition {
            self.0.position()
        }
        fn resume(&mut self, at: TracePosition) -> Result<(), CodecError> {
            self.0.resume(at)
        }
        fn skipped(&self) -> u64 {
            7
        }
    }

    #[test]
    fn forwards_position_resume_and_skipped_unchanged() {
        let mut plain = MaterializedSource::new(records(10));
        let trace = Trace::new();
        let mut timed = TimedSource::new(
            Box::new(Skippy(MaterializedSource::new(records(10)))),
            trace.clone(),
            "fill",
        );
        let (mut a, mut b) = (RecordBatch::new(), RecordBatch::new());

        assert_eq!(plain.fill(&mut a, 4).unwrap(), 4);
        assert_eq!(timed.poll_fill(&mut b, 4).unwrap(), FillOutcome::Filled(4));
        assert_eq!(timed.position(), plain.position());
        assert_eq!(timed.skipped(), 7);

        // Resume both at the same earlier position: the streams continue
        // identically, which is what lets a traced run checkpoint/resume.
        let at = TracePosition {
            offset: 2,
            prev_ts: 10,
        };
        plain.resume(at).unwrap();
        timed.resume(at).unwrap();
        assert_eq!(plain.fill(&mut a, 100).unwrap(), 8);
        assert_eq!(timed.fill(&mut b, 100).unwrap(), 8);
        assert_eq!(a.get(0), b.get(0));
        assert_eq!(timed.position(), plain.position());
        assert_eq!(timed.poll_fill(&mut b, 100).unwrap(), FillOutcome::Eof);

        assert_eq!(timed.calls(), 3);
        assert_eq!(timed.records(), 12);
        let spans = trace.spans();
        assert_eq!(spans.len(), 3);
        assert!(spans.iter().all(|s| s.name == "fill" && s.parent.is_none()));
    }
}
