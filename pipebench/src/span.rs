//! In-memory span recorder for the traced passes.
//!
//! A span is `{id, parent, name, start_ns, end_ns}`; the parent is the span
//! that was open on the recording side when this one started, so one traced
//! pass is one tree. Spans are recorded from the benchmark's side of the
//! public API only (around the calls into each layer), kept in memory, and
//! written out once when the run ends. A span's *self time* is its duration
//! minus the part of that interval its direct children cover.

use serde::Serialize;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Span {
    /// Index of this span in recording order.
    pub id: usize,
    /// The span that was open when this one started; `None` for a root.
    pub parent: Option<usize>,
    /// Layer-boundary name (`fill`, `step`, `observe`, …).
    pub name: &'static str,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
}

impl Span {
    /// Wall duration of the span.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Shared handle on a recorder. `TimedSource` needs one while the loop that
/// drives it holds another, and `Source: Send`, hence `Arc<Mutex<_>>`; the
/// lock is uncontended (one recording thread) and taken twice per span.
#[derive(Clone)]
pub struct Trace(Arc<Mutex<Recorder>>);

/// Closes its span when dropped.
pub struct SpanGuard {
    trace: Trace,
    id: usize,
}

impl Default for Trace {
    fn default() -> Self {
        Trace::new()
    }
}

impl Trace {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Trace {
        Trace(Arc::new(Mutex::new(Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        })))
    }

    fn lock(&self) -> MutexGuard<'_, Recorder> {
        // Spans are plain data: a panic elsewhere leaves them valid.
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Opens a span under the currently open one; it ends when the guard
    /// drops. Guards must drop in reverse order of creation.
    pub fn span(&self, name: &'static str) -> SpanGuard {
        let mut rec = self.lock();
        let id = rec.spans.len();
        let parent = rec.open.last().copied();
        let start_ns = elapsed_ns(rec.epoch);
        rec.spans.push(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns: start_ns,
        });
        rec.open.push(id);
        SpanGuard {
            trace: self.clone(),
            id,
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let _guard = self.span(name);
        f()
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.lock().spans.clone()
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let mut rec = self.trace.lock();
        let now = elapsed_ns(rec.epoch);
        rec.spans[self.id].end_ns = now;
        // Out-of-order drops would corrupt parent links of later spans;
        // popping down to this id keeps the stack consistent regardless.
        while let Some(top) = rec.open.pop() {
            if top == self.id {
                break;
            }
        }
    }
}

fn elapsed_ns(epoch: Instant) -> u64 {
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Self time of every span, indexed like `spans`: duration minus the union
/// of its direct children's intervals, each clipped to the parent. Children
/// that touch or overlap are counted once; a child covering its parent
/// leaves zero.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let start = s.start_ns.max(parent.start_ns);
            let end = s.end_ns.min(parent.end_ns);
            if end > start {
                children[p].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                let from = start.max(reach);
                if end > from {
                    covered += end - from;
                    reach = end;
                }
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Seconds from nanoseconds.
pub fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// Totals over the spans of one name.
pub struct NameTotals {
    /// Number of spans.
    pub count: u64,
    /// Σ duration.
    pub total_ns: u64,
    /// Σ self time.
    pub self_ns: u64,
}

/// Count, Σ duration and Σ self time of the spans called `name`.
pub fn totals(spans: &[Span], self_ns: &[u64], name: &str) -> NameTotals {
    let mut t = NameTotals {
        count: 0,
        total_ns: 0,
        self_ns: 0,
    };
    for s in spans.iter().filter(|s| s.name == name) {
        t.count += 1;
        t.total_ns += s.duration_ns();
        t.self_ns += self_ns[s.id];
    }
    t
}

/// Σ duration of the direct children of roots ÷ Σ duration of the roots:
/// how much of the traced wall the top-level spans account for.
pub fn coverage(spans: &[Span]) -> f64 {
    let is_root = |id: usize| spans[id].parent.is_none();
    let wall: u64 = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(Span::duration_ns)
        .sum();
    let top: u64 = spans
        .iter()
        .filter(|s| s.parent.is_some_and(is_root))
        .map(Span::duration_ns)
        .sum();
    if wall == 0 {
        0.0
    } else {
        top as f64 / wall as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "s",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn nested_children_subtract_only_from_their_direct_parent() {
        // root 0..100 > a 10..60 > b 20..30
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 60),
            span(2, Some(1), 20, 30),
        ];
        assert_eq!(self_times_ns(&spans), vec![50, 40, 10]);
    }

    #[test]
    fn back_to_back_children_are_each_counted_once() {
        // Children touching at 40 and one overlapping pair (60..80, 70..90).
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 40),
            span(2, Some(0), 40, 50),
            span(3, Some(0), 60, 80),
            span(4, Some(0), 70, 90),
        ];
        // Covered: 10..50 (40) + 60..90 (30) = 70.
        assert_eq!(self_times_ns(&spans)[0], 30);
    }

    #[test]
    fn child_covering_its_parent_leaves_zero_self_time() {
        // Clock jitter can make a child appear to start before / end after
        // its parent: clip, never underflow.
        let spans = vec![span(0, None, 10, 20), span(1, Some(0), 5, 25)];
        assert_eq!(self_times_ns(&spans), vec![0, 20]);
    }

    #[test]
    fn recorder_links_parents_by_open_stack() {
        let trace = Trace::new();
        {
            let _root = trace.span("root");
            trace.time("a", || trace.time("b", || ()));
            trace.time("c", || ());
        }
        let spans = trace.spans();
        let parents: Vec<Option<usize>> = spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), Some(1), Some(0)]);
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        let selfs = self_times_ns(&spans);
        let t = totals(&spans, &selfs, "a");
        assert_eq!(t.count, 1);
        assert!(t.self_ns <= t.total_ns);
    }

    #[test]
    fn coverage_is_top_level_over_root_wall() {
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 0, 50),
            span(2, Some(0), 50, 95),
            span(3, Some(1), 0, 50),
        ];
        assert!((coverage(&spans) - 0.95).abs() < 1e-12);
    }
}
