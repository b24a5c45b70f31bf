//! Spans around the benchmark's own calls into each layer.
//!
//! A traced run keeps one [`Span`] per call in memory — name, start, end,
//! the span that caused it, and the rep it belongs to — and writes them
//! out when the run ends. The recorder lives in the benchmark, not in the
//! program: spans inside the program are a later change. When the recorder
//! is off, `enter`/`exit` are one branch each, so the untraced run that
//! yields the end-to-end metrics executes the same code.

use crate::json::Value;
use crate::stats;
use std::collections::BTreeMap;
use std::time::Instant;

/// No parent: a root span.
pub const ROOT: u32 = u32::MAX;

/// One recorded call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// `crate.module.call`, or a workload step.
    pub name: &'static str,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, or [`ROOT`].
    pub parent: u32,
    /// The rep this span belongs to; spans of one rep share it.
    pub rep: u32,
}

/// An in-memory span recorder for one thread.
pub struct Spans {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    rep: u32,
}

/// Handle returned by [`Spans::enter`]; `None` when the recorder is off.
pub type Open = Option<u32>;

impl Spans {
    /// A recorder sharing `origin` with the run's other recorders, so spans
    /// from two threads line up on one time axis.
    pub fn new(origin: Instant) -> Spans {
        Spans {
            on: false,
            origin,
            spans: Vec::new(),
            open: Vec::new(),
            rep: 0,
        }
    }

    /// Switch recording on or off (between reps, never inside a span).
    pub fn set_on(&mut self, on: bool) {
        debug_assert!(self.open.is_empty(), "toggled inside an open span");
        self.on = on;
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Tag subsequent spans with `rep`.
    pub fn set_rep(&mut self, rep: u32) {
        self.rep = rep;
    }

    /// The rep subsequent spans are tagged with.
    pub fn rep(&self) -> u32 {
        self.rep
    }

    /// Open a span as a child of the innermost open one.
    #[inline]
    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.on {
            return None;
        }
        let idx = self.spans.len() as u32;
        let now = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied().unwrap_or(ROOT),
            rep: self.rep,
        });
        self.open.push(idx);
        Some(idx)
    }

    /// Close the span `enter` returned.
    #[inline]
    pub fn exit(&mut self, open: Open) {
        if let Some(idx) = open {
            self.spans[idx as usize].end_ns = self.origin.elapsed().as_nanos() as u64;
            let top = self.open.pop();
            debug_assert_eq!(top, Some(idx), "spans must nest");
        }
    }

    /// Drop the innermost span `enter` just opened instead of closing it
    /// (a poll that found nothing to do is not a call worth keeping).
    #[inline]
    pub fn discard(&mut self, open: Open) {
        if let Some(idx) = open {
            let top = self.open.pop();
            debug_assert_eq!(top, Some(idx), "spans must nest");
            self.spans.truncate(idx as usize);
        }
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Hand the recorded spans over.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }

    /// Append another thread's spans (same origin). Their parent links are
    /// rebased; they stay a separate tree.
    pub fn absorb(&mut self, other: Spans) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != ROOT {
                s.parent += base;
            }
            s
        }));
    }
}

/// Per-span self time: duration minus the part its children cover
/// (children of one parent never overlap, being sequential calls on one
/// thread).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if s.parent != ROOT {
            let p = s.parent as usize;
            own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
        }
    }
    own
}

/// Self-time samples in microseconds, grouped by span name.
pub fn self_us_by_name(spans: &[Span]) -> BTreeMap<&'static str, Vec<f64>> {
    let mut by: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times_ns(spans)) {
        by.entry(s.name).or_default().push(own as f64 / 1000.0);
    }
    by
}

/// The trace file's span section: one aggregate row per name, plus the
/// first `raw_limit` raw spans (a whole run holds too many to write all).
pub fn to_json(spans: &[Span], raw_limit: usize) -> Value {
    let aggregates = self_us_by_name(spans)
        .into_iter()
        .map(|(name, own)| {
            let t = stats::tail(&own, 0.99);
            (
                name,
                Value::object([
                    ("count", Value::Number(own.len() as f64)),
                    ("self_total_us", Value::Number(own.iter().sum())),
                    ("self_p50_us", Value::Number(stats::median(&own))),
                    ("self_tail_us", Value::Number(t.value)),
                    ("tail_percentile", Value::Number(t.percentile)),
                ]),
            )
        })
        .collect::<Vec<_>>();
    let raw = spans
        .iter()
        .take(raw_limit)
        .map(|s| {
            Value::object([
                ("name", Value::String(s.name.into())),
                ("start_ns", Value::Number(s.start_ns as f64)),
                ("end_ns", Value::Number(s.end_ns as f64)),
                (
                    "parent",
                    if s.parent == ROOT {
                        Value::Null
                    } else {
                        Value::Number(s.parent as f64)
                    },
                ),
                ("rep", Value::Number(s.rep as f64)),
            ])
        })
        .collect();
    Value::object([
        ("recorded", Value::Number(spans.len() as f64)),
        ("by_name", Value::object(aggregates)),
        ("first", Value::Array(raw)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            rep: 0,
        }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let spans = [
            span("cycle", 0, 100, ROOT),
            span("pisces.add_memory", 10, 40, 0),
            span("simhw.ept.map", 15, 25, 1),
            span("pisces.acks_grant", 50, 90, 0),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 20, 10, 40]);
        let by = self_us_by_name(&spans);
        assert_eq!(by["pisces.add_memory"], vec![0.02]);
    }

    #[test]
    fn recorder_nests_and_costs_nothing_when_off() {
        let mut s = Spans::new(Instant::now());
        let o = s.enter("off");
        s.exit(o);
        assert!(s.spans().is_empty());

        s.set_on(true);
        s.set_rep(7);
        let a = s.enter("a");
        let b = s.enter("b");
        s.exit(b);
        s.exit(a);
        let c = s.enter("c");
        s.exit(c);
        let got: Vec<_> = s
            .spans()
            .iter()
            .map(|x| (x.name, x.parent, x.rep))
            .collect();
        assert_eq!(got, vec![("a", ROOT, 7), ("b", 0, 7), ("c", ROOT, 7)]);
        assert!(s.spans().iter().all(|x| x.end_ns >= x.start_ns));
    }

    #[test]
    fn absorb_rebases_parents() {
        let origin = Instant::now();
        let mut a = Spans::new(origin);
        a.set_on(true);
        let o = a.enter("driver");
        a.exit(o);
        let mut b = Spans::new(origin);
        b.set_on(true);
        let outer = b.enter("guest");
        let inner = b.enter("kitten.poll_ctrl");
        b.exit(inner);
        b.exit(outer);
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, 1);
        assert_eq!(a.spans()[1].parent, ROOT);
    }
}
