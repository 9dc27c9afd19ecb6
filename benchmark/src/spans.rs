//! Harness-side span recorder: wall-clock spans around the calls into each
//! layer, recorded from outside the simulator (no crate under `crates/` is
//! touched, so the sim crates stay det-time clean).
//!
//! Spans are kept in memory and written out as a Chrome trace when the
//! benchmark ends. A layer's *self time* is its span's duration minus the
//! part of that interval its child spans cover.

use crate::json::Value;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
    /// Spans of one rep share this identifier.
    pub rep: u32,
}

/// Records spans when enabled; a disabled recorder costs one branch per
/// call, so untraced reps run the same harness code.
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    rep: u32,
    inner: RefCell<Inner>,
}

#[derive(Default)]
struct Inner {
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn off() -> Self {
        Self::new(false, 0)
    }

    pub fn on(rep: u32) -> Self {
        Self::new(true, rep)
    }

    fn new(enabled: bool, rep: u32) -> Self {
        Recorder {
            enabled,
            epoch: Instant::now(),
            rep,
            inner: RefCell::new(Inner::default()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Run `f` inside a span named `name`; spans opened by `f` nest under it.
    ///
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.enabled.then(|| {
            let mut inner = self.inner.borrow_mut();
            let id = inner.spans.len();
            let parent = inner.open.last().copied();
            inner.spans.push(Span {
                name,
                start_ns: 0,
                end_ns: 0,
                parent,
                rep: self.rep,
            });
            inner.open.push(id);
            (id, Instant::now())
        });
        let out = measured(f);
        if let Some((id, start)) = open {
            let end = Instant::now();
            let mut inner = self.inner.borrow_mut();
            inner.spans[id].start_ns = self.ns(start);
            inner.spans[id].end_ns = self.ns(end);
            inner.open.pop();
        }
        out
    }

    /// Record an already-finished span under the currently open one — for
    /// work timed on other threads (the fleet's per-VM spans).
    pub fn closed(&self, name: &'static str, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let mut inner = self.inner.borrow_mut();
        let parent = inner.open.last().copied();
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            rep: self.rep,
        };
        inner.spans.push(span);
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.inner.into_inner().spans
    }
}

/// The measured call, kept out of line. Inlined, the optimiser threads
/// `span`'s enabled and disabled paths apart and emits the call's body twice,
/// once per path; the two copies of `drain_dense`'s bitmap loop then differ
/// in layout by 5 % of its run time, which would be booked as tracing
/// overhead. Out of line, traced and untraced reps run the same code.
#[inline(never)]
fn measured<T>(f: impl FnOnce() -> T) -> T {
    f()
}

/// Self time in seconds, summed per span name.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    let mut out = BTreeMap::new();
    for (s, kids) in spans.iter().zip(&mut children) {
        // Children may overlap (parallel per-VM spans), so subtract the
        // union of their intervals, clipped to the parent.
        kids.sort_unstable();
        let mut covered = 0u64;
        let mut reach = s.start_ns;
        for &(a, b) in kids.iter() {
            let a = a.max(reach);
            let b = b.min(s.end_ns);
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        let own = (s.end_ns - s.start_ns).saturating_sub(covered);
        *out.entry(s.name).or_insert(0.0) += own as f64 / 1e9;
    }
    out
}

/// Chrome `trace_event` JSON (complete "X" events, microsecond timebase).
pub fn chrome_trace(spans: &[Span]) -> Value {
    let events = spans
        .iter()
        .enumerate()
        .map(|(id, s)| {
            Value::obj([
                ("name", Value::Str(s.name.to_string())),
                ("ph", Value::Str("X".into())),
                ("ts", Value::Num(s.start_ns as f64 / 1e3)),
                ("dur", Value::Num((s.end_ns - s.start_ns) as f64 / 1e3)),
                ("pid", Value::Num(1.0)),
                ("tid", Value::Num(f64::from(s.rep))),
                (
                    "args",
                    Value::obj([
                        ("id", Value::Num(id as f64)),
                        (
                            "parent",
                            s.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                        ),
                        ("rep", Value::Num(f64::from(s.rep))),
                    ]),
                ),
            ])
        })
        .collect();
    Value::obj([("traceEvents", Value::Arr(events))])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            rep: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        // root 0..100 s; a 10..40 with child b 20..30; second a 50..60.
        let s = 1_000_000_000;
        let spans = vec![
            span("root", 0, 100 * s, None),
            span("a", 10 * s, 40 * s, Some(0)),
            span("b", 20 * s, 30 * s, Some(1)),
            span("a", 50 * s, 60 * s, Some(0)),
        ];
        let t = self_times(&spans);
        assert_eq!(t["root"], 60.0); // 100 - 30 - 10
        assert_eq!(t["a"], 30.0); // (30 - 10) + 10
        assert_eq!(t["b"], 10.0);
        // Self times partition the root interval.
        assert_eq!(t.values().sum::<f64>(), 100.0);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        // Two workers' spans overlap on 20..30; a third sticks out past the
        // parent's end and is clipped.
        let spans = vec![
            span("fan_out", 0, 50, None),
            span("vm", 10, 30, Some(0)),
            span("vm", 20, 40, Some(0)),
            span("vm", 45, 70, Some(0)),
        ];
        let t = self_times(&spans);
        // covered = [10,40) ∪ [45,50) = 35 ns of 50.
        assert!((t["fan_out"] - 15e-9).abs() < 1e-18);
    }

    #[test]
    fn recorder_nests_and_disabled_recorder_records_nothing() {
        let rec = Recorder::on(3);
        let v = rec.span("outer", || rec.span("inner", || 7));
        assert_eq!(v, 7);
        rec.closed("late", Instant::now(), Instant::now());
        let spans = rec.into_spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, None);
        assert!(spans.iter().all(|s| s.rep == 3 && s.end_ns >= s.start_ns));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);

        let off = Recorder::off();
        assert_eq!(off.span("x", || 1), 1);
        assert!(off.into_spans().is_empty());
    }
}
