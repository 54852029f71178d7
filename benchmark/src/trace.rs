//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code, around calls into each
//! layer's public functions; nothing inside the model crates is touched.
//! The recorder preallocates, so opening and closing a span neither
//! allocates nor takes a lock (each rank thread owns its recorder); the
//! spans are written as Chrome-trace JSON once the run is over.

use std::time::Instant;

use crate::json::Value;

/// One closed (or still open) interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same recorder.
    pub parent: Option<u32>,
    /// Model step the span belongs to: the identifier its spans share.
    pub step: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    pub fn dur_ms(&self) -> f64 {
        self.dur_ns() as f64 * 1e-6
    }
}

/// Handle returned by [`Recorder::begin`]; pass it back to [`Recorder::end`].
#[derive(Debug, Clone, Copy)]
pub struct SpanId(u32);

/// Span storage of one thread.
pub struct Recorder {
    epoch: Instant,
    /// Chrome-trace thread id (the rank, or 0).
    pub tid: u32,
    spans: Vec<Span>,
    stack: Vec<u32>,
    step: u32,
}

impl Recorder {
    /// A recorder with room for `capacity` spans; recording past that would
    /// allocate inside a timed region, so it panics instead.
    pub fn new(epoch: Instant, tid: u32, capacity: usize) -> Recorder {
        Recorder {
            epoch,
            tid,
            spans: Vec::with_capacity(capacity),
            stack: Vec::with_capacity(16),
            step: 0,
        }
    }

    /// Tag the spans opened from now on with model step `step`.
    pub fn set_step(&mut self, step: u32) {
        self.step = step;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str) -> SpanId {
        assert!(
            self.spans.len() < self.spans.capacity(),
            "span recorder is full"
        );
        let id = self.spans.len() as u32;
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.stack.last().copied(),
            step: self.step,
        });
        self.stack.push(id);
        SpanId(id)
    }

    pub fn end(&mut self, id: SpanId) {
        let top = self.stack.pop().expect("end without a begin");
        assert_eq!(top, id.0, "spans must close innermost first");
        self.spans[id.0 as usize].end_ns = self.now_ns();
    }

    /// Time `f` as a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ms) of every span called `name`, in recording order.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_ms)
            .collect()
    }

    /// Self times (ms) of every span called `name`.
    pub fn self_times_ms(&self, name: &str) -> Vec<f64> {
        (0..self.spans.len())
            .filter(|&i| self.spans[i].name == name)
            .map(|i| self_time_ns(&self.spans, i) as f64 * 1e-6)
            .collect()
    }
}

/// A span's duration minus the part of it that its direct children cover
/// (children may nest, touch, or leave gaps; overlaps are counted once).
pub fn self_time_ns(spans: &[Span], index: usize) -> u64 {
    let me = &spans[index];
    let mut kids: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(index as u32))
        .map(|s| (s.start_ns.max(me.start_ns), s.end_ns.min(me.end_ns)))
        .filter(|(a, b)| b > a)
        .collect();
    kids.sort_unstable();
    let mut covered = 0;
    let mut reach = me.start_ns;
    for (a, b) in kids {
        let a = a.max(reach);
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    me.dur_ns() - covered
}

/// Chrome-trace ("Trace Event Format") document for the recorders: complete
/// events (`ph: "X"`), microsecond timestamps, one `tid` per recorder, and
/// `other_data` (the host fingerprint) as the document's `otherData`.
pub fn chrome_trace(recorders: &[&Recorder], other_data: Value) -> Value {
    let mut events = Vec::new();
    for rec in recorders {
        for (i, s) in rec.spans.iter().enumerate() {
            let mut args = vec![("step".to_string(), Value::Num(f64::from(s.step)))];
            if let Some(p) = s.parent {
                args.push((
                    "parent".into(),
                    Value::Str(rec.spans[p as usize].name.into()),
                ));
            }
            args.push((
                "self_us".into(),
                Value::Num(self_time_ns(&rec.spans, i) as f64 * 1e-3),
            ));
            events.push(Value::Obj(vec![
                ("name".into(), Value::Str(s.name.into())),
                ("ph".into(), Value::Str("X".into())),
                ("ts".into(), Value::Num(s.start_ns as f64 * 1e-3)),
                ("dur".into(), Value::Num(s.dur_ns() as f64 * 1e-3)),
                ("pid".into(), Value::Num(1.0)),
                ("tid".into(), Value::Num(f64::from(rec.tid))),
                ("args".into(), Value::Obj(args)),
            ]));
        }
    }
    Value::Obj(vec![
        ("displayTimeUnit".into(), Value::Str("ms".into())),
        ("otherData".into(), other_data),
        ("traceEvents".into(), Value::Arr(events)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            step: 0,
        }
    }

    #[test]
    fn self_time_subtracts_adjacent_children() {
        let spans = vec![
            span("step", 0, 100, None),
            span("rk", 0, 30, Some(0)),
            span("hypervis", 30, 90, Some(0)),
        ];
        assert_eq!(self_time_ns(&spans, 0), 10);
        assert_eq!(self_time_ns(&spans, 1), 30);
    }

    #[test]
    fn self_time_counts_only_direct_children() {
        let spans = vec![
            span("step", 0, 100, None),
            span("hypervis", 10, 80, Some(0)),
            span("dss", 20, 50, Some(1)),
        ];
        // The grandchild is inside its parent's interval already.
        assert_eq!(self_time_ns(&spans, 0), 30);
        assert_eq!(self_time_ns(&spans, 1), 40);
        assert_eq!(self_time_ns(&spans, 2), 30);
    }

    #[test]
    fn self_time_counts_overlapping_children_once_and_clips_to_the_parent() {
        let spans = vec![
            span("step", 10, 100, None),
            span("a", 0, 40, Some(0)),
            span("b", 30, 60, Some(0)),
            span("c", 90, 120, Some(0)),
        ];
        // Covered: [10, 60) and [90, 100) = 60 of the parent's 90.
        assert_eq!(self_time_ns(&spans, 0), 30);
    }

    #[test]
    fn recorder_nests_spans_and_tags_them_with_the_step() {
        let mut rec = Recorder::new(Instant::now(), 3, 8);
        rec.set_step(7);
        let outer = rec.begin("step");
        rec.span("rk", || std::hint::black_box(1 + 1));
        rec.span("hypervis", || std::hint::black_box(2 + 2));
        rec.end(outer);
        let s = rec.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(
            (s[0].parent, s[1].parent, s[2].parent),
            (None, Some(0), Some(0))
        );
        assert!(s.iter().all(|x| x.step == 7));
        assert!(s[0].start_ns <= s[1].start_ns && s[2].end_ns <= s[0].end_ns);
        assert_eq!(rec.durations_ms("rk").len(), 1);
        let self_ms = rec.self_times_ms("step")[0];
        assert!(self_ms <= s[0].dur_ms());
    }

    #[test]
    fn chrome_trace_has_one_complete_event_per_span() {
        let mut rec = Recorder::new(Instant::now(), 1, 4);
        let outer = rec.begin("step");
        rec.span("rk", || ());
        rec.end(outer);
        let doc = chrome_trace(&[&rec], Value::Obj(vec![]));
        let text = doc.to_json();
        let back = crate::json::parse(&text).expect("own output parses");
        let events = back
            .get("traceEvents")
            .and_then(Value::as_arr)
            .expect("events");
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].get("ph").and_then(Value::as_str), Some("X"));
        assert_eq!(
            events[1]
                .get("args")
                .and_then(|a| a.get("parent"))
                .and_then(Value::as_str),
            Some("step")
        );
    }
}
