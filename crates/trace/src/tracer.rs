//! The [`Tracer`] handle and RAII [`Span`] guard.
//!
//! A tracer is a cheaply-cloneable handle to a set of sinks. A *disabled*
//! tracer (the default everywhere in the workspace) carries no allocation
//! and every emit path returns before touching a clock or a lock, so
//! instrumented hot paths cost nothing when nobody is listening.
//!
//! Telemetry is strictly **passive**: emitting an event draws no
//! randomness and never feeds back into the instrumented computation, so
//! every bit-identity guarantee of the sweep stack holds with tracing on.

use crate::event::{Event, EventKind, Value};
use crate::sink::Sink;
use std::cell::RefCell;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

struct Inner {
    seq: AtomicU64,
    sinks: Vec<Arc<dyn Sink>>,
}

thread_local! {
    /// Open-span stack of this thread, innermost last. Nesting is tracked
    /// per thread: a worker's spans parent to that worker's open spans,
    /// never across threads.
    static SPAN_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Handle for emitting trace events; clone freely.
#[derive(Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<Inner>>,
}

impl fmt::Debug for Tracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.inner {
            Some(inner) => write!(f, "Tracer({} sinks)", inner.sinks.len()),
            None => f.write_str("Tracer(disabled)"),
        }
    }
}

/// Accumulates sinks for a [`Tracer`].
#[derive(Default)]
pub struct TracerBuilder {
    sinks: Vec<Arc<dyn Sink>>,
}

impl TracerBuilder {
    #[must_use]
    pub fn sink(mut self, sink: Arc<dyn Sink>) -> TracerBuilder {
        self.sinks.push(sink);
        self
    }

    /// A tracer over the collected sinks; with none it is disabled.
    #[must_use]
    pub fn build(self) -> Tracer {
        if self.sinks.is_empty() {
            return Tracer::disabled();
        }
        Tracer {
            inner: Some(Arc::new(Inner {
                seq: AtomicU64::new(0),
                sinks: self.sinks,
            })),
        }
    }
}

impl Tracer {
    /// The no-op tracer: every emit is a branch on a `None`.
    #[must_use]
    pub fn disabled() -> Tracer {
        Tracer { inner: None }
    }

    #[must_use]
    pub fn builder() -> TracerBuilder {
        TracerBuilder::default()
    }

    #[must_use]
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    fn emit(&self, event: &Event) {
        if let Some(inner) = &self.inner {
            for sink in &inner.sinks {
                sink.record(event);
            }
        }
    }

    fn next_seq(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |inner| inner.seq.fetch_add(1, Ordering::Relaxed))
    }

    fn current_parent() -> Option<u64> {
        SPAN_STACK.with(|s| s.borrow().last().copied())
    }

    /// Flush every sink (buffered file sinks hold partial lines otherwise).
    pub fn flush(&self) {
        if let Some(inner) = &self.inner {
            for sink in &inner.sinks {
                sink.flush();
            }
        }
    }

    /// A point-in-time event with no simulated timestamp.
    pub fn instant(&self, name: &'static str, fields: Vec<(&'static str, Value)>) {
        self.emit_instant(name, None, fields);
    }

    /// A point-in-time event stamped with deterministic simulated time.
    pub fn instant_at(&self, sim_ms: u64, name: &'static str, fields: Vec<(&'static str, Value)>) {
        self.emit_instant(name, Some(sim_ms), fields);
    }

    fn emit_instant(
        &self,
        name: &'static str,
        sim_ms: Option<u64>,
        fields: Vec<(&'static str, Value)>,
    ) {
        if !self.enabled() {
            return;
        }
        self.emit(&Event {
            seq: self.next_seq(),
            kind: EventKind::Instant,
            name: name.into(),
            span: None,
            parent: Tracer::current_parent(),
            sim_ms,
            wall_ns: None,
            fields: fields.into_iter().map(|(k, v)| (k.into(), v)).collect(),
        });
    }

    /// Increment the counter `name` by `delta`. Counters merge by
    /// summation, so the total is independent of emitter interleaving.
    pub fn counter(&self, name: &'static str, delta: u64) {
        if !self.enabled() {
            return;
        }
        self.emit(&Event {
            seq: self.next_seq(),
            kind: EventKind::Counter { delta },
            name: name.into(),
            span: None,
            parent: Tracer::current_parent(),
            sim_ms: None,
            wall_ns: None,
            fields: Vec::new(),
        });
    }

    /// Record the gauge `name` at `value`. Gauges keep the last value
    /// recorded, so they report instantaneous readings (e.g. rail power
    /// in microwatts) rather than accumulations.
    pub fn gauge(&self, name: &'static str, value: u64) {
        if !self.enabled() {
            return;
        }
        self.emit(&Event {
            seq: self.next_seq(),
            kind: EventKind::Gauge { value },
            name: name.into(),
            span: None,
            parent: Tracer::current_parent(),
            sim_ms: None,
            wall_ns: None,
            fields: Vec::new(),
        });
    }

    /// A raw kernel-timing sample: `ns` of wall time over `ops` work
    /// units. Aggregate-only (skipped by the JSONL sink).
    pub fn timing(&self, name: &'static str, ns: u64, ops: u64) {
        if !self.enabled() {
            return;
        }
        self.emit(&Event {
            seq: self.next_seq(),
            kind: EventKind::Timing { ns, ops },
            name: name.into(),
            span: None,
            parent: Tracer::current_parent(),
            sim_ms: None,
            wall_ns: None,
            fields: Vec::new(),
        });
    }

    /// Time a closure and report it as a [`Tracer::timing`] sample. When
    /// the tracer is disabled the closure runs bare — not even a clock
    /// read is paid.
    pub fn time<R>(&self, name: &'static str, ops: u64, f: impl FnOnce() -> R) -> R {
        if !self.enabled() {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.timing(
            name,
            u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX),
            ops,
        );
        out
    }

    /// Open a scoped timer. The span emits `span_start` now and `span_end`
    /// (with wall duration) when the guard drops; any span still open on
    /// this thread becomes its parent.
    #[must_use]
    pub fn span(&self, name: &'static str) -> Span {
        self.span_with(name, Vec::new())
    }

    /// [`Tracer::span`] with fields attached to the `span_start` event.
    #[must_use]
    pub fn span_with(&self, name: &'static str, fields: Vec<(&'static str, Value)>) -> Span {
        if !self.enabled() {
            return Span {
                tracer: Tracer::disabled(),
                id: 0,
                name,
                start: None,
                end_fields: Vec::new(),
            };
        }
        let id = self.next_seq();
        let parent = Tracer::current_parent();
        self.emit(&Event {
            seq: id,
            kind: EventKind::SpanStart,
            name: name.into(),
            span: Some(id),
            parent,
            sim_ms: None,
            wall_ns: None,
            fields: fields.into_iter().map(|(k, v)| (k.into(), v)).collect(),
        });
        SPAN_STACK.with(|s| s.borrow_mut().push(id));
        Span {
            tracer: self.clone(),
            id,
            name,
            start: Some(Instant::now()),
            end_fields: Vec::new(),
        }
    }
}

/// RAII guard of one open span; see [`Tracer::span`].
pub struct Span {
    tracer: Tracer,
    id: u64,
    name: &'static str,
    start: Option<Instant>,
    end_fields: Vec<(&'static str, Value)>,
}

impl Span {
    /// Attach a field to the closing `span_end` event.
    pub fn field(&mut self, name: &'static str, value: Value) {
        if self.tracer.enabled() {
            self.end_fields.push((name, value));
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(start) = self.start else {
            return;
        };
        let wall_ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        SPAN_STACK.with(|s| {
            let mut stack = s.borrow_mut();
            // Normal drops are LIFO; be robust to exotic orders anyway.
            if let Some(pos) = stack.iter().rposition(|&id| id == self.id) {
                stack.remove(pos);
            }
        });
        let seq = self.tracer.next_seq();
        self.tracer.emit(&Event {
            seq,
            kind: EventKind::SpanEnd,
            name: self.name.into(),
            span: Some(self.id),
            parent: Tracer::current_parent(),
            sim_ms: None,
            wall_ns: Some(wall_ns),
            fields: std::mem::take(&mut self.end_fields)
                .into_iter()
                .map(|(k, v)| (k.into(), v))
                .collect(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::MemorySink;

    #[test]
    fn disabled_tracer_emits_nothing_and_costs_no_ids() {
        let t = Tracer::disabled();
        assert!(!t.enabled());
        t.instant("x", vec![]);
        t.counter("c", 3);
        let mut span = t.span("s");
        span.field("k", Value::U64(1));
        assert_eq!(span.id, 0);
        drop(span);
        assert_eq!(t.time("t", 1, || 41 + 1), 42);
    }

    #[test]
    fn spans_nest_and_events_parent_to_the_innermost() {
        let mem = Arc::new(MemorySink::new(64));
        let t = Tracer::builder().sink(mem.clone()).build();
        {
            let outer = t.span("outer");
            let _inner = t.span("inner");
            t.instant("point", vec![("a", Value::Bool(true))]);
            assert!(outer.id < u64::MAX);
        }
        let events = mem.events();
        let names: Vec<&str> = events.iter().map(|e| e.name.as_ref()).collect();
        assert_eq!(names, ["outer", "inner", "point", "inner", "outer"]);
        let outer_id = events[0].span.unwrap();
        let inner_id = events[1].span.unwrap();
        assert_eq!(events[1].parent, Some(outer_id), "inner nests under outer");
        assert_eq!(events[2].parent, Some(inner_id), "instant under inner");
        assert!(events[3].wall_ns.is_some(), "span_end carries wall time");
        assert_eq!(events[4].parent, None, "outer is a root span");
        // Sequence numbers are strictly increasing.
        assert!(events.windows(2).all(|w| w[0].seq < w[1].seq));
    }

    #[test]
    fn time_reports_ops_and_returns_the_value() {
        let mem = Arc::new(MemorySink::new(8));
        let t = Tracer::builder().sink(mem.clone()).build();
        let got = t.time("kernel", 128, || 7u32);
        assert_eq!(got, 7);
        let events = mem.events();
        assert_eq!(events.len(), 1);
        assert!(matches!(events[0].kind, EventKind::Timing { ops: 128, .. }));
    }

    #[test]
    fn builder_with_no_sinks_is_disabled() {
        assert!(!Tracer::builder().build().enabled());
    }
}
