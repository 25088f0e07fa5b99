//! The traced run's sink: per-layer self time, call counts and counters.
//!
//! The benchmark wraps every call into a layer in a span named
//! `<layer>.<step>` (the name has a dot). Spans the crates emit themselves
//! (`sweep`, `weights_read_back`, …; no dot) are collected too, but they
//! sit inside a benchmark span and are reported as inclusive totals only,
//! so every nanosecond of a layer span's interval is counted once.
//!
//! A layer span's *self time* is its duration minus the durations of the
//! layer spans nested in it. Spans that end on another thread than the one
//! that built the sink (the serve worker) overlap the main thread's time;
//! they are reported apart and never counted into the attributed share.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::sync::Mutex;
use std::thread::ThreadId;
use uvf_trace::{Event, EventKind, Sink};

/// Benchmark layer spans carry a dotted name; crate spans do not.
#[must_use]
pub fn is_layer(name: &str) -> bool {
    name.contains('.')
}

/// Totals of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanTotals {
    /// Duration minus nested layer spans (equals `total_ns` for crate spans).
    pub self_ns: u64,
    /// Inclusive duration.
    pub total_ns: u64,
    pub calls: u64,
    /// Ended on another thread than the sink's owner.
    pub concurrent: bool,
}

struct Open {
    name: String,
    parent: Option<u64>,
    child_ns: u64,
}

#[derive(Default)]
struct State {
    open: HashMap<u64, Open>,
    spans: BTreeMap<String, SpanTotals>,
    counters: BTreeMap<String, u64>,
    events: u64,
}

/// A [`Sink`] that folds span events into per-name totals as they arrive,
/// so memory stays bounded however long the traced run is.
pub struct LayerSink {
    main: ThreadId,
    state: Mutex<State>,
}

impl Default for LayerSink {
    fn default() -> LayerSink {
        LayerSink::new()
    }
}

impl LayerSink {
    /// A sink owned by the calling thread.
    #[must_use]
    pub fn new() -> LayerSink {
        LayerSink {
            main: std::thread::current().id(),
            state: Mutex::new(State::default()),
        }
    }

    /// Everything recorded so far.
    #[must_use]
    pub fn report(&self) -> LayerReport {
        let state = self.state.lock().expect("layer sink poisoned");
        LayerReport {
            spans: state.spans.clone(),
            counters: state.counters.clone(),
            events: state.events,
        }
    }
}

impl Sink for LayerSink {
    fn record(&self, event: &Event) {
        let mut state = self.state.lock().expect("layer sink poisoned");
        state.events += 1;
        match event.kind {
            EventKind::SpanStart => {
                if let Some(id) = event.span {
                    state.open.insert(
                        id,
                        Open {
                            name: event.name.to_string(),
                            parent: event.parent,
                            child_ns: 0,
                        },
                    );
                }
            }
            EventKind::SpanEnd => {
                let Some(open) = event.span.and_then(|id| state.open.remove(&id)) else {
                    return;
                };
                let wall = event.wall_ns.unwrap_or(0);
                let layer = is_layer(&open.name);
                let totals = state.spans.entry(open.name).or_default();
                totals.total_ns += wall;
                totals.self_ns += if layer {
                    wall.saturating_sub(open.child_ns)
                } else {
                    wall
                };
                totals.calls += 1;
                totals.concurrent |= std::thread::current().id() != self.main;
                if layer {
                    // Charge the interval to the nearest enclosing layer span.
                    let mut up = open.parent;
                    while let Some(id) = up {
                        let Some(parent) = state.open.get_mut(&id) else {
                            break;
                        };
                        if is_layer(&parent.name) {
                            parent.child_ns += wall;
                            break;
                        }
                        up = parent.parent;
                    }
                }
            }
            EventKind::Counter { delta } => {
                *state.counters.entry(event.name.to_string()).or_default() += delta;
            }
            _ => {}
        }
    }
}

/// A snapshot of a [`LayerSink`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LayerReport {
    pub spans: BTreeMap<String, SpanTotals>,
    pub counters: BTreeMap<String, u64>,
    /// Every event the sink saw.
    pub events: u64,
}

impl LayerReport {
    #[must_use]
    pub fn span(&self, name: &str) -> SpanTotals {
        self.spans.get(name).copied().unwrap_or_default()
    }

    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Take `ns` off the self and inclusive time of layer span `name`:
    /// time the caller knows the span spent repeating work already
    /// attributed elsewhere.
    pub fn discount(&mut self, name: &str, ns: u64) {
        if let Some(t) = self.spans.get_mut(name) {
            t.self_ns = t.self_ns.saturating_sub(ns);
            t.total_ns = t.total_ns.saturating_sub(ns);
        }
    }

    /// Self time of the main thread's layer spans: the part of the timed
    /// wall time the breakdown attributes to a named layer.
    #[must_use]
    pub fn attributed_ns(&self) -> u64 {
        self.spans
            .iter()
            .filter(|(name, t)| is_layer(name) && !t.concurrent)
            .map(|(_, t)| t.self_ns)
            .sum()
    }

    /// The nested "component, absolute, %-of-total" table: layer spans
    /// grouped by the layer before the dot, then the threads that overlap
    /// the main thread, the crates' own spans and every counter.
    #[must_use]
    pub fn render(&self, title: &str, wall_ns: u64, items: u64, item: &str) -> String {
        let row = |out: &mut String, label: &str, ns: u64, calls: Option<u64>| {
            let _ = writeln!(
                out,
                "{label:<34}{:>12.4}{:>10.2}{:>10}{:>16.4}",
                ns as f64 / 1e9,
                100.0 * ns as f64 / wall_ns.max(1) as f64,
                calls.map_or(String::new(), |c| c.to_string()),
                ns as f64 / 1e6 / items.max(1) as f64
            );
        };
        let mut out = format!(
            "{title}\n{:<34}{:>12}{:>10}{:>10}{:>16}\n",
            "Component",
            "Self (s)",
            "%-Total",
            "Calls",
            format!("ms/{item}")
        );
        row(&mut out, "Total", wall_ns, None);
        let mut groups: BTreeMap<&str, Vec<(&String, &SpanTotals)>> = BTreeMap::new();
        for (name, t) in &self.spans {
            if is_layer(name) && !t.concurrent {
                let group = name.split('.').next().unwrap_or(name);
                groups.entry(group).or_default().push((name, t));
            }
        }
        for (group, rows) in &groups {
            let ns = rows.iter().map(|(_, t)| t.self_ns).sum();
            row(&mut out, &format!(" {group}"), ns, None);
            for (name, t) in rows {
                row(&mut out, &format!("  {name}"), t.self_ns, Some(t.calls));
            }
        }
        let rest = wall_ns.saturating_sub(self.attributed_ns());
        row(&mut out, " (unattributed)", rest, None);
        for (heading, crate_spans) in [
            (
                "Other threads (overlap the main thread; not in Total)",
                false,
            ),
            (
                "Crate spans (inclusive; already inside the layers above)",
                true,
            ),
        ] {
            let rows: Vec<_> = self
                .spans
                .iter()
                .filter(|(n, t)| {
                    if crate_spans {
                        !is_layer(n)
                    } else {
                        is_layer(n) && t.concurrent
                    }
                })
                .collect();
            if !rows.is_empty() {
                out.push_str(&format!("\n{heading}\n"));
            }
            for (name, t) in rows {
                row(&mut out, &format!("  {name}"), t.total_ns, Some(t.calls));
            }
        }
        if !self.counters.is_empty() {
            let _ = writeln!(out, "\nCounters");
            for (name, v) in &self.counters {
                let _ = writeln!(out, "  {name:<32}{v:>12}");
            }
        }
        let _ = writeln!(out, "\nEvents seen by the sink: {}", self.events);
        out
    }
}
