//! Event sinks: where trace events go.
//!
//! Three implementations cover the observability surface of the
//! workspace:
//!
//! * [`JsonlSink`] — append-only structured event log. Serializes only the
//!   deterministic core of each event (see [`crate::Event`]), so a traced
//!   sweep produces a byte-identical log on every rerun.
//! * [`PrometheusSink`] — in-memory aggregation of counters, gauges and
//!   latency histograms, rendered as Prometheus text exposition on
//!   demand. One store serves a single run and a whole fleet: the
//!   campaign server folds each worker's stream in with
//!   [`PrometheusSink::record_from`] (gauges keyed by worker) and adds
//!   its own series directly.
//! * [`MemorySink`] — bounded ring buffer of recent events, for tests and
//!   for the campaign server's per-worker crash tails
//!   ([`MemorySink::dump`]).

use crate::event::{Event, EventKind};
use crate::histogram::{bucket_upper_ns, Histogram};
use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::Mutex;

/// A destination for trace events. Implementations must be `Send + Sync`;
/// a [`crate::Tracer`] may be cloned across worker threads.
pub trait Sink: Send + Sync {
    fn record(&self, event: &Event);
    /// Push buffered output to durable storage; default is a no-op.
    fn flush(&self) {}
}

/// Byte-stable JSONL event log.
///
/// Skips [`EventKind::Timing`] events entirely and omits `wall_ns` from
/// every line: wall-clock readings are the one nondeterministic input, so
/// keeping them out is what makes the log reproducible byte for byte.
pub struct JsonlSink {
    writer: Mutex<BufWriter<File>>,
}

impl JsonlSink {
    /// Create (truncate) the log file at `path`.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<JsonlSink> {
        let file = File::create(path)?;
        Ok(JsonlSink {
            writer: Mutex::new(BufWriter::new(file)),
        })
    }
}

/// The log line [`JsonlSink`] writes for `event`, or `None` for the
/// [`EventKind::Timing`] samples it skips.
fn jsonl_line(event: &Event) -> Option<String> {
    (!matches!(event.kind, EventKind::Timing { .. })).then(|| event.to_jsonl())
}

impl Sink for JsonlSink {
    fn record(&self, event: &Event) {
        let Some(line) = jsonl_line(event) else {
            return;
        };
        let mut writer = self.writer.lock().expect("jsonl sink poisoned");
        // Log writes are best-effort: losing telemetry must never fail the
        // experiment it observes.
        let _ = writeln!(writer, "{line}");
    }

    fn flush(&self) {
        let _ = self.writer.lock().expect("jsonl sink poisoned").flush();
    }
}

/// Bounded in-memory ring buffer of events (oldest evicted first).
pub struct MemorySink {
    capacity: usize,
    /// The held events, oldest first, and how many were evicted.
    ring: Mutex<(VecDeque<Event>, u64)>,
}

impl MemorySink {
    #[must_use]
    pub fn new(capacity: usize) -> MemorySink {
        MemorySink {
            capacity: capacity.max(1),
            ring: Mutex::new((VecDeque::new(), 0)),
        }
    }

    /// Snapshot of the buffered events, oldest first.
    #[must_use]
    pub fn events(&self) -> Vec<Event> {
        let ring = self.ring.lock().expect("memory sink poisoned");
        ring.0.iter().cloned().collect()
    }

    /// How many events were evicted to honour the capacity bound.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.ring.lock().expect("memory sink poisoned").1
    }

    /// Write the buffered tail to `path` (truncating) in [`JsonlSink`]'s
    /// line form, returning how many lines were written. Like the log it
    /// skips `Timing` samples and omits wall-clock readings, so the dump
    /// is a verbatim suffix of the full event log. Best-effort forensics:
    /// callers may ignore the error — a failed dump must never fail the
    /// campaign.
    pub fn dump(&self, path: impl AsRef<Path>) -> std::io::Result<usize> {
        let mut writer = BufWriter::new(File::create(path)?);
        let mut lines = 0;
        for line in self.events().iter().filter_map(jsonl_line) {
            writeln!(writer, "{line}")?;
            lines += 1;
        }
        writer.flush()?;
        Ok(lines)
    }
}

impl Sink for MemorySink {
    fn record(&self, event: &Event) {
        let mut ring = self.ring.lock().expect("memory sink poisoned");
        let (buf, dropped) = &mut *ring;
        if buf.len() == self.capacity {
            buf.pop_front();
            *dropped += 1;
        }
        buf.push_back(event.clone());
    }
}

/// Gauge owner: `None` is an unlabeled gauge, `Some(w)` a per-worker one
/// rendered with a `worker="w"` label.
type GaugeOwner = Option<u64>;

#[derive(Default)]
struct PromState {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, BTreeMap<GaugeOwner, u64>>,
    histograms: BTreeMap<String, Histogram>,
}

/// Aggregating metrics sink rendered as Prometheus text exposition.
///
/// [`EventKind::Counter`] deltas sum into counters; [`EventKind::Gauge`]
/// samples overwrite gauges (last value wins, per owner);
/// [`EventKind::SpanEnd`] durations and [`EventKind::Timing`] samples fold
/// into fixed-bucket histograms keyed by event name. `BTreeMap` keys make
/// the rendered snapshot's metric order deterministic.
///
/// [`Sink::record`] writes unlabeled gauges. A fleet view feeds each
/// worker's stream through [`PrometheusSink::record_from`] instead:
/// counters still sum and every worker's samples land in one fixed-bucket
/// histogram (so fleet p50/p95/p99 are exact), while gauges
/// stay per worker, so one slow die doesn't hide behind a fleet average.
/// Server-level series go in through [`PrometheusSink::add`],
/// [`PrometheusSink::set_gauge`], [`PrometheusSink::set_worker_gauge`]
/// and [`PrometheusSink::observe_ns`].
#[derive(Default)]
pub struct PrometheusSink {
    state: Mutex<PromState>,
}

impl PrometheusSink {
    #[must_use]
    pub fn new() -> PrometheusSink {
        PrometheusSink::default()
    }

    fn state(&self) -> std::sync::MutexGuard<'_, PromState> {
        self.state.lock().expect("prom sink poisoned")
    }

    /// Fold one event from `worker` into the store: as [`Sink::record`],
    /// except that a gauge sample lands under `worker="worker"`.
    pub fn record_from(&self, worker: u64, event: &Event) {
        self.fold(Some(worker), event);
    }

    fn fold(&self, owner: GaugeOwner, event: &Event) {
        match event.kind {
            EventKind::Counter { delta } => self.add(&event.name, delta),
            EventKind::Gauge { value } => self.put_gauge(&event.name, owner, value),
            EventKind::SpanEnd => {
                if let Some(wall_ns) = event.wall_ns {
                    self.observe_ns(&event.name, wall_ns);
                }
            }
            EventKind::Timing { ns, .. } => self.observe_ns(&event.name, ns),
            EventKind::SpanStart | EventKind::Instant => {}
        }
    }

    /// Add `delta` to the counter `name`.
    pub fn add(&self, name: &str, delta: u64) {
        *self.state().counters.entry(name.to_string()).or_insert(0) += delta;
    }

    /// Set the unlabeled gauge `name`.
    pub fn set_gauge(&self, name: &str, value: u64) {
        self.put_gauge(name, None, value);
    }

    /// Set the per-worker gauge `name{worker="worker"}`.
    pub fn set_worker_gauge(&self, name: &str, worker: u64, value: u64) {
        self.put_gauge(name, Some(worker), value);
    }

    fn put_gauge(&self, name: &str, owner: GaugeOwner, value: u64) {
        self.state()
            .gauges
            .entry(name.to_string())
            .or_default()
            .insert(owner, value);
    }

    /// Fold one duration sample into the histogram `name`.
    pub fn observe_ns(&self, name: &str, ns: u64) {
        self.state()
            .histograms
            .entry(name.to_string())
            .or_default()
            .record(ns);
    }

    /// Current counter totals, by event name.
    #[must_use]
    pub fn counters(&self) -> BTreeMap<String, u64> {
        self.state().counters.clone()
    }

    /// Current values of the gauge `name`, by owner (`None` = unlabeled).
    #[must_use]
    pub fn gauge(&self, name: &str) -> BTreeMap<GaugeOwner, u64> {
        self.state().gauges.get(name).cloned().unwrap_or_default()
    }

    /// Snapshot of the named histogram, if any samples arrived.
    #[cfg(test)]
    fn histogram(&self, name: &str) -> Option<Histogram> {
        self.state().histograms.get(name).cloned()
    }

    /// Render the Prometheus text exposition snapshot: counters as
    /// `uvf_<name>_total`, gauges as `uvf_<name>` (per-worker samples
    /// labeled `worker="N"`), histograms as `uvf_<name>_duration_ns`.
    /// Each family is declared exactly once.
    #[must_use]
    pub fn render(&self) -> String {
        let state = self.state();
        let mut out = String::new();
        for (name, total) in &state.counters {
            let metric = sanitize_metric_name(&format!("uvf_{name}_total"));
            let _ = writeln!(out, "# TYPE {metric} counter");
            let _ = writeln!(out, "{metric} {total}");
        }
        for (name, by_owner) in &state.gauges {
            let metric = sanitize_metric_name(&format!("uvf_{name}"));
            let _ = writeln!(out, "# TYPE {metric} gauge");
            for (owner, value) in by_owner {
                match owner {
                    None => {
                        let _ = writeln!(out, "{metric} {value}");
                    }
                    Some(worker) => {
                        let _ = writeln!(out, "{metric}{{worker=\"{worker}\"}} {value}");
                    }
                }
            }
        }
        for (name, hist) in &state.histograms {
            let metric = sanitize_metric_name(&format!("uvf_{name}_duration_ns"));
            let _ = writeln!(out, "# TYPE {metric} histogram");
            let (cum, total) = hist.cumulative();
            for (i, &c) in cum.iter().enumerate() {
                let _ = writeln!(out, "{metric}_bucket{{le=\"{}\"}} {c}", bucket_upper_ns(i));
            }
            let _ = writeln!(out, "{metric}_bucket{{le=\"+Inf\"}} {total}");
            let _ = writeln!(out, "{metric}_sum {}", hist.sum_ns());
            let _ = writeln!(out, "{metric}_count {total}");
        }
        out
    }
}

impl Sink for PrometheusSink {
    fn record(&self, event: &Event) {
        self.fold(None, event);
    }
}

/// Map an event name onto the Prometheus metric-name grammar
/// (`[a-zA-Z_:][a-zA-Z0-9_:]*`); anything else becomes `_`.
#[must_use]
pub fn sanitize_metric_name(name: &str) -> String {
    let mut out: String = name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if out.chars().next().is_none_or(|c| c.is_ascii_digit()) {
        out.insert(0, '_');
    }
    out
}

/// Validate Prometheus text exposition: every non-comment line must be
/// `<metric>{labels}? <integer>`, every metric must be declared by a
/// preceding `# TYPE` line, each family may be declared only once, every
/// sample must belong to the most recently declared family (no
/// interleaving — families are contiguous blocks), the sample suffix
/// must match the family's kind (`_bucket`/`_sum`/`_count` only for
/// histograms, the bare name for counters/gauges), and histogram bucket
/// counts must be cumulative. Returns the number of sample lines.
pub fn parse_exposition(text: &str) -> Result<usize, String> {
    let mut declared: BTreeMap<String, String> = BTreeMap::new();
    let mut current: Option<(String, String)> = None;
    let mut samples = 0usize;
    let mut last_bucket: Option<(String, u64)> = None;
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let metric = parts
                .next()
                .ok_or_else(|| format!("line {}: TYPE without metric", lineno + 1))?;
            let kind = parts
                .next()
                .ok_or_else(|| format!("line {}: TYPE without kind", lineno + 1))?;
            if !matches!(
                kind,
                "counter" | "histogram" | "gauge" | "summary" | "untyped"
            ) {
                return Err(format!("line {}: unknown TYPE kind {kind:?}", lineno + 1));
            }
            if declared.contains_key(metric) {
                return Err(format!(
                    "line {}: duplicate TYPE for metric {metric:?}",
                    lineno + 1
                ));
            }
            declared.insert(metric.to_string(), kind.to_string());
            current = Some((metric.to_string(), kind.to_string()));
            last_bucket = None;
            continue;
        }
        if line.starts_with('#') {
            continue;
        }
        let (name_part, value_part) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {}: no value: {line:?}", lineno + 1))?;
        let value: u64 = value_part
            .parse()
            .map_err(|_| format!("line {}: non-integer value {value_part:?}", lineno + 1))?;
        let bare = name_part.split('{').next().unwrap_or(name_part);
        if !is_valid_metric_name(bare) {
            return Err(format!("line {}: bad metric name {bare:?}", lineno + 1));
        }
        let (family, kind) = current
            .as_ref()
            .ok_or_else(|| format!("line {}: sample for undeclared metric {bare:?}", lineno + 1))?;
        let in_family = match kind.as_str() {
            // Histograms expose only the three derived series.
            "histogram" => {
                bare.strip_suffix("_bucket") == Some(family.as_str())
                    || bare.strip_suffix("_sum") == Some(family.as_str())
                    || bare.strip_suffix("_count") == Some(family.as_str())
            }
            "summary" => {
                bare == family
                    || bare.strip_suffix("_sum") == Some(family.as_str())
                    || bare.strip_suffix("_count") == Some(family.as_str())
            }
            _ => bare == family,
        };
        if !in_family {
            let known = declared.keys().any(|d| {
                bare == d
                    || bare.strip_suffix("_bucket") == Some(d.as_str())
                    || bare.strip_suffix("_sum") == Some(d.as_str())
                    || bare.strip_suffix("_count") == Some(d.as_str())
            });
            return Err(if known {
                format!(
                    "line {}: out-of-order sample {bare:?} inside {family:?} section",
                    lineno + 1
                )
            } else {
                format!("line {}: sample for undeclared metric {bare:?}", lineno + 1)
            });
        }
        if bare.ends_with("_bucket") {
            if let Some((prev_metric, prev_count)) = &last_bucket {
                if prev_metric == bare && value < *prev_count {
                    return Err(format!(
                        "line {}: non-cumulative bucket for {bare}: {value} < {prev_count}",
                        lineno + 1
                    ));
                }
            }
            last_bucket = Some((bare.to_string(), value));
        } else {
            last_bucket = None;
        }
        samples += 1;
    }
    Ok(samples)
}

fn is_valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Value;
    use crate::histogram::BUCKET_COUNT;
    use crate::tracer::Tracer;
    use std::sync::Arc;

    fn ev(kind: EventKind, name: &'static str) -> Event {
        Event {
            seq: 0,
            kind,
            name: name.into(),
            span: None,
            parent: None,
            sim_ms: None,
            wall_ns: None,
            fields: Vec::new(),
        }
    }

    fn timing(name: &'static str, ns: u64) -> Event {
        ev(EventKind::Timing { ns, ops: 1 }, name)
    }

    #[test]
    fn jsonl_sink_skips_timings_and_is_byte_stable() {
        let dir = std::env::temp_dir().join(format!("uvf-trace-jsonl-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let write_log = |name: &str| -> String {
            let path = dir.join(name);
            let sink = Arc::new(JsonlSink::create(&path).unwrap());
            let t = Tracer::builder().sink(sink).build();
            {
                let mut s = t.span("sweep");
                s.field("levels", Value::U64(3));
                t.instant_at(120, "crash", vec![("v_mv", 540u64.into())]);
                t.counter("runs", 2);
                t.timing("kernel", 987, 64); // must NOT appear in the log
            }
            t.flush();
            std::fs::read_to_string(&path).unwrap()
        };
        let a = write_log("a.jsonl");
        let b = write_log("b.jsonl");
        assert_eq!(a, b, "two identical traced runs produce identical logs");
        assert!(!a.contains("wall_ns"));
        assert!(!a.contains("\"kind\":\"timing\""));
        assert!(a.contains("\"kind\":\"span_end\""));
        assert!(a.contains("\"sim_ms\":120"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn memory_sink_ring_evicts_oldest() {
        let mem = MemorySink::new(2);
        for seq in 0..3 {
            let mut e = ev(EventKind::Instant, "e");
            e.seq = seq;
            mem.record(&e);
        }
        let events = mem.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].seq, 1);
        assert_eq!(mem.dropped(), 1);
    }

    #[test]
    fn flight_recorder_keeps_tail_and_dumps_jsonl() {
        let rec = MemorySink::new(4);
        for seq in 0..5u64 {
            let mut e = ev(EventKind::Instant, "step");
            e.seq = seq;
            e.fields.push(("i".into(), Value::U64(seq)));
            rec.record(&e);
        }
        rec.record(&timing("kernel", 10)); // held, but not dumped, like JsonlSink
        let tail = rec.events();
        assert_eq!(tail.len(), 4);
        assert_eq!(tail[0].seq, 2);
        assert_eq!(tail[2].seq, 4);

        let dir = std::env::temp_dir().join(format!("uvf-flightrec-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("crash_tail.jsonl");
        let written = rec.dump(&path).unwrap();
        assert_eq!(written, 3);
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        for (line, event) in lines.iter().zip(&tail) {
            assert_eq!(*line, event.to_jsonl());
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn ring_dump_is_a_verbatim_suffix_of_the_jsonl_log() {
        let dir = std::env::temp_dir().join(format!("uvf-ring-suffix-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let log_path = dir.join("full.jsonl");
        let log = Arc::new(JsonlSink::create(&log_path).unwrap());
        let ring = Arc::new(MemorySink::new(16));
        let t = Tracer::builder().sink(log).sink(ring.clone()).build();
        for level in 0..12u64 {
            let _s = t.span("sweep_level");
            t.gauge("v_mv", 600 - 10 * level);
            t.timing("mask_apply", 100 + level, 64);
            t.instant("level_done", vec![("level", level.into())]);
            t.timing("mask_apply", 200 + level, 64);
        }
        t.flush();
        let held = ring.events();
        assert!(held
            .iter()
            .any(|e| matches!(e.kind, EventKind::Timing { .. })));

        let dump_path = dir.join("tail.jsonl");
        let written = ring.dump(&dump_path).unwrap();
        let full = std::fs::read_to_string(&log_path).unwrap();
        let tail = std::fs::read_to_string(&dump_path).unwrap();
        assert_eq!(tail.lines().count(), written);
        assert!(
            written > 0 && written < held.len(),
            "timings held, not dumped"
        );
        let suffix: Vec<&str> = full.lines().skip(full.lines().count() - written).collect();
        assert_eq!(tail.lines().collect::<Vec<_>>(), suffix);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn counters_sum_and_gauges_key_by_worker() {
        let agg = PrometheusSink::new();
        agg.record_from(7, &ev(EventKind::Counter { delta: 3 }, "faults"));
        agg.record_from(9, &ev(EventKind::Counter { delta: 5 }, "faults"));
        agg.record_from(7, &ev(EventKind::Gauge { value: 540 }, "v_mv"));
        agg.record_from(9, &ev(EventKind::Gauge { value: 560 }, "v_mv"));
        agg.record_from(7, &ev(EventKind::Gauge { value: 530 }, "v_mv")); // last wins per worker
        assert_eq!(agg.counters().get("faults"), Some(&8));
        let gauge = agg.gauge("v_mv");
        assert_eq!(gauge.get(&Some(7)), Some(&530));
        assert_eq!(gauge.get(&Some(9)), Some(&560));
        let text = agg.render();
        assert!(text.contains("uvf_faults_total 8"));
        assert!(text.contains("uvf_v_mv{worker=\"7\"} 530"));
        assert!(text.contains("uvf_v_mv{worker=\"9\"} 560"));
        parse_exposition(&text).expect("fleet exposition parses");
    }

    #[test]
    fn fleet_percentiles_equal_concatenated_per_worker_histograms() {
        // Three workers with very different latency profiles; the fleet
        // histogram must produce the same quantiles as one histogram fed
        // every sample — exact because all share the fixed bucket layout.
        let agg = PrometheusSink::new();
        let mut all = Histogram::default();
        for (w, base) in [(1u64, 200u64), (2, 9_000), (3, 1_500_000)] {
            for i in 0..400u64 {
                let ns = base + i * base / 7;
                agg.record_from(w, &timing("kernel", ns));
                all.record(ns);
            }
        }
        let fleet = agg.histogram("kernel").expect("histogram exists");
        assert_eq!(fleet.count(), all.count());
        assert_eq!(fleet.quantile(0.5), all.quantile(0.5));
        assert_eq!(fleet.quantile(0.95), all.quantile(0.95));
        assert_eq!(fleet.quantile(0.99), all.quantile(0.99));
        assert_eq!(fleet.sum_ns(), all.sum_ns());
    }

    #[test]
    fn server_level_series_share_the_exposition() {
        let agg = PrometheusSink::new();
        agg.add("jobs_done", 4);
        agg.set_gauge("fvm_cache_size", 12);
        agg.set_worker_gauge("worker_liveness", 41, 1);
        agg.set_worker_gauge("worker_liveness", 42, 0);
        agg.observe_ns("queue_wait", 1_000);
        agg.observe_ns("queue_wait", 2_000_000);
        let text = agg.render();
        assert!(text.contains("uvf_jobs_done_total 4"));
        assert!(text.contains("uvf_fvm_cache_size 12"));
        assert!(text.contains("uvf_worker_liveness{worker=\"41\"} 1"));
        assert!(text.contains("uvf_worker_liveness{worker=\"42\"} 0"));
        assert!(text.contains("uvf_queue_wait_duration_ns_count 2"));
        parse_exposition(&text).expect("exposition parses");
        assert_eq!(agg.histogram("queue_wait").unwrap().count(), 2);
    }

    #[test]
    fn prometheus_sink_renders_and_validates() {
        let prom = Arc::new(PrometheusSink::new());
        let t = Tracer::builder().sink(prom.clone()).build();
        t.counter("power_cycles", 2);
        t.counter("power_cycles", 1);
        t.gauge("rail_power_uw", 2_410_000);
        t.gauge("rail_power_uw", 118_100); // last value wins
        t.timing("corrupt_word", 450, 1024);
        {
            let _s = t.span("sweep_level");
        }
        let text = prom.render();
        assert!(text.contains("uvf_power_cycles_total 3"));
        assert!(text.contains("# TYPE uvf_rail_power_uw gauge"));
        assert!(text.contains("uvf_rail_power_uw 118100"));
        assert!(text.contains("# TYPE uvf_corrupt_word_duration_ns histogram"));
        assert!(text.contains("uvf_sweep_level_duration_ns_count 1"));
        let samples = parse_exposition(&text).expect("exposition parses");
        // 1 counter + 1 gauge + 2 histograms × (BUCKET_COUNT finite + Inf + sum + count)
        assert_eq!(samples, 2 + 2 * (BUCKET_COUNT + 3));
        assert_eq!(prom.counters().get("power_cycles"), Some(&3));
        assert_eq!(prom.gauge("rail_power_uw").get(&None), Some(&118_100));
        assert_eq!(prom.histogram("corrupt_word").unwrap().count(), 1);
    }

    #[test]
    fn exposition_validator_rejects_malformed_text() {
        assert!(parse_exposition("no_type_decl 1").is_err());
        assert!(parse_exposition("# TYPE m counter\nm not_a_number").is_err());
        assert!(parse_exposition("# TYPE m counter\n9bad 1").is_err());
        assert!(parse_exposition("# TYPE m wat\nm 1").is_err());
        let noncum = "# TYPE m histogram\nm_bucket{le=\"128\"} 5\nm_bucket{le=\"256\"} 3\n";
        assert!(parse_exposition(noncum)
            .unwrap_err()
            .contains("non-cumulative"));
        assert_eq!(parse_exposition("").unwrap(), 0);
        assert_eq!(parse_exposition("# just a comment\n").unwrap(), 0);
    }

    #[test]
    fn exposition_validator_rejects_duplicate_type_lines() {
        let dup_counter = "# TYPE m counter\nm 1\n# TYPE m counter\nm 2\n";
        assert!(parse_exposition(dup_counter)
            .unwrap_err()
            .contains("duplicate TYPE"));
        let dup_gauge = "# TYPE g gauge\ng 1\n# TYPE g gauge\ng 2\n";
        assert!(parse_exposition(dup_gauge)
            .unwrap_err()
            .contains("duplicate TYPE"));
        // A re-declaration with a different kind is just as much a dup.
        let kind_flip = "# TYPE g gauge\ng 1\n# TYPE g counter\ng 2\n";
        assert!(parse_exposition(kind_flip)
            .unwrap_err()
            .contains("duplicate TYPE"));
    }

    #[test]
    fn exposition_validator_rejects_out_of_order_families() {
        // Sample for family `a` appearing inside family `b`'s section.
        let interleaved = "# TYPE a counter\na 1\n# TYPE b counter\nb 2\na 3\n";
        assert!(parse_exposition(interleaved)
            .unwrap_err()
            .contains("out-of-order"));
        // Gauge sections are checked just as strictly.
        let gauge_tail = "# TYPE g gauge\ng 1\n# TYPE h histogram\ng 5\n";
        assert!(parse_exposition(gauge_tail)
            .unwrap_err()
            .contains("out-of-order"));
        // A histogram family exposes only _bucket/_sum/_count series.
        let bare_hist = "# TYPE h histogram\nh 1\n";
        assert!(parse_exposition(bare_hist).is_err());
        // A gauge sample must match its family name exactly.
        let gauge_suffix = "# TYPE g gauge\ng_sum 1\n";
        assert!(parse_exposition(gauge_suffix).is_err());
    }

    #[test]
    fn exposition_validator_accepts_labeled_gauge_sections() {
        let per_worker = "# TYPE uvf_worker_liveness gauge\n\
                          uvf_worker_liveness{worker=\"41\"} 1\n\
                          uvf_worker_liveness{worker=\"42\"} 0\n";
        assert_eq!(parse_exposition(per_worker).unwrap(), 2);
    }

    #[test]
    fn metric_names_are_sanitized() {
        assert_eq!(sanitize_metric_name("uvf_ok_name"), "uvf_ok_name");
        assert_eq!(
            sanitize_metric_name("has space-and.dots"),
            "has_space_and_dots"
        );
        assert_eq!(sanitize_metric_name("1starts_digit"), "_1starts_digit");
        assert_eq!(sanitize_metric_name(""), "_");
    }
}
