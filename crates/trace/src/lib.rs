//! # uvf-trace
//!
//! Zero-dependency structured observability for the undervolting
//! workspace: spans, counters, latency histograms, pluggable sinks and
//! run manifests.
//!
//! The design constraint that shapes everything here is **passivity**:
//! the sweep/campaign/accelerator stack guarantees bit-identical results
//! across sequential, parallel and checkpoint-resumed executions, and
//! instrumentation must not bend that. Concretely:
//!
//! * emitting an event never draws randomness and never feeds back into
//!   the instrumented computation;
//! * the JSONL event log serializes only the *deterministic core* of each
//!   event (wall-clock durations stay in the metric sinks), so a traced
//!   sweep writes a byte-identical log on every rerun;
//! * a disabled [`Tracer`] — the default everywhere — short-circuits
//!   before reading a clock or taking a lock, so instrumented hot paths
//!   cost nothing when nobody is listening.
//!
//! ## Pieces
//!
//! * [`Tracer`] / [`Span`] — the emitting handle and its RAII scoped
//!   timer; spans nest per-thread.
//! * [`Histogram`] — fixed power-of-two buckets (128 ns …), exact
//!   min/max/sum, interpolated p50/p95/p99.
//! * [`Sink`] implementations: [`JsonlSink`] (byte-stable event log),
//!   [`PrometheusSink`] (text exposition snapshot; also the campaign
//!   server's fleet-wide merge — counters summed, histograms
//!   bucket-merged, gauges per worker) and [`MemorySink`] (bounded ring
//!   buffer; the crash tail the campaign server dumps when a worker
//!   dies).
//! * [`Manifest`] — the per-run metadata document the `repro` binary
//!   writes next to each figure/table; [`RunTally`] gathers its event
//!   count and phases from the live stream.
//! * [`json`] — the byte-stable JSON value tree shared by the whole
//!   workspace (grew up in `uvf-characterize`, which re-exports it), and
//!   [`write_atomic`], the one temp + fsync + rename save.
//! * [`codec`] — the declarative record codec: [`json_record!`] declares
//!   a record's fields once and derives both directions of its JSON.

#![deny(deprecated)]

pub mod codec;
pub mod event;
pub mod histogram;
pub mod json;
pub mod manifest;
pub mod merge;
pub mod sink;
pub mod tracer;

pub use event::{Event, EventKind, Value};
pub use histogram::{bucket_upper_ns, Histogram, BUCKET_COUNT};
pub use json::{write_atomic, Json, JsonError};
pub use manifest::{Manifest, PhaseTime, RunTally};
pub use merge::{merge_event_streams, offset_event};
pub use sink::{
    parse_exposition, sanitize_metric_name, JsonlSink, MemorySink, PrometheusSink, Sink,
};
pub use tracer::{Span, Tracer, TracerBuilder};
