//! End-to-end benchmark of the undervolt-fpga workspace.
//!
//! One process runs one workload (`characterize`, `accelerator` or
//! `serve`) for a fixed wall-clock budget and prints every metric named in
//! the repository's `BENCHMARK.json`:
//!
//! * `--trace 0` measures the end-to-end metrics with tracing off;
//! * `--trace 1` runs the same seed twice — untraced, then traced through a
//!   sink this benchmark owns — and prints the per-layer breakdown.
//!
//! The benchmark only calls the public API of the workspace crates. Every
//! call into a layer is wrapped in a `uvf-trace` span named
//! `<layer>.<step>`; the spans and counters the crates already emit are
//! collected by the same sink.

pub mod digest;
pub mod fixture;
pub mod host;
pub mod layers;
pub mod runner;
pub mod spec;
pub mod stats;
pub mod workloads;
