//! Workload-independent run logic: set-up repetitions, the timed loop,
//! failure accounting, digests, and the end-to-end and per-layer metrics.

use crate::digest::fold;
use crate::host::peak_rss_mib;
use crate::layers::{LayerReport, LayerSink};
use crate::spec::{CommittedDigests, MetricSpec};
use crate::stats::{median, percentile, samples_beyond};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};
use uvf_characterize::FvmCache;
use uvf_trace::Tracer;

/// Inputs every workload shares.
#[derive(Debug, Clone, PartialEq)]
pub struct RunConfig {
    pub seed: u64,
    /// Wall-clock budget of the timed phase (split in two when traced).
    pub seconds: f64,
    /// Scratch space for sockets, checkpoints and artifacts.
    pub out_dir: PathBuf,
}

/// What one operation produced.
#[derive(Debug, Clone, PartialEq)]
pub struct OpOutput {
    /// Throughput units completed (dies, rungs or jobs).
    pub items: u64,
    /// Digest of the operation's simulated outputs.
    pub digest: u64,
    /// Latency samples of the operation's items, when the operation is
    /// not itself the unit of latency (empty: the operation's wall time
    /// is one sample). Each entry is one measurement, the latency of one
    /// item, and the number of items it stands for.
    pub latencies_ms: Vec<(f64, u64)>,
}

/// What the traced run's replay did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Replayed {
    pub items: u64,
    /// Time the replay spent in layer spans repeating work that a later
    /// public call inside `accel.readback` does again; it is taken off that
    /// span and off the wall time, so the breakdown describes one real
    /// item.
    pub repeated_ns: u64,
}

/// One workload: built by a set-up, then driven one operation at a time.
/// An operation checks its own outputs and returns `Err` when they are
/// wrong, so failures are counted where they happen.
pub trait Workload: Sized + PartialEq {
    const NAME: &'static str;
    /// The throughput unit counted by `items_per_s`.
    const ITEM: &'static str;
    /// One call of [`Workload::op`].
    const OP: &'static str;
    /// The unit `op_p50_ms` / `op_p90_ms` time: the operation, unless
    /// it reports per-item latencies.
    const LATENCY_OF: &'static str;
    /// How many leading operations make up `outputs_digest`.
    const DIGEST_OPS: u64;
    /// Set-up repetitions; `setup_s` is their median.
    const SETUP_REPS: usize;
    /// The set-up fills the process-wide `FvmCache`: every repetition
    /// after the first starts from an evicted cache, so each one does the
    /// work of the first.
    const SETUP_FILLS_CACHE: bool = false;

    /// Threads and socket connections the workload keeps busy.
    fn load() -> (usize, usize);

    /// # Errors
    /// A message when the set-up itself fails.
    fn setup(cfg: &RunConfig, tracer: &Tracer) -> Result<Self, String>;

    /// Operation `index`; the same index gives the same inputs.
    ///
    /// # Errors
    /// A message when the operation fails or its outputs are wrong.
    fn op(&mut self, index: u64, tracer: &Tracer) -> Result<OpOutput, String>;

    /// Between the untraced and the traced phase: bring shared caches back
    /// to the state the untraced phase started from, so both phases do
    /// the same work.
    fn cold_start(&mut self) {}

    /// Traced run only: replay one operation call by call, so a call that
    /// runs many layers inside is attributed.
    ///
    /// # Errors
    /// A message when the replay disagrees with the operation it replays.
    fn replay(&mut self, _tracer: &Tracer) -> Result<Replayed, String> {
        Ok(Replayed::default())
    }
}

/// Failed operations against attempted ones.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure messages.
    pub errors: Vec<String>,
}

impl Tally {
    pub fn ok(&mut self) {
        self.attempted += 1;
    }

    pub fn fail(&mut self, what: String) {
        self.attempted += 1;
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(what);
        }
    }

    /// Charge a failure to an operation already counted as attempted
    /// (its digest disagreed with the committed one).
    pub fn refail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(what);
        }
    }

    pub fn merge(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for e in &other.errors {
            if self.errors.len() < 5 {
                self.errors.push(e.clone());
            }
        }
    }

    #[must_use]
    pub fn fail_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// One timed loop over the workload's operations.
#[derive(Debug, Clone, Default)]
pub struct Phase {
    pub ops: u64,
    pub items: u64,
    pub wall: Duration,
    /// Latency of every successful operation (or of each of its items),
    /// milliseconds, one entry per item a measurement stands for.
    pub latencies_ms: Vec<f64>,
    /// Distinct latency measurements behind `latencies_ms`.
    pub latency_measurements: usize,
    /// Digests of the first `DIGEST_OPS` operations (0 for a failed one).
    pub digests: Vec<u64>,
    pub tally: Tally,
}

impl Phase {
    #[must_use]
    pub fn items_per_s(&self) -> f64 {
        self.items as f64 / self.wall.as_secs_f64().max(1e-9)
    }
}

/// Run operations until `seconds` have passed and the digest prefix is
/// complete.
pub fn timed<W: Workload>(w: &mut W, seconds: f64, tracer: &Tracer) -> Phase {
    let mut phase = Phase::default();
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    while phase.ops < W::DIGEST_OPS || start.elapsed() < budget {
        let t0 = Instant::now();
        let result = w.op(phase.ops, tracer);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let digest = match result {
            Ok(out) => {
                phase.items += out.items;
                if out.latencies_ms.is_empty() {
                    phase.latencies_ms.push(ms);
                    phase.latency_measurements += 1;
                } else {
                    for (ms, items) in out.latencies_ms {
                        phase
                            .latencies_ms
                            .extend(std::iter::repeat_n(ms, items as usize));
                        phase.latency_measurements += 1;
                    }
                }
                phase.tally.ok();
                out.digest
            }
            Err(e) => {
                phase
                    .tally
                    .fail(format!("{} {} {}: {e}", W::NAME, W::OP, phase.ops));
                0
            }
        };
        if phase.ops < W::DIGEST_OPS {
            phase.digests.push(digest);
        }
        phase.ops += 1;
    }
    phase.wall = start.elapsed();
    phase
}

/// Count every prefix operation whose digest differs from the committed
/// one (and did not already fail) as failed.
pub fn check_digests(phase: &mut Phase, committed: &[u64], workload: &str) {
    for (i, (&got, &want)) in phase.digests.iter().zip(committed).enumerate() {
        if got != 0 && got != want {
            phase.tally.refail(format!(
                "{workload} op {i}: digest {got:016x} != committed {want:016x}"
            ));
        }
    }
    if phase.digests.len() != committed.len() {
        phase.tally.refail(format!(
            "{workload}: {} committed digests, run produced {}",
            committed.len(),
            phase.digests.len()
        ));
    }
}

/// A metric as printed: name, value, unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

fn metric(name: &str, value: f64, unit: &str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit: unit.into(),
    }
}

/// Everything a run reports.
#[derive(Debug, Clone, Default)]
pub struct RunOutput {
    pub correct: bool,
    pub tally: Tally,
    pub metrics: Vec<Metric>,
    /// Human-readable log lines, printed before the result.
    pub log: Vec<String>,
    /// `(file name, contents)` saved under the output directory.
    pub artifacts: Vec<(String, String)>,
    /// Digests of the digest-prefix operations (untraced phase).
    pub digests: Vec<u64>,
}

/// Which end-to-end metric each layer metric should move, and where.
pub const SHOULD_MOVE: &[(&str, &str)] = &[
    (
        "faults.model_build_s",
        "items_per_s@characterize, items_per_s@accelerator; ~0 on serve",
    ),
    (
        "faults.model_builds",
        "items_per_s@characterize, items_per_s@accelerator; ~0 on serve",
    ),
    (
        "faults.variation_map_s",
        "items_per_s@characterize, items_per_s@accelerator (ICBP ranking)",
    ),
    ("faults.mask_build_s", "items_per_s@accelerator"),
    ("faults.masks_built", "items_per_s@accelerator"),
    ("faults.ecc_decode_s", "items_per_s@accelerator (ECC modes)"),
    ("faults.ecc_words", "items_per_s@accelerator (ECC modes)"),
    (
        "faults.ecc_corrected",
        "items_per_s@accelerator (ECC modes)",
    ),
    ("faults.ecc_escaped", "items_per_s@accelerator (ECC modes)"),
    (
        "characterize.sweep_s",
        "items_per_s@characterize, items_per_s@serve",
    ),
    (
        "characterize.levels",
        "items_per_s@characterize, items_per_s@serve",
    ),
    (
        "characterize.scan_s",
        "items_per_s@characterize, op_p90_ms@characterize",
    ),
    (
        "characterize.scans",
        "items_per_s@characterize, op_p90_ms@characterize",
    ),
    ("characterize.crashes", "items_per_s@characterize"),
    ("characterize.power_cycles", "items_per_s@characterize"),
    (
        "characterize.fvm_hits",
        "items_per_s@accelerator (ratio should rise); ~1 on serve",
    ),
    (
        "characterize.fvm_misses",
        "items_per_s@accelerator; one per die on characterize",
    ),
    (
        "characterize.fvm_hit_ratio",
        "items_per_s@accelerator (should rise); ~1 on serve",
    ),
    ("stats.cluster_s", "items_per_s@characterize"),
    ("stats.census_s", "items_per_s@characterize"),
    ("fpga.board_build_s", "all workloads; expected small"),
    ("nn.dataset_s", "setup_s@accelerator"),
    ("nn.train_s", "setup_s@accelerator"),
    ("nn.quantize_s", "setup_s@accelerator"),
    ("nn.classify_s", "items_per_s@accelerator"),
    ("nn.classifications", "items_per_s@accelerator"),
    ("accel.load_s", "items_per_s@accelerator"),
    ("accel.weights_written", "items_per_s@accelerator"),
    ("accel.readback_s", "items_per_s@accelerator"),
    ("accel.readbacks", "items_per_s@accelerator"),
    ("accel.placement_s", "items_per_s@accelerator"),
    ("accel.ladder_s", "items_per_s@accelerator"),
    (
        "accel.changed_rung_ratio",
        "items_per_s@accelerator (caps skipped classifications)",
    ),
    ("serve.start_s", "items_per_s@serve, op_p50_ms@serve"),
    ("serve.stream_s", "items_per_s@serve, op_p50_ms@serve"),
    ("serve.join_s", "items_per_s@serve, op_p50_ms@serve"),
    ("serve.worker_s", "items_per_s@serve, op_p50_ms@serve"),
    ("serve.events_streamed", "items_per_s@serve"),
    ("serve.events_dropped", "must stay 0"),
    ("serve.reassignments", "failures@serve"),
    ("serve.jobs_failed", "failures@serve"),
    ("trace.events", "all workloads (tracing cost)"),
    ("trace.overhead_pct", "all workloads (tracing cost)"),
    (
        "trace.attributed_pct",
        "none; shows how much of the traced time the layers explain",
    ),
];

/// Hit and miss totals of the process-wide FVM cache.
fn fvm_counts() -> (u64, u64) {
    let c = FvmCache::global();
    (c.hits(), c.misses())
}

/// Evict every die from the process-wide cache by filling it with
/// throwaway ZC702 dies (the cheapest to build), so the next lookup of any
/// other die builds it again, as at process start.
pub fn evict_fvm_cache() {
    let (models, _) = FvmCache::global().capacities();
    let platform = uvf_fpga::PlatformKind::Zc702.descriptor();
    for k in 0..models as u64 {
        let _ = FvmCache::global().model(platform, u64::MAX - k);
    }
}

/// The end-to-end metrics of an untraced phase.
fn end_to_end(phase: &Phase, setup_s: f64) -> Vec<Metric> {
    vec![
        metric("setup_s", setup_s, "s"),
        metric("items_per_s", phase.items_per_s(), "1/s"),
        metric(
            "op_p50_ms",
            percentile(&phase.latencies_ms, 0.5).unwrap_or(f64::NAN),
            "ms",
        ),
        metric(
            "op_p90_ms",
            percentile(&phase.latencies_ms, 0.9).unwrap_or(f64::NAN),
            "ms",
        ),
        metric("peak_rss_mb", peak_rss_mib().unwrap_or(f64::NAN), "MiB"),
    ]
}

/// Inputs of the per-layer metrics.
struct Traced<'a> {
    report: &'a LayerReport,
    setup: &'a LayerReport,
    setup_reps: usize,
    items: u64,
    wall: Duration,
    fvm: (u64, u64),
    overhead_pct: f64,
}

fn per_layer(t: &Traced<'_>) -> Vec<Metric> {
    let items = t.items.max(1) as f64;
    let s = |span: &str| {
        metric(
            &format!("{span}_s"),
            t.report.span(span).self_ns as f64 / 1e9 / items,
            "s/item",
        )
    };
    let count = |name: &str, v: u64| metric(name, v as f64 / items, "1/item");
    let setup = |span: &str| {
        metric(
            &format!("{span}_s"),
            t.setup.span(span).self_ns as f64 / 1e9 / t.setup_reps.max(1) as f64,
            "s",
        )
    };
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    let r = t.report;
    let (hits, misses) = t.fvm;
    vec![
        s("faults.model_build"),
        count("faults.model_builds", r.counter("faults.model_builds")),
        s("faults.variation_map"),
        s("faults.mask_build"),
        count("faults.masks_built", r.counter("faults.masks_built")),
        s("faults.ecc_decode"),
        count("faults.ecc_words", r.counter("faults.ecc_words")),
        count("faults.ecc_corrected", r.counter("faults.ecc_corrected")),
        count("faults.ecc_escaped", r.counter("faults.ecc_escaped")),
        s("characterize.sweep"),
        count("characterize.levels", r.counter("characterize.levels")),
        s("characterize.scan"),
        count("characterize.scans", r.span("characterize.scan").calls),
        count("characterize.crashes", r.counter("crashes")),
        count("characterize.power_cycles", r.counter("power_cycles")),
        count("characterize.fvm_hits", hits),
        count("characterize.fvm_misses", misses),
        metric(
            "characterize.fvm_hit_ratio",
            ratio(hits, hits + misses),
            "ratio",
        ),
        s("stats.cluster"),
        s("stats.census"),
        s("fpga.board_build"),
        setup("nn.dataset"),
        setup("nn.train"),
        setup("nn.quantize"),
        s("nn.classify"),
        count("nn.classifications", r.span("nn.classify").calls),
        s("accel.load"),
        count("accel.weights_written", r.counter("weights_written")),
        s("accel.readback"),
        count("accel.readbacks", r.span("accel.readback").calls),
        s("accel.placement"),
        metric(
            "accel.ladder_s",
            r.span("accel.ladder").total_ns as f64 / 1e9 / items,
            "s/item",
        ),
        metric(
            "accel.changed_rung_ratio",
            ratio(
                r.counter("accel.changed_rungs"),
                r.counter("accel.replayed_rungs"),
            ),
            "ratio",
        ),
        s("serve.start"),
        s("serve.stream"),
        s("serve.join"),
        metric(
            "serve.worker_s",
            r.span("serve.worker").total_ns as f64 / 1e9 / items,
            "s/item",
        ),
        count("serve.events_streamed", r.counter("serve.events_streamed")),
        count("serve.events_dropped", r.counter("serve.events_dropped")),
        count("serve.reassignments", r.counter("serve.reassignments")),
        count("serve.jobs_failed", r.counter("serve.jobs_failed")),
        count("trace.events", r.events),
        metric("trace.overhead_pct", t.overhead_pct, "%"),
        metric(
            "trace.attributed_pct",
            100.0 * r.attributed_ns() as f64 / t.wall.as_nanos().max(1) as f64,
            "%",
        ),
    ]
}

/// Order the computed metrics as the spec lists them, refusing a metric
/// the spec names but the run did not compute (or with another unit),
/// and one the run computed but the spec does not name.
///
/// # Errors
/// A message naming the mismatch.
pub fn select(computed: Vec<Metric>, wanted: &[MetricSpec]) -> Result<Vec<Metric>, String> {
    if let Some(extra) = computed
        .iter()
        .find(|m| !wanted.iter().any(|w| w.name == m.name))
    {
        return Err(format!(
            "metric {} is not listed in BENCHMARK.json",
            extra.name
        ));
    }
    wanted
        .iter()
        .map(|w| {
            let m = computed.iter().find(|m| m.name == w.name).ok_or_else(|| {
                format!(
                    "BENCHMARK.json lists {} but the run did not compute it",
                    w.name
                )
            })?;
            if m.unit != w.unit {
                return Err(format!(
                    "metric {}: unit {} in BENCHMARK.json, {} computed",
                    w.name, w.unit, m.unit
                ));
            }
            if !m.value.is_finite() {
                return Err(format!("metric {} is not a finite number", w.name));
            }
            Ok(m.clone())
        })
        .collect()
}

fn fmt_digests(digests: &[u64]) -> String {
    format!("{:016x}", fold(digests))
}

/// `n` followed by `word`, pluralized.
fn count_of(n: u64, word: &str) -> String {
    match (n, word.ends_with('s')) {
        (1, _) => format!("1 {word}"),
        (_, true) => format!("{n} {word}es"),
        _ => format!("{n} {word}s"),
    }
}

/// Build the workload `SETUP_REPS` times; every repetition must build
/// the same state. Returns the first state and each repetition's time.
fn set_up<W: Workload>(
    cfg: &RunConfig,
    tracer: &Tracer,
    tally: &mut Tally,
) -> Result<(W, Vec<f64>), String> {
    let mut times = Vec::with_capacity(W::SETUP_REPS);
    let mut state: Option<W> = None;
    for rep in 0..W::SETUP_REPS.max(1) {
        if W::SETUP_FILLS_CACHE && rep > 0 {
            evict_fvm_cache();
        }
        let t0 = Instant::now();
        let built = W::setup(cfg, tracer)?;
        times.push(t0.elapsed().as_secs_f64());
        match &state {
            None => state = Some(built),
            Some(first) if *first != built => {
                tally.fail(format!("set-up repetition {rep} built a different state"));
            }
            Some(_) => {}
        }
    }
    Ok((state.expect("at least one set-up"), times))
}

/// The traced phase: the same operations as `untraced`, through a sink
/// this benchmark owns, then the workload's replay. Returns the per-layer
/// metrics and saves the breakdown as an artifact.
fn traced<W: Workload>(
    state: &mut W,
    cfg: &RunConfig,
    untraced: &Phase,
    setup: &LayerReport,
    setup_reps: usize,
    out: &mut RunOutput,
) -> Vec<Metric> {
    state.cold_start();
    let sink = Arc::new(LayerSink::new());
    let tracer = Tracer::builder().sink(sink.clone()).build();
    let fvm0 = fvm_counts();
    let mut phase = timed(state, cfg.seconds / 2.0, &tracer);
    let t0 = Instant::now();
    let replayed = match state.replay(&tracer) {
        Ok(r) => {
            phase.tally.ok();
            r
        }
        Err(e) => {
            phase.tally.fail(format!("{} replay: {e}", W::NAME));
            Replayed::default()
        }
    };
    let replay_wall = t0
        .elapsed()
        .saturating_sub(Duration::from_nanos(replayed.repeated_ns));
    let fvm1 = fvm_counts();
    if phase.digests != untraced.digests {
        phase.tally.refail(format!(
            "traced outputs_digest {} != untraced {}",
            fmt_digests(&phase.digests),
            fmt_digests(&untraced.digests)
        ));
    }
    let overhead_pct = 100.0 * (untraced.items_per_s() / phase.items_per_s() - 1.0);
    let mut report = sink.report();
    report.discount("accel.readback", replayed.repeated_ns);
    let wall = phase.wall + replay_wall;
    let items = phase.items + replayed.items;
    out.log.push(format!(
        "traced: {}, {} in {:.3} s, replay {} in {:.3} s; outputs_digest {} {}; tracing overhead {overhead_pct:.2} %",
        count_of(phase.ops, W::OP),
        count_of(phase.items, W::ITEM),
        phase.wall.as_secs_f64(),
        count_of(replayed.items, W::ITEM),
        replay_wall.as_secs_f64(),
        W::NAME,
        fmt_digests(&phase.digests),
    ));
    out.tally.merge(&phase.tally);
    let metrics = per_layer(&Traced {
        report: &report,
        setup,
        setup_reps,
        items,
        wall,
        fvm: (fvm1.0 - fvm0.0, fvm1.1 - fvm0.1),
        overhead_pct,
    });

    let mut text = report.render(
        &format!(
            "perfbench per-layer breakdown: workload {}, seed {}, traced phase plus replay, {}",
            W::NAME,
            cfg.seed,
            count_of(items, W::ITEM)
        ),
        u64::try_from(wall.as_nanos()).unwrap_or(u64::MAX),
        items,
        W::ITEM,
    );
    text.push_str(&format!(
        "\nSet-up, per repetition ({setup_reps} repetitions)\n"
    ));
    for (name, t) in &setup.spans {
        text.push_str(&format!(
            "  {name:<32}{:>12.4} s{:>10} calls\n",
            t.self_ns as f64 / 1e9 / setup_reps as f64,
            t.calls
        ));
    }
    text.push_str("\nPer-layer metrics (value, unit, should move)\n");
    for m in &metrics {
        let moves = SHOULD_MOVE
            .iter()
            .find(|(n, _)| *n == m.name)
            .map_or("", |(_, w)| w);
        text.push_str(&format!(
            "  {:<30}{:>16.6} {:<7} {moves}\n",
            m.name, m.value, m.unit
        ));
    }
    out.artifacts
        .push((format!("{}-seed{}-layers.txt", W::NAME, cfg.seed), text));
    metrics
}

/// Run one workload end to end: set-up, the untraced phase, and with
/// `trace` the traced phase in the second half of the budget.
///
/// # Errors
/// When set-up fails or the computed metrics do not match the spec; a
/// failing operation is counted, not returned.
pub fn run<W: Workload>(
    cfg: &RunConfig,
    trace: bool,
    wanted: &[MetricSpec],
    committed: Option<&CommittedDigests>,
) -> Result<RunOutput, String> {
    let mut out = RunOutput::default();
    let setup_sink = Arc::new(LayerSink::new());
    let setup_tracer = if trace {
        Tracer::builder().sink(setup_sink.clone()).build()
    } else {
        Tracer::disabled()
    };
    let (mut state, setup_times) = set_up::<W>(cfg, &setup_tracer, &mut out.tally)?;
    let setup_s = median(&setup_times).expect("at least one set-up");
    out.log.push(format!(
        "setup: {} repetitions, median {setup_s:.6} s (first {:.6} s, fastest {:.6} s, slowest {:.6} s)",
        setup_times.len(),
        setup_times[0],
        setup_times.iter().copied().fold(f64::INFINITY, f64::min),
        setup_times.iter().copied().fold(0.0, f64::max),
    ));

    let committed = committed
        .filter(|c| c.seed == cfg.seed)
        .and_then(|c| c.for_workload(W::NAME));
    let seconds = if trace {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    };
    let mut phase = timed(&mut state, seconds, &Tracer::disabled());
    if let Some(want) = committed {
        check_digests(&mut phase, want, W::NAME);
    }
    out.log.push(format!(
        "untraced: {}, {} in {:.3} s; outputs_digest {} {} over the first {}{}",
        count_of(phase.ops, W::OP),
        count_of(phase.items, W::ITEM),
        phase.wall.as_secs_f64(),
        W::NAME,
        fmt_digests(&phase.digests),
        count_of(W::DIGEST_OPS, W::OP),
        match committed {
            Some(c) if c == phase.digests.as_slice() => " (matches the committed digests)",
            Some(_) => " (DIFFERS from the committed digests)",
            None => "",
        }
    ));
    out.digests.clone_from(&phase.digests);
    out.tally.merge(&phase.tally);

    let computed = if trace {
        traced(
            &mut state,
            cfg,
            &phase,
            &setup_sink.report(),
            setup_times.len(),
            &mut out,
        )
    } else {
        // The tail rule counts measurements, not the items they stand for.
        let n = phase.latency_measurements;
        let beyond = samples_beyond(n, 0.9);
        out.log.push(format!(
            "latency of one {}: {n} measurements for {} samples, p50 and p90 by nearest rank, {beyond} measurements beyond p90{}",
            W::LATENCY_OF,
            phase.latencies_ms.len(),
            if beyond < 10 {
                " (fewer than ten: p90 is not a resolved tail here)"
            } else {
                ""
            }
        ));
        end_to_end(&phase, setup_s)
    };
    out.metrics = select(computed, wanted)?;
    out.correct = out.tally.failed == 0;
    out.log.push(format!(
        "fail_ratio: {} failed / {} attempted = {}",
        out.tally.failed,
        out.tally.attempted,
        out.tally.fail_ratio()
    ));
    let errors: Vec<String> = out
        .tally
        .errors
        .iter()
        .map(|e| format!("failure: {e}"))
        .collect();
    out.log.extend(errors);
    Ok(out)
}
