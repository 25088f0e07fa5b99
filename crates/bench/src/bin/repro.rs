//! `repro` — the paper-reproduction harness the README promises: one
//! subcommand per table/figure, each running the real experiment through
//! the traced sweep/campaign/accel stack.
//!
//! Every subcommand emits an auditable artifact triple under `--out`:
//!
//! * `<name>.jsonl` — the byte-stable structured event log (replayable;
//!   identical bytes on identical reruns),
//! * `<name>.prom` — a Prometheus text-exposition snapshot of counters and
//!   latency histograms,
//! * `<name>_manifest.json` — the run manifest: config fingerprint,
//!   platform, seed, event-log path, and wall-time breakdown.
//!
//! Progress (levels done / ETA, crashes, power cycles, campaign job
//! lifecycle) streams to stdout as log lines rendered straight from the
//! trace events — the renderer is just another [`Sink`].
//!
//! Experiments are rows of the declarative [`REGISTRY`]: each carries its
//! name, a one-line description, its extra artifacts, a run fn and an
//! optional landmark-check fn. The CLI is generated from the registry —
//! `repro list` prints it, `all` expands to its `in_all` members, and
//! `--check` validates every experiment the same way: the artifact triple
//! parses/round-trips, extra artifacts exist, and the experiment's own
//! landmark gate passes on the metrics the run reported.
//!
//! Usage: `repro [--quick] [--check] [--out DIR] <cmd>...`
//! where `<cmd>` is an experiment name from `repro list`, `all`, or
//! `serve`.

#![deny(deprecated)]

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use uvf_accel::{
    ecc_ladder_census, layer_vulnerability_traced, mitigation_shootout_traced,
    voltage_accuracy_power_sweep, LayerFaults, MappedNetwork, Mitigation, ParetoConfig, Placement,
    ShootoutConfig, VulnerabilityReport,
};
use uvf_characterize::prelude::{
    cluster_brams, Campaign, CampaignEntry, CampaignJob, CampaignManifest, LocationStats, Probe,
    RecoveryPolicy, SweepConfig, ThermalCampaign, LOCATION_ALPHA,
};
use uvf_characterize::record::FvmRecord;
use uvf_characterize::FvmCache;
use uvf_faults::{FaultModel, ReadCondition, ResolvedCondition};
use uvf_fpga::{Board, DataPattern, Millivolts, Platform, PlatformKind, Rail};
use uvf_nn::{train, DatasetKind, Mlp, QNetwork, SyntheticData, TrainConfig, MNIST_LAYOUT};
use uvf_power::{ChipPowerModel, FURTHER_REDUCTION_TARGET};
use uvf_serve::{
    run_worker, CampaignServer, Endpoint, Message, ServerConfig, Subscription, Supervisor,
    WorkerOptions,
};
use uvf_trace::{
    parse_exposition, Event, EventKind, JsonlSink, Manifest, PrometheusSink, RunTally, Sink,
    Tracer, Value,
};

/// Net seed pinned by `crates/accel/tests/fig14_mnist.rs` (lands the
/// trained MNIST-like net on the paper's 2.56 % nominal landmark).
const NET_SEED: u64 = 12;
/// Chip whose weak-cell census exhibits the Fig. 13/14 story (ibid.).
const CHIP_SEED: u64 = 21;
/// Fig. 13/14 evaluation: cold die (worst-case ITD), run seed 1.
const EVAL_TEMPERATURE_C: f64 = 0.0;
const EVAL_RUN_SEED: u64 = 1;

/// Landmark gate over the metrics a run reported; invoked by `--check`
/// after the artifact validation.
type CheckFn = fn(&Ctx, &CmdSummary) -> Result<(), String>;

/// One reproducible experiment: everything the CLI needs to parse it,
/// run it, name its artifacts, and gate its landmarks, in one row.
struct Experiment {
    name: &'static str,
    description: &'static str,
    /// Files the run writes under `--out` beyond the standard
    /// `.jsonl`/`.prom`/`_manifest.json` triple; `--check` asserts they
    /// exist.
    extra_artifacts: &'static [&'static str],
    /// Whether `all` includes this experiment (`serve` opts out: it
    /// spawns worker processes and owns sockets).
    in_all: bool,
    run: fn(&mut Ctx, &Tracer) -> Result<CmdSummary, String>,
    check: Option<CheckFn>,
}

/// The experiment table. `parse_args`, `usage`, `repro list`, `all`
/// expansion and dispatch all iterate this — adding an experiment is
/// adding a row.
const REGISTRY: &[Experiment] = &[
    Experiment {
        name: "table1",
        description: "platform specifications (devices, BRAM counts, guardbands)",
        extra_artifacts: &[],
        in_all: true,
        run: run_table1,
        check: None,
    },
    Experiment {
        name: "fig1",
        description: "Vmin/Vcrash guardband discovery on all four platforms",
        extra_artifacts: &[],
        in_all: true,
        run: run_fig1,
        check: None,
    },
    Experiment {
        name: "fig3",
        description: "fault rate vs VCCBRAM, per platform",
        extra_artifacts: &[],
        in_all: true,
        run: run_fig3,
        check: None,
    },
    Experiment {
        name: "fig4",
        description: "data-pattern impact at Vcrash",
        extra_artifacts: &[],
        in_all: true,
        run: run_fig4,
        check: None,
    },
    Experiment {
        name: "fig5",
        description: "BRAM vulnerability clusters and location chi-squared battery",
        extra_artifacts: &[],
        in_all: true,
        run: run_fig5,
        check: None,
    },
    Experiment {
        name: "table2",
        description: "fault-count stability over repeated runs at Vcrash",
        extra_artifacts: &[],
        in_all: true,
        run: run_table2,
        check: None,
    },
    Experiment {
        name: "fig8",
        description: "fault rate vs die temperature at Vcrash (ITD regression)",
        extra_artifacts: &[],
        in_all: true,
        run: run_fig8,
        check: None,
    },
    Experiment {
        name: "fig10",
        description: "VCCBRAM rail power vs voltage (dynamic/static split, landmark gates)",
        extra_artifacts: &[],
        in_all: true,
        run: run_fig10,
        check: Some(check_fig10),
    },
    Experiment {
        name: "fig11",
        description: "hierarchical power breakdown at nominal / Vmin / Vcrash",
        extra_artifacts: &["fig11_breakdown.txt"],
        in_all: true,
        run: run_fig11,
        check: Some(check_fig11),
    },
    Experiment {
        name: "fig12",
        description: "voltage-accuracy-power Pareto sweep over the mapped accelerator",
        extra_artifacts: &[],
        in_all: true,
        run: run_fig12,
        check: Some(check_fig12),
    },
    Experiment {
        name: "fig13",
        description: "per-layer vulnerability of the mapped network at Vcrash",
        extra_artifacts: &[],
        in_all: true,
        run: run_fig13,
        check: None,
    },
    Experiment {
        name: "fig14",
        description: "contiguous vs ICBP placement at Vcrash",
        extra_artifacts: &[],
        in_all: true,
        run: run_fig14,
        check: None,
    },
    Experiment {
        name: "mitigation",
        description: "mitigation shoot-out: built-in SECDED ECC vs ICBP vs both",
        extra_artifacts: &[],
        in_all: true,
        run: run_mitigation,
        check: Some(check_mitigation),
    },
    Experiment {
        name: "serve",
        description: "fig1 campaign fanned over worker processes (uvf-serve)",
        extra_artifacts: &["serve_events.jsonl"],
        in_all: false,
        run: run_serve,
        check: None,
    },
];

fn experiment(name: &str) -> Option<&'static Experiment> {
    REGISTRY.iter().find(|e| e.name == name)
}

struct Args {
    quick: bool,
    check: bool,
    workers: usize,
    kill: bool,
    out: PathBuf,
    endpoint: Option<String>,
    metrics_addr: Option<String>,
    linger_ms: u64,
    await_subscribers: usize,
    commands: Vec<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        quick: false,
        check: false,
        workers: 2,
        kill: false,
        out: PathBuf::from("repro-out"),
        endpoint: None,
        metrics_addr: None,
        linger_ms: 0,
        await_subscribers: 0,
        commands: Vec::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => args.quick = true,
            "--check" => args.check = true,
            "--kill" => args.kill = true,
            "--workers" => {
                let v = it.next().ok_or("--workers needs a value")?;
                args.workers = v.parse().map_err(|_| format!("bad worker count {v}"))?;
            }
            "--out" => args.out = PathBuf::from(it.next().ok_or("--out needs a path")?),
            "--endpoint" => args.endpoint = Some(it.next().ok_or("--endpoint needs a value")?),
            "--metrics-addr" => {
                args.metrics_addr = Some(it.next().ok_or("--metrics-addr needs a value")?);
            }
            "--linger-ms" => {
                let v = it.next().ok_or("--linger-ms needs a value")?;
                args.linger_ms = v.parse().map_err(|_| format!("bad linger value {v}"))?;
            }
            "--await-subscribers" => {
                let v = it.next().ok_or("--await-subscribers needs a value")?;
                args.await_subscribers =
                    v.parse().map_err(|_| format!("bad subscriber count {v}"))?;
            }
            "--help" | "-h" => return Err(usage()),
            "list" => args.commands.push("list".to_string()),
            "all" => args.commands.extend(
                REGISTRY
                    .iter()
                    .filter(|e| e.in_all)
                    .map(|e| e.name.to_string()),
            ),
            cmd if experiment(cmd).is_some() => args.commands.push(cmd.to_string()),
            other => return Err(format!("unknown argument {other}\n{}", usage())),
        }
    }
    if args.commands.is_empty() {
        return Err(usage());
    }
    args.commands.dedup();
    Ok(args)
}

fn usage() -> String {
    format!(
        "usage: repro [--quick] [--check] [--out DIR] <cmd>...\n\
         commands: {} | list | all\n\
         `repro list` describes every experiment; `all` runs each except serve.\n\
         serve options: [--workers N] [--kill] [--endpoint E] [--metrics-addr A]\n\
         [--await-subscribers N] [--linger-ms N]  (distributed campaign over\n\
         worker processes; --await-subscribers delays campaign start until N\n\
         watchers attached, --linger-ms keeps the process and its /metrics\n\
         endpoint alive after the last command)\n\
         worker mode: repro work --endpoint <unix:PATH|tcp:HOST:PORT> [--worker-id N]\n\
         [--throttle-ms N] [--chunk-runs N] [--hang]  (uvf-serve-worker's options)\n\
         watch mode:  repro watch --endpoint E [--from SEQ] [--once]\n\
         promcheck:   repro promcheck <exposition.prom>...",
        REGISTRY
            .iter()
            .map(|e| e.name)
            .collect::<Vec<_>>()
            .join(" | ")
    )
}

/// `repro list`: print the registry, one experiment per line.
fn print_registry() {
    println!("experiments ('all' runs every row marked ●):");
    for e in REGISTRY {
        let marker = if e.in_all { "●" } else { " " };
        println!("  {marker} {:<8} {}", e.name, e.description);
        if !e.extra_artifacts.is_empty() {
            println!(
                "             extra artifacts: {}",
                e.extra_artifacts.join(", ")
            );
        }
    }
}

/// FNV-1a over a config-describing string: the manifest's fingerprint for
/// experiments that don't flow through a `SweepRecord`.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Renders selected trace events as live progress log lines — the
/// "long-campaign UX": sweep levels with ETA, crash/recovery lifecycle,
/// and campaign job progress, straight off the event stream. It sees
/// every event, so it also keeps the run's [`RunTally`] (the manifest's
/// `events` total and `phases`).
struct ProgressSink {
    prefix: &'static str,
    tally: RunTally,
}

impl ProgressSink {
    fn new(prefix: &'static str) -> ProgressSink {
        ProgressSink {
            prefix,
            tally: RunTally::default(),
        }
    }
}

fn f_u64(e: &Event, key: &str) -> u64 {
    e.field(key).and_then(Value::as_u64).unwrap_or(0)
}

fn f_str<'a>(e: &'a Event, key: &str) -> &'a str {
    e.field(key).and_then(Value::as_str).unwrap_or("?")
}

fn f_f64(e: &Event, key: &str) -> f64 {
    match e.field(key) {
        Some(Value::F64(v)) => *v,
        Some(v) => v.as_u64().map_or(0.0, |u| u as f64),
        None => 0.0,
    }
}

fn f_bool(e: &Event, key: &str) -> bool {
    matches!(e.field(key), Some(Value::Bool(true)))
}

/// The one wording of each progress event, shared by `repro`'s own log
/// ([`ProgressSink`]) and `repro watch` ([`WatchBoard`]); `None` for
/// events neither shows. The campaign server's `job_*` events carry
/// fewer fields than the in-process campaign's, so the job lines print
/// `jobs_total` and `error` only when present.
fn progress_line(e: &Event) -> Option<String> {
    if !matches!(e.kind, EventKind::Instant) {
        return None;
    }
    let line = match e.name.as_ref() {
        "level_done" => format!(
            "{:>4} mV: {} faults, rail {} µW ({}/{} levels, eta {} ms)",
            f_u64(e, "v_mv"),
            f_u64(e, "faults"),
            f_u64(e, "rail_uw"),
            f_u64(e, "levels_done"),
            f_u64(e, "levels_total"),
            f_u64(e, "eta_ms"),
        ),
        "crash" => format!(
            "crash @ {} mV run {} attempt {}",
            f_u64(e, "v_mv"),
            f_u64(e, "run"),
            f_u64(e, "attempt"),
        ),
        "power_cycle" => format!("power cycle @ {} mV", f_u64(e, "v_mv")),
        "resume" => format!("resumed @ {} mV run {}", f_u64(e, "v_mv"), f_u64(e, "run")),
        "crash_boundary" => format!(
            "crash boundary: hung at {} mV, Vcrash = {} mV",
            f_u64(e, "v_mv"),
            f_u64(e, "vcrash_mv"),
        ),
        "job_claimed" => format!("job {} claimed: {}", f_u64(e, "job"), f_str(e, "platform")),
        "job_done" => {
            let mut line = format!(
                "job {} done: {} sim-ms",
                f_u64(e, "job"),
                f_u64(e, "sim_ms")
            );
            if e.field("jobs_total").is_some() {
                line += &format!(
                    " ({}/{} jobs)",
                    f_u64(e, "jobs_done"),
                    f_u64(e, "jobs_total")
                );
            }
            line
        }
        "job_failed" => {
            let mut line = format!("job {} FAILED", f_u64(e, "job"));
            if e.field("error").is_some() {
                line += &format!(": {}", f_str(e, "error"));
            }
            line
        }
        "kmeans_done" => format!(
            "{} clusters: k={} silhouette={:.3} least-faulty share {:.3}",
            f_str(e, "platform"),
            f_u64(e, "k"),
            f_f64(e, "silhouette"),
            f_f64(e, "least_faulty_share"),
        ),
        "chi2_done" => format!(
            "χ² {}: statistic {:.1} (df {}), p = {:.3e}{}",
            f_str(e, "scope"),
            f_f64(e, "statistic"),
            f_u64(e, "df"),
            f_f64(e, "p_value"),
            if f_bool(e, "rejected") {
                " — rejects uniformity"
            } else {
                ""
            },
        ),
        "thermal_point" => format!(
            "{:>5.1} °C: median {:.0} faults",
            f_f64(e, "temperature_c"),
            f_f64(e, "median_faults"),
        ),
        "thermal_fit" => format!(
            "{} fit: slope {:.2} faults/°C (r² {:.3}, log slope {:.4})",
            f_str(e, "platform"),
            f_f64(e, "slope"),
            f_f64(e, "r2"),
            f_f64(e, "log_slope"),
        ),
        "vmin_probe" => format!(
            "probe {:>4} mV: {} faults{}",
            f_u64(e, "v_mv"),
            f_u64(e, "faults"),
            if f_bool(e, "crashed") {
                "  CRASHED"
            } else {
                ""
            },
        ),
        "vmin_found" => format!(
            "vmin = {} mV in {}/{} probes",
            f_u64(e, "vmin_mv"),
            f_u64(e, "probes"),
            f_u64(e, "levels_total"),
        ),
        _ => return None,
    };
    Some(line)
}

impl Sink for ProgressSink {
    fn record(&self, e: &Event) {
        self.tally.record(e);
        if let Some(line) = progress_line(e) {
            println!("[{}] {line}", self.prefix);
        }
    }
}

/// What an experiment hands back: manifest inputs plus the named landmark
/// metrics its registry check fn gates on under `--check`.
struct CmdSummary {
    platform: String,
    seed: u64,
    fingerprint: u64,
    metrics: Vec<(&'static str, f64)>,
}

impl CmdSummary {
    fn new(platform: impl Into<String>, seed: u64, fingerprint: u64) -> CmdSummary {
        CmdSummary {
            platform: platform.into(),
            seed,
            fingerprint,
            metrics: Vec::new(),
        }
    }

    fn with_metrics(mut self, metrics: Vec<(&'static str, f64)>) -> CmdSummary {
        self.metrics = metrics;
        self
    }

    fn metric(&self, name: &str) -> Result<f64, String> {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
            .ok_or_else(|| format!("run reported no metric {name:?}"))
    }
}

/// The trained NN fixture, built once per process and shared by the
/// `fig13`/`fig14` subcommands.
struct NetFixture {
    data: SyntheticData,
    qnet: QNetwork,
    weights: Vec<usize>,
}

struct Ctx {
    quick: bool,
    check: bool,
    workers: usize,
    kill: bool,
    out: PathBuf,
    endpoint: Option<String>,
    metrics_addr: Option<String>,
    await_subscribers: usize,
    fixture: Option<NetFixture>,
}

impl Ctx {
    fn fixture(&mut self, tracer: &Tracer) -> &NetFixture {
        if self.fixture.is_none() {
            let layout: &[usize] = if self.quick {
                &[784, 128, 10]
            } else {
                &MNIST_LAYOUT
            };
            let epochs = if self.quick { 8 } else { 20 };
            let mut span = tracer.span_with(
                "train_fixture",
                vec![("epochs", epochs.into()), ("layers", layout.len().into())],
            );
            let data = DatasetKind::MnistLike.generate(NET_SEED);
            let mut net = Mlp::new(layout, NET_SEED);
            train(
                &mut net,
                &data.train,
                &TrainConfig {
                    epochs,
                    learning_rate: 0.02,
                    momentum: 0.5,
                    lr_decay: 0.8,
                    shuffle_seed: NET_SEED,
                },
            );
            span.field("nominal_error", net.error_on(&data.test).into());
            let weights: Vec<usize> = net.layers().iter().map(|l| l.w.data().len()).collect();
            self.fixture = Some(NetFixture {
                data,
                qnet: QNetwork::from_mlp(&net),
                weights,
            });
        }
        self.fixture.as_ref().expect("just built")
    }
}

fn eval_condition(model: &FaultModel) -> ResolvedCondition {
    let vcrash = model.platform().vccbram.vcrash;
    model.resolve(&ReadCondition {
        v: vcrash,
        temperature_c: EVAL_TEMPERATURE_C,
        run_seed: EVAL_RUN_SEED,
    })
}

/// Table I: the four platforms' static specifications.
fn run_table1(_ctx: &mut Ctx, tracer: &Tracer) -> Result<CmdSummary, String> {
    let _span = tracer.span("table1");
    let mut text = String::new();
    println!("Table I — platform specifications");
    for kind in PlatformKind::ALL {
        let p = kind.descriptor();
        let line = format!(
            "  {:<8} {:<18} {:>5} BRAMs {:>7.2} Mbit  VCCBRAM {}/{}/{} mV",
            kind.to_string(),
            p.device,
            p.bram_count,
            p.total_mbit(),
            p.vccbram.nominal.0,
            p.vccbram.vmin.0,
            p.vccbram.vcrash.0,
        );
        println!("{line}");
        text.push_str(&line);
        tracer.instant(
            "platform_spec",
            vec![
                ("brams", p.bram_count.into()),
                ("nominal_mv", p.vccbram.nominal.0.into()),
                ("vmin_mv", p.vccbram.vmin.0.into()),
                ("vcrash_mv", p.vccbram.vcrash.0.into()),
            ],
        );
    }
    Ok(CmdSummary::new("all", 0, fnv1a(text.as_bytes())))
}

/// Run a traced campaign over `kinds` and return its entries.
fn run_campaign(
    ctx: &Ctx,
    tracer: &Tracer,
    kinds: &[PlatformKind],
    runs_per_level: u32,
) -> Result<Vec<CampaignEntry>, String> {
    let mut campaign = Campaign::new(RecoveryPolicy::default()).with_tracer(tracer.clone());
    for &kind in kinds {
        let mut builder = SweepConfig::builder(Rail::Vccbram).runs(runs_per_level);
        if ctx.quick {
            // Start just above the first-fault region; the ladder still
            // walks through Vmin and the crash boundary.
            builder = builder.start(Millivolts(kind.descriptor().vccbram.vmin.0 + 30));
        }
        campaign.push(CampaignJob::new(kind, builder.build()));
    }
    campaign
        .run_sequential()
        .map_err(|e| format!("campaign failed: {e:?}"))
}

/// Fig. 1: Vmin/Vcrash guardband discovery on all four platforms.
fn run_fig1(ctx: &mut Ctx, tracer: &Tracer) -> Result<CmdSummary, String> {
    let runs = if ctx.quick { 2 } else { 5 };
    println!("Fig. 1 — voltage guardbands ({} runs/level)", runs);
    let entries = run_campaign(ctx, tracer, &PlatformKind::ALL, runs)?;
    let mut fingerprint = 0u64;
    for e in &entries {
        println!("  {}", e.report);
        fingerprint ^= e.record.fingerprint();
    }
    Ok(CmdSummary::new("all", 0, fingerprint))
}

/// Fig. 3: fault rate vs `VCCBRAM`, per platform.
fn run_fig3(ctx: &mut Ctx, tracer: &Tracer) -> Result<CmdSummary, String> {
    let kinds: &[PlatformKind] = if ctx.quick {
        &[PlatformKind::Zc702]
    } else {
        &PlatformKind::ALL
    };
    let runs = if ctx.quick { 2 } else { 10 };
    println!("Fig. 3 — fault rate vs VCCBRAM ({} runs/level)", runs);
    let entries = run_campaign(ctx, tracer, kinds, runs)?;
    let mut fingerprint = 0u64;
    for e in &entries {
        let mbit = e.job.kind.descriptor().total_mbit();
        println!("  {}:", e.job.kind);
        for lvl in &e.record.levels {
            println!(
                "    {:>4} mV  median {:>12.2} faults/Mbit{}",
                lvl.v_mv,
                lvl.median_faults_per_mbit(mbit),
                if lvl.crashed { "  CRASHED" } else { "" },
            );
        }
        fingerprint ^= e.record.fingerprint();
    }
    Ok(CmdSummary::new("all", 0, fingerprint))
}

/// Fig. 4: data-pattern impact at `Vcrash`.
fn run_fig4(ctx: &mut Ctx, tracer: &Tracer) -> Result<CmdSummary, String> {
    let kind = if ctx.quick {
        PlatformKind::Zc702
    } else {
        PlatformKind::Vc707
    };
    let p = kind.descriptor();
    let model = FaultModel::new(p);
    let mut board = Board::new(p);
    let runs = if ctx.quick { 3 } else { 20 };
    let vcrash = p.vccbram.vcrash;
    println!(
        "Fig. 4 — data-pattern impact ({kind} @ {} mV, {runs} runs)",
        vcrash.0
    );
    let mut text = format!("{kind}:{runs}");
    for pattern in DataPattern::ALL {
        let cfg = SweepConfig::builder(Rail::Vccbram)
            .pattern(pattern)
            .runs(runs)
            .build();
        let mut span = tracer.span("pattern_sweep");
        span.field("pattern", pattern.to_string().into());
        Probe::Bram
            .arm(&mut board, pattern)
            .map_err(|e| format!("arm: {e:?}"))?;
        let mut counts = Vec::with_capacity(runs as usize);
        for run in 0..runs {
            let faults = Probe::Bram
                .sample(&board, &model, &cfg, vcrash, run)
                .map_err(|e| format!("sample: {e:?}"))?;
            tracer.counter("runs", 1);
            counts.push(faults);
        }
        counts.sort_unstable();
        let median = counts[counts.len() / 2];
        let rate = median as f64 / p.total_mbit();
        println!(
            "  {:<10} median {:>12.2} faults/Mbit",
            pattern.to_string(),
            rate
        );
        text.push_str(&format!(";{pattern}={median}"));
        tracer.instant("pattern_done", vec![("median_faults", median.into())]);
    }
    Ok(CmdSummary::new(
        kind.to_string(),
        p.default_chip_seed,
        fnv1a(text.as_bytes()),
    ))
}

/// Fig. 5 (plus Figs. 6–7): per-BRAM vulnerability clusters and the
/// location χ² battery at `Vcrash`.
fn run_fig5(_ctx: &mut Ctx, tracer: &Tracer) -> Result<CmdSummary, String> {
    // Same knobs as `stats_landmarks.rs` pins: up to 6 classes, seed 5.
    const MAX_K: usize = 6;
    const CLUSTER_SEED: u64 = 5;
    println!("Fig. 5 — BRAM vulnerability clusters at Vcrash (k-means, silhouette-selected k)");
    let mut text = format!("fig5:max_k={MAX_K}:seed={CLUSTER_SEED}");
    for kind in PlatformKind::ALL {
        let platform = kind.descriptor();
        let vcrash = platform.vccbram.vcrash;
        let model = FaultModel::new(platform);
        let mut span = tracer.span_with(
            "cluster_analysis",
            vec![("platform", kind.to_string().into())],
        );
        let map = model.variation_map(vcrash);
        let clusters = cluster_brams(&map, MAX_K, CLUSTER_SEED)
            .ok_or_else(|| format!("{kind}: census too small to cluster"))?;
        tracer.instant(
            "kmeans_done",
            vec![
                ("platform", clusters.platform.to_string().into()),
                ("k", clusters.k.into()),
                ("silhouette", clusters.silhouette.into()),
                ("least_faulty_share", clusters.least_faulty_share().into()),
            ],
        );
        let rerun = cluster_brams(&map, MAX_K, CLUSTER_SEED)
            .ok_or_else(|| format!("{kind}: census too small to cluster"))?;
        if rerun != clusters {
            return Err(format!("{kind}: cluster assignments drifted across reruns"));
        }
        println!(
            "  {:<8} k={} silhouette={:.3} sizes={:?}",
            kind.to_string(),
            clusters.k,
            clusters.silhouette,
            clusters.sizes,
        );
        for (c, (size, centroid)) in clusters
            .sizes
            .iter()
            .zip(clusters.centroids.iter())
            .enumerate()
        {
            println!("    class {c}: {size:>5} BRAMs @ {centroid:>10.2} faults/Mbit");
        }

        let stats = LocationStats::census(&model, vcrash);
        stats.emit_events(tracer);
        let bram = stats.bram_uniformity().ok_or("empty census")?;
        let col = stats.grid_column_uniformity().ok_or("empty census")?;
        let row = stats.grid_row_uniformity().ok_or("empty census")?;
        let cell_row = stats.cell_row_uniformity().ok_or("empty census")?;
        let cell_bit = stats.cell_bit_uniformity().ok_or("empty census")?;
        println!(
            "    location χ²: bram p={:.2e}, die-col p={:.2e}, die-row p={:.2e} (α = {LOCATION_ALPHA})",
            bram.p_value, col.p_value, row.p_value,
        );
        println!(
            "    within-BRAM χ²: word-row p={:.3}, bit p={:.3} (structureless)",
            cell_row.p_value, cell_bit.p_value,
        );
        if !(bram.rejects_at(LOCATION_ALPHA)
            && col.rejects_at(LOCATION_ALPHA)
            && row.rejects_at(LOCATION_ALPHA))
        {
            return Err(format!("{kind}: location uniformity not rejected"));
        }
        span.field("k", clusters.k.into());
        text.push_str(&format!(
            ";{kind}:k={}:sizes={:?}:chi2={:.6}/{:.6}/{:.6}",
            clusters.k, clusters.sizes, bram.statistic, col.statistic, row.statistic,
        ));
    }
    Ok(CmdSummary::new("all", CLUSTER_SEED, fnv1a(text.as_bytes())))
}

/// Fig. 8: fault rate vs die temperature at `Vcrash` (ITD regression).
fn run_fig8(ctx: &mut Ctx, tracer: &Tracer) -> Result<CmdSummary, String> {
    let kinds: &[PlatformKind] = if ctx.quick {
        &[PlatformKind::Zc702]
    } else {
        &PlatformKind::ALL
    };
    let runs = if ctx.quick { 3 } else { 10 };
    println!("Fig. 8 — fault rate vs temperature at Vcrash ({runs} runs/point)");
    let mut text = format!("fig8:runs={runs}");
    for &kind in kinds {
        let mut campaign = ThermalCampaign::new(kind);
        campaign.runs_per_point = runs;
        let report = campaign
            .run(tracer)
            .map_err(|e| format!("{kind}: thermal campaign failed: {e:?}"))?;
        println!("  {:<8} @ {} mV:", kind.to_string(), report.v_mv);
        for point in &report.points {
            println!(
                "    {:>5.1} °C  median {:>12.0} faults",
                point.temperature_c, point.median_faults,
            );
        }
        let log_slope = report.log_fit.map_or(f64::NAN, |f| f.slope);
        println!(
            "    slope {:.2} faults/°C (r² {:.3}); log-linear slope {:.4}",
            report.rate_fit.slope, report.rate_fit.r2, log_slope,
        );
        if report.rate_fit.slope >= 0.0 {
            return Err(format!(
                "{kind}: expected inverse thermal dependence, slope = {}",
                report.rate_fit.slope,
            ));
        }
        text.push_str(&format!(
            ";{kind}:slope={:.6}:r2={:.6}",
            report.rate_fit.slope, report.rate_fit.r2,
        ));
    }
    Ok(CmdSummary::new(
        if ctx.quick { "zc702" } else { "all" },
        0,
        fnv1a(text.as_bytes()),
    ))
}

/// Table II: fault-count stability over repeated runs at `Vcrash`.
fn run_table2(ctx: &mut Ctx, tracer: &Tracer) -> Result<CmdSummary, String> {
    let kinds: &[PlatformKind] = if ctx.quick {
        &[PlatformKind::Zc702, PlatformKind::Vc707]
    } else {
        &PlatformKind::ALL
    };
    let runs = if ctx.quick { 10 } else { 100 };
    println!("Table II — stability over {runs} runs at Vcrash (faults/Mbit)");
    let mut text = format!("runs={runs}");
    for &kind in kinds {
        let p = kind.descriptor();
        let model = FaultModel::new(p);
        let mut board = Board::new(p);
        let cfg = SweepConfig::quick(Rail::Vccbram, runs);
        let mut span = tracer.span("stability_runs");
        span.field("platform", kind.to_string().into());
        Probe::Bram
            .arm(&mut board, cfg.pattern)
            .map_err(|e| format!("arm: {e:?}"))?;
        let mbit = p.total_mbit();
        let mut rates = Vec::with_capacity(runs as usize);
        for run in 0..runs {
            let faults = Probe::Bram
                .sample(&board, &model, &cfg, p.vccbram.vcrash, run)
                .map_err(|e| format!("sample: {e:?}"))?;
            tracer.counter("runs", 1);
            rates.push(faults as f64 / mbit);
        }
        let n = rates.len() as f64;
        let avg = rates.iter().sum::<f64>() / n;
        let min = rates.iter().copied().fold(f64::INFINITY, f64::min);
        let max = rates.iter().copied().fold(0.0f64, f64::max);
        let sigma = (rates.iter().map(|r| (r - avg).powi(2)).sum::<f64>() / n).sqrt();
        println!(
            "  {:<8} avg {:>10.2}  min {:>10.2}  max {:>10.2}  σ {:>8.2}  (σ/avg {:.4})",
            kind.to_string(),
            avg,
            min,
            max,
            sigma,
            sigma / avg.max(f64::MIN_POSITIVE),
        );
        text.push_str(&format!(";{kind}={avg:.4}/{sigma:.4}"));
        tracer.instant(
            "platform_done",
            vec![("avg_rate", avg.into()), ("sigma", sigma.into())],
        );
    }
    Ok(CmdSummary::new("all", 0, fnv1a(text.as_bytes())))
}

/// Fig. 10: `VCCBRAM` rail power down the voltage ladder, with the
/// dynamic/static split. Pure model evaluation — cheap enough that quick
/// and paper-scale modes are identical.
fn run_fig10(_ctx: &mut Ctx, tracer: &Tracer) -> Result<CmdSummary, String> {
    let kind = PlatformKind::Vc707;
    let model = ChipPowerModel::for_platform(kind);
    let spec = model.rail(Rail::Vccbram);
    let mut span = tracer.span_with("power_ladder", vec![("platform", kind.to_string().into())]);
    println!("Fig. 10 — VCCBRAM rail power vs voltage ({kind}, 25 °C)");
    let mut text = format!("fig10:{kind}");
    let mut v = spec.landmarks.nominal;
    while v.0 >= spec.landmarks.vcrash.0 {
        let s = spec.sample(v, 25.0);
        let mark = if v == spec.landmarks.nominal {
            "  <- nominal"
        } else if v == spec.landmarks.vmin {
            "  <- Vmin"
        } else if v == spec.landmarks.vcrash {
            "  <- Vcrash"
        } else {
            ""
        };
        println!(
            "  {:>4} mV  {:>9} µW  (dynamic {:.4} W, static {:.4} W){mark}",
            v.0,
            s.total_uw(),
            s.dynamic_w,
            s.static_w,
        );
        tracer.instant(
            "power_level",
            vec![
                ("v_mv", v.0.into()),
                ("total_uw", s.total_uw().into()),
                ("dynamic_w", s.dynamic_w.into()),
                ("static_w", s.static_w.into()),
            ],
        );
        tracer.gauge("rail_power_uw", s.total_uw());
        text.push_str(&format!(";{}={}", v.0, s.total_uw()));
        v = Millivolts(v.0 - 10);
    }
    let share = model.rail_share_nominal(Rail::Vccbram);
    let reduction = spec.reduction_at(spec.landmarks.vmin);
    let further = spec.further_reduction(spec.landmarks.vmin, spec.landmarks.vcrash);
    println!(
        "  landmarks: {:.1} % of chip power at nominal, {reduction:.1}x rail reduction at Vmin, \
         {:.1} % further at Vcrash",
        share * 100.0,
        further * 100.0,
    );
    span.field("vmin_reduction", reduction.into());
    Ok(
        CmdSummary::new(kind.to_string(), 0, fnv1a(text.as_bytes())).with_metrics(vec![
            ("bram_share_nominal", share),
            ("vmin_reduction", reduction),
            ("vcrash_further_reduction", further),
        ]),
    )
}

/// `--check` gate for fig10: the §V-B headline numbers.
fn check_fig10(_ctx: &Ctx, s: &CmdSummary) -> Result<(), String> {
    let share = s.metric("bram_share_nominal")?;
    if (share - 0.241).abs() > 1e-9 {
        return Err(format!("BRAM rail share {share}, paper says 24.1 %"));
    }
    let reduction = s.metric("vmin_reduction")?;
    if reduction <= 10.0 {
        return Err(format!(
            "rail reduction at Vmin {reduction:.2}x, paper says >10x"
        ));
    }
    let further = s.metric("vcrash_further_reduction")?;
    if (further - FURTHER_REDUCTION_TARGET).abs() > 0.05 {
        return Err(format!(
            "further reduction at Vcrash {further:.3}, expected ~0.40"
        ));
    }
    println!(
        "  check ok: share {:.1} %, Vmin reduction {reduction:.1}x, further {:.1} %",
        share * 100.0,
        further * 100.0,
    );
    Ok(())
}

/// Fig. 11: the VTR-style hierarchical power breakdown at the three
/// operating points, written to `fig11_breakdown.txt`.
fn run_fig11(ctx: &mut Ctx, tracer: &Tracer) -> Result<CmdSummary, String> {
    let kind = PlatformKind::Vc707;
    let model = ChipPowerModel::for_platform(kind);
    let spec = model.rail(Rail::Vccbram);
    let points = [
        ("nominal", spec.landmarks.nominal),
        ("vmin", spec.landmarks.vmin),
        ("vcrash", spec.landmarks.vcrash),
    ];
    println!("Fig. 11 — hierarchical power breakdown ({kind}, VCCBRAM underscaled)");
    let mut report_text = String::new();
    let mut share_nominal = 0.0;
    let mut total_nominal = 0.0;
    for (label, v) in points {
        let _span = tracer.span_with("breakdown", vec![("point", label.into())]);
        let b = model.breakdown(
            |r| {
                if r == Rail::Vccbram {
                    v
                } else {
                    Millivolts::NOMINAL
                }
            },
            25.0,
        );
        let share = b.share("VCCBRAM").ok_or("report lost the VCCBRAM row")?;
        if label == "nominal" {
            share_nominal = share;
            total_nominal = b.total_w();
        }
        println!(
            "  {label:<8} ({:>4} mV)  total {:>7.4} W  VCCBRAM share {:.4}",
            v.0,
            b.total_w(),
            share,
        );
        tracer.instant(
            "breakdown_done",
            vec![
                ("point", label.into()),
                ("total_w", b.total_w().into()),
                ("bram_share", share.into()),
            ],
        );
        report_text.push_str(&format!("== {label}: VCCBRAM at {} mV ==\n", v.0));
        report_text.push_str(&b.render());
        report_text.push('\n');
    }
    let report_path = ctx.out.join("fig11_breakdown.txt");
    std::fs::write(&report_path, &report_text).map_err(|e| format!("write breakdown: {e}"))?;
    println!("  wrote {}", report_path.display());
    Ok(
        CmdSummary::new(kind.to_string(), 0, fnv1a(report_text.as_bytes())).with_metrics(vec![
            ("bram_share_nominal", share_nominal),
            ("total_nominal_w", total_nominal),
        ]),
    )
}

/// `--check` gate for fig11: the breakdown's own nominal landmarks.
fn check_fig11(_ctx: &Ctx, s: &CmdSummary) -> Result<(), String> {
    let share = s.metric("bram_share_nominal")?;
    if (share - 0.241).abs() > 1e-9 {
        return Err(format!(
            "nominal breakdown share {share}, paper says 24.1 %"
        ));
    }
    let total = s.metric("total_nominal_w")?;
    if (total - 10.0).abs() > 1e-9 {
        return Err(format!(
            "nominal chip total {total} W, model calibrates to 10 W"
        ));
    }
    println!("  check ok: nominal breakdown 24.1 % of {total} W");
    Ok(())
}

/// Fig. 12: the voltage–accuracy–power Pareto sweep over the mapped
/// accelerator, with the computed knee.
fn run_fig12(ctx: &mut Ctx, tracer: &Tracer) -> Result<CmdSummary, String> {
    let quick = ctx.quick;
    let fx = ctx.fixture(tracer);
    let cfg = ParetoConfig::vc707_default(CHIP_SEED, EVAL_RUN_SEED, EVAL_TEMPERATURE_C);
    let mut span = tracer.span_with("pareto_sweep", vec![("chip_seed", CHIP_SEED.into())]);
    let sweep = voltage_accuracy_power_sweep(&cfg, &fx.qnet, &fx.weights, &fx.data)
        .map_err(|e| format!("pareto sweep: {e:?}"))?;
    println!("Fig. 12 — voltage–accuracy–power Pareto (VC707 chip {CHIP_SEED}, cold die)");
    let mut text = format!("fig12:q={quick}:net={NET_SEED}:chip={CHIP_SEED}:run={EVAL_RUN_SEED}");
    for (i, p) in sweep.points.iter().enumerate() {
        let on_frontier = sweep.frontier.contains(&i);
        let mark = match (on_frontier, i == sweep.knee) {
            (_, true) => "  <- knee",
            (true, false) => "  (frontier)",
            (false, false) => "",
        };
        println!(
            "  {:>4} mV  {:>9} µW  error {:.4}{mark}",
            p.v_mv, p.rail_uw, p.error,
        );
        tracer.instant(
            "pareto_point",
            vec![
                ("v_mv", p.v_mv.into()),
                ("rail_uw", p.rail_uw.into()),
                ("error", p.error.into()),
                ("frontier", on_frontier.into()),
            ],
        );
        text.push_str(&format!(";{}={}/{:.6}", p.v_mv, p.rail_uw, p.error));
    }
    let nominal = &sweep.points[0];
    let knee = sweep.knee_point();
    println!(
        "  knee: {} mV at {:.4} error — {:.1}x below nominal rail power",
        knee.v_mv,
        knee.error,
        nominal.rail_uw as f64 / knee.rail_uw as f64,
    );
    tracer.instant(
        "pareto_knee",
        vec![
            ("v_mv", knee.v_mv.into()),
            ("rail_uw", knee.rail_uw.into()),
            ("error", knee.error.into()),
        ],
    );
    span.field("frontier_len", sweep.frontier.len().into());
    Ok(CmdSummary::new(
        PlatformKind::Vc707.to_string(),
        CHIP_SEED,
        fnv1a(text.as_bytes()),
    )
    .with_metrics(vec![
        ("knee_v_mv", f64::from(knee.v_mv)),
        ("knee_error", knee.error),
        ("knee_rail_uw", knee.rail_uw as f64),
        ("nominal_error", nominal.error),
        ("nominal_rail_uw", nominal.rail_uw as f64),
        ("frontier_len", sweep.frontier.len() as f64),
    ]))
}

/// `--check` gate for fig12: the knee is pinned per fixture (the quick
/// net is more fault-tolerant, so its frontier collapses further down
/// the ladder) and must sit >10x below nominal rail power at
/// near-nominal accuracy.
fn check_fig12(ctx: &Ctx, s: &CmdSummary) -> Result<(), String> {
    let knee_v = s.metric("knee_v_mv")?;
    let expected = if ctx.quick { 540.0 } else { 550.0 };
    if knee_v != expected {
        return Err(format!("knee at {knee_v} mV, pinned at {expected} mV"));
    }
    let ratio = s.metric("nominal_rail_uw")? / s.metric("knee_rail_uw")?;
    if ratio <= 10.0 {
        return Err(format!("knee only {ratio:.1}x below nominal rail power"));
    }
    let knee_error = s.metric("knee_error")?;
    let nominal_error = s.metric("nominal_error")?;
    if knee_error > nominal_error + 0.01 {
        return Err(format!(
            "knee error {knee_error:.4} too far above nominal {nominal_error:.4}"
        ));
    }
    println!(
        "  check ok: knee {knee_v} mV, {ratio:.1}x power cut, error {knee_error:.4} (nominal {nominal_error:.4})"
    );
    Ok(())
}

/// The Fig. 13 measurement Fig. 14 builds on: the network stored with
/// contiguous placement on the VC707 chip, scored layer by layer at the
/// evaluation `Vcrash` read. Returns the chip's fault model and that read
/// with the report.
fn contiguous_vulnerability(
    fx: &NetFixture,
    tracer: &Tracer,
) -> Result<(FaultModel, ResolvedCondition, VulnerabilityReport), String> {
    let platform = Platform::new(PlatformKind::Vc707);
    let mut board = Board::with_chip_seed(platform, CHIP_SEED);
    let model = FaultModel::with_chip_seed(platform, CHIP_SEED);
    let cond = eval_condition(&model);
    let mapped = MappedNetwork::load_traced(
        &mut board,
        &fx.qnet,
        Placement::contiguous(&fx.weights),
        tracer,
    )
    .map_err(|e| format!("load: {e:?}"))?;
    let report = layer_vulnerability_traced(&mapped, &board, &model, &cond, &fx.data.test, tracer)
        .map_err(|e| format!("vulnerability: {e:?}"))?;
    Ok((model, cond, report))
}

/// Fig. 13: per-layer vulnerability of the mapped network at `Vcrash`.
fn run_fig13(ctx: &mut Ctx, tracer: &Tracer) -> Result<CmdSummary, String> {
    let quick = ctx.quick;
    let (_, _, report) = contiguous_vulnerability(ctx.fixture(tracer), tracer)?;
    println!("Fig. 13 — per-layer vulnerability (VC707 chip {CHIP_SEED} @ Vcrash, cold die)");
    println!(
        "  baseline {:.4}  all-layers {:.4}",
        report.baseline, report.degraded
    );
    for (l, err) in report.per_layer.iter().enumerate() {
        let mark = if l == report.dominant_layer() {
            "  <- dominant"
        } else {
            ""
        };
        println!("  layer {l}: {err:.4}{mark}");
    }
    Ok(CmdSummary::new(
        PlatformKind::Vc707.to_string(),
        CHIP_SEED,
        fnv1a(
            format!("fig13:q={quick}:net={NET_SEED}:chip={CHIP_SEED}:run={EVAL_RUN_SEED}")
                .as_bytes(),
        ),
    ))
}

/// Fig. 14: contiguous vs ICBP placement at `Vcrash` — Fig. 13's run,
/// then the dominant layer moved by ICBP and read back once more.
fn run_fig14(ctx: &mut Ctx, tracer: &Tracer) -> Result<CmdSummary, String> {
    let quick = ctx.quick;
    let fx = ctx.fixture(tracer);
    let (model, cond, report) = contiguous_vulnerability(fx, tracer)?;
    let dominant = report.dominant_layer();

    let fvm = model.variation_map(cond.condition().v);
    let icbp_placement = Placement::icbp(&fx.weights, &fvm, dominant);
    let mut board = Board::with_chip_seed(*model.platform(), CHIP_SEED);
    let remapped = MappedNetwork::load_traced(&mut board, &fx.qnet, icbp_placement, tracer)
        .map_err(|e| format!("icbp load: {e:?}"))?;
    let icbp = remapped
        .read_back_traced(&board, &model, Some(&cond), LayerFaults::All, tracer)
        .map_err(|e| format!("icbp read: {e:?}"))?
        .error_on(&fx.data.test);
    tracer.instant(
        "icbp_done",
        vec![("dominant", dominant.into()), ("error", icbp.into())],
    );

    println!("Fig. 14 — ICBP vs default placement (VC707 chip {CHIP_SEED} @ Vcrash, cold die)");
    println!("  nominal (clean read-back)     {:.4}", report.baseline);
    println!("  Vcrash, contiguous placement  {:.4}", report.degraded);
    println!("  Vcrash, ICBP (layer {dominant} moved)  {icbp:.4}");
    Ok(CmdSummary::new(
        PlatformKind::Vc707.to_string(),
        CHIP_SEED,
        fnv1a(
            format!("fig14:q={quick}:net={NET_SEED}:chip={CHIP_SEED}:run={EVAL_RUN_SEED}")
                .as_bytes(),
        ),
    ))
}

/// Mitigation shoot-out (the Salami et al. ECC follow-up): storage-level
/// SECDED census per platform, then the Fig.-12 ladder rerun under all
/// four `Mitigation` modes with per-mode recovery floors.
fn run_mitigation(ctx: &mut Ctx, tracer: &Tracer) -> Result<CmdSummary, String> {
    let quick = ctx.quick;
    let mut text =
        format!("mitigation:q={quick}:net={NET_SEED}:chip={CHIP_SEED}:run={EVAL_RUN_SEED}");
    println!("Mitigation shoot-out — built-in SECDED ECC vs ICBP vs both");

    // Phase A: storage-level census. Every BRAM of every platform holds
    // all-ones 72-bit codewords (parity in the same array) and walks the
    // ladder: raw vs corrected vs escaped rates per Mbit.
    let step = if quick { 20 } else { 10 };
    let mut census_escaped_vcrash = 0.0f64;
    for kind in PlatformKind::ALL {
        let census = ecc_ladder_census(
            kind,
            CHIP_SEED,
            uvf_fpga::DEFAULT_TEMPERATURE_C,
            EVAL_RUN_SEED,
            step,
            50,
        );
        println!("  {kind} storage census (all-ones codewords, chip {CHIP_SEED}):");
        for lvl in &census {
            println!(
                "    {:>4} mV  raw {:>8.1}/Mbit  corrected {:>7.1}/Mbit  escaped {:>6.2}/Mbit",
                lvl.v_mv,
                lvl.raw_per_mbit(),
                lvl.corrected_per_mbit(),
                lvl.escaped_per_mbit(),
            );
            tracer.counter("ecc_corrected", lvl.stats.corrected);
            tracer.counter("ecc_escaped", lvl.stats.escaped());
            tracer.instant(
                "ecc_census_level",
                vec![
                    ("platform", kind.to_string().into()),
                    ("v_mv", lvl.v_mv.into()),
                    ("raw_flips", lvl.stats.raw_flips.into()),
                    ("corrected", lvl.stats.corrected.into()),
                    ("detected", lvl.stats.detected.into()),
                    ("miscorrected", lvl.stats.miscorrected.into()),
                ],
            );
            text.push_str(&format!(
                ";{kind}:{}={}/{}/{}/{}",
                lvl.v_mv,
                lvl.stats.raw_flips,
                lvl.stats.corrected,
                lvl.stats.detected,
                lvl.stats.miscorrected,
            ));
        }
        if kind == PlatformKind::Vc707 {
            census_escaped_vcrash = census.last().map_or(0.0, |l| l.stats.escaped() as f64);
        }
    }

    // Phase B: the NN recovery shoot-out on the Fig. 13/14 chip, run
    // twice — the second run must be PartialEq-identical to the first.
    let fx = ctx.fixture(tracer);
    let protected = fx.weights.len() - 1;
    let cfg =
        ShootoutConfig::vc707_default(CHIP_SEED, EVAL_RUN_SEED, EVAL_TEMPERATURE_C, protected);
    let mut span = tracer.span_with("mitigation_shootout", vec![("chip_seed", CHIP_SEED.into())]);
    let report = mitigation_shootout_traced(&cfg, &fx.qnet, &fx.weights, &fx.data, tracer)
        .map_err(|e| format!("shootout: {e:?}"))?;
    let rerun =
        mitigation_shootout_traced(&cfg, &fx.qnet, &fx.weights, &fx.data, &Tracer::disabled())
            .map_err(|e| format!("shootout rerun: {e:?}"))?;
    let identical = report == rerun;
    span.field("rerun_identical", identical.into());

    println!("  NN recovery (VC707 chip {CHIP_SEED}, cold die, protected layer {protected}):");
    print!("    {:>7}", "mV");
    for m in Mitigation::ALL {
        print!("  {:>10}", m.to_string());
    }
    println!("  ecc-escaped  ecc+icbp-escaped");
    let rungs = report.curve(Mitigation::None).points.len();
    for i in 0..rungs {
        let v = report.curve(Mitigation::None).points[i].v_mv;
        print!("    {v:>7}");
        for m in Mitigation::ALL {
            print!("  {:>10.4}", report.curve(m).points[i].error);
        }
        let esc = |m: Mitigation| report.curve(m).points[i].ecc.map_or(0, |s| s.escaped());
        println!(
            "  {:>11}  {:>16}",
            esc(Mitigation::Ecc),
            esc(Mitigation::EccIcbp)
        );
    }
    for m in Mitigation::ALL {
        let curve = report.curve(m);
        for p in &curve.points {
            let (corrected, escaped) = p.ecc.map_or((0, 0), |s| (s.corrected, s.escaped()));
            text.push_str(&format!(
                ";{m}:{}={:.6}:{corrected}/{escaped}",
                p.v_mv, p.error
            ));
        }
    }

    // Recovery floors: deepest rung still at nominal accuracy (exact —
    // the strictest reading of "recovers nominal").
    let floor = |m: Mitigation| -> f64 {
        report
            .curve(m)
            .recovery_floor_mv(RECOVERY_TOL)
            .map_or(0.0, f64::from)
    };
    let nominal_error = report.curve(Mitigation::None).nominal_error;
    println!("  nominal error {nominal_error:.4}; recovery floors (exact nominal):");
    for m in Mitigation::ALL {
        let f = floor(m);
        match f as u32 {
            0 => println!("    {m:<9} never holds nominal on the ladder"),
            v => println!("    {m:<9} holds nominal down to {v} mV"),
        }
        tracer.instant(
            "recovery_floor",
            vec![
                ("mitigation", m.to_string().into()),
                ("floor_mv", (f as u64).into()),
            ],
        );
    }
    if !identical {
        println!("  WARNING: rerun diverged from first shoot-out");
    }
    let ecc_escaped_vcrash = report
        .curve(Mitigation::Ecc)
        .points
        .last()
        .and_then(|p| p.ecc)
        .map_or(0.0, |s| s.escaped() as f64);
    Ok(CmdSummary::new(
        PlatformKind::Vc707.to_string(),
        CHIP_SEED,
        fnv1a(text.as_bytes()),
    )
    .with_metrics(vec![
        ("nominal_error", nominal_error),
        ("floor_none_mv", floor(Mitigation::None)),
        ("floor_ecc_mv", floor(Mitigation::Ecc)),
        ("floor_icbp_mv", floor(Mitigation::Icbp)),
        ("floor_ecc_icbp_mv", floor(Mitigation::EccIcbp)),
        ("ecc_escaped_vcrash", ecc_escaped_vcrash),
        ("census_escaped_vcrash", census_escaped_vcrash),
        ("rerun_identical", if identical { 1.0 } else { 0.0 }),
    ]))
}

/// Recovery-floor tolerance: exact nominal accuracy, the strictest
/// reading of the paper's "recovers nominal" claim. Error is a count
/// over the test split, so equality is well-defined.
const RECOVERY_TOL: f64 = 0.0;

/// `--check` gate for the shoot-out headline: reruns are bit-identical,
/// multi-bit words appear near Vcrash (so plain ECC escapes), and
/// ECC+ICBP holds nominal accuracy strictly deeper than ICBP alone.
fn check_mitigation(_ctx: &Ctx, s: &CmdSummary) -> Result<(), String> {
    if s.metric("rerun_identical")? != 1.0 {
        return Err("shoot-out rerun was not bit-identical".into());
    }
    if s.metric("census_escaped_vcrash")? <= 0.0 {
        return Err("no multi-bit escapes in the VC707 census at Vcrash".into());
    }
    let icbp = s.metric("floor_icbp_mv")?;
    let both = s.metric("floor_ecc_icbp_mv")?;
    if both <= 0.0 {
        return Err("ecc+icbp never held nominal accuracy on the ladder".into());
    }
    // Lower floor = deeper recovery. A missing ICBP floor (0.0) means
    // ICBP alone never held nominal, which ecc+icbp strictly beats.
    if icbp > 0.0 && both >= icbp {
        return Err(format!(
            "ecc+icbp floor {both} mV not strictly below icbp floor {icbp} mV"
        ));
    }
    println!(
        "  check ok: ecc+icbp holds nominal to {both} mV (icbp {})",
        if icbp > 0.0 {
            format!("{icbp} mV")
        } else {
            "never".into()
        }
    );
    Ok(())
}

/// `serve`: the Fig.-1 guardband campaign fanned over worker *processes*
/// through `uvf-serve` — the server owns the queue and checkpoint store,
/// workers pull jobs over a Unix socket and stream their trace events
/// back. With `--kill` one worker is SIGKILLed mid-campaign and the
/// supervisor replaces it; with `--check` the merged result is compared
/// byte-for-byte against the in-process sequential runner.
fn run_serve(ctx: &mut Ctx, tracer: &Tracer) -> Result<CmdSummary, String> {
    let runs = if ctx.quick { 2 } else { 5 };
    let workers = ctx.workers.max(1);
    println!(
        "serve — distributed campaign: {workers} workers, {runs} runs/level{}",
        if ctx.kill {
            ", one induced SIGKILL"
        } else {
            ""
        }
    );
    let mut jobs = Vec::new();
    for kind in PlatformKind::ALL {
        let mut builder = SweepConfig::builder(Rail::Vccbram).runs(runs);
        if ctx.quick {
            builder = builder.start(Millivolts(kind.descriptor().vccbram.vmin.0 + 30));
        }
        jobs.push(CampaignJob::new(kind, builder.build()));
    }

    let mut span = tracer.span_with("serve_campaign", vec![("workers", workers.into())]);
    let ckpt_dir = ctx.out.join("serve-checkpoints");
    let endpoint = match &ctx.endpoint {
        Some(text) => Endpoint::parse(text).map_err(|e| format!("--endpoint: {e}"))?,
        None => Endpoint::Unix(ctx.out.join(format!("serve-{}.sock", std::process::id()))),
    };
    let mut config = ServerConfig::new(jobs.clone(), RecoveryPolicy::default(), endpoint);
    config.checkpoint_dir = Some(ckpt_dir.clone());
    config.metrics_addr = ctx.metrics_addr.clone();
    // Dead workers' flight-recorder tails land next to the artifacts.
    config.crash_dir = Some(ctx.out.clone());
    let handle = CampaignServer::start(config).map_err(|e| format!("server start: {e:?}"))?;
    if let Some(addr) = handle.metrics_addr() {
        println!("  [serve] fleet metrics: http://{addr}/metrics");
    }
    if ctx.await_subscribers > 0 {
        // Hold the campaign until the watchers are attached: a quick
        // campaign can finish in under a second, and a dashboard that
        // subscribes before the first claim records the log from event
        // zero instead of racing the fleet.
        println!(
            "  [serve] waiting for {} subscriber(s) before spawning workers",
            ctx.await_subscribers
        );
        let sub_deadline = Instant::now() + std::time::Duration::from_secs(60);
        while handle.subscriber_count() < ctx.await_subscribers {
            if Instant::now() > sub_deadline {
                return Err(format!(
                    "timed out waiting for {} subscriber(s)",
                    ctx.await_subscribers
                ));
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        tracer.instant(
            "subscribers_attached",
            vec![("count", ctx.await_subscribers.into())],
        );
    }
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut fleet = Supervisor::new(
        exe,
        vec![
            "work".into(),
            "--endpoint".into(),
            handle.endpoint().to_string(),
        ],
    );
    fleet
        .spawn(workers)
        .map_err(|e| format!("spawn workers: {e}"))?;
    tracer.instant("workers_spawned", vec![("workers", workers.into())]);

    let deadline = Instant::now() + std::time::Duration::from_secs(600);
    let wait = |cond: &dyn Fn() -> bool, what: &str| -> Result<(), String> {
        while !cond() {
            if Instant::now() > deadline {
                return Err(format!(
                    "timed out waiting for {what}; snapshot {:?}",
                    handle.snapshot()
                ));
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        Ok(())
    };
    // Exercise the server-side FVM cache while the campaign is live: each
    // job's die census is fetched twice over a plain client connection —
    // the first query misses (or reuses a worker-shared model), the second
    // is a guaranteed server-side hit, so repeat clients are memoized.
    let mut fvm_conn = handle
        .endpoint()
        .connect()
        .map_err(|e| format!("fvm client connect: {e}"))?;
    let mut fetched: Vec<(PlatformKind, String)> = Vec::new();
    for job in &jobs {
        let p = job.kind.descriptor();
        let query = Message::GetFvm {
            platform: job.kind.to_string(),
            chip_seed: p.default_chip_seed,
            temp_mc: 25_000,
            v_ref_mv: p.vccbram.vcrash.0,
        };
        for _ in 0..2 {
            query
                .write_to(&mut fvm_conn.writer)
                .map_err(|e| format!("fvm query: {e}"))?;
            match Message::read_from(&mut fvm_conn.reader) {
                Ok(Some(Message::Fvm { record })) => fetched.push((job.kind, record)),
                Ok(other) => return Err(format!("fvm reply: unexpected {other:?}")),
                Err(e) => return Err(format!("fvm reply: {e}")),
            }
        }
    }
    drop(fvm_conn);
    println!(
        "  [serve] fetched {} FVM censuses from the server cache",
        fetched.len()
    );
    tracer.instant("fvm_fetched", vec![("queries", fetched.len().into())]);

    if ctx.kill {
        wait(&|| handle.snapshot().jobs_done >= 1, "first job completion")?;
        fleet.kill(0).map_err(|e| format!("kill worker: {e}"))?;
        tracer.instant("worker_killed", vec![("slot", 0u32.into())]);
        println!("  [serve] SIGKILLed worker slot 0, respawning");
        let restarted = fleet.restart_dead().map_err(|e| format!("respawn: {e}"))?;
        tracer.instant("workers_respawned", vec![("count", restarted.len().into())]);
    }
    wait(
        &|| handle.snapshot().jobs_done == jobs.len(),
        "campaign completion",
    )?;
    let snapshot = handle.snapshot();
    let result = handle.join().map_err(|e| format!("server join: {e:?}"))?;
    fleet.shutdown();
    span.field("workers_seen", snapshot.workers_seen.into());
    drop(span);

    let events_path = ctx.out.join("serve_events.jsonl");
    let merged: String = result.events.iter().map(|e| e.to_jsonl() + "\n").collect();
    std::fs::write(&events_path, merged).map_err(|e| format!("write merged events: {e}"))?;
    let mut fingerprint = 0u64;
    for e in &result.entries {
        println!("  {}", e.report);
        fingerprint ^= e.record.fingerprint();
    }
    println!(
        "  {} workers seen, assignments {:?}, merged log {}",
        snapshot.workers_seen,
        snapshot.assignments,
        events_path.display(),
    );

    if ctx.check {
        let mut campaign = Campaign::new(RecoveryPolicy::default());
        for job in &jobs {
            campaign.push(*job);
        }
        let expected = campaign
            .run_sequential()
            .map_err(|e| format!("in-process baseline: {e:?}"))?;
        // Bit-identity audit. Every divergence is collected so a failure
        // exits non-zero with ONE line naming each diverging job and
        // which aspect broke (record bytes, simulated clock, manifest,
        // served census) — enough to triage without rerunning.
        let mut diffs: Vec<String> = Vec::new();
        if expected.len() != result.entries.len() {
            diffs.push(format!(
                "entry count {} != in-process {}",
                result.entries.len(),
                expected.len()
            ));
        }
        for (idx, (e, g)) in expected.iter().zip(&result.entries).enumerate() {
            let mut aspects = Vec::new();
            if e.record.to_json_string() != g.record.to_json_string() {
                aspects.push("record");
            }
            if e.sim_ms != g.sim_ms {
                aspects.push("sim_ms");
            }
            if !aspects.is_empty() {
                diffs.push(format!("job {idx} ({}): {}", e.job.kind, aspects.join("+")));
            }
        }
        let manifest_expected = CampaignManifest::from_entries(&expected).to_json_string();
        if result.manifest.to_json_string() != manifest_expected {
            diffs.push("manifest: bytes diverged".into());
        }
        // The served censuses must match a local capture byte-for-byte
        // (the cache is keyed purely; quantized 25 °C is exactly t_ref).
        for (idx, (kind, record)) in fetched.iter().enumerate() {
            let p = kind.descriptor();
            let map =
                FvmCache::global().variation_map(p, p.default_chip_seed, 25.0, p.vccbram.vcrash);
            if *record != FvmRecord::from_map(&map).to_json().to_string() {
                diffs.push(format!("fvm query {idx} ({kind}): census bytes diverged"));
            }
        }
        if !diffs.is_empty() {
            return Err(format!(
                "check failed — {} divergence(s): {}",
                diffs.len(),
                diffs.join("; ")
            ));
        }
        println!("  check ok: distributed campaign is bit-identical to the in-process runner");
        tracer.instant("serve_check_ok", vec![("jobs", jobs.len().into())]);
    }
    Ok(CmdSummary::new("all", 0, fingerprint))
}

/// Validate the artifact triple `--check` style; error strings on failure.
/// The manifest must also agree with its own event log: its phases are
/// the log's root spans, in order, and it counts at least every logged
/// event (the log omits `Timing` samples).
fn check_artifacts(
    prom_text: &str,
    manifest: &Manifest,
    manifest_path: &std::path::Path,
    jsonl_path: &std::path::Path,
) -> Result<(), String> {
    let samples = parse_exposition(prom_text).map_err(|e| format!("exposition invalid: {e}"))?;
    let loaded = Manifest::load(manifest_path).map_err(|e| format!("manifest load: {e}"))?;
    if &loaded != manifest {
        return Err("manifest did not round-trip".into());
    }
    let log = std::fs::read_to_string(jsonl_path).map_err(|e| format!("event log: {e}"))?;
    let mut lines = 0u64;
    let mut roots = Vec::new();
    for (i, line) in log.lines().enumerate() {
        let event =
            Event::parse_jsonl(line).map_err(|e| format!("event log line {}: {e}", i + 1))?;
        if matches!(event.kind, EventKind::SpanEnd) && event.parent.is_none() {
            roots.push(event.name.to_string());
        }
        lines += 1;
    }
    let phases: Vec<&str> = manifest.phases.iter().map(|p| p.name.as_str()).collect();
    if phases != roots {
        return Err(format!(
            "manifest phases {phases:?} are not the event log's root spans {roots:?}"
        ));
    }
    if manifest.events < lines {
        return Err(format!(
            "manifest counts {} events but the event log holds {lines}",
            manifest.events
        ));
    }
    println!(
        "  check ok: {samples} exposition samples, {lines} log lines, manifest round-trips \
         and matches its log ({} phases)",
        phases.len()
    );
    Ok(())
}

fn run_command(cmd: &str, ctx: &mut Ctx) -> Result<(), String> {
    let exp = experiment(cmd).ok_or_else(|| format!("unknown command {cmd}"))?;
    std::fs::create_dir_all(&ctx.out).map_err(|e| format!("create {}: {e}", ctx.out.display()))?;
    let jsonl_path = ctx.out.join(format!("{cmd}.jsonl"));
    let jsonl = Arc::new(JsonlSink::create(&jsonl_path).map_err(|e| format!("event log: {e}"))?);
    let prom = Arc::new(PrometheusSink::new());
    let progress = Arc::new(ProgressSink::new(exp.name));
    let tracer = Tracer::builder()
        .sink(jsonl.clone())
        .sink(prom.clone())
        .sink(progress.clone())
        .build();

    let t0 = Instant::now();
    let summary = (exp.run)(ctx, &tracer)?;
    tracer.flush();
    // FVM-cache counters surface in the exposition and manifest via a
    // prom-only tracer: the .jsonl event log stays byte-stable across
    // reruns (cache traffic can race, the deterministic stream cannot).
    let counters_only = Tracer::builder().sink(prom.clone()).build();
    FvmCache::global().publish(&counters_only);
    let wall_ns_total = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);

    let manifest = Manifest {
        name: cmd.to_string(),
        config_fingerprint: summary.fingerprint,
        platform: summary.platform.clone(),
        seed: summary.seed,
        event_log: Some(jsonl_path.display().to_string()),
        events: progress.tally.events(),
        wall_ns_total,
        phases: progress.tally.phases(),
        counters: prom.counters(),
    };
    let prom_path = ctx.out.join(format!("{cmd}.prom"));
    let prom_text = prom.render();
    std::fs::write(&prom_path, &prom_text).map_err(|e| format!("write exposition: {e}"))?;
    let manifest_path = ctx.out.join(format!("{cmd}_manifest.json"));
    manifest
        .save(&manifest_path)
        .map_err(|e| format!("write manifest: {e}"))?;
    println!(
        "  wrote {} + {} + {} ({} events, {:.1} ms)",
        jsonl_path.display(),
        prom_path.display(),
        manifest_path.display(),
        manifest.events,
        wall_ns_total as f64 / 1e6,
    );
    if ctx.check {
        check_artifacts(&prom_text, &manifest, &manifest_path, &jsonl_path)?;
        for artifact in exp.extra_artifacts {
            let path = ctx.out.join(artifact);
            if !path.exists() {
                return Err(format!("missing extra artifact {}", path.display()));
            }
        }
        if let Some(check) = exp.check {
            check(ctx, &summary)?;
        }
    }
    Ok(())
}

/// `repro work --endpoint E [..]`: run this process as a campaign worker,
/// with `uvf-serve-worker`'s command line.
/// This is the command line [`run_serve`]'s supervisor spawns, so a
/// distributed campaign needs no binary besides `repro` itself.
fn run_work_mode() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(2).collect();
    let opts = match WorkerOptions::from_args(&args) {
        Ok(opts) => opts,
        Err(msg) => {
            eprintln!("repro work: {msg}\n{}", usage());
            return ExitCode::FAILURE;
        }
    };
    match run_worker(&opts) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("repro work: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `repro watch --endpoint E [--from SEQ] [--once]`: subscribe to a live
/// campaign server and render its published merged event log as a
/// terminal dashboard — per-worker job/level/ETA lines, fleet fault-rate
/// counters, recovery events highlighted. Exits when the campaign's log
/// completes. Without `--once` a dropped connection resubscribes from the
/// last rendered sequence number (the stream is resumable by design);
/// `--once` treats any early end of stream as a failure instead.
fn run_watch_mode() -> ExitCode {
    let mut endpoint_text = None;
    let mut from = 0u64;
    let mut once = false;
    let mut it = std::env::args().skip(2);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--endpoint" => endpoint_text = it.next(),
            "--once" => once = true,
            "--from" => {
                let Some(v) = it.next().and_then(|v| v.parse().ok()) else {
                    eprintln!("repro watch: --from needs a sequence number");
                    return ExitCode::FAILURE;
                };
                from = v;
            }
            other => {
                eprintln!("repro watch: unknown argument {other}\n{}", usage());
                return ExitCode::FAILURE;
            }
        }
    }
    let Some(text) = endpoint_text else {
        eprintln!("repro watch: --endpoint is required\n{}", usage());
        return ExitCode::FAILURE;
    };
    let endpoint = match Endpoint::parse(&text) {
        Ok(ep) => ep,
        Err(msg) => {
            eprintln!("repro watch: {msg}");
            return ExitCode::FAILURE;
        }
    };
    match watch_campaign(&endpoint, from, once) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("repro watch: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Subscribe with connection retries: the watcher is routinely started
/// before (or racing) the server it wants to observe.
fn connect_subscription(endpoint: &Endpoint, from: u64) -> Result<Subscription, String> {
    let deadline = Instant::now() + std::time::Duration::from_secs(30);
    loop {
        match Subscription::open(endpoint, from, 0) {
            Ok(sub) => return Ok(sub),
            Err(e) if Instant::now() >= deadline => {
                return Err(format!("subscribe to {endpoint}: {e}"));
            }
            Err(_) => std::thread::sleep(std::time::Duration::from_millis(200)),
        }
    }
}

fn watch_campaign(endpoint: &Endpoint, mut from: u64, once: bool) -> Result<(), String> {
    println!("watch — tailing {endpoint} from seq {from}");
    let mut board = WatchBoard::new();
    loop {
        let mut sub = connect_subscription(endpoint, from)?;
        let mut completed = false;
        loop {
            match sub.next_batch() {
                Ok(Some(batch)) => {
                    board.lagged(batch.dropped);
                    for line in &batch.lines {
                        let event = Event::parse_jsonl(line)
                            .map_err(|e| format!("stream line unparseable: {e}"))?;
                        from = event.seq + 1;
                        board.observe(&event);
                    }
                    if batch.done {
                        completed = true;
                        break;
                    }
                }
                Ok(None) => break,
                Err(e) => {
                    eprintln!("[watch] stream error: {e}");
                    break;
                }
            }
        }
        if completed {
            board.summary();
            return Ok(());
        }
        if once {
            return Err("stream ended before the campaign completed".into());
        }
        println!("[watch] stream interrupted — resubscribing from seq {from}");
    }
}

/// Per-job context the dashboard attributes worker events to. The
/// published log arrives grouped by job, so the most recent
/// `job_claimed`/`job_reassigned` names the job and worker every
/// subsequent sweep event belongs to.
struct JobLine {
    platform: String,
    worker: u64,
}

/// The `repro watch` dashboard state: renders one line per interesting
/// event and keeps fleet-wide counters for the closing summary.
struct WatchBoard {
    jobs: std::collections::BTreeMap<u64, JobLine>,
    current: Option<u64>,
    jobs_done: u64,
    jobs_failed: u64,
    faults: u64,
    crashes: u64,
    recoveries: u64,
    events: u64,
    dropped: u64,
}

impl WatchBoard {
    fn new() -> WatchBoard {
        WatchBoard {
            jobs: std::collections::BTreeMap::new(),
            current: None,
            jobs_done: 0,
            jobs_failed: 0,
            faults: 0,
            crashes: 0,
            recoveries: 0,
            events: 0,
            dropped: 0,
        }
    }

    fn lagged(&mut self, cumulative: u64) {
        if cumulative > self.dropped {
            println!(
                "[watch] !! lagging: {} events dropped by the server-side queue",
                cumulative - self.dropped
            );
            self.dropped = cumulative;
        }
    }

    /// `"w3 job1 pynq-z1"` — the prefix tying a sweep line to its worker.
    fn context(&self) -> String {
        match self
            .current
            .and_then(|job| self.jobs.get(&job).map(|j| (job, j)))
        {
            Some((job, line)) => format!("w{} job{} {}", line.worker, job, line.platform),
            None => "job ?".to_string(),
        }
    }

    fn observe(&mut self, e: &Event) {
        self.events += 1;
        if !matches!(e.kind, EventKind::Instant) {
            return;
        }
        match e.name.as_ref() {
            "job_claimed" | "job_reassigned" => {
                let job = f_u64(e, "job");
                let worker = f_u64(e, "worker");
                let platform = f_str(e, "platform").to_string();
                self.jobs.insert(job, JobLine { platform, worker });
                self.current = Some(job);
                if e.name.as_ref() == "job_reassigned" {
                    self.recoveries += 1;
                    println!(
                        "[watch] !! {} | reassigned to worker {worker} (attempt {})",
                        self.context(),
                        f_u64(e, "assignment"),
                    );
                } else {
                    self.progress(e);
                }
            }
            "worker_lost" | "lease_expired" => {
                self.recoveries += 1;
                println!(
                    "[watch] !! {} job {} (worker {})",
                    e.name,
                    f_u64(e, "job"),
                    f_u64(e, "worker"),
                );
            }
            "checkpoint_loaded" => {
                self.recoveries += 1;
                println!("[watch] !! {} resumed from checkpoint", self.context());
            }
            _ => self.progress(e),
        }
    }

    /// A [`progress_line`] event: the worker/job prefix, `!!` on crashes
    /// and failures, and the fleet counters the event moves.
    fn progress(&mut self, e: &Event) {
        let Some(line) = progress_line(e) else {
            return;
        };
        let (alert, fleet) = match e.name.as_ref() {
            "level_done" => {
                self.faults += f_u64(e, "faults");
                ("", format!(" | fleet {} faults", self.faults))
            }
            "crash" => {
                self.crashes += 1;
                ("!! ", format!(" | fleet crashes: {}", self.crashes))
            }
            "job_done" => {
                self.jobs_done += 1;
                let fleet = format!(
                    " | fleet: {} done, {} faults, {} crashes",
                    self.jobs_done, self.faults, self.crashes
                );
                ("", fleet)
            }
            "job_failed" => {
                self.jobs_failed += 1;
                ("!! ", String::new())
            }
            _ => ("", String::new()),
        };
        println!("[watch] {alert}{} | {line}{fleet}", self.context());
    }

    fn summary(&self) {
        println!(
            "[watch] campaign complete: {} done / {} failed — {} events, {} faults, \
             {} crashes, {} recovery events, {} dropped",
            self.jobs_done,
            self.jobs_failed,
            self.events,
            self.faults,
            self.crashes,
            self.recoveries,
            self.dropped,
        );
    }
}

/// `repro promcheck <file>...`: strict-parse Prometheus expositions with
/// [`uvf_trace::parse_exposition`] — CI's assertion that the fleet
/// exposition the server scraped is valid text format.
fn run_promcheck_mode() -> ExitCode {
    let files: Vec<String> = std::env::args().skip(2).collect();
    if files.is_empty() {
        eprintln!(
            "repro promcheck: at least one exposition file required\n{}",
            usage()
        );
        return ExitCode::FAILURE;
    }
    for file in &files {
        let text = match std::fs::read_to_string(file) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("repro promcheck: read {file}: {e}");
                return ExitCode::FAILURE;
            }
        };
        match parse_exposition(&text) {
            Ok(samples) => println!("promcheck ok: {file} ({samples} samples)"),
            Err(e) => {
                eprintln!("repro promcheck: {file}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    match std::env::args().nth(1).as_deref() {
        Some("work") => return run_work_mode(),
        Some("watch") => return run_watch_mode(),
        Some("promcheck") => return run_promcheck_mode(),
        _ => {}
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "repro: {} mode, {} commands, out = {}\n",
        if args.quick { "quick" } else { "paper-scale" },
        args.commands.len(),
        args.out.display(),
    );
    let mut ctx = Ctx {
        quick: args.quick,
        check: args.check,
        workers: args.workers,
        kill: args.kill,
        out: args.out,
        endpoint: args.endpoint,
        metrics_addr: args.metrics_addr,
        await_subscribers: args.await_subscribers,
        fixture: None,
    };
    for cmd in &args.commands {
        if cmd == "list" {
            print_registry();
            println!();
            continue;
        }
        if let Err(msg) = run_command(cmd, &mut ctx) {
            eprintln!("repro {cmd}: {msg}");
            return ExitCode::FAILURE;
        }
        println!();
    }
    if args.linger_ms > 0 {
        // Scrapers (CI's curl, a late Prometheus pull) get this window to
        // read /metrics after the campaign itself is done.
        println!(
            "lingering {} ms before exit (metrics endpoint stays up)",
            args.linger_ms
        );
        std::thread::sleep(std::time::Duration::from_millis(args.linger_ms));
    }
    ExitCode::SUCCESS
}
