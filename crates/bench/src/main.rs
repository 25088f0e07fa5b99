//! The `uvf-bench` binary: times each fault-path kernel against the
//! reference it replaced, as [`pair`]s, prints the ratios and writes
//! `BENCH_sweep.json`.
//!
//! Kernel pairs (kernel ÷ reference per op; `--baseline` fails the run
//! when one is more than 20 % above its committed ratio):
//!
//! * `ladder_mask_build` — [`LadderKernel::advance`] over a full Listing-1
//!   stream vs a per-level `fault_mask` rebuild of every BRAM.
//! * `sweep_level_counts` — each level's run family batched through one
//!   `platform_level_counts` scan vs one `platform_fault_count` per run.
//! * `nn_rescore` — a [`Scorer`] rescore after a flip in one weight row
//!   vs a whole-split `error_on`, per image.
//! * `ecc_decode` — SECDED corrupt-and-decode vs the raw read-back
//!   `MappedNetwork` runs (`fault_mask` + `apply_all`), per BRAM.
//!
//! Overhead pairs (same work with and without the feature; 5 % bar):
//!
//! * `traced_overhead` — the bulk-corruption kernel inside a live
//!   `uvf-trace` span vs untraced (reported).
//! * `serve_subscribe` — a distributed mini-campaign (in-process server,
//!   two worker threads over a Unix socket) with one live draining
//!   subscriber vs unwatched (gated in full mode).
//!
//! A cold die build or a whole campaign has no in-process reference to
//! pair with; perfbench measures those, parent against change on one
//! host.
//!
//! The suite run itself is traced: each bench group runs under a root span
//! and the per-phase wall-time breakdown lands in `BENCH_sweep.json`.
//!
//! Usage: `uvf-bench [--quick] [--out PATH] [--baseline PATH]`

use std::cell::Cell;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::thread::JoinHandle;
use uvf_accel::{LayerFaults, MappedNetwork, Placement};
use uvf_bench::{pair, ratio_regressions, BenchOptions, Pair, Suite};
use uvf_characterize::prelude::{CampaignJob, Json, RecoveryPolicy, SweepConfig};
use uvf_characterize::scan::{platform_fault_count, platform_level_counts};
use uvf_faults::{run_seed, FaultModel, LadderKernel, ReadCondition, ResolvedCondition};
use uvf_fpga::{Board, BramId, Millivolts, PlatformKind, Rail, BRAM_ROWS};
use uvf_nn::{DatasetKind, Mlp, QNetwork, Scorer};
use uvf_trace::codec::Value;
use uvf_trace::{MemorySink, RunTally, Tracer};

struct Args {
    quick: bool,
    out: PathBuf,
    /// Committed suite JSON whose gated ratios this run is held to.
    baseline: Option<PathBuf>,
}

/// Regression budget for `--baseline` (percent over a committed ratio).
const MAX_REGRESSION_PCT: f64 = 20.0;
/// The overhead pairs' bar: the feature may cost < 5 % wall clock.
const MAX_OVERHEAD_RATIO: f64 = 1.05;

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        quick: false,
        out: PathBuf::from("BENCH_sweep.json"),
        baseline: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => args.quick = true,
            "--out" => {
                args.out = PathBuf::from(it.next().ok_or("--out needs a path")?);
            }
            "--baseline" => {
                args.baseline = Some(PathBuf::from(it.next().ok_or("--baseline needs a path")?));
            }
            "--help" | "-h" => {
                return Err("usage: uvf-bench [--quick] [--out PATH] [--baseline PATH]".into());
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn print_pair(p: &Pair) {
    println!(
        "  {:<20} ratio {:>7.3}{}  ({} {:.1} ns/op vs {} {:.1} ns/op, {} samples)",
        p.name,
        p.ratio,
        if p.gated { " (gated)" } else { "" },
        p.kernel.name,
        p.kernel.ns_per_op(),
        p.reference.name,
        p.reference.ns_per_op(),
        p.kernel.samples_ns.len(),
    );
}

/// Condition at `Vcrash` — the worst case: the largest failing population.
fn vcrash_condition(model: &FaultModel) -> ReadCondition {
    let vcrash = model.platform().vccbram.vcrash;
    ReadCondition {
        v: vcrash,
        temperature_c: 25.0,
        run_seed: run_seed(model.chip_seed(), Rail::Vccbram, vcrash, 0),
    }
}

/// The two kernels of a Listing-1 sweep: the incremental mask build, and
/// the level counts batched per run family.
fn bench_ladder(opts: &BenchOptions) -> Vec<Pair> {
    let kind = if opts.quick {
        PlatformKind::Zc702
    } else {
        PlatformKind::Vc707
    };
    let platform = kind.descriptor();
    let model = FaultModel::new(platform);
    // The paper's Listing 1 verbatim: default ladder, default 100 runs per
    // level. The condition stream is level-major — every run of a level,
    // then the next rung down — exactly as the harness executes it.
    let cfg = SweepConfig::builder(Rail::Vccbram).build();
    let levels = cfg.levels();
    let stream: Vec<ResolvedCondition> = levels
        .iter()
        .flat_map(|&v| {
            let model = &model;
            let cfg = &cfg;
            (0..cfg.runs_per_level).map(move |run| {
                model.resolve(&ReadCondition {
                    v,
                    temperature_c: cfg.temperature_c,
                    run_seed: run_seed(model.chip_seed(), Rail::Vccbram, v, run),
                })
            })
        })
        .collect();
    let brams = platform.bram_count as u32;
    // The kernels are path-dependent along a BRAM's stream (the mask) or
    // a level's run family (the counts), so the mask kernel runs the whole
    // stream of every 8th BRAM and the count kernel every family. The
    // references price every condition independently, so a strided
    // subsample measures their per-op cost: every 73rd condition (coprime
    // to the run count, so it cycles through every level and run phase)
    // and every 9th run of each family. Both sides of a sample then last
    // about as long, so a burst of host noise lands on both alike. (Levels
    // are not subsampled: the batched scan's cost per run differs about
    // twofold between alternate levels of the ladder.)
    let conds: Vec<&ResolvedCondition> = stream.iter().step_by(73).collect();
    let kernel_brams: Vec<BramId> = (0..brams).step_by(8).map(BramId).collect();
    let families: Vec<&[ResolvedCondition]> = stream.chunks(cfg.runs_per_level as usize).collect();
    let family_conds: Vec<&ResolvedCondition> =
        families.iter().flat_map(|f| f.iter().step_by(9)).collect();
    println!(
        "ladder: {kind}, Listing-1 sweep ({} levels x {} runs x {brams} BRAMs; mask kernel \
         on every 8th BRAM, references on a subsample of the conditions)",
        levels.len(),
        cfg.runs_per_level
    );

    let masks = pair(
        "ladder_mask_build",
        opts,
        (
            "ladder_mask_build/per_level_rebuild",
            conds.len() as u64 * u64::from(brams),
        ),
        (
            "ladder_mask_build/ladder_kernel",
            stream.len() as u64 * kernel_brams.len() as u64,
        ),
        // The seed-era path: every BRAM's mask rebuilt from scratch at
        // each (level, run) condition, one at a time, as a read-back
        // builds them.
        || {
            let mut acc = 0u64;
            for rc in &conds {
                for b in 0..brams {
                    acc += u64::from(model.fault_mask(BramId(b), rc).flip_cells());
                }
            }
            acc
        },
        || {
            let mut acc = 0u64;
            for &bram in &kernel_brams {
                let mut k = LadderKernel::new(&model, bram);
                for rc in &stream {
                    k.advance(rc);
                    acc += u64::from(k.flip_cells());
                }
            }
            acc
        },
    );
    let counts = pair(
        "sweep_level_counts",
        opts,
        ("sweep_level_counts/per_run", family_conds.len() as u64),
        ("sweep_level_counts/batched", stream.len() as u64),
        || {
            family_conds
                .iter()
                .map(|rc| platform_fault_count(&model, cfg.pattern, rc))
                .sum::<u64>()
        },
        || {
            families
                .iter()
                .map(|family| {
                    platform_level_counts(&model, cfg.pattern, family)
                        .iter()
                        .sum::<u64>()
                })
                .sum::<u64>()
        },
    );
    vec![masks.gate(), counts.gate()]
}

/// The rung a ladder scores most: a quantized MLP read back through the
/// VC707 fault masks at `Vcrash`, then the MNIST-like test split scored
/// after one more flip in one row of the first layer — by a [`Scorer`]
/// that last scored the net without it, vs a cold `error_on`.
fn bench_rescore(opts: &BenchOptions) -> Vec<Pair> {
    // An untrained (He-seeded) net exercises the identical pipeline at a
    // fraction of the setup cost; quick mode shrinks the hidden layer.
    let layout: &[usize] = if opts.quick {
        &[784, 128, 10]
    } else {
        &[784, 512, 10]
    };
    let net = Mlp::new(layout, 1);
    let qnet = QNetwork::from_mlp(&net);
    let weights: Vec<usize> = net.layers().iter().map(|l| l.w.data().len()).collect();
    let model = FaultModel::new(PlatformKind::Vc707.descriptor());
    let mut board = Board::new(PlatformKind::Vc707.descriptor());
    let off = Tracer::disabled();
    let mapped =
        MappedNetwork::load_traced(&mut board, &qnet, Placement::contiguous(&weights), &off)
            .expect("load network");
    let resolved = model.resolve(&vcrash_condition(&model));
    let corrupted = mapped
        .read_back_traced(&board, &model, Some(&resolved), LayerFaults::All, &off)
        .expect("read back");
    let test = DatasetKind::MnistLike.generate(1).test;
    println!(
        "nn rescore: VC707, {layout:?} net ({} BRAMs) at Vcrash, {}-image test split",
        mapped.placement().total_brams(),
        test.len()
    );

    // The nets alternate, so every scorer call is a one-row delta; they
    // are cloned up front, as a read-back hands the scorer a fresh net.
    let mut flipped = corrupted.clone();
    let w = &mut flipped.layers_mut()[0].w;
    w.set(0, 0, f32::from_bits(w.get(0, 0).to_bits() ^ (1 << 30)));
    let mut scorer = Scorer::new(&test);
    scorer.error(corrupted.clone());
    // A rescore costs about a fifth of a cold pass, so a kernel call runs
    // five: both sides of a sample last about as long.
    const RESCORES: u32 = 5;
    let calls = (opts.warmup_iters + opts.samples.max(1)) * RESCORES;
    let mut nets = (0..calls)
        .map(|i| if i % 2 == 0 { &flipped } else { &corrupted }.clone())
        .collect::<Vec<Mlp>>()
        .into_iter();
    let images = test.len() as u64;
    let rescore = pair(
        "nn_rescore",
        opts,
        ("nn/classify_test_split", images),
        ("nn/rescore_one_row", images * u64::from(RESCORES)),
        || corrupted.error_on(&test),
        || {
            (0..RESCORES)
                .map(|_| scorer.error(nets.next().expect("one net per rescore")))
                .sum::<f64>()
        },
    );
    vec![rescore.gate()]
}

/// The SECDED read-back (mask build + corrupt + two-pass decode, what
/// `read_back_ecc` runs per BRAM) vs the raw read-back `MappedNetwork`
/// runs without ECC (mask build + `apply_all`), over the same BRAMs of
/// the VC707 die at `Vcrash`; ops are BRAMs on both sides.
fn bench_ecc_decode(opts: &BenchOptions) -> Vec<Pair> {
    use uvf_faults::ecc;
    use uvf_fpga::{eccmode, ECC_CODEWORDS_PER_BRAM};

    let model = FaultModel::new(PlatformKind::Vc707.descriptor());
    let resolved = model.resolve(&vcrash_condition(&model));
    // Fixed size even in quick mode: a sample of fewer BRAMs lasts a few
    // µs, and its ratio swings with the timer and the caches.
    let brams: u32 = 64;
    // A clean ECC-mode image: every codeword encodes a distinct pattern,
    // so the decode sees realistic data and parity traffic.
    let mut clean = [0u16; BRAM_ROWS];
    for cw in 0..ECC_CODEWORDS_PER_BRAM {
        let word = ecc::encode((cw as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        eccmode::store_codeword(&mut clean, cw, word.data, word.parity);
    }
    // A sample lasts well under a ms: triple the samples to steady the
    // ratio.
    let opts = BenchOptions {
        samples: opts.samples * 3,
        ..*opts
    };
    println!(
        "ecc decode: VC707 at Vcrash, {brams} BRAMs, {} paired samples",
        opts.samples
    );

    let mut scratch = [0u16; BRAM_ROWS];
    let mut out = Vec::new();
    let decode = pair(
        "ecc_decode",
        &opts,
        ("ecc_decode/raw_read", u64::from(brams)),
        ("ecc_decode/secded_decode", u64::from(brams)),
        || {
            let mut acc = 0u64;
            for b in 0..brams {
                let mut words = clean;
                model.fault_mask(BramId(b), &resolved).apply_all(&mut words);
                acc ^= u64::from(words[BRAM_ROWS - 1]);
            }
            acc
        },
        || {
            let mut acc = 0u64;
            for b in 0..brams {
                let mask = model.fault_mask(BramId(b), &resolved);
                out.clear();
                let stats = ecc::corrupt_and_decode(
                    &mask,
                    &clean,
                    ECC_CODEWORDS_PER_BRAM,
                    &mut scratch,
                    &mut out,
                );
                acc += stats.corrected + stats.escaped();
            }
            acc
        },
    );
    vec![decode.gate()]
}

/// The bulk-corruption kernel untraced vs inside a live span, to price the
/// telemetry itself.
fn bench_traced_overhead(opts: &BenchOptions) -> Vec<Pair> {
    let model = FaultModel::new(PlatformKind::Vc707.descriptor());
    let resolved = model.resolve(&vcrash_condition(&model));
    // Fixed size even in quick mode: the span's two events must amortize
    // over a kernel invocation comparable to a real sweep level, or the
    // overhead ratio measures the sink instead of the span.
    let brams: u32 = 64;
    let passes = 64u32;
    let masks: Vec<_> = (0..brams)
        .map(|b| model.fault_mask(BramId(b), &resolved))
        .collect();
    let ops = u64::from(brams) * BRAM_ROWS as u64 * u64::from(passes);
    let opts = BenchOptions {
        samples: opts.samples * 3,
        ..*opts
    };
    println!(
        "traced overhead: bulk corruption, {brams} BRAMs x {passes} passes, {} paired samples",
        opts.samples
    );

    // Live tracer into a small ring buffer — the cheapest real sink, which
    // is what a hot kernel would reasonably be wired to.
    let sink = Arc::new(MemorySink::new(64));
    let tracer = Tracer::builder().sink(sink).build();
    let corrupt = |words: &mut [u16; BRAM_ROWS]| {
        for _ in 0..passes {
            for mask in &masks {
                mask.apply_all(words);
            }
        }
        words[0]
    };
    let (mut untraced, mut traced) = ([0xFFFFu16; BRAM_ROWS], [0xFFFFu16; BRAM_ROWS]);
    let overhead = pair(
        "traced_overhead",
        &opts,
        ("traced_overhead/bulk_corruption_untraced", ops),
        ("traced_overhead/bulk_corruption_traced", ops),
        || corrupt(&mut untraced),
        || {
            let _span = tracer.span("bulk_corruption");
            corrupt(&mut traced)
        },
    );
    vec![overhead]
}

/// A finished campaign's threads and socket. The campaign's clock stops
/// when the server joins; dropping this, after the clock stops, joins the
/// threads and checks that the subscriber saw the whole stream.
struct Fleet {
    workers: Vec<JoinHandle<()>>,
    /// The subscriber's lines and drop count.
    tail: Option<JoinHandle<(Vec<String>, u64)>>,
    /// Events the campaign logged.
    events: usize,
    sock: PathBuf,
}

impl Drop for Fleet {
    fn drop(&mut self) {
        for w in self.workers.drain(..) {
            w.join().expect("worker thread");
        }
        if let Some(tail) = self.tail.take() {
            let (lines, dropped) = tail.join().expect("subscriber thread");
            assert_eq!(dropped, 0, "draining subscriber must not lag");
            assert_eq!(lines.len(), self.events, "full stream recorded");
        }
        std::fs::remove_file(&self.sock).ok();
    }
}

/// A live subscriber must be (nearly) free for the campaign it watches:
/// an identical distributed mini-campaign — in-process `CampaignServer`,
/// two worker threads over a Unix socket — unwatched, then with one
/// subscriber draining the full event stream.
fn bench_subscribe_overhead(opts: &BenchOptions) -> Vec<Pair> {
    use uvf_serve::{
        run_worker, CampaignServer, Endpoint, ServerConfig, Subscription, WorkerOptions,
    };

    let jobs: Vec<CampaignJob> = [PlatformKind::Vc707, PlatformKind::Zc702]
        .iter()
        .map(|&kind| {
            let cfg = SweepConfig::builder(Rail::Vccbram)
                .runs(1)
                .start(Millivolts(kind.descriptor().vccbram.vmin.0 + 10))
                .build();
            CampaignJob::new(kind, cfg)
        })
        .collect();
    // One warmup campaign per side touches the FVM cache.
    let opts = BenchOptions {
        warmup_iters: 1,
        ..*opts
    };
    println!(
        "subscribe overhead: 2-job campaign, 2 worker threads, {} paired samples",
        opts.samples
    );

    let runs = Cell::new(0u32);
    let run_campaign = |subscribe: bool| {
        runs.set(runs.get() + 1);
        let sock = std::env::temp_dir().join(format!(
            "uvf-bench-sub-{}-{}.sock",
            std::process::id(),
            runs.get(),
        ));
        let config = ServerConfig::new(
            jobs.clone(),
            RecoveryPolicy::default(),
            Endpoint::Unix(sock.clone()),
        );
        let handle = CampaignServer::start(config).expect("bench server");
        let tail = subscribe.then(|| {
            let endpoint = handle.endpoint().clone();
            std::thread::spawn(move || {
                Subscription::open(&endpoint, 0, 0)
                    .expect("subscribe")
                    .drain()
                    .expect("drain stream")
            })
        });
        let workers: Vec<_> = (1..=2u64)
            .map(|id| {
                let endpoint = handle.endpoint().clone();
                std::thread::spawn(move || {
                    let mut w = WorkerOptions::new(endpoint);
                    w.worker_id = id;
                    // A worker that starts after the other one finished
                    // both jobs finds the server gone (connection
                    // refused); the campaign's own result is checked by
                    // `join` below.
                    run_worker(&w).ok();
                })
            })
            .collect();
        let events = handle.join().expect("bench campaign").events.len();
        Fleet {
            workers,
            tail,
            events,
            sock,
        }
    };
    let ops = jobs.len() as u64;
    let overhead = pair(
        "serve_subscribe",
        &opts,
        ("serve_subscribe/campaign_unwatched", ops),
        ("serve_subscribe/campaign_watched", ops),
        || run_campaign(false),
        || run_campaign(true),
    );
    vec![overhead]
}

/// A bench group: builds its fixtures, then times its pairs.
type Group = fn(&BenchOptions) -> Vec<Pair>;

fn run(args: &Args) -> Result<(), String> {
    let opts = if args.quick {
        BenchOptions::quick()
    } else {
        BenchOptions::full()
    };
    // Recorded as a host fact next to the timings; no bench takes a
    // thread count.
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    println!(
        "uvf-bench: {} mode, {} host threads, {} samples/pair\n",
        if args.quick { "quick" } else { "full" },
        threads,
        opts.samples
    );

    // Trace the suite run itself: one root span per bench group, folded
    // into the JSON as the per-phase wall-time breakdown.
    let phase_tally = Arc::new(RunTally::default());
    let phase_tracer = Tracer::builder().sink(phase_tally.clone()).build();
    let groups: [(&str, Group); 5] = [
        ("ladder", bench_ladder),
        ("nn_rescore", bench_rescore),
        ("ecc_decode", bench_ecc_decode),
        ("traced_overhead", bench_traced_overhead),
        ("serve_subscribe", bench_subscribe_overhead),
    ];
    let mut suite = Suite::new(args.quick, threads);
    for (phase, group) in groups {
        let pairs = {
            let _p = phase_tracer.span(phase);
            group(&opts)
        };
        pairs.iter().for_each(print_pair);
        suite.pairs.extend(pairs);
        println!();
    }
    suite.phases = phase_tally.phases();
    println!("phases:");
    for p in &suite.phases {
        println!("  {:<32} {:>10.1} ms", p.name, p.wall_ns as f64 / 1e6);
    }

    // The bar on live observation: one draining subscriber may cost the
    // campaign < 5 % wall clock. Quick mode (CI smoke on shared runners)
    // reports the ratio without gating on it.
    let subscribe = suite.ratio("serve_subscribe").unwrap_or(1.0);
    if !args.quick && subscribe >= MAX_OVERHEAD_RATIO {
        return Err(format!(
            "serve_subscribe ratio {subscribe:.3} breaches the 5% budget"
        ));
    }

    suite
        .write(&args.out)
        .map_err(|e| format!("cannot write {}: {e}", args.out.display()))?;
    println!("\nwrote {}", args.out.display());

    let Some(path) = &args.baseline else {
        return Ok(());
    };
    let baseline = std::fs::read_to_string(path)
        .map_err(|e| e.to_string())
        .and_then(|text| Json::parse(&text).map_err(|e| e.to_string()))
        .and_then(|json| Suite::decode(&json).map_err(|e| e.to_string()))
        .map_err(|e| format!("cannot read baseline {}: {e}", path.display()))?;
    let regressions = ratio_regressions(&suite, &baseline, MAX_REGRESSION_PCT)
        .map_err(|e| format!("baseline {}: {e}", path.display()))?;
    if !regressions.is_empty() {
        return Err(format!(
            "baseline {}: {} regression(s):\n  {}",
            path.display(),
            regressions.len(),
            regressions.join("\n  ")
        ));
    }
    println!(
        "baseline {}: every gated ratio within {MAX_REGRESSION_PCT:.0}%",
        path.display()
    );
    Ok(())
}

fn main() -> ExitCode {
    match parse_args().and_then(|args| run(&args)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}
