//! The `uvf-bench` binary: measures the fault-injection kernels and the
//! sweep engine, prints a table, and writes `BENCH_sweep.json`.
//!
//! Benchmarks:
//!
//! * `corrupt_word/*` — per-word read-back corruption: the seed-era linear
//!   scan vs the row-indexed path vs a prebuilt [`FaultMask`]; the
//!   `bulk_word_corruption_speedup` ratio compares the linear baseline to
//!   the bulk pipeline (resolve the condition once, then the row-indexed
//!   scan) — the path every bulk consumer actually takes.
//! * `mask_build` — cost of snapshotting a whole die into masks.
//! * `faults/die_build_vc707` — one cold build of the largest die through
//!   a fresh `FvmCache`: the cost `FaultModel::with_chip_seed` hides
//!   behind the shared cache after the first call.
//! * `platform_scan/sequential` — one full-pool probe scan.
//! * `campaign/sequential_4_boards` — the 4-board Table-I campaign.
//! * `nn/*` — a quantized MLP read back through the VC707 fault masks,
//!   then classified one sample at a time and over the whole MNIST-like
//!   test split (`nn/classify_test_split`, the batched `error_on` every
//!   ladder rung runs).
//! * `ecc_decode/*` — the raw corrupted read-back vs the SECDED
//!   corrupt-and-decode path over the same fault masks, paired per sample
//!   (`ecc_decode_overhead_x` is the acceptance number: the mitigation
//!   must cost < 3x the unprotected read).
//! * `traced_overhead/*` — the bulk-corruption kernel untraced vs wrapped
//!   in a live `uvf-trace` span (`span_overhead_pct` is the acceptance
//!   number: telemetry must cost < 5%).
//! * `serve_subscribe/*` — a distributed mini-campaign (in-process server,
//!   two worker threads over a Unix socket) unwatched vs with one live
//!   draining subscriber; `subscribe_overhead_pct` holds the same < 5%
//!   bar, enforced in full mode.
//!
//! The suite run itself is traced: each bench group runs under a root span
//! and the per-phase wall-time breakdown lands in `BENCH_sweep.json`.
//!
//! Usage: `uvf-bench [--quick] [--out PATH] [--baseline PATH]`

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use uvf_accel::{LayerFaults, MappedNetwork, Placement};
use uvf_bench::{bench, compare_to_baseline, median_ns, BenchOptions, Measurement, Suite};
use uvf_characterize::prelude::{
    Campaign, CampaignJob, FvmCache, Json, Probe, RecoveryPolicy, SweepConfig,
};
use uvf_characterize::scan::{platform_fault_count, platform_level_counts};
use uvf_faults::{run_seed, FaultModel, LadderKernel, ReadCondition, ResolvedCondition};
use uvf_fpga::{Board, BramId, Millivolts, PlatformKind, Rail, BRAM_ROWS};
use uvf_nn::{DatasetKind, Mlp, QNetwork};
use uvf_trace::{Manifest, MemorySink, Tracer};

struct Args {
    quick: bool,
    out: PathBuf,
    /// Committed `BENCH_sweep.json` to compare against: exit non-zero on
    /// a > 20% median regression of any watched (mask-build/sweep) bench.
    baseline: Option<PathBuf>,
}

/// Regression budget for `--baseline` (percent over the baseline median).
const MAX_REGRESSION_PCT: f64 = 20.0;
/// Bench-name prefixes `--baseline` watches: the cold die build the
/// shared cache hides, the mask-build and sweep phases the ladder kernel
/// accelerates, the SECDED decode path the mitigation shoot-out leans on,
/// and the inference kernel that scores every ladder rung.
const BASELINE_WATCH: [&str; 8] = [
    "faults/die_build",
    "mask_build",
    "ladder_mask_build",
    "sweep_level_counts",
    "platform_scan",
    "campaign",
    "ecc_decode",
    "nn/classify",
];

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

fn print_measurement(m: &Measurement) {
    println!(
        "  {:<44} median {:>12.1} µs  ({:>8.1} ns/op, {} samples)",
        m.name,
        m.median_ns as f64 / 1e3,
        m.ns_per_op(),
        m.samples_ns.len()
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

/// Per-word corruption kernels on the paper's largest die (VC707).
fn bench_word_kernels(suite: &mut Suite, opts: &BenchOptions) {
    let model = FaultModel::new(PlatformKind::Vc707.descriptor());
    let cond = vcrash_condition(&model);
    let brams: u32 = if opts.quick { 8 } else { 64 };
    let rows = BRAM_ROWS as u16;
    let ops = u64::from(brams) * u64::from(rows);
    println!(
        "corrupt_word kernels: VC707, {brams} BRAMs x {rows} rows at Vcrash ({} weak cells on die)",
        model.total_weak_cells()
    );

    let linear = bench("corrupt_word/linear_scan_seed_baseline", ops, opts, || {
        let mut acc = 0u64;
        for b in 0..brams {
            for row in 0..rows {
                acc ^= u64::from(model.corrupt_word_linear(BramId(b), row, 0xFFFF, &cond));
            }
        }
        acc
    });
    print_measurement(suite.record(linear));

    let indexed = bench("corrupt_word/row_indexed", ops, opts, || {
        let mut acc = 0u64;
        for b in 0..brams {
            for row in 0..rows {
                acc ^= u64::from(model.corrupt_word(BramId(b), row, 0xFFFF, &cond));
            }
        }
        acc
    });
    print_measurement(suite.record(indexed));

    let resolved = model.resolve(&cond);
    let indexed_resolved = bench("corrupt_word/row_indexed_resolved", ops, opts, || {
        let mut acc = 0u64;
        for b in 0..brams {
            for row in 0..rows {
                acc ^= u64::from(model.corrupt_word_resolved(BramId(b), row, 0xFFFF, &resolved));
            }
        }
        acc
    });
    print_measurement(suite.record(indexed_resolved));

    let masks: Vec<_> = (0..brams)
        .map(|b| model.fault_mask(BramId(b), &resolved))
        .collect();
    let masked = bench("corrupt_word/prebuilt_mask", ops, opts, || {
        let mut acc = 0u64;
        for mask in &masks {
            for row in 0..rows {
                acc ^= u64::from(mask.apply(row, 0xFFFF));
            }
        }
        acc
    });
    print_measurement(suite.record(masked));

    // Per-BRAM iterator: the same masks in the same order, without
    // materializing a whole-die Vec.
    let build = bench(
        "mask_build/full_die",
        model.platform().bram_count as u64,
        opts,
        || model.fault_masks_iter(&resolved).count(),
    );
    print_measurement(suite.record(build));

    // Bulk corruption means many words under one condition, so the bulk
    // ratio is linear vs resolve-once + row-indexed (measurement 2); the
    // per-call `corrupt_word` (measurement 1) re-resolves every word and
    // is reported but not the headline.
    let linear_ns = suite.measurements[0].median_ns as f64;
    let resolved_ns = suite.measurements[2].median_ns.max(1) as f64;
    let masked_ns = suite.measurements[3].median_ns.max(1) as f64;
    suite.derive("bulk_word_corruption_speedup", linear_ns / resolved_ns);
    suite.derive("mask_vs_linear_speedup", linear_ns / masked_ns);
}

/// A cold VC707 die build. Every sample asks a fresh one-entry cache, so
/// every sample generates the whole die — the global cache would turn all
/// but the first into hits.
fn bench_die_build(suite: &mut Suite, opts: &BenchOptions) {
    let platform = PlatformKind::Vc707.descriptor();
    println!(
        "die build: VC707 ({} BRAMs), fresh cache per sample",
        platform.bram_count
    );
    let build = bench(
        "faults/die_build_vc707",
        platform.bram_count as u64,
        opts,
        || {
            FvmCache::new(1, 1)
                .model(platform, platform.default_chip_seed)
                .total_weak_cells()
        },
    );
    print_measurement(suite.record(build));
}

/// The tentpole: the mask-build phase of a full Listing-1 sweep, per-level
/// rebuilds vs the incremental [`LadderKernel`] — and the per-level run
/// family counted per run vs batched through one `MaskPlan` scan.
fn bench_ladder(suite: &mut Suite, opts: &BenchOptions) {
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
    // The legacy paths price every condition identically and independently,
    // so a strided subsample of the stream measures their per-op cost
    // without the full 5600-condition wall-clock; the kernel is
    // path-dependent and runs the complete stream. Per-op medians compare
    // one-to-one. The stride is coprime to the run count so the subsample
    // cycles through every level and run phase.
    let probe_conds: Vec<&ResolvedCondition> = stream.iter().step_by(37).collect();
    let probe_ops = probe_conds.len() as u64 * u64::from(brams);
    let stream_ops = stream.len() as u64 * u64::from(brams);
    println!(
        "ladder kernels: {kind}, full Listing-1 sweep ({} levels x {} runs x {brams} BRAMs; \
         legacy paths sampled every 37th condition)",
        levels.len(),
        cfg.runs_per_level
    );

    // The seed-era per-level path: materialize the whole platform's masks
    // from scratch for each (level, run) condition.
    let per_level = bench(
        "ladder_mask_build/per_level_rebuild",
        probe_ops,
        opts,
        || {
            let mut acc = 0u64;
            for rc in &probe_conds {
                let resolved = model.resolve(rc.condition());
                for mask in model.fault_masks_iter(&resolved).collect::<Vec<_>>() {
                    acc += u64::from(mask.flip_cells());
                }
            }
            acc
        },
    );
    print_measurement(suite.record(per_level));

    // The per-BRAM iterator: same per-condition rebuilds, nothing
    // materialized platform-wide.
    let per_iter = bench("ladder_mask_build/per_level_iter", probe_ops, opts, || {
        let mut acc = 0u64;
        for rc in &probe_conds {
            for mask in model.fault_masks_iter(rc) {
                acc += u64::from(mask.flip_cells());
            }
        }
        acc
    });
    print_measurement(suite.record(per_iter));

    // The incremental kernel over the complete stream.
    let kernel = bench("ladder_mask_build/ladder_kernel", stream_ops, opts, || {
        let mut acc = 0u64;
        for b in 0..brams {
            let mut k = LadderKernel::new(&model, BramId(b));
            for rc in &stream {
                k.advance(rc);
                acc += u64::from(k.flip_cells());
            }
        }
        acc
    });
    print_measurement(suite.record(kernel));

    let n = suite.measurements.len();
    let rebuild = &suite.measurements[n - 3];
    let iter = &suite.measurements[n - 2];
    let kern = &suite.measurements[n - 1];
    let rebuild_op = rebuild.median_ns as f64 / rebuild.ops_per_sample as f64;
    let iter_op = iter.median_ns as f64 / iter.ops_per_sample as f64;
    let kernel_op = (kern.median_ns as f64 / kern.ops_per_sample as f64).max(1e-9);
    suite.derive("ladder_mask_build_speedup", rebuild_op / kernel_op);
    suite.derive("ladder_iter_vs_kernel_speedup", iter_op / kernel_op);

    // The sweep's counting phase over the same Listing-1 stream: per-run
    // platform scans (the `Probe::sample` oracle) vs each level's run
    // family batched through one `MaskPlan` scan. Per-run is stateless per
    // condition, so it too is priced on a strided subsample.
    let count_conds: Vec<&ResolvedCondition> = stream.iter().step_by(113).collect();
    println!("level counts: {kind}, full Listing-1 sweep (per-run sampled every 113th condition)");

    let per_run = bench(
        "sweep_level_counts/per_run",
        count_conds.len() as u64,
        opts,
        || {
            count_conds
                .iter()
                .map(|rc| platform_fault_count(&model, cfg.pattern, rc))
                .sum::<u64>()
        },
    );
    print_measurement(suite.record(per_run));

    let families: Vec<&[ResolvedCondition]> = stream.chunks(cfg.runs_per_level as usize).collect();
    let batched = bench(
        "sweep_level_counts/batched",
        stream.len() as u64,
        opts,
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
    print_measurement(suite.record(batched));

    let n = suite.measurements.len();
    let per_run = &suite.measurements[n - 2];
    let batched = &suite.measurements[n - 1];
    let per_run_op = per_run.median_ns as f64 / per_run.ops_per_sample as f64;
    let batched_op = (batched.median_ns as f64 / batched.ops_per_sample as f64).max(1e-9);
    suite.derive("ladder_level_counts_speedup", per_run_op / batched_op);
}

/// One full-pool probe scan.
fn bench_platform_scan(suite: &mut Suite, opts: &BenchOptions) {
    let kind = if opts.quick {
        PlatformKind::Zc702
    } else {
        PlatformKind::Vc707
    };
    let platform = kind.descriptor();
    let model = FaultModel::new(platform);
    let cfg = SweepConfig::quick(Rail::Vccbram, 1);
    let vcrash = platform.vccbram.vcrash;
    let mut board = Board::new(platform);
    Probe::Bram.arm(&mut board, cfg.pattern).expect("arm probe");
    board
        .set_rail_mv(Rail::Vccbram, vcrash)
        .expect("set Vcrash");
    println!(
        "platform scan: {kind} full pool ({} BRAMs) at Vcrash",
        platform.bram_count
    );

    let sequential = bench(
        "platform_scan/sequential",
        platform.bram_count as u64,
        opts,
        || {
            Probe::Bram
                .sample(&board, &model, &cfg, vcrash, 0)
                .expect("sample")
        },
    );
    print_measurement(suite.record(sequential));
}

/// The 4-board Table-I campaign.
fn bench_campaign(suite: &mut Suite, opts: &BenchOptions) {
    let runs_per_level = if opts.quick { 2 } else { 5 };
    let mut campaign = Campaign::new(RecoveryPolicy::default());
    for kind in PlatformKind::ALL {
        let cfg = SweepConfig::builder(Rail::Vccbram)
            .runs(runs_per_level)
            .start(Millivolts(kind.descriptor().vccbram.vmin.0 + 30))
            .build();
        campaign.push(CampaignJob::new(kind, cfg));
    }
    println!("campaign: 4 boards, {runs_per_level} runs/level, vmin+30 ladder");

    // Campaign runs are heavier; halve the sample count.
    let campaign_opts = BenchOptions {
        samples: opts.samples.div_ceil(2),
        ..*opts
    };
    let sequential = bench("campaign/sequential_4_boards", 4, &campaign_opts, || {
        campaign.run_sequential().expect("campaign").len()
    });
    print_measurement(suite.record(sequential));
}

/// NN inference through the BRAM fault path: map a quantized MLP onto the
/// VC707, then measure the corrupted weight read-back and classification.
fn bench_nn_inference(suite: &mut Suite, opts: &BenchOptions) {
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
    println!(
        "nn inference: VC707, {layout:?} net ({} weights, {} BRAMs) at Vcrash",
        qnet.weight_count(),
        mapped.placement().total_brams()
    );

    let readback = bench(
        "nn/corrupted_readback",
        qnet.weight_count() as u64,
        opts,
        || {
            mapped
                .read_back_traced(&board, &model, Some(&resolved), LayerFaults::All, &off)
                .expect("read back")
                .weight_count()
        },
    );
    print_measurement(suite.record(readback));

    let corrupted = mapped
        .read_back_traced(&board, &model, Some(&resolved), LayerFaults::All, &off)
        .expect("read back");
    let input = vec![0.5f32; layout[0]];
    let classify = bench("nn/classify_per_sample", 1, opts, || {
        corrupted.predict(&input)
    });
    print_measurement(suite.record(classify));

    let n = suite.measurements.len();
    let readback_ns = suite.measurements[n - 2].median_ns.max(1) as f64;
    let classify_ns = suite.measurements[n - 1].median_ns.max(1) as f64;
    // Images/s if weights were re-read under faults once per frame vs
    // reusing the corrupted snapshot — the amortization ICBP relies on.
    suite.derive("nn_fps_reread_weights", 1e9 / (readback_ns + classify_ns));
    suite.derive("nn_fps_snapshot_weights", 1e9 / classify_ns);

    // One ladder rung's scoring: the whole MNIST-like test split through
    // the batched `error_on` (ns/op is per image).
    let test = DatasetKind::MnistLike.generate(1).test;
    let split = bench("nn/classify_test_split", test.len() as u64, opts, || {
        corrupted.error_on(&test)
    });
    print_measurement(suite.record(split));
}

/// The SECDED read-back (mask build + corrupt + two-pass decode, exactly
/// what `read_back_ecc` runs per BRAM) against the raw per-word
/// `corrupt_word` read path it replaces, on the same VC707 die at Vcrash.
///
/// Samples are **paired** like [`bench_traced_overhead`]: each iteration
/// times the raw read and the decode path back to back, and the reported
/// `ecc_decode_overhead_x` is the median of per-pair ratios. Full mode
/// gates the ratio at < 3x — the decode is two mask-and-popcount passes
/// plus a table lookup per codeword, and a regression past 3x means the
/// fast path stopped being fast.
fn bench_ecc_decode(suite: &mut Suite, opts: &BenchOptions) {
    use uvf_faults::ecc;
    use uvf_fpga::{eccmode, ECC_CODEWORDS_PER_BRAM};

    let model = FaultModel::new(PlatformKind::Vc707.descriptor());
    let resolved = model.resolve(&vcrash_condition(&model));
    let brams: u32 = if opts.quick { 8 } else { 64 };
    let rows = BRAM_ROWS as u16;
    // A clean ECC-mode image: every codeword encodes a distinct pattern,
    // so the decode sees realistic data and parity traffic.
    let mut clean = [0u16; BRAM_ROWS];
    for cw in 0..ECC_CODEWORDS_PER_BRAM {
        let word = ecc::encode((cw as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        eccmode::store_codeword(&mut clean, cw, word.data, word.parity);
    }
    let raw_ops = u64::from(brams) * BRAM_ROWS as u64;
    let ecc_ops = u64::from(brams) * ECC_CODEWORDS_PER_BRAM as u64;
    let pairs = opts.samples.max(3) * 3;
    println!("ecc decode: VC707 at Vcrash, {brams} BRAMs, {pairs} paired samples");

    let run_raw = |scratch: &mut [u16; BRAM_ROWS]| -> u64 {
        let mut acc = 0u64;
        for b in 0..brams {
            for row in 0..rows {
                let word = clean[usize::from(row)];
                scratch[usize::from(row)] =
                    model.corrupt_word_resolved(BramId(b), row, word, &resolved);
            }
            acc ^= u64::from(scratch[BRAM_ROWS - 1]);
        }
        acc
    };
    let run_ecc = |scratch: &mut [u16; BRAM_ROWS], out: &mut Vec<u16>| -> u64 {
        let mut acc = 0u64;
        for b in 0..brams {
            let mask = model.fault_mask(BramId(b), &resolved);
            let stats =
                ecc::corrupt_and_decode(&mask, &clean, ECC_CODEWORDS_PER_BRAM, scratch, out);
            acc += stats.corrected + stats.escaped();
        }
        acc
    };
    let mut scratch = [0u16; BRAM_ROWS];
    let mut out = Vec::new();
    for _ in 0..opts.warmup_iters {
        std::hint::black_box(run_raw(&mut scratch));
        std::hint::black_box(run_ecc(&mut scratch, &mut out));
    }
    let mut raw_ns = Vec::with_capacity(pairs as usize);
    let mut decode_ns = Vec::with_capacity(pairs as usize);
    let mut ratios = Vec::with_capacity(pairs as usize);
    for _ in 0..pairs {
        let t0 = std::time::Instant::now();
        std::hint::black_box(run_raw(&mut scratch));
        let raw = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let t1 = std::time::Instant::now();
        std::hint::black_box(run_ecc(&mut scratch, &mut out));
        let dec = u64::try_from(t1.elapsed().as_nanos()).unwrap_or(u64::MAX);
        raw_ns.push(raw);
        decode_ns.push(dec);
        ratios.push(dec as f64 / raw.max(1) as f64);
    }
    for (name, ops, samples) in [
        ("ecc_decode/raw_corrupt_read", raw_ops, &raw_ns),
        ("ecc_decode/secded_decode", ecc_ops, &decode_ns),
    ] {
        let m = Measurement {
            name: name.to_string(),
            ops_per_sample: ops,
            samples_ns: samples.clone(),
            median_ns: median_ns(samples),
            min_ns: *samples.iter().min().expect("nonempty"),
            max_ns: *samples.iter().max().expect("nonempty"),
        };
        print_measurement(suite.record(m));
    }
    ratios.sort_by(|a, b| a.partial_cmp(b).expect("finite ratios"));
    suite.derive("ecc_decode_overhead_x", ratios[ratios.len() / 2]);
}

/// The bulk-corruption kernel untraced vs inside a live span, to price the
/// telemetry itself (the ISSUE acceptance bar is < 5% overhead).
///
/// Samples are **paired**: each iteration times the untraced kernel and the
/// traced kernel back-to-back, and the reported overhead is the median of
/// per-pair ratios. Two independently-timed medians would let scheduler
/// drift on a noisy host masquerade as span cost; pairing cancels it.
fn bench_traced_overhead(suite: &mut Suite, opts: &BenchOptions) {
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
    let pairs = opts.samples.max(3) * 3;
    println!(
        "traced overhead: bulk corruption, {brams} BRAMs x {passes} passes, {pairs} paired samples"
    );

    // Live tracer into a small ring buffer — the cheapest real sink, which
    // is what a hot kernel would reasonably be wired to.
    let sink = Arc::new(MemorySink::new(64));
    let tracer = Tracer::builder().sink(sink).build();
    let mut words = [0xFFFFu16; BRAM_ROWS];
    let run_untraced = |words: &mut [u16; BRAM_ROWS]| {
        for _ in 0..passes {
            for mask in &masks {
                mask.apply_all(words);
            }
        }
    };
    let run_traced = |words: &mut [u16; BRAM_ROWS]| {
        let _span = tracer.span("bulk_corruption");
        for _ in 0..passes {
            for mask in &masks {
                mask.apply_all(words);
            }
        }
    };
    for _ in 0..opts.warmup_iters {
        run_untraced(&mut words);
        run_traced(&mut words);
    }
    let mut untraced_ns = Vec::with_capacity(pairs as usize);
    let mut traced_ns = Vec::with_capacity(pairs as usize);
    let mut ratios = Vec::with_capacity(pairs as usize);
    for _ in 0..pairs {
        let t0 = std::time::Instant::now();
        run_untraced(&mut words);
        let un = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let t1 = std::time::Instant::now();
        run_traced(&mut words);
        let tr = u64::try_from(t1.elapsed().as_nanos()).unwrap_or(u64::MAX);
        std::hint::black_box(words[0]);
        untraced_ns.push(un);
        traced_ns.push(tr);
        ratios.push(tr as f64 / un.max(1) as f64);
    }
    for (name, samples) in [
        ("traced_overhead/bulk_corruption_untraced", &untraced_ns),
        ("traced_overhead/bulk_corruption_traced", &traced_ns),
    ] {
        let m = Measurement {
            name: name.to_string(),
            ops_per_sample: ops,
            samples_ns: samples.clone(),
            median_ns: median_ns(samples),
            min_ns: *samples.iter().min().expect("nonempty"),
            max_ns: *samples.iter().max().expect("nonempty"),
        };
        print_measurement(suite.record(m));
    }
    ratios.sort_by(|a, b| a.partial_cmp(b).expect("finite ratios"));
    let median_ratio = ratios[ratios.len() / 2];
    suite.derive("span_overhead_pct", ((median_ratio - 1.0) * 100.0).max(0.0));
}

/// A live subscriber must be (nearly) free for the campaign it watches.
/// Each pair runs an identical distributed mini-campaign — in-process
/// [`CampaignServer`], two worker threads over a Unix socket — twice,
/// back to back: unwatched, then with one subscriber draining the full
/// event stream. `subscribe_overhead_pct` is the median of per-pair
/// wall-clock ratios; pairing cancels scheduler drift exactly like
/// [`bench_traced_overhead`].
fn bench_subscribe_overhead(suite: &mut Suite, opts: &BenchOptions) {
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
    let pairs = opts.samples.max(3);
    println!("subscribe overhead: 2-job campaign, 2 worker threads, {pairs} paired samples");

    let run_campaign = |iteration: u32, subscribe: bool| -> u64 {
        let sock = std::env::temp_dir().join(format!(
            "uvf-bench-sub-{}-{iteration}-{}.sock",
            std::process::id(),
            u8::from(subscribe),
        ));
        let config = ServerConfig::new(
            jobs.clone(),
            RecoveryPolicy::default(),
            Endpoint::Unix(sock.clone()),
        );
        let t0 = std::time::Instant::now();
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
                    run_worker(&w).expect("bench worker");
                })
            })
            .collect();
        let result = handle.join().expect("bench campaign");
        let elapsed_ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        for w in workers {
            w.join().expect("worker thread");
        }
        if let Some(tail) = tail {
            let (lines, dropped) = tail.join().expect("subscriber thread");
            assert_eq!(dropped, 0, "draining subscriber must not lag");
            assert_eq!(lines.len(), result.events.len(), "full stream recorded");
        }
        std::fs::remove_file(&sock).ok();
        elapsed_ns
    };

    run_campaign(u32::MAX, false); // warmup: touches the FVM cache once
    let mut unwatched_ns = Vec::with_capacity(pairs as usize);
    let mut watched_ns = Vec::with_capacity(pairs as usize);
    let mut ratios = Vec::with_capacity(pairs as usize);
    for i in 0..pairs {
        let un = run_campaign(i, false);
        let wa = run_campaign(i, true);
        unwatched_ns.push(un);
        watched_ns.push(wa);
        ratios.push(wa as f64 / un.max(1) as f64);
    }
    for (name, samples) in [
        ("serve_subscribe/campaign_unwatched", &unwatched_ns),
        ("serve_subscribe/campaign_watched", &watched_ns),
    ] {
        let m = Measurement {
            name: name.to_string(),
            ops_per_sample: jobs.len() as u64,
            samples_ns: samples.clone(),
            median_ns: median_ns(samples),
            min_ns: *samples.iter().min().expect("nonempty"),
            max_ns: *samples.iter().max().expect("nonempty"),
        };
        print_measurement(suite.record(m));
    }
    ratios.sort_by(|a, b| a.partial_cmp(b).expect("finite ratios"));
    let median_ratio = ratios[ratios.len() / 2];
    suite.derive(
        "subscribe_overhead_pct",
        ((median_ratio - 1.0) * 100.0).max(0.0),
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let opts = if args.quick {
        BenchOptions::quick()
    } else {
        BenchOptions::full()
    };
    // Recorded as a host fact next to the timings; no bench takes a
    // thread count.
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    println!(
        "uvf-bench: {} mode, {} host threads, {} samples/bench\n",
        if args.quick { "quick" } else { "full" },
        threads,
        opts.samples
    );

    // Trace the suite run itself: one root span per bench group, folded
    // into the JSON as the per-phase wall-time breakdown.
    let phase_sink = Arc::new(MemorySink::new(64));
    let phase_tracer = Tracer::builder().sink(phase_sink.clone()).build();

    let mut suite = Suite::new(args.quick, threads);
    {
        let _p = phase_tracer.span("word_kernels");
        bench_word_kernels(&mut suite, &opts);
    }
    println!();
    {
        let _p = phase_tracer.span("die_build");
        bench_die_build(&mut suite, &opts);
    }
    println!();
    {
        let _p = phase_tracer.span("ladder");
        bench_ladder(&mut suite, &opts);
    }
    println!();
    {
        let _p = phase_tracer.span("platform_scan");
        bench_platform_scan(&mut suite, &opts);
    }
    println!();
    // Every die lookup in the process goes through the shared FVM cache;
    // count the campaign phase's traffic alone, so BENCH_sweep.json
    // documents the memoization the campaign benches see.
    let cache = FvmCache::global();
    let campaign_start = (cache.hits(), cache.misses(), cache.evictions());
    {
        let _p = phase_tracer.span("campaign");
        bench_campaign(&mut suite, &opts);
    }
    let campaign_cache = (
        cache.hits() - campaign_start.0,
        cache.misses() - campaign_start.1,
        cache.evictions() - campaign_start.2,
    );
    println!();
    {
        let _p = phase_tracer.span("nn_inference");
        bench_nn_inference(&mut suite, &opts);
    }
    println!();
    {
        let _p = phase_tracer.span("ecc_decode");
        bench_ecc_decode(&mut suite, &opts);
    }
    println!();
    {
        let _p = phase_tracer.span("traced_overhead");
        bench_traced_overhead(&mut suite, &opts);
    }
    println!();
    {
        let _p = phase_tracer.span("serve_subscribe");
        bench_subscribe_overhead(&mut suite, &opts);
    }
    suite.phases = Manifest::phases_from_events(&phase_sink.events());

    suite.derive("fvm_cache_hits", campaign_cache.0 as f64);
    suite.derive("fvm_cache_misses", campaign_cache.1 as f64);
    println!(
        "\nfvm cache (campaign phase): {} hits / {} misses / {} evictions",
        campaign_cache.0, campaign_cache.1, campaign_cache.2
    );

    println!("\nphases:");
    for p in &suite.phases {
        println!("  {:<32} {:>10.1} ms", p.name, p.wall_ns as f64 / 1e6);
    }
    println!("\nderived:");
    for d in &suite.derived {
        let unit = if d.name.ends_with("_pct") { '%' } else { 'x' };
        println!("  {:<32} {:>8.2}{unit}", d.name, d.value);
    }

    // The acceptance bar on live observation: one draining subscriber may
    // cost the campaign < 5% wall clock. Quick mode (CI smoke on shared
    // runners) reports the number without gating on it.
    let subscribe_pct = suite
        .derived
        .iter()
        .find(|d| d.name == "subscribe_overhead_pct")
        .map_or(0.0, |d| d.value);
    if !args.quick && subscribe_pct >= 5.0 {
        eprintln!("subscribe_overhead_pct {subscribe_pct:.2}% breaches the 5% budget");
        return ExitCode::FAILURE;
    }

    // The acceptance bar on the SECDED path: decoding a full corrupted
    // image may cost < 3x the unprotected read it replaces. Same policy
    // as above — quick mode reports without gating.
    let ecc_overhead = suite
        .derived
        .iter()
        .find(|d| d.name == "ecc_decode_overhead_x")
        .map_or(0.0, |d| d.value);
    if !args.quick && ecc_overhead >= 3.0 {
        eprintln!("ecc_decode_overhead_x {ecc_overhead:.2}x breaches the 3x budget");
        return ExitCode::FAILURE;
    }

    match suite.write(&args.out) {
        Ok(()) => println!("\nwrote {}", args.out.display()),
        Err(e) => {
            eprintln!("cannot write {}: {e}", args.out.display());
            return ExitCode::FAILURE;
        }
    }

    if let Some(path) = &args.baseline {
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("cannot read baseline {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        };
        let baseline = match Json::parse(&text) {
            Ok(json) => json,
            Err(e) => {
                eprintln!("baseline {} is not valid JSON: {e:?}", path.display());
                return ExitCode::FAILURE;
            }
        };
        match compare_to_baseline(&suite, &baseline, MAX_REGRESSION_PCT, &BASELINE_WATCH) {
            Ok(regressions) if regressions.is_empty() => {
                println!(
                    "baseline {}: all watched medians within {MAX_REGRESSION_PCT:.0}%",
                    path.display()
                );
            }
            Ok(regressions) => {
                eprintln!(
                    "baseline {}: {} regression(s):",
                    path.display(),
                    regressions.len()
                );
                for r in &regressions {
                    eprintln!("  {r}");
                }
                return ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("baseline {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
