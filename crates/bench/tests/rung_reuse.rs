//! Exactness of the ladders' rung reuse: `mitigation_shootout_traced` and
//! `voltage_accuracy_power_sweep` carry one read-back from rung to rung,
//! re-reading only the BRAMs whose fault mask changed (the others keep
//! their weights and ECC tallies), and rescore only the weight rows that
//! changed. Here every rung is recomputed the slow way — a fresh
//! `read_back` and a fresh `error_on` — and must match the reports
//! exactly, errors and ECC tallies alike, for all four mitigation modes. Both ladders must also report the same
//! whether the shared die cache starts cold or warm. Fig. 13's
//! `layer_vulnerability_traced` carries the same read-back from read to
//! read and is held to fresh reads the same way. The chip is the
//! registry's Fig. 13/14 die, read cold, so faults arrive well inside the
//! ladder.

use std::sync::{Arc, Mutex, MutexGuard};
use uvf_accel::{
    layer_vulnerability_traced, mitigation_shootout_traced, voltage_accuracy_power_sweep,
    LayerFaults, MappedNetwork, Mitigation, ParetoConfig, Placement, ShootoutConfig,
};
use uvf_bench::registry::{CHIP_SEED, EVAL_RUN_SEED, EVAL_TEMPERATURE_C, NET_SEED};
use uvf_faults::ecc::EccStats;
use uvf_faults::{FaultModel, FvmCache, ReadCondition};
use uvf_fpga::{Board, Millivolts, Platform, PlatformKind, Rail};
use uvf_nn::{train, DatasetKind, Mlp, QNetwork, SyntheticData, TrainConfig};
use uvf_trace::{EventKind, MemorySink, Tracer};

/// Every test here reads chip `CHIP_SEED` through the process-wide die
/// cache and one clears it; serialize them so the cold run stays cold.
fn die_cache() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// A small, briefly trained net: 14 BRAMs of weights, cheap to classify,
/// and fragile enough that its error moves before `Vcrash` on this chip.
fn small_net() -> (SyntheticData, QNetwork, Vec<usize>) {
    let data = DatasetKind::MnistLike.generate(NET_SEED);
    let mut net = Mlp::new(&[784, 16, 10], NET_SEED);
    train(
        &mut net,
        &data.train,
        &TrainConfig {
            epochs: 1,
            learning_rate: 0.02,
            momentum: 0.5,
            lr_decay: 0.8,
            shuffle_seed: NET_SEED,
        },
    );
    let weights = net.layers().iter().map(|l| l.w.data().len()).collect();
    (data, QNetwork::from_mlp(&net), weights)
}

/// `from_mv` down to `floor_mv` in `step_mv` decrements.
fn ladder(from_mv: u32, floor_mv: u32, step_mv: u32) -> Vec<Millivolts> {
    (floor_mv..=from_mv)
        .rev()
        .step_by(step_mv as usize)
        .map(Millivolts)
        .collect()
}

#[test]
fn shootout_rungs_match_a_fresh_read_back_and_classification() {
    let _g = die_cache();
    let (data, qnet, weights) = small_net();
    let cfg = ShootoutConfig::vc707_default(
        CHIP_SEED,
        EVAL_RUN_SEED,
        EVAL_TEMPERATURE_C,
        weights.len() - 1,
    );
    let off = Tracer::disabled();
    let report = mitigation_shootout_traced(&cfg, &qnet, &weights, &data, &off).unwrap();

    let platform = Platform::new(cfg.platform);
    let model = FaultModel::with_chip_seed(platform, cfg.chip_seed);
    let rail = platform.rail(Rail::Vccbram);
    let fvm = model.variation_map(rail.vcrash);
    let rungs = ladder(
        rail.vmin.0 + cfg.start_above_vmin_mv,
        rail.vcrash.0 - cfg.descend_below_vcrash_mv,
        cfg.step_mv,
    );
    let (mut repeats, mut changes, mut tally_moves) = (0, 0, 0);
    for m in Mitigation::ALL {
        let curve = report.curve(m);
        assert_eq!(curve.points.len(), rungs.len(), "{m}");
        let mut board = Board::with_chip_seed(platform, cfg.chip_seed);
        let mapped = m
            .load(&mut board, &qnet, &weights, &fvm, cfg.protected_layer, &off)
            .unwrap();
        let read = |v: Option<Millivolts>| -> (Mlp, Option<EccStats>) {
            let cond = v.map(|v| {
                model.resolve(&ReadCondition {
                    v,
                    temperature_c: cfg.temperature_c,
                    run_seed: cfg.run_seed,
                })
            });
            if m.uses_ecc() {
                let (net, stats) = mapped
                    .read_back_ecc_traced(&board, &model, cond.as_ref(), LayerFaults::All, &off)
                    .unwrap();
                (net, Some(stats))
            } else {
                let net = mapped
                    .read_back_traced(&board, &model, cond.as_ref(), LayerFaults::All, &off)
                    .unwrap();
                (net, None)
            }
        };

        let (mut previous, mut previous_ecc) = read(None);
        assert_eq!(
            curve.nominal_error.to_bits(),
            previous.error_on(&data.test).to_bits(),
            "{m} nominal"
        );
        for (point, &v) in curve.points.iter().zip(&rungs) {
            assert_eq!(point.v_mv, v.0);
            let (net, stats) = read(Some(v));
            assert_eq!(
                point.error.to_bits(),
                net.error_on(&data.test).to_bits(),
                "{m} at {} mV",
                v.0
            );
            assert_eq!(point.ecc, stats, "{m} tallies at {} mV", v.0);
            if net == previous {
                repeats += 1;
            } else {
                changes += 1;
            }
            if m.uses_ecc() && stats != previous_ecc {
                tally_moves += 1;
            }
            previous = net;
            previous_ecc = stats;
        }
    }
    // Both branches of the reuse are exercised: rungs that repeat the
    // previous read-back and rungs that change it.
    assert!(
        repeats > 0 && changes > 0,
        "{repeats} repeats, {changes} changes"
    );
    // The ECC modes' tallies move along the ladder, so a carried tally
    // that went stale would show.
    assert!(tally_moves > 4, "ECC tallies moved on {tally_moves} rungs");
}

#[test]
fn pareto_sweep_levels_match_a_fresh_read_back_and_classification() {
    let _g = die_cache();
    let (data, qnet, weights) = small_net();
    let cfg = ParetoConfig::vc707_default(CHIP_SEED, EVAL_RUN_SEED, EVAL_TEMPERATURE_C);
    let sweep = voltage_accuracy_power_sweep(&cfg, &qnet, &weights, &data).unwrap();

    let off = Tracer::disabled();
    let platform = Platform::new(cfg.platform);
    let model = FaultModel::with_chip_seed(platform, cfg.chip_seed);
    let rail = platform.rail(Rail::Vccbram);
    let mut board = Board::with_chip_seed(platform, cfg.chip_seed);
    let mapped =
        MappedNetwork::load_traced(&mut board, &qnet, Placement::contiguous(&weights), &off)
            .unwrap();
    let mut levels = vec![None];
    levels.extend(
        ladder(
            rail.vmin.0 + cfg.start_above_vmin_mv,
            rail.vcrash.0,
            cfg.step_mv,
        )
        .into_iter()
        .map(Some),
    );
    assert_eq!(sweep.points.len(), levels.len());
    // The ladder both repeats and changes the scored error.
    let nominal = sweep.points[0].error;
    assert!(sweep.points[1].error == nominal);
    assert!(sweep.points.iter().any(|p| p.error != nominal));
    for (point, v) in sweep.points.iter().zip(levels) {
        let cond = v.map(|v| {
            model.resolve(&ReadCondition {
                v,
                temperature_c: cfg.temperature_c,
                run_seed: cfg.run_seed,
            })
        });
        let net = mapped
            .read_back_traced(&board, &model, cond.as_ref(), LayerFaults::All, &off)
            .unwrap();
        assert_eq!(point.v_mv, v.unwrap_or(Millivolts::NOMINAL).0);
        assert_eq!(
            point.error.to_bits(),
            net.error_on(&data.test).to_bits(),
            "{} mV",
            point.v_mv
        );
    }
}

/// Every read of the layer study returns a fresh read-back's error, on the
/// contiguous and the ICBP placement, and its trace keeps one
/// `weights_read_back` span per read, one `mask_apply` per faulty BRAM and
/// each `layer_isolated` instant right after its own read. (The clean
/// baseline read is a read with no faulty layer.)
#[test]
fn layer_study_reads_match_a_fresh_read_back_and_classification() {
    let _g = die_cache();
    let (data, qnet, weights) = small_net();
    let platform = Platform::new(PlatformKind::Vc707);
    let model = FaultModel::with_chip_seed(platform, CHIP_SEED);
    let vcrash = platform.rail(Rail::Vccbram).vcrash;
    let cond = model.resolve(&ReadCondition {
        v: vcrash,
        temperature_c: EVAL_TEMPERATURE_C,
        run_seed: EVAL_RUN_SEED,
    });
    let (off, last, mut moved) = (Tracer::disabled(), weights.len() - 1, false);
    let icbp = Placement::icbp(&weights, &model.variation_map(vcrash), last);
    for placement in [Placement::contiguous(&weights), icbp] {
        let mut board = Board::with_chip_seed(platform, CHIP_SEED);
        let mapped = MappedNetwork::load_traced(&mut board, &qnet, placement, &off).unwrap();
        let sink = Arc::new(MemorySink::new(1 << 16));
        let tracer = Tracer::builder().sink(sink.clone()).build();
        let r = layer_vulnerability_traced(&mapped, &board, &model, &cond, &data.test, &tracer)
            .unwrap();
        let (mut fresh, mut names) = (Vec::new(), Vec::new());
        let only = (0..=last).map(LayerFaults::Only);
        let reads = [LayerFaults::None, LayerFaults::All]
            .into_iter()
            .chain(only);
        for (i, faults) in reads.enumerate() {
            let net = mapped.read_back_traced(&board, &model, Some(&cond), faults, &off);
            fresh.push(net.unwrap().error_on(&data.test).to_bits());
            names.push("weights_read_back");
            for l in (0..=last).filter(|&l| faults.includes(l)) {
                names.extend(vec!["mask_apply"; mapped.placement().layer(l).len()]);
            }
            names.extend((i >= 2).then_some("layer_isolated"));
        }
        let errors = [r.baseline, r.degraded].into_iter().chain(r.per_layer);
        assert_eq!(errors.map(f64::to_bits).collect::<Vec<_>>(), fresh);
        moved |= fresh.iter().any(|&e| e != fresh[0]);
        let mut traced = sink.events();
        traced.retain(|e| e.kind != EventKind::SpanEnd && names.contains(&&*e.name));
        assert_eq!(traced.iter().map(|e| &*e.name).collect::<Vec<_>>(), names);
    }
    // The errors move along the reads, so a stale carried layer shows.
    assert!(moved);
}

/// The Pareto sweep and the shoot-out walk the same rung loop, so the
/// sweep's errors are the `none` curve's: the nominal point, then every
/// rung from `Vmin + 50` down to `Vcrash` (the shoot-out goes deeper).
#[test]
fn pareto_sweep_is_the_shootouts_none_curve_down_to_vcrash() {
    let _g = die_cache();
    let (data, qnet, weights) = small_net();
    let pareto_cfg = ParetoConfig::vc707_default(CHIP_SEED, EVAL_RUN_SEED, EVAL_TEMPERATURE_C);
    let sweep = voltage_accuracy_power_sweep(&pareto_cfg, &qnet, &weights, &data).unwrap();
    let cfg = ShootoutConfig::vc707_default(
        CHIP_SEED,
        EVAL_RUN_SEED,
        EVAL_TEMPERATURE_C,
        weights.len() - 1,
    );
    let report =
        mitigation_shootout_traced(&cfg, &qnet, &weights, &data, &Tracer::disabled()).unwrap();
    let none = report.curve(Mitigation::None);

    let vcrash = Platform::new(cfg.platform).rail(Rail::Vccbram).vcrash.0;
    let swept: Vec<(u32, u64)> = sweep
        .points
        .iter()
        .map(|p| (p.v_mv, p.error.to_bits()))
        .collect();
    let curve: Vec<(u32, u64)> = std::iter::once((Millivolts::NOMINAL.0, none.nominal_error))
        .chain(
            none.points
                .iter()
                .filter(|p| p.v_mv >= vcrash)
                .map(|p| (p.v_mv, p.error)),
        )
        .map(|(v, error)| (v, error.to_bits()))
        .collect();
    assert_eq!(swept, curve);
    assert_eq!(swept.last().map(|p| p.0), Some(vcrash));
    assert!(
        none.points.len() > curve.len() - 1,
        "the shoot-out descends below Vcrash"
    );
}

#[test]
fn ladders_report_the_same_from_a_cold_or_warm_die_cache() {
    let _g = die_cache();
    let (data, qnet, weights) = small_net();
    let shootout_cfg = ShootoutConfig::vc707_default(
        CHIP_SEED,
        EVAL_RUN_SEED,
        EVAL_TEMPERATURE_C,
        weights.len() - 1,
    );
    let pareto_cfg = ParetoConfig::vc707_default(CHIP_SEED, EVAL_RUN_SEED, EVAL_TEMPERATURE_C);
    let run = || {
        (
            mitigation_shootout_traced(&shootout_cfg, &qnet, &weights, &data, &Tracer::disabled())
                .unwrap(),
            voltage_accuracy_power_sweep(&pareto_cfg, &qnet, &weights, &data).unwrap(),
        )
    };
    FvmCache::global().clear();
    let misses = FvmCache::global().misses();
    let cold = run();
    assert!(
        FvmCache::global().misses() > misses,
        "the cold run must build its die"
    );
    let warm = run();
    assert_eq!(cold.0, warm.0, "shoot-out");
    assert_eq!(cold.1, warm.1, "voltage-accuracy-power sweep");
}
