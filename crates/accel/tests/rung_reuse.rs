//! Exactness of the ladders' rung reuse: `mitigation_shootout` and
//! `voltage_accuracy_power_sweep` skip classification on a rung whose
//! read-back is bit-identical to the previous rung's. Here every rung is
//! recomputed the slow way — a fresh `read_back` and a fresh `error_on` —
//! and must match the reports exactly, errors and ECC tallies alike, for
//! all four mitigation modes.

use uvf_accel::{
    mitigation_shootout, voltage_accuracy_power_sweep, LayerFaults, MappedNetwork, Mitigation,
    ParetoConfig, Placement, ShootoutConfig,
};
use uvf_faults::ecc::EccStats;
use uvf_faults::{FaultModel, ReadCondition};
use uvf_fpga::eccmode::ECC_WORDS_PER_BRAM;
use uvf_fpga::{Board, Millivolts, Platform, Rail, BRAM_ROWS};
use uvf_nn::{train, DatasetKind, Mlp, QNetwork, SyntheticData, TrainConfig};

const NET_SEED: u64 = 12;
/// The Fig. 13/14 chip, cold: faults arrive well inside the ladder.
const CHIP_SEED: u64 = 21;
const TEMPERATURE_C: f64 = 0.0;
const RUN_SEED: u64 = 1;

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
    let (data, qnet, weights) = small_net();
    let cfg = ShootoutConfig::vc707_default(CHIP_SEED, RUN_SEED, TEMPERATURE_C, weights.len() - 1);
    let report = mitigation_shootout(&cfg, &qnet, &weights, &data).unwrap();

    let platform = Platform::new(cfg.platform);
    let model = FaultModel::with_chip_seed(platform, cfg.chip_seed);
    let rail = platform.rail(Rail::Vccbram);
    let fvm = model.variation_map(rail.vcrash);
    let rungs = ladder(
        rail.vmin.0 + cfg.start_above_vmin_mv,
        rail.vcrash.0 - cfg.descend_below_vcrash_mv,
        cfg.step_mv,
    );
    let (mut repeats, mut changes) = (0, 0);
    for m in Mitigation::ALL {
        let curve = report.curve(m);
        assert_eq!(curve.points.len(), rungs.len(), "{m}");
        let capacity = if m.uses_ecc() {
            ECC_WORDS_PER_BRAM
        } else {
            BRAM_ROWS
        };
        let placement = if m.uses_icbp() {
            Placement::icbp_with_capacity(&weights, &fvm, cfg.protected_layer, capacity)
        } else {
            Placement::contiguous_with_capacity(&weights, capacity)
        };
        let mut board = Board::with_chip_seed(platform, cfg.chip_seed);
        let mapped = if m.uses_ecc() {
            MappedNetwork::load_ecc(&mut board, &qnet, placement)
        } else {
            MappedNetwork::load(&mut board, &qnet, placement)
        }
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
                    .read_back_ecc(&board, &model, cond.as_ref(), LayerFaults::All)
                    .unwrap();
                (net, Some(stats))
            } else {
                let net = mapped
                    .read_back(&board, &model, cond.as_ref(), LayerFaults::All)
                    .unwrap();
                (net, None)
            }
        };

        let (mut previous, _) = read(None);
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
            previous = net;
        }
    }
    // Both branches of the reuse are exercised: rungs that repeat the
    // previous read-back and rungs that change it.
    assert!(
        repeats > 0 && changes > 0,
        "{repeats} repeats, {changes} changes"
    );
}

#[test]
fn pareto_sweep_levels_match_a_fresh_read_back_and_classification() {
    let (data, qnet, weights) = small_net();
    let cfg = ParetoConfig::vc707_default(CHIP_SEED, RUN_SEED, TEMPERATURE_C);
    let sweep = voltage_accuracy_power_sweep(&cfg, &qnet, &weights, &data).unwrap();

    let platform = Platform::new(cfg.platform);
    let model = FaultModel::with_chip_seed(platform, cfg.chip_seed);
    let rail = platform.rail(Rail::Vccbram);
    let mut board = Board::with_chip_seed(platform, cfg.chip_seed);
    let mapped = MappedNetwork::load(&mut board, &qnet, Placement::contiguous(&weights)).unwrap();
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
            .read_back(&board, &model, cond.as_ref(), LayerFaults::All)
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
