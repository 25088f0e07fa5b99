//! Crash-resilience properties of the sweep harness.
//!
//! Hand-rolled property loops (the container has no proptest): each test
//! sweeps its invariant across platforms, voltages, seeds or interruption
//! points rather than asserting a single example.

use std::path::PathBuf;
use uvf_characterize::{
    GuardbandReport, Harness, HarnessError, HarnessStatus, Probe, RecordError, RecoveryPolicy,
    SweepConfig, SweepOutcome,
};
use uvf_faults::FaultModel;
use uvf_fpga::{Board, DataPattern, Millivolts, PlatformKind, Rail};

fn temp_path(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("uvf-resilience-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{tag}.json"))
}

/// A fast sweep config: starts just above Vmin so only the interesting
/// region is walked, but still crosses safe, critical and crash levels.
fn short_cfg(kind: PlatformKind, runs_per_level: u32) -> SweepConfig {
    let platform = kind.descriptor();
    SweepConfig::builder(Rail::Vccbram)
        .runs(runs_per_level)
        .start(Millivolts(platform.vccbram.vmin.0 + 20))
        .build()
}

/// Property (a): every voltage strictly below Vcrash hangs the board; every
/// voltage at or above it leaves the board operational.
#[test]
fn any_voltage_below_vcrash_crashes() {
    for kind in PlatformKind::ALL {
        let platform = kind.descriptor();
        let vcrash = platform.vccbram.vcrash;
        for step in 1..=5u32 {
            let lethal = vcrash.saturating_sub(10 * step);
            let mut board = Board::new(platform);
            // The lethal command itself is ACKed — the hang is silent.
            board.set_rail_mv(Rail::Vccbram, lethal).unwrap();
            assert!(
                board.is_crashed(),
                "{kind:?}: {lethal} did not hang the board"
            );
            assert!(
                board.read_row(uvf_fpga::BramId(0), 0).is_err(),
                "{kind:?}: read succeeded on a hung board"
            );
        }
        for step in 0..=5u32 {
            let safe = Millivolts(vcrash.0 + 10 * step);
            let mut board = Board::new(platform);
            board.set_rail_mv(Rail::Vccbram, safe).unwrap();
            assert!(
                !board.is_crashed(),
                "{kind:?}: operational level {safe} hung the board"
            );
        }
    }
}

/// Property (b): power_cycle always restores Operational at nominal rails
/// with cleared BRAMs, from any crash depth.
#[test]
fn power_cycle_always_restores_operational_nominal() {
    for kind in PlatformKind::ALL {
        let platform = kind.descriptor();
        for step in 1..=6u32 {
            let lethal = platform.vccbram.vcrash.saturating_sub(10 * step);
            let mut board = Board::new(platform);
            board.write_pattern(DataPattern::AllOnes).unwrap();
            board.set_rail_mv(Rail::Vccbram, lethal).unwrap();
            assert!(board.is_crashed());

            board.power_cycle();
            assert!(!board.is_crashed());
            for rail in [Rail::Vccbram, Rail::Vccint, Rail::Vccaux] {
                assert_eq!(
                    board.rail_mv(rail),
                    Millivolts::NOMINAL,
                    "{kind:?}: {rail} not nominal after power cycle"
                );
            }
            // BRAM contents are lost by the cycle: the probe must re-arm.
            let word = board.read_row(uvf_fpga::BramId(0), 0).unwrap();
            assert_eq!(word, 0, "{kind:?}: BRAM survived a power cycle");
        }
    }
}

/// Property (c): a sweep interrupted at any point and resumed from its JSON
/// checkpoint — in a fresh harness, emulating a fresh process — finishes
/// bit-identical to an uninterrupted sweep.
#[test]
fn resumed_sweep_is_bit_identical_to_uninterrupted() {
    let kind = PlatformKind::Zc702;
    let cfg = short_cfg(kind, 2);

    let mut straight = Harness::new(
        Board::new(kind.descriptor()),
        cfg,
        RecoveryPolicy::default(),
    )
    .unwrap();
    let straight_outcome = straight.run().unwrap();
    let reference = straight.record().to_json_string();

    for budget in [1u64, 2, 3, 5, 8, 13] {
        let path = temp_path(&format!("resume-{budget}"));
        std::fs::remove_file(&path).ok();

        // First process: run a few runs, then die (drop the harness).
        let h1 = Harness::new(
            Board::new(kind.descriptor()),
            cfg,
            RecoveryPolicy::default(),
        )
        .unwrap()
        .with_checkpoint_path(&path)
        .unwrap();
        let mut h1 = h1;
        let status = h1.run_budgeted(budget).unwrap();
        assert!(
            matches!(status, HarnessStatus::Paused { .. }),
            "budget {budget} finished early"
        );
        drop(h1);

        // Second process: fresh board + harness, resumed from the file.
        let mut h2 = Harness::new(
            Board::new(kind.descriptor()),
            cfg,
            RecoveryPolicy::default(),
        )
        .unwrap()
        .with_checkpoint_path(&path)
        .unwrap();
        let outcome = h2.run().unwrap();

        assert_eq!(outcome, straight_outcome, "budget {budget}");
        assert_eq!(
            h2.record().to_json_string(),
            reference,
            "resumed record differs from uninterrupted (budget {budget})"
        );
        std::fs::remove_file(&path).ok();
    }
}

/// Resume survives an interruption *during* crash recovery: the attempt
/// counter is persisted, so the retry ladder continues instead of
/// restarting.
#[test]
fn resume_mid_recovery_continues_the_retry_ladder() {
    let kind = PlatformKind::Zc702;
    let cfg = short_cfg(kind, 1);

    let mut straight = Harness::new(
        Board::new(kind.descriptor()),
        cfg,
        RecoveryPolicy::default(),
    )
    .unwrap();
    straight.run().unwrap();
    let reference = straight.record().to_json_string();

    // Interrupt after every single run; the last interruptions land inside
    // the crash-retry sequence at the lethal level.
    let path = temp_path("mid-recovery");
    std::fs::remove_file(&path).ok();
    let mut guard = 0;
    loop {
        let mut h = Harness::new(
            Board::new(kind.descriptor()),
            cfg,
            RecoveryPolicy::default(),
        )
        .unwrap()
        .with_checkpoint_path(&path)
        .unwrap();
        match h.run_budgeted(1).unwrap() {
            HarnessStatus::Paused { .. } => {
                guard += 1;
                assert!(guard < 1000, "sweep never terminates");
            }
            HarnessStatus::Finished(_) => {
                assert_eq!(h.record().to_json_string(), reference);
                break;
            }
        }
    }
    std::fs::remove_file(&path).ok();
}

/// A checkpoint belongs to one sweep configuration: resuming with a
/// different config is refused, not silently merged.
#[test]
fn checkpoint_refuses_a_different_configuration() {
    let kind = PlatformKind::Zc702;
    let cfg = short_cfg(kind, 2);
    let path = temp_path("fingerprint");
    std::fs::remove_file(&path).ok();

    let mut h = Harness::new(
        Board::new(kind.descriptor()),
        cfg,
        RecoveryPolicy::default(),
    )
    .unwrap()
    .with_checkpoint_path(&path)
    .unwrap();
    h.run_budgeted(2).unwrap();
    drop(h);

    let mut other = cfg;
    other.pattern = DataPattern::AllZeros;
    let res = Harness::new(
        Board::new(kind.descriptor()),
        other,
        RecoveryPolicy::default(),
    )
    .unwrap()
    .with_checkpoint_path(&path);
    assert!(
        matches!(
            res,
            Err(HarnessError::Checkpoint(
                RecordError::FingerprintMismatch { .. }
            ))
        ),
        "mismatched checkpoint was accepted"
    );
    std::fs::remove_file(&path).ok();
}

/// A corrupt checkpoint file surfaces as a typed error.
#[test]
fn corrupt_checkpoint_is_rejected() {
    let kind = PlatformKind::Zc702;
    let path = temp_path("corrupt");
    std::fs::write(&path, "{\"version\":1,").unwrap();
    let res = Harness::new(
        Board::new(kind.descriptor()),
        short_cfg(kind, 2),
        RecoveryPolicy::default(),
    )
    .unwrap()
    .with_checkpoint_path(&path);
    assert!(matches!(
        res,
        Err(HarnessError::Checkpoint(RecordError::Json(_)))
    ));
    std::fs::remove_file(&path).ok();
}

/// Acceptance sweep: all four platforms, each completing through at least
/// one induced crash with watchdog detection and power-cycle recovery, and
/// each discovering the DESIGN §5 landmarks exactly (±10 mV is one VID
/// step; the model is built to hit them on the step).
#[test]
fn all_platforms_discover_design_landmarks_through_crashes() {
    for kind in PlatformKind::ALL {
        let platform = kind.descriptor();
        let cfg = short_cfg(kind, 2);
        let mut harness =
            Harness::new(Board::new(platform), cfg, RecoveryPolicy::default()).unwrap();
        let outcome = harness.run().unwrap();
        let report = GuardbandReport::from_record(harness.record());

        assert_eq!(
            outcome,
            SweepOutcome::CrashFound {
                vcrash_mv: platform.vccbram.vcrash.0
            },
            "{kind:?}"
        );
        assert_eq!(report.vmin, Some(platform.vccbram.vmin), "{kind:?} Vmin");
        assert_eq!(
            report.vcrash,
            Some(platform.vccbram.vcrash),
            "{kind:?} Vcrash"
        );
        assert!(
            report.crash_events >= 1 && report.power_cycles >= 1,
            "{kind:?}: sweep did not survive an induced crash"
        );
    }
}

/// Determinism across recovery: with the same chip seed, the fault
/// read-back of a given (level, run) is identical before a crash and after
/// watchdog recovery — the ICBP foundation of the paper.
#[test]
fn fault_readbacks_identical_before_and_after_recovery() {
    for kind in [PlatformKind::Zc702, PlatformKind::Kc705A] {
        let platform = kind.descriptor();
        let model = FaultModel::new(platform);
        let cfg = SweepConfig::quick(Rail::Vccbram, 2);
        let v = platform.vccbram.vcrash;

        let mut board = Board::new(platform);
        Probe::Bram.arm(&mut board, cfg.pattern).unwrap();
        board.set_rail_mv(Rail::Vccbram, v).unwrap();
        let before: Vec<u64> = (0..3)
            .map(|run| Probe::Bram.sample(&board, &model, &cfg, v, run).unwrap())
            .collect();

        // Hang the board, then recover the way the harness does.
        board
            .set_rail_mv(Rail::Vccbram, v.saturating_sub(10))
            .unwrap();
        assert!(board.is_crashed());
        board.power_cycle();
        Probe::Bram.arm(&mut board, cfg.pattern).unwrap();
        board.set_rail_mv(Rail::Vccbram, v).unwrap();
        let after: Vec<u64> = (0..3)
            .map(|run| Probe::Bram.sample(&board, &model, &cfg, v, run).unwrap())
            .collect();

        assert_eq!(before, after, "{kind:?}: recovery changed the fault map");
        assert!(
            before.iter().any(|&n| n > 0),
            "{kind:?}: no faults at Vcrash"
        );
    }
}

/// Noisy-environment band: supply noise can hang the board at operational
/// levels near Vcrash; the watchdog + retry machinery still carries the
/// sweep to completion, with the boundary within one VID step, and the
/// whole noisy run is replay-deterministic.
#[test]
fn noisy_environment_sweep_completes_within_one_step() {
    let kind = PlatformKind::Zc702;
    let platform = kind.descriptor();
    let cfg = SweepConfig {
        noise_band_mv: 15,
        ..SweepConfig::builder(Rail::Vccbram)
            .runs(2)
            .start(Millivolts(platform.vccbram.vmin.0 + 20))
            .build()
    };

    let run_once = || {
        let mut h = Harness::new(Board::new(platform), cfg, RecoveryPolicy::default()).unwrap();
        let outcome = h.run().unwrap();
        (outcome, h.record().to_json_string())
    };
    let (outcome, record_a) = run_once();
    let (_, record_b) = run_once();
    assert_eq!(
        record_a, record_b,
        "noisy sweep is not replay-deterministic"
    );

    match outcome {
        SweepOutcome::CrashFound { vcrash_mv } => {
            let truth = platform.vccbram.vcrash.0;
            assert!(
                vcrash_mv == truth || vcrash_mv == truth + 10,
                "noisy boundary {vcrash_mv} too far from {truth}"
            );
        }
        other => panic!("noisy sweep ended with {other:?}"),
    }
}
