//! The harness counts a BRAM level through one batched level plan. Every
//! run of every level it records must equal [`Probe::sample`] — one full
//! scan per `(v, run)` — on every platform, and checkpointed resume must
//! reproduce the uninterrupted sweep's record and checkpoint bytes.

use std::path::Path;
use uvf_characterize::prelude::*;
use uvf_faults::FaultModel;
use uvf_fpga::{Board, Millivolts, PlatformKind, Rail};

fn listing1_cfg() -> SweepConfig {
    // The full Listing-1 ladder shape (1000 mV down to the crash) with a
    // reduced run count per level so four platforms stay test-sized; the
    // level structure — the thing the level plan exploits — is intact.
    SweepConfig::builder(Rail::Vccbram).runs(3).build()
}

/// Check every recorded run against the per-run oracle.
fn assert_runs_match_probe_sample(kind: PlatformKind, cfg: &SweepConfig, record: &SweepRecord) {
    let model = FaultModel::new(kind.descriptor());
    let mut board = Board::new(kind.descriptor());
    Probe::Bram.arm(&mut board, cfg.pattern).unwrap();
    let runs = record
        .levels
        .iter()
        .flat_map(|l| l.runs.iter().map(move |r| (l, r)));
    for (level, r) in runs {
        let oracle = Probe::Bram.sample(&board, &model, cfg, Millivolts(level.v_mv), r.run);
        assert_eq!(
            Ok(r.faults),
            oracle,
            "{kind:?} at {} mV run {}",
            level.v_mv,
            r.run
        );
    }
    assert!(
        record.levels.iter().any(LevelRecord::any_faults),
        "{kind:?}: no faults"
    );
}

fn harness(kind: PlatformKind, cfg: SweepConfig, checkpoint: Option<&Path>) -> Harness {
    let board = Board::new(kind.descriptor());
    let h = Harness::new(board, cfg, RecoveryPolicy::default()).unwrap();
    match checkpoint {
        Some(path) => h.with_checkpoint_path(path).unwrap(),
        None => h,
    }
}

#[test]
fn ladder_engine_is_bit_identical_on_all_platforms() {
    for kind in PlatformKind::ALL {
        let cfg = listing1_cfg();
        let mut h = harness(kind, cfg, None);
        h.run().unwrap();
        assert_runs_match_probe_sample(kind, &cfg, h.record());
    }
}

#[test]
fn ladder_engine_checkpoint_bytes_match_the_per_run_path() {
    let kind = PlatformKind::Zc702;
    let cfg = listing1_cfg();
    let dir = std::env::temp_dir().join(format!("uvf_ladder_identity_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let straight_path = dir.join("straight.json");
    let mut straight = harness(kind, cfg, Some(&straight_path));
    straight.run().unwrap();
    assert_runs_match_probe_sample(kind, &cfg, straight.record());

    // Pause mid-sweep, then resume in a fresh harness from the
    // checkpoint — the crash-recovery path the fleet exercises.
    let resumed_path = dir.join("resumed.json");
    let _ = harness(kind, cfg, Some(&resumed_path))
        .run_budgeted(7)
        .unwrap();
    harness(kind, cfg, Some(&resumed_path)).run().unwrap();
    assert_eq!(
        std::fs::read(&straight_path).unwrap(),
        std::fs::read(&resumed_path).unwrap(),
        "checkpoint bytes diverged after resume"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn resumed_ladder_sweep_matches_uninterrupted() {
    let kind = PlatformKind::Kc705A;
    let cfg = SweepConfig::builder(Rail::Vccbram)
        .runs(4)
        .start(Millivolts(kind.descriptor().vccbram.vmin.0 + 20))
        .build();
    let mut straight = harness(kind, cfg, None);
    straight.run().unwrap();
    let mut chunked = harness(kind, cfg, None);
    while let HarnessStatus::Paused { .. } = chunked.run_budgeted(3).unwrap() {}
    assert_eq!(
        straight.record().to_json_string(),
        chunked.record().to_json_string(),
        "budget-paused ladder sweep must replay identically"
    );
}
