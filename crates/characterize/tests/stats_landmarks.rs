//! The binary-search `Vmin` equals the exhaustive sweep's on every
//! platform, and its per-probe checkpoints resume to identical reports.
//! No registry row runs `VminSearch`; the Fig. 5–8 landmarks are gated by
//! their rows in `uvf_bench::registry`.

use uvf_characterize::prelude::*;
use uvf_fpga::{Millivolts, PlatformKind, Rail};

#[test]
fn binary_search_vmin_matches_the_exhaustive_sweep_on_every_platform() {
    for kind in PlatformKind::ALL {
        let platform = kind.descriptor();
        let cfg = SweepConfig::builder(Rail::Vccbram)
            .runs(2)
            .start(Millivolts(platform.vccbram.vmin.0 + 40))
            .build();
        let board = uvf_fpga::Board::new(platform);
        let mut harness = Harness::new(board, cfg, RecoveryPolicy::default()).unwrap();
        harness.run().unwrap();
        let sweep_vmin = harness.record().vmin();

        let report = VminSearch::new(kind, cfg).run().unwrap();
        println!(
            "{kind}: sweep vmin={:?} search vmin={:?} probes={}/{} levels",
            sweep_vmin,
            report.vmin,
            report.probe_count(),
            report.levels_total,
        );
        let sweep = sweep_vmin.expect("sweep finds vmin").0;
        let search = report.vmin.expect("search finds vmin").0;
        assert!(
            search.abs_diff(sweep) <= cfg.step_mv,
            "{kind}: search vmin {search} vs sweep vmin {sweep}",
        );
        assert_eq!(
            search, sweep,
            "{kind}: probes are bit-identical to sweep levels"
        );
        assert!(
            report.probe_count() <= VminSearchReport::probe_budget(report.levels_total),
            "{kind}: {} probes for {} levels",
            report.probe_count(),
            report.levels_total,
        );
    }
}

#[test]
fn vmin_search_checkpoints_resume_to_identical_reports() {
    let kind = PlatformKind::Zc702;
    let platform = kind.descriptor();
    let cfg = SweepConfig::builder(Rail::Vccbram)
        .runs(2)
        .start(Millivolts(platform.vccbram.vmin.0 + 40))
        .build();
    let dir = std::env::temp_dir().join(format!("uvf-vmin-search-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();

    let first = VminSearch::new(kind, cfg)
        .with_checkpoint_dir(&dir)
        .run()
        .unwrap();
    let files = std::fs::read_dir(&dir).unwrap().count();
    assert_eq!(files, first.probe_count(), "one checkpoint per probe");

    // A second run over the same directory resumes every finished probe
    // from its checkpoint and must reproduce the report bit-for-bit.
    let resumed = VminSearch::new(kind, cfg)
        .with_checkpoint_dir(&dir)
        .run()
        .unwrap();
    assert_eq!(first, resumed);

    // And the checkpoint-free run agrees too.
    let fresh = VminSearch::new(kind, cfg).run().unwrap();
    assert_eq!(first, fresh);
    std::fs::remove_dir_all(&dir).ok();
}
