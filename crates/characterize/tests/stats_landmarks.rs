//! Paper-landmark tests for the Fig. 5–8 statistical engine.
//!
//! These pin the *claims*, not just the estimators: location uniformity
//! is rejected at p < 0.01 on every platform (Figs. 6–7) while
//! within-BRAM structure is absent; the per-BRAM rates form a stable
//! multi-cluster structure (Fig. 5); the thermal slope is negative
//! (Fig. 8); and the binary-search `Vmin` equals the exhaustive sweep's
//! on every platform.

use uvf_characterize::prelude::*;
use uvf_faults::FaultModel;
use uvf_fpga::{Millivolts, PlatformKind, Rail};

fn census(kind: PlatformKind) -> LocationStats {
    let model = FaultModel::new(kind.descriptor());
    LocationStats::census(&model, kind.descriptor().vccbram.vcrash)
}

#[test]
fn location_uniformity_is_rejected_on_every_platform() {
    for kind in PlatformKind::ALL {
        let stats = census(kind);
        let bram = stats.bram_uniformity().unwrap();
        let col = stats.grid_column_uniformity().unwrap();
        let row = stats.grid_row_uniformity().unwrap();
        println!(
            "{kind}: bram χ²={:.1} p={:.3e} | col χ²={:.1} p={:.3e} | row χ²={:.1} p={:.3e}",
            bram.statistic, bram.p_value, col.statistic, col.p_value, row.statistic, row.p_value,
        );
        assert!(
            bram.rejects_at(LOCATION_ALPHA),
            "{kind}: per-BRAM histogram must reject uniformity (p = {})",
            bram.p_value,
        );
        assert!(
            col.rejects_at(LOCATION_ALPHA),
            "{kind}: die-column histogram must reject uniformity (p = {})",
            col.p_value,
        );
        assert!(
            row.rejects_at(LOCATION_ALPHA),
            "{kind}: die-row histogram must reject uniformity (p = {})",
            row.p_value,
        );
    }
}

#[test]
fn within_bram_positions_are_structureless() {
    for kind in PlatformKind::ALL {
        let stats = census(kind);
        let cell_row = stats.cell_row_uniformity().unwrap();
        let cell_bit = stats.cell_bit_uniformity().unwrap();
        println!(
            "{kind}: cell_row χ²={:.1}/df {} p={:.4} | cell_bit χ²={:.1}/df {} p={:.4}",
            cell_row.statistic,
            cell_row.df,
            cell_row.p_value,
            cell_bit.statistic,
            cell_bit.df,
            cell_bit.p_value,
        );
        assert!(
            !cell_row.rejects_at(LOCATION_ALPHA),
            "{kind}: word rows inside a BRAM must look uniform (p = {})",
            cell_row.p_value,
        );
        assert!(
            !cell_bit.rejects_at(LOCATION_ALPHA),
            "{kind}: bit positions inside a BRAM must look uniform (p = {})",
            cell_bit.p_value,
        );
    }
}

#[test]
fn fig5_clusters_are_stable_and_multi() {
    for kind in PlatformKind::ALL {
        let model = FaultModel::new(kind.descriptor());
        let map = model.variation_map(kind.descriptor().vccbram.vcrash);
        let a = cluster_brams(&map, 6, 5).expect("clusterable census");
        let b = cluster_brams(&map, 6, 5).expect("clusterable census");
        println!(
            "{kind}: k={} silhouette={:.3} sizes={:?} centroids={:?}",
            a.k, a.silhouette, a.sizes, a.centroids,
        );
        assert_eq!(a, b, "{kind}: cluster assignments must be rerun-stable");
        assert!(a.k >= 2, "{kind}: multi-cluster structure expected");
        assert!(a.silhouette > 0.5, "{kind}: silhouette {}", a.silhouette);
        // Fig. 5: the least-faulty class holds at least the never-faulty
        // share of BRAMs.
        assert!(a.least_faulty_share() >= map.never_faulty_share());
    }
}

#[test]
fn fig8_thermal_slope_is_negative_on_every_platform() {
    for kind in PlatformKind::ALL {
        let mut campaign = ThermalCampaign::new(kind);
        campaign.runs_per_point = 3;
        let report = campaign.run(&Tracer::disabled()).expect("campaign runs");
        let log_slope = report.log_fit.map(|f| f.slope);
        println!(
            "{kind}: slope={:.2} faults/°C  r²={:.3}  log_slope={:?}",
            report.rate_fit.slope, report.rate_fit.r2, log_slope,
        );
        assert!(
            report.rate_fit.slope < 0.0,
            "{kind}: inverse thermal dependence requires a negative slope, got {}",
            report.rate_fit.slope,
        );
        // The exponential rate law makes the log fit tight and negative.
        let log_fit = report.log_fit.expect("no zero-fault point at Vcrash");
        assert!(log_fit.slope < 0.0);
        assert!(log_fit.r2 > 0.95, "{kind}: log-linear r² {}", log_fit.r2);
        // Hotter die, fewer faults — monotone along the ladder medians.
        for pair in report.points.windows(2) {
            assert!(
                pair[1].median_faults < pair[0].median_faults,
                "{kind}: {} °C → {} faults, {} °C → {} faults",
                pair[0].temperature_c,
                pair[0].median_faults,
                pair[1].temperature_c,
                pair[1].median_faults,
            );
        }
    }
}

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
