//! Calibration against the paper's published numbers (DESIGN §5).
//!
//! Pins the voltage landmarks, the fault-rate order of magnitude at
//! `Vcrash`, and — since the indexed kernels made it affordable — the
//! paper's full 100-run statistical campaign on every board, with a tight
//! ±10 % tolerance on the median fault rate. Later PRs extend this with
//! pattern dependence and thermal (ITD) shifts.

use uvf_characterize::{cluster_brams, Campaign, Harness, Probe, RecoveryPolicy, SweepConfig};
use uvf_faults::FaultModel;
use uvf_fpga::{Board, Millivolts, PlatformKind, Rail};

/// DESIGN §5 calibration table: (platform, Vnom, Vmin, Vcrash, faults/Mbit
/// at Vcrash, run-to-run σ of that rate over 100 runs — Table II's
/// per-voltage-step spread).
const DESIGN_TABLE: [(PlatformKind, u32, u32, u32, f64, f64); 4] = [
    (PlatformKind::Vc707, 1000, 610, 540, 652.0, 7.3),
    (PlatformKind::Zc702, 1000, 630, 560, 153.0, 5.9),
    (PlatformKind::Kc705A, 1000, 600, 530, 254.0, 4.8),
    (PlatformKind::Kc705B, 1000, 590, 520, 60.0, 1.8),
];

#[test]
fn vccbram_landmarks_match_design_table() {
    for (kind, vnom, vmin, vcrash, _, _) in DESIGN_TABLE {
        let lm = kind.descriptor().vccbram;
        assert_eq!(lm.nominal, Millivolts(vnom), "{kind:?} Vnom");
        assert_eq!(lm.vmin, Millivolts(vmin), "{kind:?} Vmin");
        assert_eq!(lm.vcrash, Millivolts(vcrash), "{kind:?} Vcrash");
    }
}

#[test]
fn mean_guardbands_match_the_paper() {
    let mean = |rail: Rail| {
        PlatformKind::ALL
            .iter()
            .map(|k| k.descriptor().rail(rail).guardband_fraction())
            .sum::<f64>()
            / 4.0
    };
    assert!((mean(Rail::Vccbram) - 0.3925).abs() < 1e-9, "VCCBRAM ~39 %");
    assert!((mean(Rail::Vccint) - 0.34).abs() < 1e-9, "VCCINT 34 %");
}

/// A full from-nominal ladder (the exact Listing-1 shape, reduced run
/// count) discovers the table landmarks on the cheapest die.
#[test]
fn full_ladder_from_nominal_discovers_zc702_landmarks() {
    let platform = PlatformKind::Zc702.descriptor();
    let cfg = SweepConfig::quick(Rail::Vccbram, 2);
    assert_eq!(cfg.start, Millivolts::NOMINAL);
    let mut harness = Harness::new(Board::new(platform), cfg, RecoveryPolicy::default()).unwrap();
    harness.run().unwrap();
    let record = harness.record();
    assert_eq!(record.vmin(), Some(platform.vccbram.vmin));
    assert_eq!(record.vcrash(), Some(platform.vccbram.vcrash));
    // Every level from nominal down to Vmin+10 is fault-free.
    for level in &record.levels {
        if level.v_mv > platform.vccbram.vmin.0 {
            assert!(!level.any_faults(), "faults at {} mV", level.v_mv);
        }
    }
}

/// Median fault rate at Vcrash per platform, within a modest tolerance of
/// the DESIGN §5 targets. The 5-run median over a heavy-tailed die is
/// noisy, so this smoke check keeps the loose ±30 % band; the tight bound
/// lives in [`full_hundred_run_campaign_matches_design_targets`].
#[test]
fn fault_rate_at_vcrash_tracks_design_targets() {
    for (kind, _, _, vcrash, target_per_mbit, _) in DESIGN_TABLE {
        let platform = kind.descriptor();
        let model = FaultModel::new(platform);
        let cfg = SweepConfig::quick(Rail::Vccbram, 5);
        let v = Millivolts(vcrash);

        let mut board = Board::new(platform);
        Probe::Bram.arm(&mut board, cfg.pattern).unwrap();
        board.set_rail_mv(Rail::Vccbram, v).unwrap();
        let mut counts: Vec<u64> = (0..5)
            .map(|run| Probe::Bram.sample(&board, &model, &cfg, v, run).unwrap())
            .collect();
        counts.sort_unstable();
        let median = counts[2] as f64 / platform.total_mbit();
        let rel = (median - target_per_mbit).abs() / target_per_mbit;
        assert!(
            rel < 0.30,
            "{kind:?}: {median:.0} faults/Mbit vs target {target_per_mbit:.0} (rel {rel:.2})"
        );
    }
}

/// The statistically tight calibration: the paper's full Listing-1
/// campaign (100 runs per level, nominal down to crash) on all four
/// boards, run by the campaign runner. The
/// indexed fault kernels brought this from "run explicitly with
/// `--ignored`" to well under a second of wall-clock, so it now gates
/// every test run — landmarks exactly, median rate within ±10 %, and the
/// run-to-run σ of the rate within ±15 % of Table II's per-voltage-step
/// spread (the common-mode `run_spread_mv` knob is calibrated to land
/// within ~2 % on every die; per-cell jitter alone averages out over the
/// faulting population and reaches barely a quarter of the target).
#[test]
fn full_hundred_run_campaign_matches_design_targets() {
    let cfg = SweepConfig::listing1(Rail::Vccbram);
    let entries = Campaign::all_platforms(cfg, RecoveryPolicy::default())
        .run_sequential()
        .unwrap();
    assert_eq!(entries.len(), DESIGN_TABLE.len());
    for (entry, (kind, _, vmin, vcrash, target_per_mbit, target_sigma)) in
        entries.iter().zip(DESIGN_TABLE)
    {
        assert_eq!(entry.job.kind, kind);
        let platform = kind.descriptor();
        let record = &entry.record;
        assert_eq!(record.vmin(), Some(Millivolts(vmin)), "{kind:?} Vmin");
        assert_eq!(record.vcrash(), Some(Millivolts(vcrash)), "{kind:?} Vcrash");
        let level = record
            .levels
            .iter()
            .find(|l| l.v_mv == vcrash)
            .unwrap_or_else(|| panic!("{kind:?}: no level at Vcrash"));
        assert_eq!(level.runs.len(), 100, "{kind:?}: full run count at Vcrash");
        let median = level.median_faults_per_mbit(platform.total_mbit());
        let rel = (median - target_per_mbit).abs() / target_per_mbit;
        assert!(
            rel < 0.10,
            "{kind:?}: {median:.1} faults/Mbit vs target {target_per_mbit:.0} (rel {rel:.3})"
        );
        let sigma = level.sigma_faults_per_mbit(platform.total_mbit());
        let sigma_rel = (sigma - target_sigma).abs() / target_sigma;
        assert!(
            sigma_rel < 0.15,
            "{kind:?}: run σ {sigma:.2} faults/Mbit vs Table II {target_sigma:.1} (rel {sigma_rel:.3})"
        );
    }
}

/// Fig. 5 calibration follow-up: the dominant (least-faulty) cluster
/// share from `cluster_brams` against the paper's published 88.6 %
/// split, with a per-platform tolerance. The modelled dies bracket the
/// published figure rather than landing on it exactly — KC705-B's
/// silhouette selects k = 6, fragmenting its low-vulnerability mass
/// into several classes, so its dominant-class share sits well below
/// the two-cluster platforms and carries the widest band. Same knobs as
/// `repro fig5` and `stats_landmarks.rs`: max_k = 6, seed 5, census at
/// Vcrash.
#[test]
fn dominant_cluster_share_tracks_fig5_split() {
    const MAX_K: usize = 6;
    const CLUSTER_SEED: u64 = 5;
    const PAPER_SHARE: f64 = 0.886;
    // (platform, tolerance around the paper's split). Bands are pinned
    // just above today's measured gaps (0.960, 0.979, 0.865, 0.616) so
    // a modelling change that moves any die's split materially fails.
    const TOLERANCE: [(PlatformKind, f64); 4] = [
        (PlatformKind::Vc707, 0.08),
        (PlatformKind::Zc702, 0.10),
        (PlatformKind::Kc705A, 0.03),
        (PlatformKind::Kc705B, 0.28),
    ];
    for (kind, tol) in TOLERANCE {
        let platform = kind.descriptor();
        let map = FaultModel::new(platform).variation_map(platform.vccbram.vcrash);
        let clusters = cluster_brams(&map, MAX_K, CLUSTER_SEED)
            .unwrap_or_else(|| panic!("{kind:?}: census too small to cluster"));
        let share = clusters.least_faulty_share();
        let gap = (share - PAPER_SHARE).abs();
        assert!(
            gap <= tol,
            "{kind:?}: dominant-cluster share {share:.3} vs paper {PAPER_SHARE} \
             (gap {gap:.3} > tol {tol})"
        );
    }
}
