//! Voltage–accuracy–power Pareto sweep (Fig. 12 capstone).
//!
//! The paper's operating argument is a trade-off: every millivolt shaved
//! off `VCCBRAM` saves rail power quadratically-plus-exponentially, but
//! below `Vmin` the accelerator pays in classification error. This module
//! walks the trained network down the rail — one clean nominal read, then
//! a descending ladder from just above `Vmin` to `Vcrash` — and scores
//! each level with the analytic [`ChipPowerModel`]. The non-dominated
//! subset and its knee come from [`uvf_power::pareto_frontier`] /
//! [`uvf_power::knee_of_frontier`], so the recommended operating point is
//! a computed fact, pinned by an integration test, not an eyeballed plot.
//!
//! Everything downstream of `(platform, chip_seed, run_seed)` is
//! bit-deterministic: the sweep, the frontier, and the knee are identical
//! across reruns.

use crate::engine::{LayerFaults, MappedNetwork, RungScorer};
use crate::placement::Placement;
use uvf_faults::{FaultModel, ReadCondition};
use uvf_fpga::{Board, BoardError, Millivolts, Platform, PlatformKind, Rail};
use uvf_nn::{QNetwork, SyntheticData};
use uvf_power::{knee_of_frontier, pareto_frontier, ChipPowerModel};

/// Sweep parameters. Everything that feeds the fault model or the power
/// model is explicit here, so two sweeps with equal configs are
/// bit-identical.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ParetoConfig {
    pub platform: PlatformKind,
    pub chip_seed: u64,
    /// Die temperature for both fault injection and leakage scaling.
    pub temperature_c: f64,
    /// Which repeated undervolted read the sweep scores.
    pub run_seed: u64,
    /// Ladder step below the starting level, millivolts.
    pub step_mv: u32,
    /// The undervolted ladder starts this far above `Vmin`, so the sweep
    /// straddles the safe/unsafe boundary instead of starting at it.
    pub start_above_vmin_mv: u32,
}

impl ParetoConfig {
    /// The configuration the `repro fig12` subcommand runs: VC707, the
    /// Fig. 13/14 chip, a cold die, levels from `Vmin` + 50 mV down to
    /// `Vcrash` in 10 mV steps.
    #[must_use]
    pub fn vc707_default(chip_seed: u64, run_seed: u64, temperature_c: f64) -> ParetoConfig {
        ParetoConfig {
            platform: PlatformKind::Vc707,
            chip_seed,
            temperature_c,
            run_seed,
            step_mv: 10,
            start_above_vmin_mv: 50,
        }
    }
}

/// One measured operating point of the sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ParetoPoint {
    pub v_mv: u32,
    /// `VCCBRAM` rail draw at this level, integer microwatts.
    pub rail_uw: u64,
    /// Classification error of the read-back network on the test split.
    pub error: f64,
}

/// The sweep result: every point measured, the minimize-both frontier
/// (indices into `points`, ordered by increasing power), and the knee.
#[derive(Debug, Clone, PartialEq)]
pub struct ParetoSweep {
    pub points: Vec<ParetoPoint>,
    pub frontier: Vec<usize>,
    /// Index into `points` of the knee — the frontier member of maximum
    /// perpendicular distance from the chord between its endpoints.
    pub knee: usize,
}

impl ParetoSweep {
    #[must_use]
    pub fn knee_point(&self) -> &ParetoPoint {
        &self.points[self.knee]
    }
}

/// Walk the trained `qnet` down the `VCCBRAM` rail and score every level
/// with (rail power, classification error).
///
/// The first point is a clean nominal read (no fault injection); the rest
/// descend from `Vmin + start_above_vmin_mv` to `Vcrash` in `step_mv`
/// decrements, re-resolving the fault condition per level. The board and
/// the stored weight image are untouched throughout — `read_back` is pure
/// — so levels are independent and the sweep order cannot leak state. A
/// level whose read-back is bit-identical to the previous level's reuses
/// its error rather than classifying again.
///
/// # Errors
/// Propagates any [`BoardError`] from the weight load or the bulk reads.
pub fn voltage_accuracy_power_sweep(
    cfg: &ParetoConfig,
    qnet: &QNetwork,
    weights: &[usize],
    data: &SyntheticData,
) -> Result<ParetoSweep, BoardError> {
    let platform = Platform::new(cfg.platform);
    let mut board = Board::with_chip_seed(platform, cfg.chip_seed);
    let model = FaultModel::with_chip_seed(platform, cfg.chip_seed);
    let power = ChipPowerModel::for_platform(cfg.platform);
    let mapped = MappedNetwork::load(&mut board, qnet, Placement::contiguous(weights))?;

    let rail = platform.rail(Rail::Vccbram);
    let mut levels = vec![(Millivolts::NOMINAL, false)];
    let mut v = rail.vmin.0 + cfg.start_above_vmin_mv;
    while v >= rail.vcrash.0 {
        levels.push((Millivolts(v), true));
        v = match v.checked_sub(cfg.step_mv.max(1)) {
            Some(next) => next,
            None => break,
        };
    }

    let mut scorer = RungScorer::new(&data.test);
    let mut points = Vec::with_capacity(levels.len());
    for (v, undervolted) in levels {
        let cond = undervolted.then(|| {
            model.resolve(&ReadCondition {
                v,
                temperature_c: cfg.temperature_c,
                run_seed: cfg.run_seed,
            })
        });
        let net = mapped.read_back(&board, &model, cond.as_ref(), LayerFaults::All)?;
        points.push(ParetoPoint {
            v_mv: v.0,
            rail_uw: power.sample(Rail::Vccbram, v, cfg.temperature_c).total_uw(),
            error: scorer.error(net),
        });
    }

    let objectives: Vec<(f64, f64)> = points.iter().map(|p| (p.rail_uw as f64, p.error)).collect();
    let frontier = pareto_frontier(&objectives);
    let knee = knee_of_frontier(&objectives, &frontier)
        .expect("sweep always measures at least the nominal point");
    Ok(ParetoSweep {
        points,
        frontier,
        knee,
    })
}
