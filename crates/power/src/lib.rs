//! # uvf-power — per-rail power model behind the paper's §V-B numbers
//!
//! The §V-B power story is the last headline claim of the study: the
//! BRAM rail (`VCCBRAM`) draws 24.1 % of total on-chip power at nominal,
//! underscaling it to Vmin cuts the rail's draw by more than 10×, and
//! pushing on to Vcrash removes a further ~40 %. This crate models those
//! numbers with the standard CMOS decomposition — a voltage-quadratic
//! dynamic term plus an exponential-in-voltage leakage term per rail —
//! and calibrates the leakage exponent of each sweepable rail against
//! the platform's published voltage landmarks.
//!
//! Pieces:
//!
//! * [`RailPowerSpec`] / [`ChipPowerModel`] — the analytic model; the
//!   characterization harness samples the chip model once per sweep level
//!   into `LevelRecord::rail_uw`.
//! * [`PowerBreakdown`] — VTR-style hierarchical report (component /
//!   %-total / %-dynamic), after the `stereovision0.power` exemplar.
//! * [`pareto`] — dominance frontier + knee location for the
//!   voltage–accuracy–power trade-off sweep in `uvf-accel`.
//!
//! Everything is a pure function of `(platform, rail, v, temperature)`:
//! no clock, no ambient randomness, bit-identical across reruns — the
//! same contract as the rest of the workspace, which matters because
//! sweep records and checkpoints now embed these values.

#![deny(deprecated)]

pub mod breakdown;
pub mod model;
pub mod pareto;

pub use breakdown::{BreakdownRow, PowerBreakdown};
pub use model::{
    ChipPowerModel, PowerSample, RailPowerSpec, BRAM_DYNAMIC_SHARE, FURTHER_REDUCTION_TARGET,
    LEAK_TEMP_COEFF_PER_C,
};
pub use pareto::{knee_of_frontier, pareto_frontier};
