//! # uvf-accel — the BRAM-mapped NN accelerator case study
//!
//! Reproduces §V of the paper: a fully-connected classifier whose weights
//! live in undervolted on-chip memories. [`Placement`] maps each layer
//! onto contiguous BRAM sites (one 16-bit weight per row),
//! [`MappedNetwork`] writes the sign-magnitude words through
//! [`uvf_fpga::Board`] and reads them back through the fault model, and
//! [`layer_vulnerability_traced`] reruns inference with faults confined to one
//! layer at a time (Fig. 13).
//!
//! The mitigation is [`Placement::icbp`]: rank BRAM sites by a measured
//! [`uvf_faults::FaultVariationMap`] and pin the most-vulnerable layer —
//! in practice the last one, whose faults hit logits with no downstream
//! averaging — onto the cleanest contiguous window. Zero extra BRAMs,
//! near-nominal accuracy at `Vmin` and below.
//!
//! The Fig. 12 sweep ([`voltage_accuracy_power_sweep`]) and the ECC
//! follow-up's shoot-out ([`mitigation_shootout_traced`]) are one
//! experiment: place the net, walk one `VCCBRAM` ladder and score each
//! rung. Both run the same rung loop; the sweep adds a rail-power column,
//! the shoot-out repeats the loop once per [`Mitigation`].
//!
//! Everything downstream of a `(platform, chip_seed)` pair is
//! bit-deterministic, so every figure-level claim here is asserted by an
//! integration test rather than eyeballed.

#![deny(deprecated)]

pub mod engine;
pub mod mitigation;
pub mod pareto;
pub mod placement;
pub mod vulnerability;

pub use engine::{LayerFaults, MappedNetwork};
pub use mitigation::{
    ecc_ladder_census, mitigation_shootout, mitigation_shootout_traced, EccCensusLevel, Mitigation,
    MitigationCurve, MitigationPoint, MitigationShootout, ShootoutConfig,
};
pub use pareto::{voltage_accuracy_power_sweep, ParetoConfig, ParetoPoint, ParetoSweep};
pub use placement::{brams_for_capacity, Placement};
pub use vulnerability::{layer_vulnerability_traced, VulnerabilityReport};
