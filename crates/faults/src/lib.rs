//! `uvf-faults` — calibrated deterministic bitcell failure-voltage model.
//!
//! Stands in for the physical fault mechanism of the paper: every bitcell
//! owns a threshold voltage `Vfail` drawn deterministically from
//! `(chip_seed, bram, row, col)` through three process-variation layers
//! (within-die spatial field, heavy-tailed per-BRAM vulnerability with an
//! immune mass, die-to-die seed), shifted by temperature (inverse thermal
//! dependence) and environment noise, and dithered per run by a small
//! jitter. Cells fail `1→0` with 99.9 % polarity.
//!
//! Determinism is the crate's contract, not a convenience: the paper's
//! observation ❶ (faults are repeatable) is what ICBP exploits, so the same
//! `(platform, chip_seed)` must yield bit-identical read-backs across
//! model rebuilds, power cycles and checkpoint-resumed sweeps.

#![deny(deprecated)]

pub mod cache;
pub mod ecc;
pub mod fvm;
pub mod ladder;
pub mod mask;
pub mod model;
pub mod params;
pub mod rng;
pub mod thermal;
pub mod variation;
pub mod weakcells;

pub use cache::FvmCache;
pub use ecc::{Codeword, Decode, EccStats};
pub use fvm::FaultVariationMap;
pub use ladder::MaskPlan;
pub use mask::{FaultMask, ResolvedCondition, WindowJudge};
pub use model::{run_seed, FaultModel, ReadCondition};
pub use params::FaultParams;
pub use weakcells::{WeakCell, KEEP_MARGIN_MV};
