//! `uvf-fpga` — the board substrate of the undervolt-fpga reproduction.
//!
//! Models the four Table-I Xilinx boards of *Comprehensive Evaluation of
//! Supply Voltage Underscaling in FPGA on-Chip Memories* (Salami et al.,
//! MICRO 2018): BRAM populations with physical floorplans, the UCD9248-like
//! rail controller that [`Board::set_rail_mv`] programs, and — centrally for
//! the experiment harness — the board's *crash semantics*: driving a rail
//! below its crash boundary hangs the board silently until it is
//! power-cycled.
//!
//! The crate is deliberately fault-free: read-backs return stored data.
//! Undervolting corruption is layered on by `uvf-faults`, because weak
//! cells are a property of the die, not of the data or the board logic.

#![deny(deprecated)]

pub mod board;
pub mod bram;
pub mod eccmode;
pub mod error;
pub mod floorplan;
pub mod platform;
pub mod regulator;
pub mod seedmix;
pub mod voltage;

pub use board::{Board, DEFAULT_TEMPERATURE_C};
pub use bram::{Bram, BramId, DataPattern};
pub use eccmode::{StoredCodeword, ECC_CODEWORDS_PER_BRAM, ECC_WORDS_PER_BRAM};
pub use error::{BoardError, ParseNameError};
pub use floorplan::{Floorplan, Site};
pub use platform::{Platform, PlatformKind, BRAM_BITS, BRAM_ROWS, BRAM_WORD_BITS};
pub use regulator::{Regulator, VID_STEP_MV, VOUT_MAX, VOUT_MIN};
pub use voltage::{Millivolts, Rail, RailLandmarks, VoltageRegion};
