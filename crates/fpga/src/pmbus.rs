//! PMBus command layer: the wire protocol of the experiment driver.
//!
//! Listing 1 of the paper talks to the regulator exclusively through PMBus
//! (`VOUT_COMMAND`, `READ_VOUT`, `READ_TEMPERATURE_2`), so the sweep driver
//! in `uvf-characterize` is written against this command surface rather
//! than against board internals. When the board is hung the bus goes
//! silent: every command returns [`PmbusError::NoResponse`] instead of
//! data, which is what the harness's watchdog turns into a timeout.

use crate::error::PmbusError;
use crate::voltage::{Millivolts, Rail};

/// The PMBus commands the study needs (a subset of the UCD9248 set).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PmbusCommand {
    /// `VOUT_COMMAND` — program a rail's output voltage.
    VoutCommand { rail: Rail, v: Millivolts },
    /// `READ_VOUT` — read back a rail's programmed voltage.
    ReadVout { rail: Rail },
    /// `READ_TEMPERATURE_2` — external (die) temperature sensor.
    ReadTemperature2,
    /// `READ_POUT` — a rail's modeled output power. Answered through the
    /// board's attached [`RailDraw`](crate::power::RailDraw) model; a
    /// board without one treats the command as unsupported.
    ReadPout { rail: Rail },
    /// `CLEAR_FAULTS` — acknowledged and ignored by the model (the real
    /// bring-up scripts issue it; it has no observable effect here).
    ClearFaults,
}

/// Successful replies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PmbusResponse {
    /// Write-style commands acknowledge without data.
    Ack,
    /// `READ_VOUT` reply.
    Vout(Millivolts),
    /// `READ_TEMPERATURE_2` reply in °C.
    TemperatureC(f64),
    /// `READ_POUT` reply in integer microwatts.
    PowerUw(u64),
}

impl PmbusResponse {
    /// Convenience accessor for `READ_VOUT` replies.
    pub fn vout(self) -> Result<Millivolts, PmbusError> {
        match self {
            PmbusResponse::Vout(v) => Ok(v),
            _ => Err(PmbusError::UnsupportedCommand {
                command: "expected READ_VOUT reply",
            }),
        }
    }

    /// Convenience accessor for `READ_POUT` replies.
    pub fn pout_uw(self) -> Result<u64, PmbusError> {
        match self {
            PmbusResponse::PowerUw(uw) => Ok(uw),
            _ => Err(PmbusError::UnsupportedCommand {
                command: "expected READ_POUT reply",
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vout_accessor() {
        assert_eq!(
            PmbusResponse::Vout(Millivolts(610)).vout().unwrap(),
            Millivolts(610)
        );
        assert!(PmbusResponse::Ack.vout().is_err());
    }
}
