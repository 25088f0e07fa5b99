//! Typed error hierarchy for the board substrate.
//!
//! Hand-rolled (`Display` + `std::error::Error` impls, no `thiserror`) per
//! the workspace's no-extra-deps rule. Library code returns these instead of
//! panicking: an undervolting harness *expects* the board to fail.

use crate::voltage::{Millivolts, Rail};
use std::error::Error;
use std::fmt;

/// Errors of the board model proper.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BoardError {
    /// The board is hung: a rail was driven below its crash boundary (or a
    /// supply-noise event collapsed it). Only `power_cycle()` recovers it.
    Crashed {
        rail: Rail,
        /// Rail setting that took the board down.
        at: Millivolts,
    },
    /// The regulator cannot produce the requested voltage.
    VoltageOutOfRange {
        rail: Rail,
        requested: Millivolts,
        min: Millivolts,
        max: Millivolts,
    },
    /// Address outside the modeled BRAM population.
    AddressOutOfRange { bram: u32, row: u32 },
}

impl fmt::Display for BoardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BoardError::Crashed { rail, at } => {
                write!(
                    f,
                    "board hung: {rail} driven to {at} (below crash boundary)"
                )
            }
            BoardError::VoltageOutOfRange {
                rail,
                requested,
                min,
                max,
            } => write!(
                f,
                "regulator cannot set {rail} to {requested} (range {min}..{max})"
            ),
            BoardError::AddressOutOfRange { bram, row } => {
                write!(f, "address out of range: BRAM {bram} row {row}")
            }
        }
    }
}

impl Error for BoardError {}

/// Error of the `FromStr` impls on [`PlatformKind`], [`Rail`] and
/// [`DataPattern`]: the input matched no stable short name.
///
/// [`PlatformKind`]: crate::PlatformKind
/// [`Rail`]: crate::Rail
/// [`DataPattern`]: crate::DataPattern
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseNameError {
    what: &'static str,
    input: String,
    expected: &'static [&'static str],
}

impl ParseNameError {
    pub(crate) fn new(
        what: &'static str,
        input: &str,
        expected: &'static [&'static str],
    ) -> ParseNameError {
        ParseNameError {
            what,
            input: input.to_string(),
            expected,
        }
    }
}

impl fmt::Display for ParseNameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown {} name {:?} (expected one of: {})",
            self.what,
            self.input,
            self.expected.join(", ")
        )
    }
}

impl Error for ParseNameError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = BoardError::Crashed {
            rail: Rail::Vccbram,
            at: Millivolts(530),
        };
        let s = e.to_string();
        assert!(s.contains("vccbram") && s.contains("0.53 V"), "{s}");
    }

    #[test]
    fn parse_error_names_the_candidates() {
        let e: ParseNameError = "vc709".parse::<crate::PlatformKind>().unwrap_err();
        assert_eq!(e.input, "vc709");
        let s = e.to_string();
        assert!(s.contains("platform") && s.contains("vc707"), "{s}");
    }
}
