//! Voltage units, rails and operating regions.
//!
//! The paper sweeps the BRAM supply (`VCCBRAM`) and the internal logic
//! supply (`VCCINT`) in 10 mV steps, so millivolt integers are the natural
//! unit everywhere: they are exact, hashable and cheap to serialize.

use crate::error::ParseNameError;
use std::fmt;
use std::str::FromStr;

/// A supply voltage in millivolts. 1.00 V nominal is `Millivolts(1000)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Millivolts(pub u32);

impl Millivolts {
    /// Nominal supply of every Table-I platform (1.00 V).
    pub const NOMINAL: Millivolts = Millivolts(1000);

    #[must_use]
    pub fn as_volts(self) -> f64 {
        f64::from(self.0) / 1000.0
    }

    /// Saturating subtraction, handy when stepping a sweep downwards.
    #[must_use]
    pub fn saturating_sub(self, mv: u32) -> Millivolts {
        Millivolts(self.0.saturating_sub(mv))
    }
}

/// Records carry a level as its bare millivolt integer.
impl From<u32> for Millivolts {
    fn from(mv: u32) -> Millivolts {
        Millivolts(mv)
    }
}

impl From<Millivolts> for u32 {
    fn from(v: Millivolts) -> u32 {
        v.0
    }
}

impl fmt::Display for Millivolts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2} V", self.as_volts())
    }
}

/// The supply rails the paper underscales (plus the auxiliary rail the
/// boards carry but the study leaves at nominal).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rail {
    /// BRAM supply — the rail the whole characterization targets.
    Vccbram,
    /// Internal logic supply — the paper's "ongoing work" rail.
    Vccint,
    /// Auxiliary rail; modeled for PMBus completeness, never underscaled.
    Vccaux,
}

impl Rail {
    /// The rails a guardband sweep makes sense on.
    pub const SWEEPABLE: [Rail; 2] = [Rail::Vccbram, Rail::Vccint];

    /// Every modeled rail.
    pub const ALL: [Rail; 3] = [Rail::Vccbram, Rail::Vccint, Rail::Vccaux];

    /// Stable short names, index-aligned with [`Rail::ALL`].
    const NAMES: [&'static str; 3] = ["vccbram", "vccint", "vccaux"];

    fn short_name(self) -> &'static str {
        match self {
            Rail::Vccbram => "vccbram",
            Rail::Vccint => "vccint",
            Rail::Vccaux => "vccaux",
        }
    }
}

/// Writes the stable short name (`vccbram`, …) used in records and
/// checkpoints — the exact form [`FromStr`] parses back.
impl fmt::Display for Rail {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.short_name())
    }
}

impl FromStr for Rail {
    type Err = ParseNameError;

    /// Parses the stable short name, case-insensitively (`"VCCBRAM"` is the
    /// datasheet spelling and the old `Display` output).
    fn from_str(s: &str) -> Result<Rail, ParseNameError> {
        let norm = s.to_ascii_lowercase();
        Rail::ALL
            .into_iter()
            .find(|r| r.short_name() == norm)
            .ok_or_else(|| ParseNameError::new("rail", s, &Rail::NAMES))
    }
}

/// Operating landmarks of one rail on one platform (Fig. 1 of the paper).
///
/// `vcrash` follows the paper's convention: it is the *lowest voltage at
/// which the board still operates* (fault rates are reported "at Vcrash").
/// Driving the rail strictly below `vcrash` hangs the board — see
/// [`VoltageRegion::Crash`] and `Board::set_rail_mv`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RailLandmarks {
    pub nominal: Millivolts,
    /// Highest voltage at which the first faults appear.
    pub vmin: Millivolts,
    /// Lowest operational voltage; below this the board hangs.
    pub vcrash: Millivolts,
}

impl RailLandmarks {
    /// Guardband fraction of nominal: the voltage slack above `vmin`.
    #[must_use]
    pub fn guardband_fraction(&self) -> f64 {
        f64::from(self.nominal.0 - self.vmin.0) / f64::from(self.nominal.0)
    }

    #[must_use]
    pub fn region(&self, v: Millivolts) -> VoltageRegion {
        if v < self.vcrash {
            VoltageRegion::Crash
        } else if v <= self.vmin {
            VoltageRegion::Critical
        } else {
            VoltageRegion::Safe
        }
    }
}

/// The three regions of Fig. 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VoltageRegion {
    /// Above `vmin`: no observable faults — this span is the guardband.
    Safe,
    /// `[vcrash, vmin]`: the board operates but read-backs carry faults.
    Critical,
    /// Below `vcrash`: the board hangs until power-cycled.
    Crash,
}

impl fmt::Display for VoltageRegion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VoltageRegion::Safe => write!(f, "SAFE"),
            VoltageRegion::Critical => write!(f, "CRITICAL"),
            VoltageRegion::Crash => write!(f, "CRASH"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn landmarks() -> RailLandmarks {
        RailLandmarks {
            nominal: Millivolts(1000),
            vmin: Millivolts(610),
            vcrash: Millivolts(540),
        }
    }

    #[test]
    fn regions_partition_the_axis() {
        let lm = landmarks();
        assert_eq!(lm.region(Millivolts(1000)), VoltageRegion::Safe);
        assert_eq!(lm.region(Millivolts(611)), VoltageRegion::Safe);
        assert_eq!(lm.region(Millivolts(610)), VoltageRegion::Critical);
        assert_eq!(lm.region(Millivolts(540)), VoltageRegion::Critical);
        assert_eq!(lm.region(Millivolts(539)), VoltageRegion::Crash);
    }

    #[test]
    fn guardband_fraction_matches_fig1() {
        assert!((landmarks().guardband_fraction() - 0.39).abs() < 1e-9);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Millivolts(540).to_string(), "0.54 V");
        assert_eq!(Rail::Vccbram.to_string(), "vccbram");
    }

    #[test]
    fn rail_names_roundtrip() {
        for rail in Rail::ALL {
            assert_eq!(rail.to_string().parse::<Rail>(), Ok(rail));
        }
        assert_eq!("VCCBRAM".parse(), Ok(Rail::Vccbram));
        assert!("vccio".parse::<Rail>().is_err());
    }
}
