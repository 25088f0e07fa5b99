//! The board: chip + regulator + crash semantics.
//!
//! This is the simulation's stand-in for the physical failure mode that
//! makes undervolting experiments hard: driving a rail below its crash
//! boundary does not return an error — the command is acknowledged, the
//! supply collapses, and the board silently stops answering. The harness in
//! `uvf-characterize` only learns about it the way the real setup does:
//! a read stops returning data and a watchdog expires.

use crate::bram::{Bram, BramId, DataPattern};
use crate::error::BoardError;
use crate::platform::{Platform, BRAM_ROWS};
use crate::regulator::Regulator;
use crate::seedmix;
use crate::voltage::{Millivolts, Rail, VoltageRegion};

/// Liveness of the board.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BoardState {
    Operational,
    /// Hung: only [`Board::power_cycle`] recovers it.
    Crashed {
        rail: Rail,
        at: Millivolts,
    },
}

/// Ambient/default die temperature in °C.
pub const DEFAULT_TEMPERATURE_C: f64 = 25.0;

/// The image every BRAM holds until its first write.
static ZERO_IMAGE: [u16; BRAM_ROWS] = [0; BRAM_ROWS];

#[derive(Debug, Clone)]
pub struct Board {
    platform: Platform,
    chip_seed: u64,
    regulator: Regulator,
    /// Each BRAM's stored image, allocated on its first write: a read of
    /// an unwritten BRAM returns [`ZERO_IMAGE`].
    brams: Vec<Option<Bram>>,
    temperature_c: f64,
    state: BoardState,
    /// Width of the probabilistic crash band above the crash boundary, in
    /// mV. 0 (default) models the paper's bench: crashes are deterministic
    /// at the boundary. >0 models the "more noisy and harsh environments"
    /// caveat of Section II-B: supply droop can collapse the board while it
    /// operates *near* (but above) the boundary.
    noise_band_mv: u32,
}

impl Board {
    #[must_use]
    pub fn new(platform: Platform) -> Board {
        let chip_seed = platform.default_chip_seed;
        Board::with_chip_seed(platform, chip_seed)
    }

    /// A board around a specific die. Two boards with the same platform and
    /// chip seed are the *same silicon* and must behave identically.
    #[must_use]
    pub fn with_chip_seed(platform: Platform, chip_seed: u64) -> Board {
        Board {
            platform,
            chip_seed,
            regulator: Regulator::at_nominal(),
            brams: (0..platform.bram_count).map(|_| None).collect(),
            temperature_c: DEFAULT_TEMPERATURE_C,
            state: BoardState::Operational,
            noise_band_mv: 0,
        }
    }

    #[must_use]
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    #[must_use]
    pub fn chip_seed(&self) -> u64 {
        self.chip_seed
    }

    #[must_use]
    pub fn is_crashed(&self) -> bool {
        matches!(self.state, BoardState::Crashed { .. })
    }

    /// Heat-chamber control (Fig. 8 experiments).
    pub fn set_temperature_c(&mut self, t: f64) {
        self.temperature_c = t;
    }

    /// Configure the noisy-environment crash band (see field docs).
    pub fn set_noise_band_mv(&mut self, band: u32) {
        self.noise_band_mv = band;
    }

    /// Current programmed voltage of a rail.
    #[must_use]
    pub fn rail_mv(&self, rail: Rail) -> Millivolts {
        self.regulator.vout(rail)
    }

    fn crash(&mut self, rail: Rail, at: Millivolts) {
        self.state = BoardState::Crashed { rail, at };
    }

    fn crashed_error(&self) -> Option<BoardError> {
        match self.state {
            BoardState::Crashed { rail, at } => Some(BoardError::Crashed { rail, at }),
            BoardState::Operational => None,
        }
    }

    /// Program a rail (Listing 1's set-voltage step), snapped down to the
    /// 10 mV VID grid; returns the programmed voltage.
    ///
    /// An out-of-range request is refused and leaves the board alive. A
    /// lethal setting is still acknowledged — the supply collapses *after*
    /// the command completes, and the caller only finds out when its next
    /// board access fails with [`BoardError::Crashed`].
    pub fn set_rail_mv(&mut self, rail: Rail, v: Millivolts) -> Result<Millivolts, BoardError> {
        if let Some(e) = self.crashed_error() {
            return Err(e);
        }
        let snapped = self.regulator.set_vout(rail, v)?;
        if self.platform.rail(rail).region(snapped) == VoltageRegion::Crash {
            self.crash(rail, snapped);
        }
        Ok(snapped)
    }

    /// Supply-noise stress roll for one experiment run.
    ///
    /// With a non-zero noise band, operating a rail at `v` within
    /// `[vcrash, vcrash + band)` collapses the board with a probability that
    /// rises towards the boundary. The roll is a pure function of
    /// `(chip_seed, rail, v, run, attempt)`, so an interrupted-and-resumed
    /// sweep replays the *same* crashes at the same logical positions — the
    /// checkpoint-resume bit-identity property depends on this.
    ///
    /// Returns `true` if this roll took the board down.
    pub fn apply_supply_noise(&mut self, rail: Rail, run: u32, attempt: u32) -> bool {
        if self.noise_band_mv == 0 || self.is_crashed() {
            return false;
        }
        let v = self.regulator.vout(rail);
        let lm = self.platform.rail(rail);
        let band = self.noise_band_mv;
        if v < lm.vcrash || v.0 >= lm.vcrash.0 + band {
            return false;
        }
        // Linear-in-voltage margin, squared: p -> 1 at the boundary,
        // p -> 0 at the top of the band.
        let margin = f64::from(v.0 - lm.vcrash.0) / f64::from(band);
        let p = (1.0 - margin) * (1.0 - margin);
        let roll = seedmix::unit_f64(seedmix::mix(&[
            self.chip_seed,
            rail as u64,
            u64::from(v.0),
            u64::from(run),
            u64::from(attempt),
            0x5e15_ec0d, // domain tag: supply-noise rolls
        ]));
        if roll < p {
            self.crash(rail, v);
            true
        } else {
            false
        }
    }

    /// Write `pattern` into every BRAM (host-side JTAG/ICAP access path).
    pub fn write_pattern(&mut self, pattern: DataPattern) -> Result<(), BoardError> {
        if let Some(e) = self.crashed_error() {
            return Err(e);
        }
        for (i, bram) in self.brams.iter_mut().enumerate() {
            let bram = bram.get_or_insert_with(Bram::new);
            bram.fill_pattern(BramId(i as u32), pattern);
        }
        Ok(())
    }

    /// Write one word (used by later crates to load NN weights).
    pub fn write_row(&mut self, bram: BramId, row: u32, value: u16) -> Result<(), BoardError> {
        if let Some(e) = self.crashed_error() {
            return Err(e);
        }
        let slot = self
            .brams
            .get_mut(bram.0 as usize)
            .filter(|_| (row as usize) < BRAM_ROWS)
            .ok_or(BoardError::AddressOutOfRange { bram: bram.0, row })?;
        slot.get_or_insert_with(Bram::new)
            .set_word(row as usize, value);
        Ok(())
    }

    /// Read the *stored* word at an address.
    ///
    /// On a hung board the access never completes — callers get the typed
    /// crash error and are expected to translate it into a watchdog timeout
    /// (see `uvf_characterize::harness::Watchdog`). Undervolting corruption
    /// of the returned value is applied by `uvf-faults` at a higher layer:
    /// weak cells belong to the die model, not to the stored data.
    pub fn read_row(&self, bram: BramId, row: u32) -> Result<u16, BoardError> {
        if let Some(e) = self.crashed_error() {
            return Err(e);
        }
        self.image(bram)
            .and_then(|words| words.get(row as usize).copied())
            .ok_or(BoardError::AddressOutOfRange { bram: bram.0, row })
    }

    /// Bulk read of one whole BRAM image — the NN weight-fetch path of
    /// `uvf-accel`, equivalent to 1024 [`Board::read_row`] calls with one
    /// liveness check. Same semantics: the *stored* words come back; the
    /// fault model corrupts them at a higher layer.
    pub fn read_bram(&self, bram: BramId) -> Result<&[u16; BRAM_ROWS], BoardError> {
        if let Some(e) = self.crashed_error() {
            return Err(e);
        }
        self.image(bram).ok_or(BoardError::AddressOutOfRange {
            bram: bram.0,
            row: 0,
        })
    }

    /// The stored image of `bram`, all zeros before its first write;
    /// `None` for an id past the device.
    fn image(&self, bram: BramId) -> Option<&[u16; BRAM_ROWS]> {
        let slot = self.brams.get(bram.0 as usize)?;
        Some(slot.as_ref().map_or(&ZERO_IMAGE, Bram::words))
    }

    /// Deterministic logic self-test for `VCCINT` sweeps.
    ///
    /// Placeholder for the future `faults::logic` datapath model (ROADMAP):
    /// returns the number of failing test vectors at the current `VCCINT`
    /// setting — zero above the rail's `vmin`, exponentially growing below
    /// it. Enough to drive Fig.-1 guardband discovery on the internal rail.
    pub fn logic_selftest(&self) -> Result<u32, BoardError> {
        if let Some(e) = self.crashed_error() {
            return Err(e);
        }
        let lm = self.platform.rail(Rail::Vccint);
        let v = self.regulator.vout(Rail::Vccint);
        if v > lm.vmin {
            return Ok(0);
        }
        let deficit_steps = (lm.vmin.0 - v.0) / 10;
        Ok(1u32 << deficit_steps.min(16))
    }

    /// Power-cycle the board: the one recovery path from a hang.
    ///
    /// Restores every rail to nominal, clears all BRAM contents (volatile
    /// memory loses state; written images are zeroed in place), returns
    /// the board to `Operational`, and leaves the die — chip seed,
    /// temperature chamber setting — untouched.
    pub fn power_cycle(&mut self) {
        self.regulator.reset_to_nominal();
        for bram in self.brams.iter_mut().flatten() {
            bram.clear();
        }
        self.state = BoardState::Operational;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::PlatformKind;

    fn vc707() -> Board {
        Board::new(PlatformKind::Vc707.descriptor())
    }

    #[test]
    fn lethal_vout_is_acked_then_board_hangs() {
        let mut b = vc707();
        // 0.53 V is below the VC707 VCCBRAM crash boundary of 0.54 V.
        let set = b.set_rail_mv(Rail::Vccbram, Millivolts(530));
        assert_eq!(set, Ok(Millivolts(530)), "lethal set is still acked");
        assert!(b.is_crashed());
        // ... and now the board answers nothing.
        assert!(matches!(
            b.set_rail_mv(Rail::Vccbram, Millivolts(600)),
            Err(BoardError::Crashed { .. })
        ));
        assert!(matches!(
            b.read_row(BramId(0), 0),
            Err(BoardError::Crashed { .. })
        ));
    }

    #[test]
    fn bulk_read_matches_row_reads_and_respects_crash() {
        let mut b = vc707();
        b.write_pattern(DataPattern::Random50).unwrap();
        let image = b.read_bram(BramId(5)).unwrap();
        for row in [0u32, 1, 511, 1023] {
            assert_eq!(image[row as usize], b.read_row(BramId(5), row).unwrap());
        }
        assert!(matches!(
            b.read_bram(BramId(u32::MAX)),
            Err(BoardError::AddressOutOfRange { .. })
        ));
        b.set_rail_mv(Rail::Vccbram, Millivolts(500)).ok();
        assert!(matches!(
            b.read_bram(BramId(0)),
            Err(BoardError::Crashed { .. })
        ));
    }

    #[test]
    fn vcrash_itself_is_operational() {
        let mut b = vc707();
        b.set_rail_mv(Rail::Vccbram, Millivolts(540)).unwrap();
        assert!(!b.is_crashed(), "Vcrash is the last *operational* voltage");
        assert!(b.read_row(BramId(0), 0).is_ok());
    }

    #[test]
    fn power_cycle_recovers_and_clears() {
        let mut b = vc707();
        b.write_pattern(DataPattern::AllOnes).unwrap();
        b.set_rail_mv(Rail::Vccbram, Millivolts(500)).ok();
        assert!(b.is_crashed());
        b.power_cycle();
        assert_eq!(b.state, BoardState::Operational);
        assert_eq!(b.rail_mv(Rail::Vccbram), Millivolts::NOMINAL);
        assert_eq!(b.read_row(BramId(3), 17).unwrap(), 0, "contents cleared");
    }

    #[test]
    fn brams_hold_an_image_only_once_written() {
        let mut b = vc707();
        assert!(
            b.brams.iter().all(Option::is_none),
            "a fresh board holds no image"
        );
        assert_eq!(b.read_bram(BramId(9)).unwrap(), &[0; BRAM_ROWS]);
        assert_eq!(b.read_row(BramId(9), 1023), Ok(0));
        b.write_row(BramId(9), 4, 0xBEEF).unwrap();
        assert_eq!(b.brams.iter().flatten().count(), 1);
        assert_eq!(b.read_row(BramId(9), 4), Ok(0xBEEF));
        assert_eq!(b.read_bram(BramId(8)).unwrap(), &[0; BRAM_ROWS]);
        fn out<T>(bram: u32, row: u32) -> Result<T, BoardError> {
            Err(BoardError::AddressOutOfRange { bram, row })
        }
        // A failed write allocates nothing.
        assert_eq!(b.write_row(BramId(3), 1024, 1), out(3, 1024));
        assert_eq!(b.brams.iter().flatten().count(), 1);
        // Bad ids and rows still error, written BRAM or not.
        let last = b.platform().bram_count as u32;
        assert_eq!(b.write_row(BramId(last), 0, 1), out(last, 0));
        assert_eq!(b.read_row(BramId(last), 0), out(last, 0));
        assert_eq!(b.read_row(BramId(8), 1024), out(8, 1024));
        assert_eq!(b.read_row(BramId(9), 1024), out(9, 1024));
        assert_eq!(b.read_bram(BramId(last)), out(last, 0));
        // A power cycle zeroes the written image and keeps it.
        b.power_cycle();
        assert_eq!(b.brams.iter().flatten().count(), 1);
        assert_eq!(b.read_bram(BramId(9)).unwrap(), &[0; BRAM_ROWS]);
        b.write_pattern(DataPattern::AllOnes).unwrap();
        assert!(b.brams.iter().all(Option::is_some));
        b.power_cycle();
        assert!(b
            .brams
            .iter()
            .flatten()
            .all(|bram| bram.words() == &[0; BRAM_ROWS]));
        // A crashed board answers no read, written BRAM or not.
        let mut fresh = vc707();
        fresh.set_rail_mv(Rail::Vccbram, Millivolts(500)).ok();
        assert!(matches!(
            fresh.read_bram(BramId(9)),
            Err(BoardError::Crashed { .. })
        ));
        assert!(matches!(
            fresh.read_row(BramId(9), 0),
            Err(BoardError::Crashed { .. })
        ));
    }

    #[test]
    fn noise_band_rolls_are_deterministic() {
        let mut a = vc707();
        let mut b = vc707();
        for board in [&mut a, &mut b] {
            board.set_noise_band_mv(30);
            board.set_rail_mv(Rail::Vccbram, Millivolts(550)).unwrap();
        }
        for run in 0..200 {
            assert_eq!(
                a.apply_supply_noise(Rail::Vccbram, run, 0),
                b.apply_supply_noise(Rail::Vccbram, run, 0)
            );
            if a.is_crashed() {
                a.power_cycle();
                b.power_cycle();
                for board in [&mut a, &mut b] {
                    board.set_rail_mv(Rail::Vccbram, Millivolts(550)).unwrap();
                }
            }
        }
    }

    #[test]
    fn noise_band_never_fires_outside_band_or_when_disabled() {
        let mut b = vc707();
        b.set_rail_mv(Rail::Vccbram, Millivolts(560)).unwrap();
        for run in 0..100 {
            assert!(
                !b.apply_supply_noise(Rail::Vccbram, run, 0),
                "band disabled"
            );
        }
        b.set_noise_band_mv(10);
        b.set_rail_mv(Rail::Vccbram, Millivolts(600)).unwrap();
        for run in 0..100 {
            assert!(!b.apply_supply_noise(Rail::Vccbram, run, 0), "above band");
        }
    }

    #[test]
    fn logic_selftest_onsets_at_vccint_vmin() {
        let mut b = vc707();
        let vmin = b.platform().rail(Rail::Vccint).vmin;
        b.set_rail_mv(Rail::Vccint, Millivolts(vmin.0 + 10))
            .unwrap();
        assert_eq!(b.logic_selftest().unwrap(), 0);
        b.set_rail_mv(Rail::Vccint, vmin).unwrap();
        assert!(b.logic_selftest().unwrap() > 0);
    }
}
