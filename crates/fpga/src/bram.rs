//! BRAM blocks and the data patterns the paper writes into them.

use crate::error::ParseNameError;
use crate::platform::BRAM_ROWS;
use std::fmt;
use std::str::FromStr;

/// Index of a BRAM block within a device (0-based, dense).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BramId(pub u32);

impl fmt::Display for BramId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BRAM{}", self.0)
    }
}

/// The data patterns of the Fig.-4 experiment.
///
/// `Random50` is a *seeded* 50 %-density pattern: the bits differ per word
/// but are a pure function of `(row,)`, so read-back comparison stays exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataPattern {
    /// `0xFFFF` — the paper's default (worst case: every cell holds 1).
    AllOnes,
    /// `0x0000` — exposes only the rare `0→1` cells.
    AllZeros,
    /// `0xAAAA`.
    AltAaaa,
    /// `0x5555`.
    Alt5555,
    /// Seeded random bits, 50 % ones density.
    Random50,
}

impl DataPattern {
    pub const ALL: [DataPattern; 5] = [
        DataPattern::AllOnes,
        DataPattern::AllZeros,
        DataPattern::AltAaaa,
        DataPattern::Alt5555,
        DataPattern::Random50,
    ];

    /// Stable short names, index-aligned with [`DataPattern::ALL`].
    const NAMES: [&'static str; 5] = ["ffff", "0000", "aaaa", "5555", "rand50"];

    fn short_name(self) -> &'static str {
        match self {
            DataPattern::AllOnes => "ffff",
            DataPattern::AllZeros => "0000",
            DataPattern::AltAaaa => "aaaa",
            DataPattern::Alt5555 => "5555",
            DataPattern::Random50 => "rand50",
        }
    }

    /// The word this pattern stores at `row` of `bram`.
    #[must_use]
    pub fn word(self, bram: BramId, row: u32) -> u16 {
        match self {
            DataPattern::AllOnes => 0xFFFF,
            DataPattern::AllZeros => 0x0000,
            DataPattern::AltAaaa => 0xAAAA,
            DataPattern::Alt5555 => 0x5555,
            DataPattern::Random50 => {
                crate::seedmix::mix(&[u64::from(bram.0), u64::from(row)]) as u16
            }
        }
    }
}

/// Writes the stable short name (`ffff`, `rand50`, …) used in records and
/// checkpoints — the exact form [`FromStr`] parses back.
impl fmt::Display for DataPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.short_name())
    }
}

impl FromStr for DataPattern {
    type Err = ParseNameError;

    /// Parses the stable short name; tolerates a `0x` prefix and uppercase
    /// hex (`"0xFFFF"` was the old `Display` output).
    fn from_str(s: &str) -> Result<DataPattern, ParseNameError> {
        let norm = s.to_ascii_lowercase();
        let norm = norm.strip_prefix("0x").unwrap_or(&norm);
        DataPattern::ALL
            .into_iter()
            .find(|p| p.short_name() == norm)
            .ok_or_else(|| ParseNameError::new("data pattern", s, &DataPattern::NAMES))
    }
}

/// One 18 Kb block RAM: 1024 rows × 16 bits of *stored* content.
///
/// The stored content is what the design wrote; undervolting corruption is
/// applied at read time by the fault model (`uvf-faults`), never here — the
/// paper's observation ❶ is that the die's weak cells are a property of the
/// silicon, not of the data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bram {
    words: Box<[u16; BRAM_ROWS]>,
}

impl Bram {
    /// A powered-up BRAM holds zeros (as after configuration w/o INIT).
    #[must_use]
    pub fn new() -> Bram {
        Bram {
            words: Box::new([0u16; BRAM_ROWS]),
        }
    }

    /// The whole stored image, row-indexed: `Board::read_bram` hands it
    /// out whole (the NN weight fetch of `uvf-accel`) and
    /// `Board::read_row` indexes it.
    #[must_use]
    pub fn words(&self) -> &[u16; BRAM_ROWS] {
        &self.words
    }

    pub fn set_word(&mut self, row: usize, value: u16) -> bool {
        match self.words.get_mut(row) {
            Some(w) => {
                *w = value;
                true
            }
            None => false,
        }
    }

    pub fn fill_pattern(&mut self, id: BramId, pattern: DataPattern) {
        for (row, w) in self.words.iter_mut().enumerate() {
            *w = pattern.word(id, row as u32);
        }
    }

    /// Power-cycle semantics: contents are lost.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }
}

impl Default for Bram {
    fn default() -> Bram {
        Bram::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::platform::BRAM_WORD_BITS;

    /// Number of stored 1-bits.
    fn ones(bram: &Bram) -> u32 {
        bram.words.iter().map(|w| w.count_ones()).sum()
    }

    #[test]
    fn patterns_have_expected_density() {
        let id = BramId(7);
        assert_eq!(DataPattern::AllOnes.word(id, 3), 0xFFFF);
        assert_eq!(DataPattern::AllZeros.word(id, 3), 0x0000);
        let mut bram = Bram::new();
        bram.fill_pattern(id, DataPattern::Random50);
        let density = f64::from(ones(&bram)) / (BRAM_ROWS * BRAM_WORD_BITS) as f64;
        assert!((density - 0.5).abs() < 0.02, "density {density}");
    }

    #[test]
    fn random50_is_deterministic_but_address_dependent() {
        let a = DataPattern::Random50.word(BramId(1), 10);
        assert_eq!(a, DataPattern::Random50.word(BramId(1), 10));
        assert_ne!(a, DataPattern::Random50.word(BramId(2), 10));
    }

    #[test]
    fn clear_wipes_contents() {
        let mut bram = Bram::new();
        bram.fill_pattern(BramId(0), DataPattern::AllOnes);
        bram.clear();
        assert_eq!(ones(&bram), 0);
    }

    #[test]
    fn pattern_names_roundtrip() {
        for p in DataPattern::ALL {
            assert_eq!(p.to_string().parse::<DataPattern>(), Ok(p));
        }
        assert_eq!("0xFFFF".parse(), Ok(DataPattern::AllOnes));
        assert!("cafe".parse::<DataPattern>().is_err());
    }

    #[test]
    fn bulk_words_view_matches_per_row_reads() {
        let mut bram = Bram::new();
        bram.fill_pattern(BramId(3), DataPattern::Random50);
        let words = bram.words();
        assert_eq!(words.len(), BRAM_ROWS);
        for (row, &w) in words.iter().enumerate() {
            assert_eq!(w, DataPattern::Random50.word(BramId(3), row as u32));
        }
    }
}
