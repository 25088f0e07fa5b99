//! §Mitigation · ECC-mode BRAM geometry: the 64+8 storage layout.
//!
//! A BRAM is 1024 rows × 16 bits ([`BRAM_ROWS`] × [`BRAM_WORD_BITS`]).
//! In ECC mode the array is repartitioned into 72-bit SECDED stripes —
//! 64 data bits plus an 8-bit parity byte — all stored in the *same*
//! undervolted array, so a fault mask corrupts parity exactly like data.
//!
//! The packing this module pins down:
//!
//! * [`ECC_CODEWORDS_PER_BRAM`] = 224 codewords per BRAM.
//! * Codeword `i`'s 64 data bits occupy rows `4i .. 4i+3`
//!   little-endian: row `4i+k` holds data bits `16k .. 16k+15`.
//!   Data rows therefore span `0..896`.
//! * Codeword `i`'s parity byte lives in the packed parity region at
//!   row `896 + i/2`: the low byte for even `i`, the high byte for odd
//!   `i`. Parity rows span `896..1008`.
//! * Rows `1008..1024` are spare and stay zero.
//!
//! Net usable capacity per BRAM drops from 1024 `u16` words to
//! [`ECC_WORDS_PER_BRAM`] = 896 — the 12.5 % overhead of the code. The
//! codec itself lives in `uvf-faults::ecc`; this module is pure
//! geometry so the platform crate stays dependency-free.

use crate::platform::{BRAM_ROWS, BRAM_WORD_BITS};

/// `u16` data words per codeword (64 data bits / 16-bit rows).
pub const ECC_DATA_WORDS: usize = 64 / BRAM_WORD_BITS;

/// SECDED codewords stored per BRAM.
pub const ECC_CODEWORDS_PER_BRAM: usize = 224;

/// Usable `u16` data words per BRAM in ECC mode.
pub const ECC_WORDS_PER_BRAM: usize = ECC_CODEWORDS_PER_BRAM * ECC_DATA_WORDS;

/// First row of the packed parity region.
pub const ECC_PARITY_ROW_BASE: usize = ECC_WORDS_PER_BRAM;

/// Rows holding parity bytes (two codewords' parity per 16-bit row).
pub const ECC_PARITY_ROWS: usize = ECC_CODEWORDS_PER_BRAM / 2;

/// A codeword as stored in the array: the raw 64 data bits and the raw
/// parity byte, before any decoding. The codec in `uvf-faults::ecc`
/// interprets these.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoredCodeword {
    pub data: u64,
    pub parity: u8,
}

/// Row holding data bits `16k..16k+15` of codeword `cw`.
#[must_use]
pub fn data_row(cw: usize, k: usize) -> usize {
    debug_assert!(cw < ECC_CODEWORDS_PER_BRAM && k < ECC_DATA_WORDS);
    ECC_DATA_WORDS * cw + k
}

/// The data words of codewords `0..codewords` as one slice: word `k` of
/// codeword `cw` (row [`data_row`]`(cw, k)`) at `cw * ECC_DATA_WORDS + k`.
///
/// # Panics
/// If `codewords` exceeds [`ECC_CODEWORDS_PER_BRAM`].
#[must_use]
pub fn data_words(image: &[u16; BRAM_ROWS], codewords: usize) -> &[u16] {
    assert!(codewords <= ECC_CODEWORDS_PER_BRAM, "codeword count");
    // The data rows lead the image in codeword order.
    &image[..ECC_DATA_WORDS * codewords]
}

/// `(row, shift)` of codeword `cw`'s parity byte inside its 16-bit row.
#[must_use]
pub fn parity_slot(cw: usize) -> (usize, u32) {
    debug_assert!(cw < ECC_CODEWORDS_PER_BRAM);
    (ECC_PARITY_ROW_BASE + cw / 2, (cw as u32 & 1) * 8)
}

/// Read codeword `cw` out of a full BRAM image.
#[must_use]
pub fn fetch_codeword(image: &[u16; BRAM_ROWS], cw: usize) -> StoredCodeword {
    let mut data = 0u64;
    for k in 0..ECC_DATA_WORDS {
        data |= u64::from(image[data_row(cw, k)]) << (16 * k);
    }
    let (row, shift) = parity_slot(cw);
    StoredCodeword {
        data,
        parity: (image[row] >> shift) as u8,
    }
}

/// Write codeword `cw` (data bits and parity byte) into a BRAM image.
pub fn store_codeword(image: &mut [u16; BRAM_ROWS], cw: usize, data: u64, parity: u8) {
    for k in 0..ECC_DATA_WORDS {
        image[data_row(cw, k)] = (data >> (16 * k)) as u16;
    }
    let (row, shift) = parity_slot(cw);
    image[row] = (image[row] & !(0xFFu16 << shift)) | (u16::from(parity) << shift);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_constants_partition_the_array() {
        assert_eq!(ECC_DATA_WORDS, 4);
        assert_eq!(ECC_WORDS_PER_BRAM, 896);
        assert_eq!(ECC_PARITY_ROW_BASE, 896);
        assert_eq!(ECC_PARITY_ROW_BASE + ECC_PARITY_ROWS, 1008);
        const { assert!(ECC_PARITY_ROW_BASE + ECC_PARITY_ROWS <= BRAM_ROWS) };
        // Every codeword's rows stay inside the array.
        let last = ECC_CODEWORDS_PER_BRAM - 1;
        assert!(data_row(last, ECC_DATA_WORDS - 1) < ECC_PARITY_ROW_BASE);
        assert!(parity_slot(last).0 < BRAM_ROWS);
    }

    #[test]
    fn store_fetch_roundtrip_and_parity_packing() {
        let mut image = [0u16; BRAM_ROWS];
        store_codeword(&mut image, 0, 0x1122_3344_5566_7788, 0xAB);
        store_codeword(&mut image, 1, u64::MAX, 0xCD);
        let even = fetch_codeword(&image, 0);
        let odd = fetch_codeword(&image, 1);
        assert_eq!((even.data, even.parity), (0x1122_3344_5566_7788, 0xAB));
        assert_eq!((odd.data, odd.parity), (u64::MAX, 0xCD));
        // Both parity bytes share row 896: low byte even, high byte odd.
        assert_eq!(image[ECC_PARITY_ROW_BASE], 0xCDAB);
        // Little-endian data rows.
        assert_eq!(image[0], 0x7788);
        assert_eq!(image[3], 0x1122);
    }

    #[test]
    fn data_words_follow_data_row() {
        let image: [u16; BRAM_ROWS] = std::array::from_fn(|r| r as u16);
        for codewords in [0, 1, 7, ECC_CODEWORDS_PER_BRAM] {
            let words = data_words(&image, codewords);
            assert_eq!(words.len(), codewords * ECC_DATA_WORDS);
            for cw in 0..codewords {
                for k in 0..ECC_DATA_WORDS {
                    assert_eq!(words[cw * ECC_DATA_WORDS + k], image[data_row(cw, k)]);
                }
            }
        }
    }
}
