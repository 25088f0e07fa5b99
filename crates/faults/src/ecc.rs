//! §Mitigation · 64/8 Hamming-style SECDED codec for ECC-mode BRAMs.
//!
//! Xilinx BRAMs in ECC mode store a (72, 64) extended Hamming code:
//! 64 data bits plus 8 parity bits per codeword, with single-error
//! correction and double-error detection (SECDED). Crucially the parity
//! byte lives in the *same undervolted array* as the data, so the fault
//! model corrupts all 72 bits alike — the decoder has to cope with
//! parity-bit flips, not just data-bit flips.
//!
//! ## Construction
//!
//! The codeword uses the classic extended-Hamming layout in *position*
//! space: positions `1..=71` hold the Hamming code, with parity bits
//! `p0..p6` at the seven power-of-two positions (1, 2, 4, 8, 16, 32, 64)
//! and the 64 data bits at the remaining positions in ascending order.
//! An eighth overall-parity bit `p7` extends the code so that every
//! valid codeword has even weight over all 72 bits.
//!
//! In *storage* space we keep the data word untouched (`u64`) and pack
//! the eight parity bits into one byte — the [`DATA_MASKS`] table maps
//! between the two views, so encode is eight AND+popcount passes over
//! the data word and decode is the same eight passes plus one lookup in
//! a 128-entry syndrome table ([`SYNDROME_TABLE`], 72 valid entries).
//! That keeps decode on the same order as the raw
//! [`FaultMask`] read path: no bit-by-bit loops.
//!
//! ## Decode semantics
//!
//! Let `s` be the 7-bit Hamming syndrome (recomputed XOR stored parity)
//! and `q` the overall parity of all 72 received bits.
//!
//! | `s`       | `q` | verdict                                          |
//! |-----------|-----|--------------------------------------------------|
//! | 0         | 0   | [`Decode::Clean`]                                |
//! | 0         | 1   | single flip of `p7` itself → corrected           |
//! | valid     | 1   | single flip at position `s` → corrected          |
//! | invalid   | 1   | ≥3 flips landed on an unused syndrome → detected |
//! | non-zero  | 0   | double (even #flips) → **detected, never fixed** |
//!
//! Every 1-bit error is corrected and every 2-bit error is detected
//! (even overall parity with a non-zero syndrome can never alias a
//! single), both verified exhaustively in `tests/ecc_exhaustive.rs`.
//! Triple flips are *beyond the design distance*: when three flips
//! XOR to a valid position the decoder confidently "corrects" a fourth
//! bit and hands back wrong data — a silent miscorrection. The
//! characterization test in the same suite measures that rate against
//! [`reference_decode`], a naive H-matrix oracle.

use crate::mask::FaultMask;
use uvf_fpga::eccmode::{self, ECC_DATA_WORDS};
use uvf_fpga::BRAM_ROWS;

/// One stored SECDED codeword: 64 data bits plus the packed parity byte.
///
/// Bit `j` of `parity` is `p_j`; `p0..p6` are the Hamming parities and
/// `p7` is the overall (even-weight) parity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Codeword {
    pub data: u64,
    pub parity: u8,
}

/// Outcome of decoding one codeword.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Decode {
    /// Zero syndrome: the codeword is a valid member of the code.
    Clean,
    /// Exactly one flip was diagnosed and repaired. `bit` names the
    /// repaired bit in storage order: `0..=63` data, `64..=70` parity
    /// `p0..p6`, `71` the overall parity `p7`.
    Corrected { bit: u8 },
    /// An uncorrectable error (a double, or a wider pattern that lands
    /// on an unused syndrome). The data bits are returned *as stored* —
    /// corrupted — and the word is flagged for the caller.
    Detected,
}

const fn is_pow2(x: u32) -> bool {
    x.count_ones() == 1
}

/// `DATA_MASKS[j]` selects the data bits whose Hamming *position* has
/// bit `j` set — i.e. the data bits covered by parity `p_j`.
const fn build_data_masks() -> [u64; 7] {
    let mut masks = [0u64; 7];
    let mut pos: u32 = 1;
    let mut d = 0;
    while d < 64 {
        if !is_pow2(pos) {
            let mut j = 0;
            while j < 7 {
                if pos & (1 << j) != 0 {
                    masks[j] |= 1u64 << d;
                }
                j += 1;
            }
            d += 1;
        }
        pos += 1;
    }
    masks
}

pub const DATA_MASKS: [u64; 7] = build_data_masks();

/// Sentinel for syndromes that no single-bit flip can produce.
pub const SYNDROME_INVALID: u8 = 0xFF;

/// Maps a non-zero 7-bit Hamming syndrome to the flipped bit in storage
/// order (`0..=63` data, `64..=70` parity `p0..p6`). 72 valid entries
/// (71 here plus the `s == 0, q == 1` case for `p7`); the rest are
/// [`SYNDROME_INVALID`].
const fn build_syndrome_table() -> [u8; 128] {
    let mut t = [SYNDROME_INVALID; 128];
    let mut j = 0;
    while j < 7 {
        t[1 << j] = 64 + j as u8;
        j += 1;
    }
    let mut pos: usize = 1;
    let mut d: u8 = 0;
    while pos <= 71 {
        if !is_pow2(pos as u32) {
            t[pos] = d;
            d += 1;
        }
        pos += 1;
    }
    t
}

pub const SYNDROME_TABLE: [u8; 128] = build_syndrome_table();

#[inline]
fn parity64(x: u64) -> u8 {
    (x.count_ones() & 1) as u8
}

/// Recompute the seven Hamming parities of `data` — the first bitwise
/// pass shared by [`encode`] and [`decode`].
#[inline]
fn hamming_parities(data: u64) -> u8 {
    let mut p = 0u8;
    let mut j = 0;
    while j < 7 {
        p |= parity64(data & DATA_MASKS[j]) << j;
        j += 1;
    }
    p
}

/// Encode a 64-bit data word into a 72-bit SECDED codeword.
#[must_use]
pub fn encode(data: u64) -> Codeword {
    let mut parity = hamming_parities(data);
    // p7 makes the total weight of all 72 bits even.
    let overall = parity64(data) ^ parity64(u64::from(parity));
    parity |= overall << 7;
    Codeword { data, parity }
}

/// Decode a (possibly corrupted) codeword: returns the best-effort data
/// word and the verdict. See the module docs for the full case table.
#[must_use]
pub fn decode(cw: Codeword) -> (u64, Decode) {
    let mut data = cw.data;
    // Pass 1: recompute the Hamming parities over the stored data bits.
    let recomputed = hamming_parities(data);
    // Pass 2: syndrome byte = recomputed XOR stored (low 7 bits), plus
    // the overall parity of all 72 received bits.
    let s = (recomputed ^ cw.parity) & 0x7F;
    let q = parity64(data) ^ parity64(u64::from(cw.parity));
    if q == 1 {
        // Odd number of flips: diagnose as a single at position `s`.
        if s == 0 {
            return (data, Decode::Corrected { bit: 71 });
        }
        let bit = SYNDROME_TABLE[s as usize];
        if bit == SYNDROME_INVALID {
            // ≥3 flips XORed onto an unused syndrome.
            return (data, Decode::Detected);
        }
        if bit < 64 {
            data ^= 1u64 << bit;
        }
        (data, Decode::Corrected { bit })
    } else if s == 0 {
        (data, Decode::Clean)
    } else {
        // Even flip count with a non-zero syndrome: a double. Cannot
        // alias a single (those all have q == 1), so never miscorrect.
        (data, Decode::Detected)
    }
}

/// Flip codeword bit `bit` (storage order, `0..=71`). Test helper made
/// public so the exhaustive suites and the docs agree on the order.
#[must_use]
pub fn flip_bit(mut cw: Codeword, bit: u8) -> Codeword {
    debug_assert!(bit < 72);
    if bit < 64 {
        cw.data ^= 1u64 << bit;
    } else {
        cw.parity ^= 1 << (bit - 64);
    }
    cw
}

/// Naive reference decoder: builds the explicit 8×72 parity-check
/// matrix H over GF(2), computes the syndrome by matrix–vector
/// multiplication, and searches H's columns for a match. Exists only to
/// cross-check [`decode`] in tests — it is deliberately the "obvious"
/// textbook implementation with none of the bit tricks.
#[must_use]
pub fn reference_decode(cw: Codeword) -> (u64, Decode) {
    // Received word as 72 explicit bits, storage order.
    let mut r = [0u8; 72];
    for (d, slot) in r.iter_mut().take(64).enumerate() {
        *slot = ((cw.data >> d) & 1) as u8;
    }
    for j in 0..8 {
        r[64 + j] = (cw.parity >> j) & 1;
    }
    let h = reference_check_matrix();
    // Syndrome = H · r over GF(2).
    let mut syn = [0u8; 8];
    for (row, s) in h.iter().zip(syn.iter_mut()) {
        let mut acc = 0u8;
        for (hij, rj) in row.iter().zip(r.iter()) {
            acc ^= hij & rj;
        }
        *s = acc;
    }
    if syn.iter().all(|&b| b == 0) {
        return (cw.data, Decode::Clean);
    }
    // A single-bit error's syndrome equals H's column for that bit.
    for bit in 0..72u8 {
        let matches = (0..8).all(|i| h[i][bit as usize] == syn[i]);
        if matches {
            let fixed = flip_bit(cw, bit);
            return (fixed.data, Decode::Corrected { bit });
        }
    }
    (cw.data, Decode::Detected)
}

/// The explicit parity-check matrix behind [`reference_decode`]:
/// row `j < 7` checks parity `p_j`, row 7 is the overall parity (all
/// ones). Column order is storage order.
fn reference_check_matrix() -> [[u8; 72]; 8] {
    let mut h = [[0u8; 72]; 8];
    for j in 0..7 {
        for (d, cell) in h[j][..64].iter_mut().enumerate() {
            *cell = ((DATA_MASKS[j] >> d) & 1) as u8;
        }
        // p_j participates in its own check.
        h[j][64 + j] = 1;
    }
    h[7] = [1u8; 72];
    h
}

/// Aggregate tallies from decoding a batch of codewords, with the
/// ground-truth comparison folded in when the clean image is available.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EccStats {
    /// Codewords decoded.
    pub words: u64,
    /// Raw bit flips observed inside the 72-bit stripes (data + parity),
    /// before any correction.
    pub raw_flips: u64,
    /// Codewords genuinely repaired by single-error correction (the
    /// returned data matches ground truth).
    pub corrected: u64,
    /// Codewords flagged detected-uncorrectable (data returned corrupt).
    pub detected: u64,
    /// Codewords the decoder *silently* got wrong: verdict `Clean` or
    /// `Corrected` but the returned data differs from ground truth.
    pub miscorrected: u64,
}

impl EccStats {
    /// Faulty words that escaped correction: flagged uncorrectable plus
    /// silent miscorrections.
    #[must_use]
    pub fn escaped(&self) -> u64 {
        self.detected + self.miscorrected
    }

    /// Fold another batch into this one.
    pub fn merge(&mut self, other: &EccStats) {
        self.words += other.words;
        self.raw_flips += other.raw_flips;
        self.corrected += other.corrected;
        self.detected += other.detected;
        self.miscorrected += other.miscorrected;
    }
}

/// Decode the first `codewords` SECDED stripes of an ECC-mode BRAM
/// image (see [`uvf_fpga::eccmode`] for the row layout), appending the
/// recovered `u16` data words to `out` and tallying outcomes against
/// the fault-free `clean` image. Detected-uncorrectable words keep
/// their corrupted data bits — they are flagged, not repaired.
///
/// `clean` holds valid codewords, as every stored image does, so a
/// codeword that reads back exactly as stored decodes `Clean` to its own
/// data: it is counted in `words` and its data rows are copied out
/// without running the decoder. Above `Vcrash` that is almost every
/// codeword.
pub fn decode_image(
    corrupt: &[u16; BRAM_ROWS],
    clean: &[u16; BRAM_ROWS],
    codewords: usize,
    out: &mut Vec<u16>,
) -> EccStats {
    let mut stats = EccStats {
        words: codewords as u64,
        ..EccStats::default()
    };
    // The stored data words are the output wherever the decoder keeps
    // them; `out` holds them in the same codeword-major order.
    let base = out.len();
    out.extend_from_slice(eccmode::data_words(corrupt, codewords));
    for cw in 0..codewords {
        let stored = eccmode::fetch_codeword(corrupt, cw);
        let truth = eccmode::fetch_codeword(clean, cw);
        if stored == truth {
            continue;
        }
        stats.raw_flips += u64::from((stored.data ^ truth.data).count_ones())
            + u64::from((stored.parity ^ truth.parity).count_ones());
        let (data, verdict) = decode(Codeword {
            data: stored.data,
            parity: stored.parity,
        });
        match verdict {
            Decode::Detected => stats.detected += 1,
            // A confident verdict with wrong data is a silent
            // miscorrection (≥3 flips aliasing a valid syndrome), not a
            // correction.
            _ if data != truth.data => stats.miscorrected += 1,
            Decode::Corrected { .. } => stats.corrected += 1,
            Decode::Clean => {}
        }
        let words = &mut out[base + cw * ECC_DATA_WORDS..][..ECC_DATA_WORDS];
        for (k, word) in words.iter_mut().enumerate() {
            *word = (data >> (16 * k)) as u16;
        }
    }
    stats
}

/// Corrupt one ECC-mode image in place with a [`FaultMask`] — parity
/// rows included, since they live in the same array — then decode it.
/// Convenience wrapper used by the census and bench paths.
pub fn corrupt_and_decode(
    mask: &FaultMask,
    clean: &[u16; BRAM_ROWS],
    codewords: usize,
    scratch: &mut [u16; BRAM_ROWS],
    out: &mut Vec<u16>,
) -> EccStats {
    *scratch = *clean;
    mask.apply_all(scratch);
    decode_image(scratch, clean, codewords, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn image_decode_skips_only_untouched_codewords() {
        // Every codeword decoded on its own, untouched ones included: the
        // tallies and words `decode_image` must reproduce.
        let mut clean = [0u16; BRAM_ROWS];
        for cw in 0..eccmode::ECC_CODEWORDS_PER_BRAM {
            let coded = encode((cw as u64 + 7).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            eccmode::store_codeword(&mut clean, cw, coded.data, coded.parity);
        }
        let mut corrupt = clean;
        // No flip, then 1, 2 and 3 flips (data and parity rows), cycling.
        for cw in 0..eccmode::ECC_CODEWORDS_PER_BRAM {
            let stored = eccmode::fetch_codeword(&clean, cw);
            let mut word = Codeword {
                data: stored.data,
                parity: stored.parity,
            };
            for f in 0..cw % 4 {
                word = flip_bit(word, ((cw * 13 + f * 29) % 72) as u8);
            }
            eccmode::store_codeword(&mut corrupt, cw, word.data, word.parity);
        }
        for codewords in [0, 1, 5, eccmode::ECC_CODEWORDS_PER_BRAM] {
            let mut want = EccStats::default();
            let mut words = vec![9u16];
            for cw in 0..codewords {
                let (stored, truth) = (
                    eccmode::fetch_codeword(&corrupt, cw),
                    eccmode::fetch_codeword(&clean, cw),
                );
                let (data, verdict) = decode(Codeword {
                    data: stored.data,
                    parity: stored.parity,
                });
                want.words += 1;
                want.raw_flips += u64::from((stored.data ^ truth.data).count_ones())
                    + u64::from((stored.parity ^ truth.parity).count_ones());
                match verdict {
                    Decode::Detected => want.detected += 1,
                    _ if data != truth.data => want.miscorrected += 1,
                    Decode::Corrected { .. } => want.corrected += 1,
                    Decode::Clean => {}
                }
                words.extend((0..ECC_DATA_WORDS).map(|k| (data >> (16 * k)) as u16));
            }
            let mut got = vec![9u16];
            assert_eq!(decode_image(&corrupt, &clean, codewords, &mut got), want);
            assert_eq!(got, words, "{codewords} codewords");
        }
        let mut all = Vec::new();
        let stats = decode_image(&corrupt, &clean, eccmode::ECC_CODEWORDS_PER_BRAM, &mut all);
        assert!(stats.corrected > 0 && stats.detected > 0 && stats.miscorrected > 0);
    }

    #[test]
    fn masks_cover_each_data_bit_at_least_twice() {
        // Every data position has ≥2 set bits (it is not a power of
        // two), so every data bit is covered by ≥2 Hamming parities.
        for d in 0..64 {
            let cover = (0..7).filter(|&j| DATA_MASKS[j] >> d & 1 == 1).count();
            assert!(cover >= 2, "data bit {d} covered by {cover} parities");
        }
    }

    #[test]
    fn syndrome_table_has_exactly_71_valid_entries() {
        let valid = SYNDROME_TABLE
            .iter()
            .filter(|&&b| b != SYNDROME_INVALID)
            .count();
        // 64 data + 7 Hamming parities; p7 is the s == 0, q == 1 case.
        assert_eq!(valid, 71);
        assert_eq!(SYNDROME_TABLE[0], SYNDROME_INVALID);
    }

    #[test]
    fn roundtrip_is_identity_and_even_weight() {
        for data in [0u64, u64::MAX, 0xDEAD_BEEF_0BAD_CAFE, 1, 1 << 63] {
            let cw = encode(data);
            let weight = cw.data.count_ones() + cw.parity.count_ones();
            assert_eq!(weight % 2, 0, "codeword weight must be even");
            assert_eq!(decode(cw), (data, Decode::Clean));
            assert_eq!(reference_decode(cw), (data, Decode::Clean));
        }
    }

    #[test]
    fn every_single_flip_corrects() {
        let data = 0xA5A5_5A5A_C3C3_3C3C;
        let cw = encode(data);
        for bit in 0..72 {
            let (got, verdict) = decode(flip_bit(cw, bit));
            assert_eq!(got, data, "bit {bit}");
            assert_eq!(verdict, Decode::Corrected { bit });
        }
    }

    #[test]
    fn double_flips_are_detected_not_miscorrected() {
        let data = 0x0123_4567_89AB_CDEF;
        let cw = encode(data);
        // Spot-check here; the full C(72,2) sweep lives in the
        // exhaustive suite.
        for (a, b) in [(0u8, 1u8), (63, 64), (70, 71), (5, 40)] {
            let (got, verdict) = decode(flip_bit(flip_bit(cw, a), b));
            assert_eq!(verdict, Decode::Detected, "bits {a},{b}");
            // Detected words keep their stored (corrupt) data bits.
            let stored = flip_bit(flip_bit(cw, a), b);
            assert_eq!(got, stored.data);
        }
    }

    #[test]
    fn fast_and_reference_decoders_agree_on_corrupted_words() {
        let cw = encode(0xFFFF_0000_F0F0_1234);
        for a in (0..72).step_by(7) {
            for b in (1..72).step_by(11) {
                for c in (2..72).step_by(13) {
                    let corrupted = flip_bit(flip_bit(flip_bit(cw, a), b), c);
                    let fast = decode(corrupted);
                    let reference = reference_decode(corrupted);
                    // Parity-bit corrections repair the parity byte,
                    // which the fast decoder does not materialize; the
                    // data word and verdict must still agree.
                    assert_eq!(fast, reference, "flips {a},{b},{c}");
                }
            }
        }
    }
}
