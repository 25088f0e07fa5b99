//! Per-layer 16-bit sign-magnitude quantization (§V-A of the paper).
//!
//! The paper stores every weight as a 16-bit fixed-point word with a
//! per-layer scale chosen from the layer's weight range (Fig. 9's minimal
//! precision analysis), in sign-magnitude form. Sign-magnitude matters for
//! the fault study: small weights have *mostly zero magnitude bits*
//! (the paper measures ~76 % zero bits across the trained net), and the
//! dominant `1→0` fault polarity cannot touch a stored zero — so the
//! encoding itself is a big part of why undervolted inference degrades as
//! gracefully as it does.

use crate::tensor::Matrix;

/// Largest representable magnitude: 15 magnitude bits.
pub const QMAX: i32 = 0x7FFF;

/// Sign bit of the stored word.
pub const SIGN_BIT: u16 = 0x8000;

/// A quantized weight matrix: `i16` codes plus one `f32` scale, so
/// `weight ≈ code × scale`. Codes stay in `[-QMAX, QMAX]` — the magnitude
/// always fits the 15 magnitude bits of the BRAM word.
#[derive(Debug, Clone, PartialEq)]
pub struct QTensor {
    rows: usize,
    cols: usize,
    scale: f32,
    q: Vec<i16>,
}

impl QTensor {
    /// Quantize with the layer's own scale: `max |w| / QMAX`. An all-zero
    /// matrix gets scale 1.0 (any scale represents it exactly).
    #[must_use]
    pub fn quantize(m: &Matrix) -> QTensor {
        let max_abs = m.max_abs();
        let scale = if max_abs == 0.0 {
            1.0
        } else {
            max_abs / QMAX as f32
        };
        let q = m
            .data()
            .iter()
            .map(|&w| {
                let code = (w / scale).round() as i32;
                code.clamp(-QMAX, QMAX) as i16
            })
            .collect();
        QTensor {
            rows: m.rows(),
            cols: m.cols(),
            scale,
            q,
        }
    }

    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    #[must_use]
    pub fn scale(&self) -> f32 {
        self.scale
    }

    #[must_use]
    pub fn len(&self) -> usize {
        self.q.len()
    }

    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.q.is_empty()
    }

    /// Back to `f32`: `code × scale`.
    #[must_use]
    pub fn dequantize(&self) -> Matrix {
        let data = self.q.iter().map(|&c| f32::from(c) * self.scale).collect();
        Matrix::from_vec(self.rows, self.cols, data)
    }

    /// The stored BRAM image: every code as a sign-magnitude word,
    /// row-major — the exact bits `uvf-accel` writes through
    /// `Board::write_row`.
    #[must_use]
    pub fn encoded_words(&self) -> Vec<u16> {
        self.q.iter().map(|&c| encode_word(c)).collect()
    }

    /// Share of zero bits across the encoded words (the paper reports
    /// ~76 % for the trained MNIST net — the sign-magnitude sparsity that
    /// shields small weights from `1→0` faults).
    #[cfg(test)]
    pub(crate) fn zero_bit_share(&self) -> f64 {
        if self.q.is_empty() {
            return 1.0;
        }
        let ones: u64 = self
            .q
            .iter()
            .map(|&c| u64::from(encode_word(c).count_ones()))
            .sum();
        let total = self.q.len() as u64 * 16;
        1.0 - ones as f64 / total as f64
    }
}

/// Sign-magnitude encoding: bit 15 is the sign (1 = negative), bits 0–14
/// the magnitude. Codes are clamped to `±QMAX` at quantization time, so
/// the magnitude always fits.
#[must_use]
pub fn encode_word(code: i16) -> u16 {
    let mag = (code.unsigned_abs()) & 0x7FFF;
    if code < 0 {
        SIGN_BIT | mag
    } else {
        mag
    }
}

/// Inverse of [`encode_word`]. A corrupted word still decodes totally:
/// the magnitude is masked to 15 bits and `-0` collapses to `0`.
#[must_use]
pub fn decode_word(word: u16) -> i16 {
    let mag = (word & 0x7FFF) as i16;
    if word & SIGN_BIT != 0 {
        -mag
    } else {
        mag
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_codec_roundtrips_every_code() {
        // Exhaustive over the representable range.
        for code in -QMAX..=QMAX {
            let code = code as i16;
            assert_eq!(decode_word(encode_word(code)), code, "{code}");
        }
        assert_eq!(decode_word(SIGN_BIT), 0, "-0 collapses to 0");
    }

    #[test]
    fn quantize_dequantize_error_is_within_half_step() {
        let m = Matrix::from_vec(2, 3, vec![0.5, -1.25, 0.0, 0.99, -0.01, 1.5]);
        let q = QTensor::quantize(&m);
        let back = q.dequantize();
        let step = q.scale();
        for (a, b) in m.data().iter().zip(back.data()) {
            assert!((a - b).abs() <= 0.5 * step + f32::EPSILON, "{a} vs {b}");
        }
        // Extremes are exact.
        assert_eq!(q.q.iter().copied().max(), Some(QMAX as i16));
    }

    #[test]
    fn all_zero_matrix_quantizes_exactly() {
        let m = Matrix::from_vec(3, 3, vec![0.0; 9]);
        let q = QTensor::quantize(&m);
        assert_eq!(q.dequantize(), m);
        assert_eq!(q.zero_bit_share(), 1.0);
    }

    #[test]
    fn small_weights_carry_mostly_zero_bits() {
        // One dominant weight forces a coarse scale; the rest are tiny →
        // tiny codes → high zero-bit share, the sign-magnitude property
        // the fault exposure depends on.
        let mut data = vec![0.001f32; 99];
        data.push(1.0);
        let m = Matrix::from_vec(10, 10, data);
        let q = QTensor::quantize(&m);
        assert!(q.zero_bit_share() > 0.6, "{}", q.zero_bit_share());
    }
}
