//! Minimal dense matrix type for the fully-connected study.
//!
//! The paper's accelerator is a chain of matrix–vector products; nothing
//! fancier is needed, so this is a row-major `Vec<f32>` with exactly the
//! operations the forward/backward passes use. Being in-tree (no BLAS, no
//! ndarray) keeps the workspace std-only and the arithmetic bit-stable
//! across runs — the determinism contract of the whole simulator.

/// Output rows one pass of [`Matrix::panel_into`] accumulates together.
const ROW_TILE: usize = 4;

/// `R` rows × `L` lanes of dot products over a k-major panel `x`, each
/// output summed on its own in ascending `k` (no reassociation, no fused
/// multiply-add).
#[inline(always)]
fn dot_tile<const R: usize, const L: usize>(rows: [&[f32]; R], x: &[f32]) -> [[f32; L]; R] {
    let mut acc = [[0.0f32; L]; R];
    for (k, xk) in x.chunks_exact(L).enumerate() {
        for (a, row) in acc.iter_mut().zip(rows) {
            let w = row[k];
            for (s, &v) in a.iter_mut().zip(xk) {
                *s += w * v;
            }
        }
    }
    acc
}

/// Row-major `rows × cols` matrix of `f32`.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    #[must_use]
    pub fn zeros(rows: usize, cols: usize) -> Matrix {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Wrap an existing row-major buffer (`data.len() == rows * cols`).
    ///
    /// # Panics
    /// If the buffer length does not match the shape.
    #[must_use]
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Matrix {
        assert_eq!(data.len(), rows * cols, "shape/buffer mismatch");
        Matrix { rows, cols, data }
    }

    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    #[must_use]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    #[must_use]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.cols + c]
    }

    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        self.data[r * self.cols + c] = v;
    }

    /// Row `r` as a slice (the per-output weight vector).
    #[must_use]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    #[must_use]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Largest absolute entry (the quantization scale basis).
    #[must_use]
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, &v| m.max(v.abs()))
    }

    /// `out = self · x` (matrix–vector product), `x.len() == cols`: the
    /// one-lane instance of [`Matrix::panel_into`].
    ///
    /// # Panics
    /// If the shapes do not line up.
    pub fn matvec_into(&self, x: &[f32], out: &mut [f32]) {
        self.panel_into::<1>(x, out);
    }

    /// Panel product over `L` independent input lanes: with the inputs
    /// stored k-major (`x[k * L + j]` is feature `k` of lane `j`), writes
    /// `out[r * L + j] = Σ_k self[r][k] · x[k * L + j]` — again k-major, so
    /// the output feeds the next layer's panel directly.
    ///
    /// Rows are processed four at a time so each weight load and
    /// each input load is reused across a whole register tile. Every output
    /// still owns one accumulator that starts at `0.0` and adds `w · x`
    /// (a separate multiply, then an add) in ascending `k`, which is
    /// exactly the scalar dot product's order: results are bit-identical
    /// to a plain per-row loop for any `L`.
    ///
    /// # Panics
    /// If the shapes do not line up.
    pub fn panel_into<const L: usize>(&self, x: &[f32], out: &mut [f32]) {
        assert_eq!(x.len(), self.cols * L, "input length");
        assert_eq!(out.len(), self.rows * L, "output length");
        if self.cols == 0 {
            out.fill(0.0);
            return;
        }
        let cols = self.cols;
        let mut tiles = self.data.chunks_exact(ROW_TILE * cols);
        let mut out_tiles = out.chunks_exact_mut(ROW_TILE * L);
        for (tile, out_tile) in (&mut tiles).zip(&mut out_tiles) {
            let rows = std::array::from_fn(|i| &tile[i * cols..(i + 1) * cols]);
            for (o, lanes) in out_tile
                .chunks_exact_mut(L)
                .zip(dot_tile::<ROW_TILE, L>(rows, x))
            {
                o.copy_from_slice(&lanes);
            }
        }
        let tail_rows = tiles.remainder().chunks_exact(cols);
        for (row, o) in tail_rows.zip(out_tiles.into_remainder().chunks_exact_mut(L)) {
            o.copy_from_slice(&dot_tile::<1, L>([row], x)[0]);
        }
    }

    /// Rank-1 update `self += alpha · d ⊗ x` (the SGD weight step).
    pub fn rank1_add(&mut self, alpha: f32, d: &[f32], x: &[f32]) {
        assert_eq!(d.len(), self.rows, "delta length");
        assert_eq!(x.len(), self.cols, "input length");
        for (r, &dr) in d.iter().enumerate() {
            let a = alpha * dr;
            if a == 0.0 {
                continue;
            }
            let row = &mut self.data[r * self.cols..(r + 1) * self.cols];
            for (w, v) in row.iter_mut().zip(x) {
                *w += a * v;
            }
        }
    }
}

/// The scalar per-row dot product the tiled kernel replaced: the
/// bit-identity oracle of the kernel tests here and in `mlp`.
#[cfg(test)]
pub(crate) fn reference_matvec(m: &Matrix, x: &[f32]) -> Vec<f32> {
    (0..m.rows())
        .map(|r| {
            let mut acc = 0.0f32;
            for (w, v) in m.row(r).iter().zip(x) {
                acc += w * v;
            }
            acc
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic values spanning signs, signed zeros, subnormal-adjacent
    /// and huge magnitudes, so any reordering of the sums shows in the bits.
    fn awkward(n: usize, salt: u32) -> Vec<f32> {
        const SPECIAL: [f32; 6] = [0.0, -0.0, 3.0e38, -3.0e38, 1.0e-38, -7.5];
        (0..n as u32)
            .map(|i| {
                let h = (i ^ salt).wrapping_mul(0x9e37_79b9).rotate_left(7);
                if h.is_multiple_of(5) {
                    SPECIAL[(h / 5) as usize % SPECIAL.len()]
                } else {
                    (h % 20_001) as f32 / 1000.0 - 10.0
                }
            })
            .collect()
    }

    fn assert_bits_eq(got: &[f32], want: &[f32]) {
        assert_eq!(got.len(), want.len());
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "output {i}: {g} vs {w}");
        }
    }

    #[test]
    fn tiled_matvec_is_bit_identical_to_the_scalar_oracle() {
        // Row counts on and off the tile boundary, including tiles-only,
        // tail-only and empty matrices.
        for rows in [0, 1, 3, 4, 5, 7, 8, 13] {
            for cols in [1, 2, 9, 33] {
                let m = Matrix::from_vec(rows, cols, awkward(rows * cols, 11));
                let x = awkward(cols, 5);
                let mut out = vec![f32::NAN; rows];
                m.matvec_into(&x, &mut out);
                assert_bits_eq(&out, &reference_matvec(&m, &x));
            }
        }
    }

    #[test]
    fn panel_lanes_are_independent_scalar_products() {
        const L: usize = 8;
        for rows in [1, 4, 6, 11] {
            let cols = 17;
            let m = Matrix::from_vec(rows, cols, awkward(rows * cols, 3));
            let lanes: Vec<Vec<f32>> = (0..L as u32).map(|j| awkward(cols, 100 + j)).collect();
            let mut panel = vec![0.0f32; cols * L];
            for (j, lane) in lanes.iter().enumerate() {
                for (k, &v) in lane.iter().enumerate() {
                    panel[k * L + j] = v;
                }
            }
            let mut out = vec![0.0f32; rows * L];
            m.panel_into::<L>(&panel, &mut out);
            for (j, lane) in lanes.iter().enumerate() {
                let got: Vec<f32> = out.iter().skip(j).step_by(L).copied().collect();
                assert_bits_eq(&got, &reference_matvec(&m, lane));
            }
        }
    }

    #[test]
    fn signed_zero_sums_keep_their_sign_rules() {
        // 0.0 + (-0.0 · 1.0) = +0.0 in both paths; a row of only -0.0
        // products must not come out as -0.0.
        let m = Matrix::from_vec(5, 2, vec![-0.0; 10]);
        let mut out = [f32::NAN; 5];
        m.matvec_into(&[1.0, 1.0], &mut out);
        assert_bits_eq(&out, &reference_matvec(&m, &[1.0, 1.0]));
        assert!(out.iter().all(|v| v.to_bits() == 0));
    }

    #[test]
    fn zero_width_matrix_yields_zero_outputs() {
        let m = Matrix::zeros(6, 0);
        let mut out = [f32::NAN; 6];
        m.matvec_into(&[], &mut out);
        assert_eq!(out, [0.0; 6]);
    }

    #[test]
    fn matvec_matches_hand_computation() {
        let m = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let mut out = [0.0f32; 2];
        m.matvec_into(&[1.0, 0.5, -1.0], &mut out);
        assert_eq!(out, [1.0 + 1.0 - 3.0, 4.0 + 2.5 - 6.0]);
    }

    #[test]
    fn rank1_update_touches_every_entry_once() {
        let mut m = Matrix::zeros(2, 2);
        m.rank1_add(0.5, &[1.0, -2.0], &[3.0, 4.0]);
        assert_eq!(m.data(), &[1.5, 2.0, -3.0, -4.0]);
    }

    #[test]
    fn max_abs_sees_negative_extremes() {
        let m = Matrix::from_vec(1, 3, vec![0.25, -4.0, 1.0]);
        assert_eq!(m.max_abs(), 4.0);
    }
}
