//! Minimal dense matrix type for the fully-connected study.
//!
//! The paper's accelerator is a chain of matrix–vector products; nothing
//! fancier is needed, so this is a row-major `Vec<f32>` with exactly the
//! operations the forward/backward passes use. Being in-tree (no BLAS, no
//! ndarray) keeps the workspace std-only and the arithmetic bit-stable
//! across runs — the determinism contract of the whole simulator.

/// Output rows one pass of [`Matrix::panel_into`] accumulates together.
const ROW_TILE: usize = 4;

/// `R` rows × `L` lanes of dot products over a panel `x` whose `i`-th
/// `L`-lane group holds weight column `cols[i]` (`0..` for a dense panel,
/// a column list for a packed one). Each output is summed on its own in
/// the order of `cols` (no reassociation, no fused multiply-add).
#[inline(always)]
fn dot_tile<const R: usize, const L: usize>(
    rows: [&[f32]; R],
    x: &[f32],
    cols: impl Iterator<Item = usize>,
) -> [[f32; L]; R] {
    let mut acc = [[0.0f32; L]; R];
    for (k, xk) in cols.zip(x.chunks_exact(L)) {
        for (a, row) in acc.iter_mut().zip(rows) {
            let w = row[k];
            for (s, &v) in a.iter_mut().zip(xk) {
                *s += w * v;
            }
        }
    }
    acc
}

/// Lanes of the batched panel: the samples classification pushes through
/// a layer together.
pub(crate) const BATCH: usize = 8;

/// The body of [`Matrix::panel_into`] and [`Matrix::packed_panel_into`],
/// compiled once per [`Kernel`] and column source.
#[inline(always)]
fn panel_body<const L: usize, C>(m: &Matrix, x: &[f32], cols: C, out: &mut [f32])
where
    C: Iterator<Item = usize> + Clone,
{
    if m.cols == 0 {
        out.fill(0.0);
        return;
    }
    let width = m.cols;
    let mut tiles = m.data.chunks_exact(ROW_TILE * width);
    let mut out_tiles = out.chunks_exact_mut(ROW_TILE * L);
    for (tile, out_tile) in (&mut tiles).zip(&mut out_tiles) {
        let rows = std::array::from_fn(|i| &tile[i * width..(i + 1) * width]);
        for (o, lanes) in
            out_tile
                .chunks_exact_mut(L)
                .zip(dot_tile::<ROW_TILE, L>(rows, x, cols.clone()))
        {
            o.copy_from_slice(&lanes);
        }
    }
    let tail_rows = tiles.remainder().chunks_exact(width);
    for (row, o) in tail_rows.zip(out_tiles.into_remainder().chunks_exact_mut(L)) {
        o.copy_from_slice(&dot_tile::<1, L>([row], x, cols.clone())[0]);
    }
}

/// [`panel_body`] compiled with AVX2, where one eight-lane row of the
/// batched panel fills a 256-bit register (the baseline x86-64 target
/// has 128-bit SSE2 only).
///
/// # Safety
/// Calling it is `unsafe` outside code compiled for AVX2: the caller must
/// have checked that the CPU supports it ([`Kernel::widest`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn panel_avx2<const L: usize, C>(m: &Matrix, x: &[f32], cols: C, out: &mut [f32])
where
    C: Iterator<Item = usize> + Clone,
{
    panel_body::<L, C>(m, x, cols, out);
}

/// A compiled copy of the panel kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kernel {
    /// Compiled for the baseline target; runs everywhere.
    Portable,
    /// [`panel_avx2`]; only handed out where the CPU reports AVX2.
    #[cfg(target_arch = "x86_64")]
    Avx2,
}

impl Kernel {
    /// The widest copy this CPU runs, detected once per process.
    fn widest() -> Kernel {
        static WIDEST: std::sync::OnceLock<Kernel> = std::sync::OnceLock::new();
        *WIDEST.get_or_init(|| {
            #[cfg(target_arch = "x86_64")]
            if is_x86_feature_detected!("avx2") {
                return Kernel::Avx2;
            }
            Kernel::Portable
        })
    }

    /// Run this copy on checked shapes.
    fn panel<const L: usize, C>(self, m: &Matrix, x: &[f32], cols: C, out: &mut [f32])
    where
        C: Iterator<Item = usize> + Clone,
    {
        match self {
            Kernel::Portable => panel_body::<L, C>(m, x, cols, out),
            // SAFETY: `Avx2` is only built where the CPU reports AVX2.
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx2 => unsafe { panel_avx2::<L, C>(m, x, cols, out) },
        }
    }

    /// Every copy this CPU runs, narrowest first.
    #[cfg(test)]
    fn supported() -> Vec<Kernel> {
        let mut all = vec![Kernel::Portable];
        if Kernel::widest() != Kernel::Portable {
            all.push(Kernel::widest());
        }
        all
    }
}

/// Row-major `rows × cols` matrix of `f32`.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
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
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
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
    /// The batched panel (`L == BATCH`, what classification runs) uses the
    /// widest compiled copy of the kernel this CPU runs; every copy
    /// compiles the same body, and IEEE-754 multiplies and adds round the
    /// same at any vector width, so the bits do not depend on the copy.
    ///
    /// # Panics
    /// If the shapes do not line up.
    pub fn panel_into<const L: usize>(&self, x: &[f32], out: &mut [f32]) {
        assert_eq!(x.len(), self.cols * L, "input length");
        assert_eq!(out.len(), self.rows * L, "output length");
        if L == BATCH {
            Kernel::widest().panel::<L, _>(self, x, 0..self.cols, out);
        } else {
            panel_body::<L, _>(self, x, 0..self.cols, out);
        }
    }

    /// [`Matrix::panel_into`] over a packed batched panel that stores only
    /// some input columns: lane group `i` of `x` is column `cols[i]`, and
    /// every column missing from `cols` must be `±0.0` in every lane.
    ///
    /// With finite weights that is bit for bit the dense product: a
    /// skipped column would add `w · ±0 = ±0`, and adding `±0` never
    /// changes an accumulator that starts at `+0.0` (under round to
    /// nearest a sum is `-0.0` only when both terms are). An infinite or
    /// NaN weight would turn the skipped zero into NaN, so callers must
    /// check the rows are finite.
    ///
    /// # Panics
    /// If the shapes do not line up or a column is out of range.
    pub(crate) fn packed_panel_into(&self, x: &[f32], cols: &[u16], out: &mut [f32]) {
        assert_eq!(x.len(), cols.len() * BATCH, "input length");
        assert_eq!(out.len(), self.rows * BATCH, "output length");
        let cols = cols.iter().map(|&c| usize::from(c));
        Kernel::widest().panel::<BATCH, _>(self, x, cols, out);
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

    /// Deterministic values spanning signs, signed zeros, subnormals and
    /// huge magnitudes, so any reordering of the sums shows in the bits.
    fn awkward(n: usize, salt: u32) -> Vec<f32> {
        const SPECIAL: [f32; 7] = [0.0, -0.0, 3.0e38, -3.0e38, 1.0e-38, -7.5, 2.0e-40];
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
        // tail-only and empty matrices, through every copy this CPU runs.
        for kernel in Kernel::supported() {
            for rows in [0, 1, 3, 4, 5, 7, 8, 13] {
                for cols in [1, 2, 9, 33] {
                    let m = Matrix::from_vec(rows, cols, awkward(rows * cols, 11));
                    let x = awkward(cols, 5);
                    let mut out = vec![f32::NAN; rows];
                    kernel.panel::<1, _>(&m, &x, 0..cols, &mut out);
                    assert_bits_eq(&out, &reference_matvec(&m, &x));
                    m.matvec_into(&x, &mut out);
                    assert_bits_eq(&out, &reference_matvec(&m, &x));
                }
            }
        }
    }

    #[test]
    fn panel_lanes_are_independent_scalar_products() {
        const L: usize = BATCH;
        for kernel in Kernel::supported() {
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
                kernel.panel::<L, _>(&m, &panel, 0..cols, &mut out);
                for (j, lane) in lanes.iter().enumerate() {
                    let got: Vec<f32> = out.iter().skip(j).step_by(L).copied().collect();
                    assert_bits_eq(&got, &reference_matvec(&m, lane));
                }
            }
        }
    }

    #[test]
    fn packed_panels_match_the_dense_panel_bit_for_bit() {
        // Every third column is ±0 in every lane and left out of the packed
        // panel; weights and inputs overflow (±inf, then NaN) and underflow
        // into subnormals.
        const L: usize = BATCH;
        let cols = 23;
        let zero = |k: usize| k.is_multiple_of(3);
        let mut panel = awkward(cols * L, 29);
        for (k, lanes) in panel.chunks_exact_mut(L).enumerate() {
            if zero(k) {
                for (j, v) in lanes.iter_mut().enumerate() {
                    *v = if (k + j) % 2 == 0 { 0.0 } else { -0.0 };
                }
            }
        }
        let kept: Vec<u16> = (0..cols as u16).filter(|&k| !zero(k.into())).collect();
        let packed: Vec<f32> = kept
            .iter()
            .flat_map(|&k| &panel[usize::from(k) * L..][..L])
            .copied()
            .collect();
        for kernel in Kernel::supported() {
            for rows in [0, 1, 4, 6, 11] {
                let m = Matrix::from_vec(rows, cols, awkward(rows * cols, 17));
                assert!(m.data().iter().all(|w| w.is_finite()));
                let (mut dense, mut sparse) = (vec![f32::NAN; rows * L], vec![0.5; rows * L]);
                kernel.panel::<L, _>(&m, &panel, 0..cols, &mut dense);
                let columns = kept.iter().map(|&k| usize::from(k));
                kernel.panel::<L, _>(&m, &packed, columns, &mut sparse);
                assert_bits_eq(&sparse, &dense);
                m.packed_panel_into(&packed, &kept, &mut sparse);
                assert_bits_eq(&sparse, &dense);
            }
        }
        // The overflow cases are really there.
        let m = Matrix::from_vec(11, cols, awkward(11 * cols, 17));
        let mut dense = vec![0.0; 11 * L];
        m.panel_into::<L>(&panel, &mut dense);
        assert!(dense.iter().any(|v| v.is_nan()) && dense.iter().any(|v| v.is_infinite()));
    }

    #[test]
    fn batched_panels_dispatch_to_the_widest_copy() {
        #[cfg(target_arch = "x86_64")]
        assert_eq!(
            Kernel::widest() == Kernel::Avx2,
            is_x86_feature_detected!("avx2")
        );
        let m = Matrix::from_vec(5, 3, awkward(15, 7));
        let x = awkward(3 * BATCH, 9);
        let (mut via_dispatch, mut portable) = (vec![0.0; 5 * BATCH], vec![0.0; 5 * BATCH]);
        m.panel_into::<BATCH>(&x, &mut via_dispatch);
        Kernel::Portable.panel::<BATCH, _>(&m, &x, 0..3, &mut portable);
        assert_bits_eq(&via_dispatch, &portable);
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
        let m = Matrix::from_vec(6, 0, Vec::new());
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
    fn max_abs_sees_negative_extremes() {
        let m = Matrix::from_vec(1, 3, vec![0.25, -4.0, 1.0]);
        assert_eq!(m.max_abs(), 4.0);
    }
}
