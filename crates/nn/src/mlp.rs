//! The paper's fully-connected inference network (§V-A, Fig. 8): a chain
//! of dense layers with ReLU between them and raw logits at the output.
//! The MNIST topology is 784-1024-512-256-128-10 — 1,492,224 weights,
//! which is what makes the BRAM mapping study interesting.
//!
//! Weights are initialized with seedmix-keyed He draws (Box–Muller over
//! two independent hashes), so a given `(layout, seed)` always produces
//! the same network, bit for bit.

use crate::datasets::Dataset;
use crate::score::Scorer;
use crate::tensor::Matrix;
use uvf_fpga::seedmix::{mix, unit_f64};

const TAG_INIT: u64 = 0x0011_e7a1;

/// The paper's MNIST accelerator topology.
pub const MNIST_LAYOUT: [usize; 6] = [784, 1024, 512, 256, 128, 10];

/// One dense layer: `out = w · x + b`, with `w` stored `out_dim × in_dim`.
#[derive(Debug, Clone, PartialEq)]
pub struct Dense {
    pub w: Matrix,
    pub b: Vec<f32>,
}

impl Dense {
    /// He-initialized layer, deterministic in `(seed, layer_index)`.
    #[must_use]
    pub fn init(in_dim: usize, out_dim: usize, seed: u64, layer: usize) -> Dense {
        let std = (2.0 / in_dim as f64).sqrt();
        let mut data = Vec::with_capacity(in_dim * out_dim);
        for i in 0..in_dim * out_dim {
            data.push((std * gauss(seed, layer as u64, i as u64)) as f32);
        }
        Dense {
            w: Matrix::from_vec(out_dim, in_dim, data),
            b: vec![0.0; out_dim],
        }
    }

    /// Rebuild a layer from explicit parts — how `uvf-accel` reconstructs
    /// the net after reading (possibly corrupted) weights back out of
    /// simulated BRAM.
    ///
    /// # Panics
    /// If `b.len()` does not match the weight row count.
    #[must_use]
    pub fn from_parts(w: Matrix, b: Vec<f32>) -> Dense {
        assert_eq!(b.len(), w.rows(), "bias/weight shape mismatch");
        Dense { w, b }
    }

    #[must_use]
    pub fn in_dim(&self) -> usize {
        self.w.cols()
    }

    #[must_use]
    pub fn out_dim(&self) -> usize {
        self.w.rows()
    }

    /// `out = w · x + b`.
    pub fn forward_into(&self, x: &[f32], out: &mut [f32]) {
        self.w.matvec_into(x, out);
        for (o, &bi) in out.iter_mut().zip(&self.b) {
            *o += bi;
        }
    }
}

/// A standard-normal draw keyed entirely through seedmix (Box–Muller on
/// two independent unit draws). `u1` is nudged away from zero so the log
/// is finite.
fn gauss(seed: u64, layer: u64, i: u64) -> f64 {
    let h1 = mix(&[seed, TAG_INIT, layer, i, 1]);
    let h2 = mix(&[seed, TAG_INIT, layer, i, 2]);
    let u1 = unit_f64(h1).max(1e-12);
    let u2 = unit_f64(h2);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// A multi-layer perceptron: ReLU between layers, raw logits out.
#[derive(Debug, Clone, PartialEq)]
pub struct Mlp {
    layers: Vec<Dense>,
}

impl Mlp {
    /// Deterministic He-initialized network for the given layer sizes
    /// (`layout[0]` inputs … `layout[last]` logits).
    ///
    /// # Panics
    /// If `layout` has fewer than two entries.
    #[must_use]
    pub fn new(layout: &[usize], seed: u64) -> Mlp {
        assert!(layout.len() >= 2, "need at least input and output sizes");
        let layers = layout
            .windows(2)
            .enumerate()
            .map(|(l, w)| Dense::init(w[0], w[1], seed, l))
            .collect();
        Mlp { layers }
    }

    /// Assemble from prebuilt layers (the corrupted-readback path).
    ///
    /// # Panics
    /// If consecutive layer shapes do not chain.
    #[must_use]
    pub fn from_layers(layers: Vec<Dense>) -> Mlp {
        assert!(!layers.is_empty(), "need at least one layer");
        for pair in layers.windows(2) {
            assert_eq!(
                pair[0].out_dim(),
                pair[1].in_dim(),
                "layer shapes must chain"
            );
        }
        Mlp { layers }
    }

    #[must_use]
    pub fn layers(&self) -> &[Dense] {
        &self.layers
    }

    #[must_use]
    pub fn layers_mut(&mut self) -> &mut [Dense] {
        &mut self.layers
    }

    #[must_use]
    pub fn in_dim(&self) -> usize {
        self.layers[0].in_dim()
    }

    #[must_use]
    pub fn out_dim(&self) -> usize {
        self.layers[self.layers.len() - 1].out_dim()
    }

    /// Forward pass returning the output logits.
    #[must_use]
    pub fn forward(&self, x: &[f32]) -> Vec<f32> {
        let mut cur = x.to_vec();
        for (l, layer) in self.layers.iter().enumerate() {
            let mut next = vec![0.0f32; layer.out_dim()];
            layer.forward_into(&cur, &mut next);
            if l + 1 < self.layers.len() {
                for v in &mut next {
                    *v = v.max(0.0);
                }
            }
            cur = next;
        }
        cur
    }

    /// Classification error rate on a dataset, in `[0, 1]`.
    ///
    /// Samples run through the net eight at a time as one k-major
    /// panel ([`Matrix::panel_into`]), which yields bit-for-bit the logits
    /// of [`Mlp::forward`] on each sample alone; the last block may be
    /// partial. This is the first pass of a new [`Scorer`], which scores
    /// a sequence of nets recomputing only what changed; like every
    /// scorer, it reads the split's shared packed layer-0 panels.
    #[must_use]
    pub fn error_on(&self, data: &Dataset) -> f64 {
        Scorer::new(data).rescore(self, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::DatasetKind;
    use crate::tensor::{reference_matvec, BATCH};

    /// Index of the largest value, first occurrence wins: the scalar rule
    /// the scorer's per-lane argmax must reproduce.
    fn argmax(v: &[f32]) -> usize {
        let mut best = 0;
        for (i, &x) in v.iter().enumerate().skip(1) {
            if x > v[best] {
                best = i;
            }
        }
        best
    }

    /// The per-sample scalar forward pass the batched `error_on` replaced:
    /// one plain dot product per output, bias, ReLU. The bit-identity
    /// oracle.
    fn reference_logits(net: &Mlp, x: &[f32]) -> Vec<f32> {
        let mut cur = x.to_vec();
        for (l, layer) in net.layers().iter().enumerate() {
            let mut next = reference_matvec(&layer.w, &cur);
            for (o, &b) in next.iter_mut().zip(&layer.b) {
                *o += b;
            }
            if l + 1 < net.layers().len() {
                for v in &mut next {
                    *v = v.max(0.0);
                }
            }
            cur = next;
        }
        cur
    }

    fn reference_error_on(net: &Mlp, data: &Dataset) -> f64 {
        if data.is_empty() {
            return 0.0;
        }
        let wrong = (0..data.len())
            .filter(|&i| argmax(&reference_logits(net, data.input(i))) != data.label(i) as usize)
            .count();
        wrong as f64 / data.len() as f64
    }

    /// The first `n` samples of `data`.
    fn head(data: &Dataset, n: usize) -> Dataset {
        let inputs = (0..n).flat_map(|i| data.input(i).iter().copied()).collect();
        let labels = (0..n).map(|i| data.label(i)).collect();
        Dataset::from_parts(data.input_dim(), data.classes(), inputs, labels)
    }

    /// Batched logits of every sample, lane by lane, against the oracle,
    /// and the error of a scorer and of `error_on`, which share the
    /// split's packed panels.
    fn assert_logits_match(net: &Mlp, data: &Dataset) {
        let mut scorer = Scorer::new(data);
        let want = reference_error_on(net, data).to_bits();
        assert_eq!(scorer.rescore(net, None).to_bits(), want);
        assert_eq!(net.error_on(data).to_bits(), want);
        let width = net.out_dim() * BATCH;
        for start in (0..data.len()).step_by(BATCH) {
            let logits = &scorer.logits()[start / BATCH * width..][..width];
            for j in 0..(data.len() - start).min(BATCH) {
                let want = reference_logits(net, data.input(start + j));
                let got: Vec<f32> = logits.iter().skip(j).step_by(BATCH).copied().collect();
                assert_eq!(got.len(), want.len());
                for (r, (g, w)) in got.iter().zip(&want).enumerate() {
                    assert_eq!(
                        g.to_bits(),
                        w.to_bits(),
                        "sample {} logit {r}: {g} vs {w}",
                        start + j
                    );
                }
                assert_eq!(
                    net.forward(data.input(start + j))
                        .iter()
                        .map(|v| v.to_bits())
                        .collect::<Vec<_>>(),
                    want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    "single-sample forward, sample {}",
                    start + j
                );
            }
        }
    }

    #[test]
    fn batched_error_on_matches_the_scalar_oracle_on_ragged_blocks() {
        let data = DatasetKind::ForestLike.generate(4).test;
        let net = Mlp::new(&[54, 13, 7], 4);
        for n in [1, 7, 8, 9, 17, data.len()] {
            assert_logits_match(&net, &head(&data, n));
        }
        // Odd hidden and output widths exercise the non-tile row tail.
        let narrow = Mlp::new(&[54, 5, 6, 7], 9);
        assert_logits_match(&narrow, &head(&data, 23));
    }

    #[test]
    fn batched_error_on_handles_a_single_layer_net() {
        let data = DatasetKind::ForestLike.generate(2).test;
        let net = Mlp::new(&[54, 7], 2);
        assert_logits_match(&net, &head(&data, 15));
    }

    #[test]
    fn empty_dataset_scores_zero() {
        let net = Mlp::new(&[3, 2], 0);
        let empty = Dataset::from_parts(3, 2, Vec::new(), Vec::new());
        assert_eq!(net.error_on(&empty), 0.0);
    }

    #[test]
    fn signed_zeros_and_huge_inputs_stay_bit_identical() {
        // Weights large enough to overflow to ±inf and cancel into NaN,
        // inputs of ±0.0: the argmax tie and NaN rules must agree too.
        let mut net = Mlp::new(&[6, 5, 3], 3);
        for layer in net.layers_mut() {
            let (rows, cols) = (layer.w.rows(), layer.w.cols());
            for r in 0..rows {
                for c in 0..cols {
                    let v = layer.w.get(r, c);
                    layer
                        .w
                        .set(r, c, if (r + c) % 3 == 0 { v * 1.0e37 } else { v });
                }
            }
        }
        let samples: [[f32; 6]; 5] = [
            [0.0, -0.0, 0.0, -0.0, 0.0, -0.0],
            [3.0e38, -3.0e38, 1.0, -0.0, 2.0, 0.5],
            [-0.0; 6],
            [1.0e-38, -1.0e-38, 1.0e30, -1.0e30, 0.0, 7.0],
            [f32::MAX, f32::MAX, -f32::MAX, 0.0, -0.0, 1.0],
        ];
        let inputs = samples.iter().flatten().copied().collect();
        let data = Dataset::from_parts(6, 3, inputs, vec![0, 1, 2, 0, 1]);
        assert_logits_match(&net, &data);
    }

    #[test]
    fn a_non_finite_weight_facing_a_zero_column_reads_every_column() {
        // Column 3 is ±0 in every sample, so a packed panel leaves it out;
        // `inf · 0` is NaN, so a net with an infinite (or NaN) weight there
        // must still read it.
        let full = head(&DatasetKind::ForestLike.generate(4).test, 19);
        let inputs = (0..full.len())
            .flat_map(|i| {
                let mut x = full.input(i).to_vec();
                x[3] = if i % 2 == 0 { 0.0 } else { -0.0 };
                x
            })
            .collect();
        let labels = (0..full.len()).map(|i| full.label(i)).collect();
        let data = Dataset::from_parts(full.input_dim(), full.classes(), inputs, labels);
        for (layout, value) in [
            (&[54, 7][..], f32::INFINITY),
            (&[54, 7][..], f32::NAN),
            (&[54, 5, 7][..], f32::NEG_INFINITY),
        ] {
            let mut net = Mlp::new(layout, 4);
            net.layers_mut()[0].w.set(1, 3, value);
            assert_logits_match(&net, &data);
        }
    }

    #[test]
    fn init_is_deterministic_and_scaled() {
        let a = Mlp::new(&[20, 10, 4], 9);
        let b = Mlp::new(&[20, 10, 4], 9);
        assert_eq!(a, b);
        let c = Mlp::new(&[20, 10, 4], 10);
        assert_ne!(a, c);
        // He std for fan-in 20 is ~0.316; the extreme draw should be a
        // small multiple of that, not orders of magnitude off.
        let m = a.layers()[0].w.max_abs();
        assert!(m > 0.1 && m < 2.0, "max_abs {m}");
    }

    #[test]
    fn forward_shapes_chain_and_relu_clamps() {
        let net = Mlp::new(&[5, 3, 2], 1);
        let out = net.forward(&[1.0, -1.0, 0.5, 0.0, 2.0]);
        assert_eq!(out.len(), 2);
        let weights: usize = net.layers().iter().map(|l| l.w.data().len()).sum();
        assert_eq!(weights, 5 * 3 + 3 * 2);
    }

    #[test]
    fn from_layers_rejects_mismatched_chain() {
        let l0 = Dense::init(4, 3, 0, 0);
        let l1 = Dense::init(3, 2, 0, 1);
        let net = Mlp::from_layers(vec![l0.clone(), l1]);
        assert_eq!(net.in_dim(), 4);
        assert_eq!(net.out_dim(), 2);
        let bad = std::panic::catch_unwind(|| {
            Mlp::from_layers(vec![l0.clone(), Dense::init(4, 2, 0, 1)])
        });
        assert!(bad.is_err());
    }

    #[test]
    fn argmax_breaks_ties_low() {
        assert_eq!(argmax(&[1.0, 3.0, 3.0, 0.0]), 1);
        assert_eq!(argmax(&[f32::NEG_INFINITY, -1.0]), 1);
    }
}
