//! Scoring a sequence of networks on one dataset, recomputing only what
//! changed since the last one.
//!
//! A §V voltage ladder reads the same network back rung after rung, and
//! consecutive read-backs differ only in the few weight rows whose BRAMs
//! picked up a new flip. [`Scorer`] keeps, for every block of eight test
//! samples, each layer's output panel from the last net it scored. On the
//! next net it finds the first layer whose weight or bias bits differ,
//! reuses every layer before it, recomputes only the changed rows of that
//! layer and runs the layers after it in full.
//!
//! That is bit-identical to a cold pass by construction:
//! [`Matrix::panel_into`] gives every output its own accumulator summed in
//! ascending `k`, so an output's bits depend only on its weight row and its
//! input panel, never on which other rows ran beside it.

use crate::datasets::Dataset;
use crate::mlp::Mlp;
use crate::tensor::{Matrix, BATCH};

/// Classifies networks on one dataset, reusing the last net's activations.
#[derive(Debug)]
pub struct Scorer<'d> {
    data: &'d Dataset,
    /// `acts[l]`: every block's output panel of layer `l`, after ReLU for a
    /// hidden layer and raw logits for the last.
    acts: Vec<Vec<f32>>,
    /// The net `acts` belongs to, and its error.
    last: Option<(Mlp, f64)>,
}

/// Where two nets first differ: the first layer with a changed weight or
/// bias bit, and that layer's changed output rows.
#[derive(Debug, PartialEq, Eq)]
struct Change {
    layer: usize,
    rows: Vec<usize>,
}

impl Change {
    /// Every row of the first layer: a pass with nothing to reuse.
    fn cold(net: &Mlp) -> Change {
        Change {
            layer: 0,
            rows: (0..net.layers()[0].out_dim()).collect(),
        }
    }
}

impl<'d> Scorer<'d> {
    /// A scorer for `data` with nothing scored yet.
    #[must_use]
    pub fn new(data: &'d Dataset) -> Scorer<'d> {
        Scorer {
            data,
            acts: Vec::new(),
            last: None,
        }
    }

    /// Classification error of `net` on the scorer's dataset, bit for bit
    /// [`Mlp::error_on`]. A net whose weights and biases have the same bits
    /// as the previous one's (compared with `to_bits`, so `0.0` and `-0.0`
    /// differ) returns the previous error; otherwise only the layers from
    /// the first changed one on run, and in that layer only the changed
    /// rows.
    pub fn error(&mut self, net: Mlp) -> f64 {
        let change = match &self.last {
            Some((last, error)) => match first_change(last, &net) {
                Some(change) => change,
                None => return *error,
            },
            None => Change::cold(&net),
        };
        let error = self.forward(&net, &change);
        self.last = Some((net, error));
        error
    }

    /// A full pass of `net` that leaves nothing to reuse: the cold path
    /// behind [`Mlp::error_on`].
    pub(crate) fn cold(&mut self, net: &Mlp) -> f64 {
        self.last = None;
        self.forward(net, &Change::cold(net))
    }

    /// Run `net` from `change` on, on top of the cached activations of the
    /// layers before it, and count the misclassified samples.
    fn forward(&mut self, net: &Mlp, change: &Change) -> f64 {
        let blocks = self.data.len().div_ceil(BATCH);
        let layers = net.layers();
        self.acts.resize_with(layers.len(), Vec::new);
        for (acts, layer) in self.acts.iter_mut().zip(layers) {
            acts.resize(blocks * layer.out_dim() * BATCH, 0.0);
        }
        let mut inputs = Vec::new();
        for (l, layer) in layers.iter().enumerate().skip(change.layer) {
            let hidden = l + 1 < layers.len();
            // Only the changed rows, gathered into a small matrix.
            let gathered = (l == change.layer && change.rows.len() < layer.out_dim()).then(|| {
                let rows = change.rows.iter().flat_map(|&r| layer.w.row(r));
                Matrix::from_vec(change.rows.len(), layer.in_dim(), rows.copied().collect())
            });
            let mut fresh = vec![0.0; gathered.as_ref().map_or(0, Matrix::rows) * BATCH];
            let (width, out_width) = (layer.in_dim() * BATCH, layer.out_dim() * BATCH);
            let (done, rest) = self.acts.split_at_mut(l);
            for (b, out) in rest[0].chunks_exact_mut(out_width).enumerate() {
                let x = match done.last() {
                    Some(prev) => &prev[b * width..(b + 1) * width],
                    None => input_panel(self.data, b, &mut inputs),
                };
                match &gathered {
                    Some(g) => {
                        g.panel_into::<BATCH>(x, &mut fresh);
                        for (&r, lanes) in change.rows.iter().zip(fresh.chunks_exact(BATCH)) {
                            let o = &mut out[r * BATCH..(r + 1) * BATCH];
                            o.copy_from_slice(lanes);
                            activate(o, layer.b[r], hidden);
                        }
                    }
                    None => {
                        layer.w.panel_into::<BATCH>(x, out);
                        for (o, &bias) in out.chunks_exact_mut(BATCH).zip(&layer.b) {
                            activate(o, bias, hidden);
                        }
                    }
                }
            }
        }
        if self.data.is_empty() {
            return 0.0;
        }
        let logits = self.acts.last().expect("a net has layers");
        let width = net.out_dim() * BATCH;
        let wrong = (0..self.data.len())
            .filter(|&i| {
                let panel = &logits[i / BATCH * width..(i / BATCH + 1) * width];
                argmax_lane(panel, i % BATCH) != self.data.label(i) as usize
            })
            .count();
        wrong as f64 / self.data.len() as f64
    }

    /// Every block's logit panel of the last pass, block after block.
    #[cfg(test)]
    pub(crate) fn logits(&self) -> &[f32] {
        self.acts.last().map_or(&[], Vec::as_slice)
    }
}

/// Block `b` of `data` as one k-major input panel in `buf`: feature `k` of
/// sample `b * BATCH + j` at `k * BATCH + j`, zeros past the data's end.
fn input_panel<'b>(data: &Dataset, b: usize, buf: &'b mut Vec<f32>) -> &'b [f32] {
    let lanes: Vec<&[f32]> = (b * BATCH..data.len().min((b + 1) * BATCH))
        .map(|i| data.input(i))
        .collect();
    buf.clear();
    buf.resize(data.input_dim() * BATCH, 0.0);
    for (k, panel) in buf.chunks_exact_mut(BATCH).enumerate() {
        for (v, lane) in panel.iter_mut().zip(&lanes) {
            *v = lane[k];
        }
    }
    buf
}

/// [`crate::argmax`] of lane `j` of a k-major panel.
fn argmax_lane(panel: &[f32], j: usize) -> usize {
    let mut best = 0;
    for (i, &x) in panel.iter().skip(j).step_by(BATCH).enumerate().skip(1) {
        if x > panel[best * BATCH + j] {
            best = i;
        }
    }
    best
}

/// Add one output row's bias to its lanes, then ReLU for a hidden layer.
fn activate(lanes: &mut [f32], bias: f32, hidden: bool) {
    for v in lanes {
        *v += bias;
        if hidden {
            *v = v.max(0.0);
        }
    }
}

/// Where `net` first differs from `last`, weights and biases compared with
/// `to_bits`, not `PartialEq` (which would equate `0.0` with `-0.0`);
/// `None` for the same bits. A net of another shape changes everywhere.
fn first_change(last: &Mlp, net: &Mlp) -> Option<Change> {
    let same_shape = last.layers().len() == net.layers().len()
        && last
            .layers()
            .iter()
            .zip(net.layers())
            .all(|(a, b)| a.in_dim() == b.in_dim() && a.out_dim() == b.out_dim());
    if !same_shape {
        return Some(Change::cold(net));
    }
    let bits = |v: &[f32], w: &[f32]| v.iter().zip(w).all(|(x, y)| x.to_bits() == y.to_bits());
    last.layers()
        .iter()
        .zip(net.layers())
        .enumerate()
        .find_map(|(layer, (a, b))| {
            let rows: Vec<usize> = (0..b.out_dim())
                .filter(|&r| a.b[r].to_bits() != b.b[r].to_bits() || !bits(a.w.row(r), b.w.row(r)))
                .collect();
            (!rows.is_empty()).then_some(Change { layer, rows })
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::DatasetKind;

    fn flip(net: &mut Mlp, layer: usize, r: usize, c: usize, bit: u32) {
        let w = &mut net.layers_mut()[layer].w;
        w.set(r, c, f32::from_bits(w.get(r, c).to_bits() ^ (1 << bit)));
    }

    /// Score `nets` in order on `data`: every error must be `error_on`'s
    /// bits and every logit a cold pass's bits.
    fn assert_matches_cold_passes(data: &Dataset, nets: &[Mlp]) {
        let mut scorer = Scorer::new(data);
        for (i, net) in nets.iter().enumerate() {
            let error = scorer.error(net.clone());
            assert_eq!(
                error.to_bits(),
                net.error_on(data).to_bits(),
                "net {i}: error {error}"
            );
            let mut cold = Scorer::new(data);
            cold.cold(net);
            let (got, want) = (scorer.logits(), cold.logits());
            assert_eq!(got.len(), want.len(), "net {i}");
            for (k, (g, w)) in got.iter().zip(want).enumerate() {
                assert_eq!(g.to_bits(), w.to_bits(), "net {i} logit {k}: {g} vs {w}");
            }
        }
    }

    #[test]
    fn scorer_matches_error_on_over_a_ladder_of_changes() {
        // The fixture split of 625 samples: the last block holds one lane.
        let data = DatasetKind::MnistLike.generate(6).test;
        assert_eq!((data.len(), data.len() % BATCH), (625, 1));
        let base = Mlp::new(&[784, 13, 9, 10], 6);
        let mut nets = vec![base.clone(), base.clone()];
        // A flip in one row of layer 0: exponent bits move the row far.
        let mut row0 = base.clone();
        for c in [0, 7, 30] {
            flip(&mut row0, 0, 5, c, 29);
        }
        nets.push(row0.clone());
        // Flips only in the last layer, on top of the layer-0 flip.
        let mut last = row0.clone();
        flip(&mut last, 2, 3, 4, 30);
        flip(&mut last, 2, 6, 0, 31);
        nets.push(last.clone());
        // A bias-only change in a hidden layer.
        let mut bias = last.clone();
        bias.layers_mut()[1].b[2] = 40.0;
        nets.push(bias.clone());
        // 0.0 then -0.0 on one weight: equal under `PartialEq`, and the
        // scorer must still treat the row as changed.
        let mut zero = bias.clone();
        zero.layers_mut()[1].w.set(4, 2, 0.0);
        let mut neg_zero = zero.clone();
        neg_zero.layers_mut()[1].w.set(4, 2, -0.0);
        assert_eq!(zero, neg_zero);
        nets.extend([zero, neg_zero]);
        // Back to an earlier net, then to the first.
        nets.extend([row0, base]);
        assert_matches_cold_passes(&data, &nets);
        // Errors actually move along this ladder, so a stale layer shows.
        let errors: Vec<u64> = nets.iter().map(|n| n.error_on(&data).to_bits()).collect();
        assert!(errors.windows(2).any(|w| w[0] != w[1]), "{errors:?}");
    }

    #[test]
    fn scorer_handles_ragged_empty_and_reshaped_inputs() {
        let full = DatasetKind::ForestLike.generate(3).test;
        let empty = Dataset::from_parts(full.input_dim(), full.classes(), Vec::new(), Vec::new());
        let net = Mlp::new(&[54, 11, 7], 3);
        let mut flipped = net.clone();
        flip(&mut flipped, 0, 2, 2, 30);
        let mut scorer = Scorer::new(&empty);
        assert_eq!(scorer.error(net.clone()), 0.0);
        assert_eq!(scorer.error(flipped.clone()), 0.0);
        assert_matches_cold_passes(&empty, &[net.clone(), flipped.clone()]);
        // A differently shaped net after this one is scored cold.
        let single = Mlp::new(&[54, 7], 3);
        assert_matches_cold_passes(&full, &[net, flipped, single.clone(), single]);
    }

    #[test]
    fn bitwise_comparison_tells_one_flipped_weight_bit_apart() {
        let net = Mlp::new(&[6, 5, 3], 1);
        assert_eq!(first_change(&net, &net.clone()), None);
        for (layer, r, c) in [(0, 0, 0), (0, 4, 5), (1, 2, 3)] {
            for bit in [0, 15, 31] {
                let mut flipped = net.clone();
                flip(&mut flipped, layer, r, c, bit);
                assert_eq!(
                    first_change(&net, &flipped),
                    Some(Change {
                        layer,
                        rows: vec![r]
                    }),
                    "layer {layer} ({r},{c}) bit {bit}"
                );
            }
        }
        // The sign bit of a zero weight: equal under `PartialEq`, not in
        // storage.
        let mut zero = net.clone();
        zero.layers_mut()[1].w.set(0, 0, 0.0);
        let mut neg_zero = zero.clone();
        neg_zero.layers_mut()[1].w.set(0, 0, -0.0);
        assert_eq!(zero, neg_zero);
        assert!(first_change(&zero, &neg_zero).is_some());
    }

    #[test]
    fn rung_scorer_reuses_only_identical_read_backs() {
        let data = DatasetKind::ForestLike.generate(5).test;
        let net = Mlp::new(&[54, 9, 7], 5);
        let mut changed = net.clone();
        let w = &mut changed.layers_mut()[1].w;
        w.set(0, 0, w.get(0, 0) * 64.0);
        let mut scorer = Scorer::new(&data);
        for n in [&net, &net, &changed, &changed, &net] {
            assert_eq!(
                scorer.error(n.clone()).to_bits(),
                n.error_on(&data).to_bits()
            );
        }
    }
}
