//! Scoring a sequence of networks on one dataset, recomputing only what
//! changed since the last one.
//!
//! A §V voltage ladder reads the same network back rung after rung, and
//! consecutive read-backs differ only in the few weight rows whose BRAMs
//! picked up a new flip. [`Scorer`] keeps, for every block of eight test
//! samples, each layer's output panel from the last net it scored. On the
//! next net it starts at the first layer whose weight or bias bits differ,
//! reuses every layer before it, recomputes only the changed rows of that
//! layer and runs the layers after it in full. The caller names that change
//! ([`Scorer::rescore`]): a read-back knows which BRAMs it re-read and
//! which weight rows they changed.
//!
//! That is bit-identical to a cold pass by construction:
//! [`Matrix::panel_into`] gives every output its own accumulator summed in
//! ascending `k`, so an output's bits depend only on its weight row and its
//! input panel, never on which other rows ran beside it.
//!
//! The first layer reads packed input panels. The samples are sorted by
//! label before they are cut into blocks, so a block's eight inputs share
//! most of their zero pixels, and each block is packed over only the
//! columns some lane has nonzero (`Matrix::packed_panel_into`). A split is
//! ordered and packed once, by the first scorer made on it: every later
//! scorer, and the one-shot pass behind [`Mlp::error_on`], borrows that
//! packing. Dense panels remain for inputs too wide for `u16` column
//! indices and for a layer-0 weight block with a non-finite entry. The
//! error is a count, so the sample order does not move it.

use crate::datasets::Dataset;
use crate::mlp::Mlp;
use crate::tensor::{Matrix, BATCH};

/// Classifies networks on one dataset, reusing the last net's activations.
#[derive(Debug, Clone)]
pub struct Scorer<'d> {
    data: &'d Dataset,
    /// The split's label order and packed panels, shared by every scorer
    /// on it.
    packing: &'d Packing,
    /// `acts[l]`: every block's output panel of layer `l`, after ReLU for a
    /// hidden layer and raw logits for the last.
    acts: Vec<Vec<f32>>,
    /// The error of the net `acts` belong to.
    scored: Option<f64>,
}

/// Where a net differs from the one scored before it: the first layer with
/// a changed weight or bias bit, and that layer's changed output rows in
/// ascending order. Layers after it may differ anywhere.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Change {
    pub layer: usize,
    pub rows: Vec<usize>,
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

/// A split's samples in lane order and its first-layer input panels over
/// them: built once per split ([`Dataset`] holds it) and read by every
/// scorer on it.
#[derive(Debug)]
pub(crate) struct Packing {
    /// The samples grouped by label: lane `j` of block `b` is sample
    /// `order[b * BATCH + j]`.
    order: Vec<usize>,
    /// Every block's packed input panel; `None` for inputs too wide for
    /// `u16` column indices.
    panels: Option<PackedPanels>,
}

impl Packing {
    /// Order `data`'s samples by label and pack their blocks.
    pub(crate) fn new(data: &Dataset) -> Packing {
        let mut order: Vec<usize> = (0..data.len()).collect();
        order.sort_by_key(|&i| data.label(i));
        let panels = PackedPanels::pack(data, &order);
        Packing { order, panels }
    }
}

/// Each block's input panel over only the columns some lane has nonzero:
/// block `b` keeps columns `cols[starts[b]..starts[b + 1]]`, and lane group
/// `i` of those is `values[(starts[b] + i) * BATCH..][..BATCH]`.
#[derive(Debug)]
struct PackedPanels {
    starts: Vec<usize>,
    cols: Vec<u16>,
    values: Vec<f32>,
}

impl PackedPanels {
    /// Pack `data`'s blocks in `order`; `None` when a column index does not
    /// fit a `u16`.
    fn pack(data: &Dataset, order: &[usize]) -> Option<PackedPanels> {
        u16::try_from(data.input_dim().saturating_sub(1)).ok()?;
        // Per block, the columns where some lane is not ±0: where the
        // lanes' bits without the sign OR to nonzero.
        let mut any = vec![0u32; data.input_dim()];
        let mut cols = Vec::new();
        let mut starts = vec![0];
        for lanes in order.chunks(BATCH) {
            any.fill(0);
            for &i in lanes {
                for (a, v) in any.iter_mut().zip(data.input(i)) {
                    *a |= v.to_bits() << 1;
                }
            }
            cols.extend((0..any.len()).filter(|&k| any[k] != 0).map(|k| k as u16));
            starts.push(cols.len());
        }
        cols.shrink_to_fit();
        // Lane by lane into the exact-size buffer; lanes past the end of
        // the split stay zero.
        let mut values = vec![0.0; cols.len() * BATCH];
        for (b, lanes) in order.chunks(BATCH).enumerate() {
            let (start, end) = (starts[b], starts[b + 1]);
            let panel = &mut values[start * BATCH..end * BATCH];
            for (j, &i) in lanes.iter().enumerate() {
                let x = data.input(i);
                let slots = panel[j..].iter_mut().step_by(BATCH);
                for (v, &k) in slots.zip(&cols[start..end]) {
                    *v = x[usize::from(k)];
                }
            }
        }
        Some(PackedPanels {
            starts,
            cols,
            values,
        })
    }

    /// Block `b`'s packed panel and its column list.
    fn block(&self, b: usize) -> (&[f32], &[u16]) {
        let (start, end) = (self.starts[b], self.starts[b + 1]);
        (
            &self.values[start * BATCH..end * BATCH],
            &self.cols[start..end],
        )
    }
}

impl<'d> Scorer<'d> {
    /// A scorer for `data` with nothing scored yet; the first one made on
    /// a split orders and packs it.
    #[must_use]
    pub fn new(data: &'d Dataset) -> Scorer<'d> {
        Scorer {
            data,
            packing: data.packing(),
            acts: Vec::new(),
            scored: None,
        }
    }

    /// Classification error of `net`, which differs from the net this
    /// scorer scored last exactly as `change` says (`None`: in no bit),
    /// bit for bit [`Mlp::error_on`]. The first net a scorer sees is
    /// scored in full whatever `change` says.
    pub fn rescore(&mut self, net: &Mlp, change: Option<&Change>) -> f64 {
        let error = match (change, self.scored) {
            (None, Some(error)) => return error,
            (Some(change), Some(_)) => self.forward(net, change),
            (_, None) => self.forward(net, &Change::cold(net)),
        };
        self.scored = Some(error);
        error
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
            let w = gathered.as_ref().unwrap_or(&layer.w);
            // Packed panels skip zero inputs, which only finite weights
            // allow (`inf · 0` is NaN).
            let packed = self
                .packing
                .panels
                .as_ref()
                .filter(|_| l == 0 && w.data().iter().all(|v| v.is_finite()));
            let mut fresh = vec![0.0; gathered.as_ref().map_or(0, Matrix::rows) * BATCH];
            let (width, out_width) = (layer.in_dim() * BATCH, layer.out_dim() * BATCH);
            let (done, rest) = self.acts.split_at_mut(l);
            for (b, out) in rest[0].chunks_exact_mut(out_width).enumerate() {
                let product = if gathered.is_some() {
                    &mut fresh[..]
                } else {
                    &mut out[..]
                };
                match (done.last(), packed) {
                    (Some(prev), _) => {
                        w.panel_into::<BATCH>(&prev[b * width..(b + 1) * width], product);
                    }
                    (None, Some(panels)) => {
                        let (x, cols) = panels.block(b);
                        w.packed_panel_into(x, cols, product);
                    }
                    (None, None) => {
                        let x = input_panel(self.data, &self.packing.order, b, &mut inputs);
                        w.panel_into::<BATCH>(x, product);
                    }
                }
                if gathered.is_some() {
                    for (&r, lanes) in change.rows.iter().zip(fresh.chunks_exact(BATCH)) {
                        let o = &mut out[r * BATCH..(r + 1) * BATCH];
                        o.copy_from_slice(lanes);
                        activate(o, layer.b[r], hidden);
                    }
                } else {
                    for (o, &bias) in out.chunks_exact_mut(BATCH).zip(&layer.b) {
                        activate(o, bias, hidden);
                    }
                }
            }
        }
        if self.data.is_empty() {
            return 0.0;
        }
        let logits = self.acts.last().expect("a net has layers");
        let width = net.out_dim() * BATCH;
        let wrong = self
            .packing
            .order
            .iter()
            .enumerate()
            .filter(|&(p, &i)| {
                let panel = &logits[p / BATCH * width..(p / BATCH + 1) * width];
                argmax_lane(panel, p % BATCH) != self.data.label(i) as usize
            })
            .count();
        wrong as f64 / self.data.len() as f64
    }

    /// Every block's logit panel of the last pass, block after block, with
    /// the samples back in dataset order (lanes past the end are zero).
    #[cfg(test)]
    pub(crate) fn logits(&self) -> Vec<f32> {
        let Some(logits) = self.acts.last() else {
            return Vec::new();
        };
        let outs = logits.len() / self.data.len().div_ceil(BATCH).max(1) / BATCH;
        let mut ordered = vec![0.0; logits.len()];
        for (p, &i) in self.packing.order.iter().enumerate() {
            for r in 0..outs {
                ordered[(i / BATCH * outs + r) * BATCH + i % BATCH] =
                    logits[(p / BATCH * outs + r) * BATCH + p % BATCH];
            }
        }
        ordered
    }
}

/// Block `b` of the samples in `order` as one dense k-major input panel in
/// `buf`: feature `k` of lane `j` at `k * BATCH + j`, zeros past the end.
fn input_panel<'b>(data: &Dataset, order: &[usize], b: usize, buf: &'b mut Vec<f32>) -> &'b [f32] {
    let lanes: Vec<&[f32]> = order[b * BATCH..order.len().min((b + 1) * BATCH)]
        .iter()
        .map(|&i| data.input(i))
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

/// Index of the largest logit in lane `j` of a k-major panel, first
/// occurrence wins.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::DatasetKind;

    fn flip(net: &mut Mlp, layer: usize, r: usize, c: usize, bit: u32) {
        let w = &mut net.layers_mut()[layer].w;
        w.set(r, c, f32::from_bits(w.get(r, c).to_bits() ^ (1 << bit)));
    }

    /// Where `net` differs from `last` in weight or bias bits (`0.0` and
    /// `-0.0` differ), as a read-back names it to [`Scorer::rescore`]; a
    /// net of another shape is named a cold pass.
    fn diff(last: &Mlp, net: &Mlp) -> Option<Change> {
        let shape = |n: &Mlp| {
            n.layers()
                .iter()
                .map(|l| (l.in_dim(), l.out_dim()))
                .collect::<Vec<_>>()
        };
        if shape(last) != shape(net) {
            return Some(Change::cold(net));
        }
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut layers = last.layers().iter().zip(net.layers()).enumerate();
        layers.find_map(|(layer, (a, b))| {
            let rows: Vec<usize> = (0..b.out_dim())
                .filter(|&r| {
                    a.b[r].to_bits() != b.b[r].to_bits() || bits(a.w.row(r)) != bits(b.w.row(r))
                })
                .collect();
            (!rows.is_empty()).then_some(Change { layer, rows })
        })
    }

    /// Rescore `nets` in order on `data`, each named by its change from the
    /// one before: every error must be `error_on`'s bits and every logit a
    /// cold pass's bits.
    fn assert_matches_cold_passes(data: &Dataset, nets: &[Mlp]) {
        let mut scorer = Scorer::new(data);
        for (i, net) in nets.iter().enumerate() {
            let named = i.checked_sub(1).and_then(|p| diff(&nets[p], net));
            let error = scorer.rescore(net, named.as_ref());
            assert_eq!(
                error.to_bits(),
                net.error_on(data).to_bits(),
                "net {i}: error {error}"
            );
            let mut cold = Scorer::new(data);
            cold.rescore(net, None);
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
    fn rescore_takes_the_change_the_caller_names() {
        let data = DatasetKind::MnistLike.generate(6).test;
        let bits = |v: Vec<f32>| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        let cold_logits = |net: &Mlp| {
            let mut cold = Scorer::new(&data);
            cold.rescore(net, None);
            bits(cold.logits())
        };
        let base = Mlp::new(&[784, 13, 10], 6);
        let mut scorer = Scorer::new(&data);
        // The first net is scored in full whatever the change says.
        let first = scorer.rescore(&base, Some(&Change::cold(&base)));
        assert_eq!(first.to_bits(), base.error_on(&data).to_bits());
        let mut row = base.clone();
        for c in (0..784).step_by(50) {
            flip(&mut row, 0, 4, c, 29);
        }
        // Unchanged rows named beside the changed one cost time, not bits.
        let change = Change {
            layer: 0,
            rows: vec![2, 4, 9],
        };
        let error = scorer.rescore(&row, Some(&change));
        assert_eq!(error.to_bits(), row.error_on(&data).to_bits());
        assert_eq!(bits(scorer.logits()), cold_logits(&row));
        assert_ne!(cold_logits(&row), cold_logits(&base));
        assert_eq!(scorer.rescore(&row, None).to_bits(), error.to_bits());
        let mut out = row.clone();
        flip(&mut out, 1, 3, 5, 30);
        let change = Change {
            layer: 1,
            rows: vec![3],
        };
        let error = scorer.rescore(&out, Some(&change));
        assert_eq!(error.to_bits(), out.error_on(&data).to_bits());
        assert_eq!(bits(scorer.logits()), cold_logits(&out));
        // Back to the first net: layer 0 changes, and every layer after it
        // runs in full.
        let back = diff(&out, &base);
        assert_eq!(
            back.as_ref().map(|c| (c.layer, c.rows.clone())),
            Some((0, vec![4]))
        );
        let error = scorer.rescore(&base, back.as_ref());
        assert_eq!(error.to_bits(), base.error_on(&data).to_bits());
        assert_eq!(bits(scorer.logits()), cold_logits(&base));
    }

    #[test]
    fn label_grouped_blocks_pack_about_half_the_columns() {
        let data = DatasetKind::MnistLike.generate(12).test;
        let net = Mlp::new(&[data.input_dim(), 3, data.classes()], 12);
        // The one-shot pass packs the split; every scorer after it borrows
        // that one packing.
        assert!(data.packed().is_none());
        let error = net.error_on(&data);
        let packing = data.packed().expect("error_on packs the split");
        let (mut a, b) = (Scorer::new(&data), Scorer::new(&data));
        assert!(std::ptr::eq(a.packing, packing) && std::ptr::eq(b.packing, packing));
        assert_eq!(a.rescore(&net, None).to_bits(), error.to_bits());
        // A clone starts unpacked and still equals the packed split.
        let clone = data.clone();
        assert!(clone.packed().is_none());
        assert_eq!(clone, data);
        let order = &packing.order;
        assert!(order
            .windows(2)
            .all(|w| data.label(w[0]) <= data.label(w[1])));
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert!(sorted.iter().copied().eq(0..data.len()));
        let pairs = data.len().div_ceil(BATCH) * data.input_dim();
        let share = packing.panels.as_ref().unwrap().cols.len() as f64 / pairs as f64;
        // Dataset order packs far more: its blocks mix every label.
        let mixed = PackedPanels::pack(&data, &(0..data.len()).collect::<Vec<_>>()).unwrap();
        let mixed_share = mixed.cols.len() as f64 / pairs as f64;
        assert!(
            share < 0.6 && mixed_share > 0.85,
            "{share} vs {mixed_share}"
        );
    }

    #[test]
    fn scorer_handles_ragged_empty_and_reshaped_inputs() {
        let full = DatasetKind::ForestLike.generate(3).test;
        let empty = Dataset::from_parts(full.input_dim(), full.classes(), Vec::new(), Vec::new());
        let net = Mlp::new(&[54, 11, 7], 3);
        let mut flipped = net.clone();
        flip(&mut flipped, 0, 2, 2, 30);
        let mut scorer = Scorer::new(&empty);
        assert_eq!(scorer.rescore(&net, None), 0.0);
        assert_eq!(scorer.rescore(&flipped, diff(&net, &flipped).as_ref()), 0.0);
        assert_matches_cold_passes(&empty, &[net.clone(), flipped.clone()]);
        // A differently shaped net after this one is scored cold.
        let single = Mlp::new(&[54, 7], 3);
        assert_matches_cold_passes(&full, &[net, flipped, single.clone(), single]);
    }

    #[test]
    fn rung_scorer_reuses_only_identical_read_backs() {
        let data = DatasetKind::ForestLike.generate(5).test;
        let net = Mlp::new(&[54, 9, 7], 5);
        let mut changed = net.clone();
        let w = &mut changed.layers_mut()[1].w;
        w.set(0, 0, w.get(0, 0) * 64.0);
        let mut scorer = Scorer::new(&data);
        let mut last = &net;
        for n in [&net, &net, &changed, &changed, &net] {
            let error = scorer.rescore(n, diff(last, n).as_ref());
            assert_eq!(error.to_bits(), n.error_on(&data).to_bits());
            last = n;
        }
    }
}
