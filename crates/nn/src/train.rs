//! A small SGD trainer: softmax cross-entropy, momentum, deterministic
//! per-epoch shuffling keyed through seedmix.
//!
//! This is not trying to be a framework — it exists to take the He-seeded
//! [`Mlp`] to the paper's nominal-voltage error landmarks on
//! the synthetic sets (2.56 % on the MNIST-like benchmark) so the
//! undervolting study has a realistic trained weight distribution to map
//! into BRAM. Everything is `f32` and sequential, so training is
//! bit-reproducible for a given `(net, data, config)`.

use crate::datasets::Dataset;
use crate::mlp::Mlp;
use uvf_fpga::seedmix::mix;

const TAG_SHUFFLE: u64 = 0x0077_2a17;

/// Trainer hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainConfig {
    pub epochs: usize,
    pub learning_rate: f32,
    pub momentum: f32,
    /// Multiplicative per-epoch learning-rate decay (1.0 = constant).
    /// Long runs need it: plain momentum SGD oscillates around the thin
    /// pair boundaries of the margin curriculum instead of settling.
    pub lr_decay: f32,
    /// Keys the per-epoch shuffle (independent of the init seed).
    pub shuffle_seed: u64,
}

impl Default for TrainConfig {
    fn default() -> TrainConfig {
        TrainConfig {
            epochs: 3,
            learning_rate: 0.01,
            momentum: 0.5,
            lr_decay: 1.0,
            shuffle_seed: 0,
        }
    }
}

/// Per-layer momentum buffers mirroring the network's shapes.
struct Velocity {
    w: Vec<Vec<f32>>,
    b: Vec<Vec<f32>>,
}

/// Train in place with plain momentum SGD on softmax cross-entropy.
pub fn train(net: &mut Mlp, data: &Dataset, cfg: &TrainConfig) {
    assert_eq!(net.in_dim(), data.input_dim(), "input width");
    assert_eq!(net.out_dim(), data.classes(), "class count");
    let mut vel = Velocity {
        w: net
            .layers()
            .iter()
            .map(|l| vec![0.0; l.w.data().len()])
            .collect(),
        b: net.layers().iter().map(|l| vec![0.0; l.b.len()]).collect(),
    };
    let mut order: Vec<usize> = (0..data.len()).collect();
    let mut lr = cfg.learning_rate;
    for epoch in 0..cfg.epochs {
        shuffle(&mut order, cfg.shuffle_seed, epoch as u64);
        for &i in &order {
            step(
                net,
                &mut vel,
                data.input(i),
                data.label(i) as usize,
                cfg,
                lr,
            );
        }
        lr *= cfg.lr_decay;
    }
}

/// Fisher–Yates with seedmix-keyed draws: the same `(seed, epoch)` always
/// yields the same permutation.
fn shuffle(order: &mut [usize], seed: u64, epoch: u64) {
    for i in (1..order.len()).rev() {
        let h = mix(&[seed, TAG_SHUFFLE, epoch, i as u64]);
        let j = (h % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
}

/// One sample of forward, softmax-CE backward, momentum update.
fn step(net: &mut Mlp, vel: &mut Velocity, x: &[f32], label: usize, cfg: &TrainConfig, lr: f32) {
    let n_layers = net.layers().len();

    // Forward, keeping every activation (post-ReLU for hidden layers).
    let mut acts: Vec<Vec<f32>> = Vec::with_capacity(n_layers + 1);
    acts.push(x.to_vec());
    for (l, layer) in net.layers().iter().enumerate() {
        let mut out = vec![0.0f32; layer.out_dim()];
        layer.forward_into(acts[l].as_slice(), &mut out);
        if l + 1 < n_layers {
            for v in &mut out {
                *v = v.max(0.0);
            }
        }
        acts.push(out);
    }

    // Output delta: softmax(logits) − one_hot(label).
    let logits = &acts[n_layers];
    let mut delta = softmax(logits);
    delta[label] -= 1.0;

    // Backward through each layer; gradients are rank-1 (one sample).
    for l in (0..n_layers).rev() {
        let input = acts[l].clone();
        // Delta for the layer below, computed against the *pre-update*
        // weights (standard backprop ordering).
        let next_delta = if l > 0 {
            let layer = &net.layers()[l];
            let mut d = vec![0.0f32; layer.in_dim()];
            for (r, &dr) in delta.iter().enumerate() {
                if dr == 0.0 {
                    continue;
                }
                for (dj, &wj) in d.iter_mut().zip(layer.w.row(r)) {
                    *dj += dr * wj;
                }
            }
            // ReLU gate: the layer-below activation is post-ReLU.
            for (dj, &aj) in d.iter_mut().zip(&input) {
                if aj <= 0.0 {
                    *dj = 0.0;
                }
            }
            Some(d)
        } else {
            None
        };

        let layer = &mut net.layers_mut()[l];
        let (vw, vb) = (&mut vel.w[l], &mut vel.b[l]);
        let cols = layer.w.cols();
        for (r, &dr) in delta.iter().enumerate() {
            let vb_r = &mut vb[r];
            *vb_r = cfg.momentum * *vb_r - lr * dr;
            layer.b[r] += *vb_r;
            if dr == 0.0 {
                continue;
            }
            let row = layer.w.row_mut(r);
            let vrow = &mut vw[r * cols..(r + 1) * cols];
            for ((w, v), &xi) in row.iter_mut().zip(vrow).zip(&input) {
                *v = cfg.momentum * *v - lr * dr * xi;
                *w += *v;
            }
        }

        if let Some(d) = next_delta {
            delta = d;
        }
    }
}

/// Numerically-stable softmax.
fn softmax(logits: &[f32]) -> Vec<f32> {
    let max = logits.iter().fold(f32::NEG_INFINITY, |m, &v| m.max(v));
    let exps: Vec<f32> = logits.iter().map(|&v| (v - max).exp()).collect();
    let sum: f32 = exps.iter().sum();
    exps.into_iter().map(|e| e / sum).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::DatasetKind;

    #[test]
    fn softmax_is_a_distribution() {
        let p = softmax(&[1.0, 2.0, 3.0]);
        let sum: f32 = p.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6);
        assert!(p[2] > p[1] && p[1] > p[0]);
    }

    #[test]
    fn shuffle_is_deterministic_permutation() {
        let mut a: Vec<usize> = (0..100).collect();
        let mut b = a.clone();
        shuffle(&mut a, 5, 0);
        shuffle(&mut b, 5, 0);
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        let mut c: Vec<usize> = (0..100).collect();
        shuffle(&mut c, 5, 1);
        assert_ne!(a, c, "different epochs reshuffle");
    }

    #[test]
    fn training_reduces_error_on_a_small_problem() {
        // Forest-like is the cheapest benchmark; a couple of epochs must
        // take the net from chance (~86 % error) to near the hard floor.
        let data = DatasetKind::ForestLike.generate(11);
        let mut net = Mlp::new(&[54, 32, 7], 11);
        let before = net.error_on(&data.test);
        train(
            &mut net,
            &data.train,
            &TrainConfig {
                epochs: 10,
                lr_decay: 0.8,
                ..TrainConfig::default()
            },
        );
        let after = net.error_on(&data.test);
        assert!(after < before, "error {before} -> {after}");
        // The hard-sample floor for Forest-like is 10/300 ≈ 3.3 %; the
        // trained net should sit on or just above it.
        assert!(after < 0.06, "error after training {after}");
    }

    /// FNV-1a over every weight's and bias's bit pattern.
    fn weight_digest(net: &Mlp) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for l in net.layers() {
            for &v in l.w.data().iter().chain(&l.b) {
                for byte in v.to_bits().to_le_bytes() {
                    h ^= u64::from(byte);
                    h = h.wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
        }
        h
    }

    /// The `repro --quick` accelerator fixture. Training runs its forward
    /// passes through the tiled kernel and scoring through the batched
    /// `error_on`; both must leave the trained bits and the nominal
    /// landmark exactly where the scalar loops put them.
    #[test]
    fn quick_mnist_fixture_trains_to_pinned_bits() {
        let data = DatasetKind::MnistLike.generate(12);
        let mut net = Mlp::new(&[784, 128, 10], 12);
        train(
            &mut net,
            &data.train,
            &TrainConfig {
                epochs: 8,
                learning_rate: 0.02,
                momentum: 0.5,
                lr_decay: 0.8,
                shuffle_seed: 12,
            },
        );
        assert_eq!(weight_digest(&net), 0xd4bc_9404_8554_12a9);
        assert_eq!(net.error_on(&data.test), 0.0288);
        let q = crate::quantized::QNetwork::from_mlp(&net).to_mlp();
        assert_eq!(weight_digest(&q), 0xc05a_3acf_eddd_b82d);
        assert_eq!(q.error_on(&data.test), 0.0288);
    }

    #[test]
    fn training_is_bit_reproducible() {
        let data = DatasetKind::ForestLike.generate(3);
        let cfg = TrainConfig {
            epochs: 1,
            ..TrainConfig::default()
        };
        let mut a = Mlp::new(&[54, 16, 7], 3);
        let mut b = Mlp::new(&[54, 16, 7], 3);
        train(&mut a, &data.train, &cfg);
        train(&mut b, &data.train, &cfg);
        assert_eq!(a, b);
    }
}

#[cfg(test)]
mod scratch {
    use super::*;
    use crate::datasets::DatasetKind;
    use crate::mlp::{Mlp, MNIST_LAYOUT};
    use crate::quantized::QNetwork;

    /// Always-on version of [`scan_mnist_seeds`]: one pinned seed on a
    /// narrowed MNIST layout, gating the invariant the full scan exists
    /// to explore — training converges well below chance and the Q8.8
    /// round-trip through [`QNetwork`] costs almost no accuracy.
    #[test]
    fn mnist_seed_converges_and_quantizes_at_reduced_scale() {
        let seed = 7u64;
        let data = DatasetKind::MnistLike.generate(seed);
        let mut net = Mlp::new(&[784, 64, 10], seed);
        let cfg = TrainConfig {
            epochs: 6,
            learning_rate: 0.02,
            momentum: 0.5,
            lr_decay: 0.8,
            shuffle_seed: seed,
        };
        train(&mut net, &data.train, &cfg);
        let test = net.error_on(&data.test);
        let q = QNetwork::from_mlp(&net);
        let qtest = q.to_mlp().error_on(&data.test);
        println!(
            "seed={seed} test={test:.4} qtest={qtest:.4} zbits={:.3}",
            q.zero_bit_share()
        );
        // Chance on the 10-class MNIST-like split is ~90 % error.
        assert!(test < 0.15, "test error {test} is far from converged");
        assert!(
            (qtest - test).abs() <= 0.02,
            "quantization moved error {test} -> {qtest}",
        );
        let z = q.zero_bit_share();
        assert!(z > 0.0 && z < 1.0, "degenerate zero-bit share {z}");
    }

    #[test]
    #[ignore]
    fn scan_mnist_seeds() {
        for seed in [1u64, 2, 3, 7, 11, 13] {
            let data = DatasetKind::MnistLike.generate(seed);
            let mut net = Mlp::new(&MNIST_LAYOUT, seed);
            let cfg = TrainConfig {
                epochs: 20,
                learning_rate: 0.02,
                momentum: 0.5,
                lr_decay: 0.8,
                shuffle_seed: seed,
            };
            train(&mut net, &data.train, &cfg);
            let q = QNetwork::from_mlp(&net);
            println!(
                "seed={seed} train={:.4} test={:.4} qtest={:.4} zbits={:.3}",
                net.error_on(&data.train),
                net.error_on(&data.test),
                q.to_mlp().error_on(&data.test),
                q.zero_bit_share()
            );
        }
    }
}
