//! Deterministic synthetic stand-ins for the paper's three benchmarks
//! (MNIST, Forest covertype, Reuters), keyed through `uvf_fpga::seedmix`.
//!
//! The hardware study needs datasets with a specific *error anatomy*, not
//! real images: a nominal-voltage test error of a few percent carried by
//! genuinely ambiguous samples, plus a band of near-boundary samples that
//! flip when undervolting corrupts the weights. Each class owns a sparse
//! prototype vector; samples are prototypes with pixel noise, and the
//! interesting test samples are *blends* of two prototypes:
//!
//! * **margin** samples — majority weight λ just above ½, labeled with the
//!   majority class: learnable, but with a small logit margin that weight
//!   corruption can flip (the degradation band of Figs. 11/14);
//! * **hard** samples — majority weight λ well below ½ but labeled with
//!   the *minority* class: a trained net reliably gets these wrong, which
//!   pins the nominal error landmark (2.56 % on the MNIST-like set: 16 of
//!   625 test samples).
//!
//! Everything is a pure function of `(spec, seed)`: two generations are
//! bit-identical, which the accelerator's determinism tests rely on.

use uvf_fpga::seedmix::{mix, unit_f64};

const TAG_PROTO: u64 = 0x00da_7a01;
const TAG_NOISE: u64 = 0x00da_7a02;
const TAG_LAMBDA: u64 = 0x00da_7a03;
const TAG_PAIR: u64 = 0x00da_7a04;
const TAG_LABEL: u64 = 0x00da_7a05;

/// Split tags so train and test draws never collide.
const SPLIT_TRAIN: u64 = 1;
const SPLIT_TEST: u64 = 2;

/// A labeled sample set with flattened inputs.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    input_dim: usize,
    classes: usize,
    inputs: Vec<f32>,
    labels: Vec<u8>,
}

impl Dataset {
    /// Wrap flattened row-major inputs (`input_dim` values per sample) and
    /// their labels: hand-built test sets for the kernel oracle tests.
    #[cfg(test)]
    pub(crate) fn from_parts(
        input_dim: usize,
        classes: usize,
        inputs: Vec<f32>,
        labels: Vec<u8>,
    ) -> Dataset {
        assert_eq!(
            inputs.len(),
            labels.len() * input_dim,
            "inputs/labels mismatch"
        );
        Dataset {
            input_dim,
            classes,
            inputs,
            labels,
        }
    }

    #[must_use]
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    #[must_use]
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    #[must_use]
    pub fn classes(&self) -> usize {
        self.classes
    }

    #[must_use]
    pub fn input(&self, i: usize) -> &[f32] {
        &self.inputs[i * self.input_dim..(i + 1) * self.input_dim]
    }

    #[must_use]
    pub fn label(&self, i: usize) -> u8 {
        self.labels[i]
    }
}

/// Train + test split of one synthetic benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct SyntheticData {
    pub train: Dataset,
    pub test: Dataset,
}

/// The paper's three benchmarks (§V-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DatasetKind {
    /// 784-dim, 10 classes — the headline MNIST-like set. The test split
    /// is 625 samples with exactly 16 hard ones: a 2.56 % error floor.
    MnistLike,
    /// 54-dim, 7 classes — Forest-covertype-like.
    ForestLike,
    /// 1000-dim sparse bag-of-words, 8 classes — Reuters-like.
    ReutersLike,
}

impl DatasetKind {
    #[must_use]
    pub fn spec(self) -> DatasetSpec {
        match self {
            DatasetKind::MnistLike => DatasetSpec {
                kind: self,
                input_dim: 784,
                classes: 10,
                density: 0.30,
                noise: 0.02,
                train_clean_per_class: 60,
                test_clean: 489,
                test_margin: 120,
                test_hard: 16,
            },
            DatasetKind::ForestLike => DatasetSpec {
                kind: self,
                input_dim: 54,
                classes: 7,
                density: 0.50,
                noise: 0.02,
                train_clean_per_class: 60,
                test_clean: 260,
                test_margin: 30,
                test_hard: 10,
            },
            DatasetKind::ReutersLike => DatasetSpec {
                kind: self,
                input_dim: 1000,
                classes: 8,
                density: 0.06,
                noise: 0.01,
                train_clean_per_class: 50,
                test_clean: 270,
                test_margin: 24,
                test_hard: 6,
            },
        }
    }

    /// Convenience: generate with the default spec.
    #[must_use]
    pub fn generate(self, seed: u64) -> SyntheticData {
        self.spec().generate(seed)
    }
}

/// Shape and composition of one synthetic benchmark.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DatasetSpec {
    pub kind: DatasetKind,
    pub input_dim: usize,
    pub classes: usize,
    /// Active share of each class prototype.
    pub density: f64,
    /// Per-pixel flip probability on clean samples.
    pub noise: f64,
    pub train_clean_per_class: usize,
    pub test_clean: usize,
    pub test_margin: usize,
    /// Mislabeled blends in the test split — the nominal error floor.
    pub test_hard: usize,
}

impl DatasetSpec {
    /// Majority weights of the training margin curriculum: every ordered
    /// class pair is blended at each rung and labeled with the majority
    /// class. The lowest rung sits just below the test margin band.
    pub const TRAIN_LAMBDA_LADDER: [f64; 3] = [0.55, 0.65, 0.80];

    /// Total training samples.
    #[must_use]
    pub fn train_len(&self) -> usize {
        self.classes * self.train_clean_per_class
            + Self::TRAIN_LAMBDA_LADDER.len() * self.classes * (self.classes - 1)
    }

    /// Total test samples.
    #[must_use]
    pub fn test_len(&self) -> usize {
        self.test_clean + self.test_margin + self.test_hard
    }

    /// Error contributed by the hard samples alone (the nominal landmark).
    #[must_use]
    pub fn hard_error(&self) -> f64 {
        self.test_hard as f64 / self.test_len() as f64
    }

    /// Deterministic generation: a pure function of `(self, seed)`.
    #[must_use]
    pub fn generate(&self, seed: u64) -> SyntheticData {
        let protos = self.prototypes(seed);
        SyntheticData {
            train: self.train_split(seed, &protos),
            test: self.test_split(seed, &protos),
        }
    }

    /// Class prototypes: sparse vectors with `density` active entries of
    /// amplitude in (0.5, 1], rescaled to a common Euclidean norm. Equal
    /// norms put the decision boundary of every prototype *pair* at blend
    /// weight λ ≈ ½, which is what lets the test split place margin
    /// samples at a controlled distance from it.
    fn prototypes(&self, seed: u64) -> Vec<Vec<f32>> {
        // The norm a prototype with `density`·dim active entries of mean
        // amplitude 0.75 would have — kept so pixel values stay O(1).
        let target = 0.75 * (self.density * self.input_dim as f64).sqrt() as f32;
        (0..self.classes)
            .map(|c| {
                let mut p: Vec<f32> = (0..self.input_dim)
                    .map(|j| {
                        let h = mix(&[seed, TAG_PROTO, c as u64, j as u64]);
                        let gate = unit_f64(h);
                        if gate < self.density {
                            // Re-mix for an amplitude independent of the gate.
                            0.5 + 0.5 * unit_f64(mix(&[h, TAG_PROTO])) as f32
                        } else {
                            0.0
                        }
                    })
                    .collect();
                let norm = p.iter().map(|v| v * v).sum::<f32>().sqrt();
                if norm > 0.0 {
                    let s = target / norm;
                    for v in &mut p {
                        *v *= s;
                    }
                }
                p
            })
            .collect()
    }

    fn train_split(&self, seed: u64, protos: &[Vec<f32>]) -> Dataset {
        let mut inputs = Vec::new();
        let mut labels = Vec::new();
        let mut idx = 0u64;
        for (c, proto) in protos.iter().enumerate() {
            for _ in 0..self.train_clean_per_class {
                self.push_noisy(seed, SPLIT_TRAIN, idx, proto, &mut inputs);
                labels.push(c as u8);
                idx += 1;
            }
        }
        // Margin curriculum: every ordered class pair, blended at a fixed
        // λ ladder and labeled with the majority class. Covering *all*
        // pairs down to the λ = 0.55 rung pins each pair's decision
        // boundary just below it, so the test margin band (λ ≥ 0.555)
        // classifies correctly at nominal voltage — but only barely, which
        // is exactly the fragility the undervolting study needs.
        for &lambda in &Self::TRAIN_LAMBDA_LADDER {
            for a in 0..self.classes {
                for b in 0..self.classes {
                    if a == b {
                        continue;
                    }
                    self.push_blend(
                        (seed, SPLIT_TRAIN, idx),
                        &protos[a],
                        &protos[b],
                        lambda,
                        &mut inputs,
                    );
                    labels.push(a as u8);
                    idx += 1;
                }
            }
        }
        Dataset {
            input_dim: self.input_dim,
            classes: self.classes,
            inputs,
            labels,
        }
    }

    fn test_split(&self, seed: u64, protos: &[Vec<f32>]) -> Dataset {
        let mut inputs = Vec::new();
        let mut labels = Vec::new();
        let mut idx = 0u64;
        for i in 0..self.test_clean {
            let c = i % self.classes;
            self.push_noisy(seed, SPLIT_TEST, idx, &protos[c], &mut inputs);
            labels.push(c as u8);
            idx += 1;
        }
        // Fragile band: majority weight barely above ½, *below* the
        // curriculum's lowest rung. The paired curriculum (every ordered
        // pair supervised symmetrically at λ and 1−λ) pins each pair
        // boundary at λ ≈ ½, so these samples classify correctly at
        // nominal voltage but with logit margins thin enough that weight
        // corruption can flip them.
        for _ in 0..self.test_margin {
            let (a, b) = self.class_pair(seed, SPLIT_TEST, idx);
            let lambda = 0.508 + 0.020 * self.lambda_draw(seed, SPLIT_TEST, idx);
            self.push_blend(
                (seed, SPLIT_TEST, idx),
                &protos[a],
                &protos[b],
                lambda,
                &mut inputs,
            );
            labels.push(a as u8);
            idx += 1;
        }
        // Hard samples: mostly class b, labeled a — the error floor.
        for _ in 0..self.test_hard {
            let (a, b) = self.class_pair(seed, SPLIT_TEST, idx);
            let lambda = 0.30 + 0.10 * self.lambda_draw(seed, SPLIT_TEST, idx);
            self.push_blend(
                (seed, SPLIT_TEST, idx),
                &protos[a],
                &protos[b],
                lambda,
                &mut inputs,
            );
            labels.push(a as u8);
            idx += 1;
        }
        Dataset {
            input_dim: self.input_dim,
            classes: self.classes,
            inputs,
            labels,
        }
    }

    fn lambda_draw(&self, seed: u64, split: u64, idx: u64) -> f64 {
        unit_f64(mix(&[seed, TAG_LAMBDA, split, idx]))
    }

    /// An ordered distinct class pair for blend sample `idx`.
    fn class_pair(&self, seed: u64, split: u64, idx: u64) -> (usize, usize) {
        let c = self.classes as u64;
        let h = mix(&[seed, TAG_PAIR, split, idx]);
        let a = h % c;
        let step = 1 + mix(&[h, TAG_LABEL]) % (c - 1);
        let b = (a + step) % c;
        (a as usize, b as usize)
    }

    fn push_noisy(&self, seed: u64, split: u64, idx: u64, proto: &[f32], out: &mut Vec<f32>) {
        for (j, &p) in proto.iter().enumerate() {
            let u = unit_f64(mix(&[seed, TAG_NOISE, split, idx, j as u64]));
            out.push(if u < self.noise {
                if p == 0.0 {
                    0.8
                } else {
                    0.0
                }
            } else {
                p
            });
        }
    }

    fn push_blend(
        &self,
        (seed, split, idx): (u64, u64, u64),
        pa: &[f32],
        pb: &[f32],
        lambda: f64,
        out: &mut Vec<f32>,
    ) {
        let l = lambda as f32;
        // Blends carry a reduced noise rate: their ambiguity should come
        // from the mixing ratio, not from pixel accidents.
        let blend_noise = self.noise * 0.25;
        for (j, (&a, &b)) in pa.iter().zip(pb).enumerate() {
            let v = l * a + (1.0 - l) * b;
            let u = unit_f64(mix(&[seed, TAG_NOISE, split, idx, j as u64]));
            out.push(if u < blend_noise { 0.0 } else { v });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mnist_like_has_the_landmark_composition() {
        let spec = DatasetKind::MnistLike.spec();
        assert_eq!(spec.test_len(), 625);
        assert_eq!(spec.test_hard, 16);
        assert!((spec.hard_error() - 0.0256).abs() < 1e-12);
        let data = spec.generate(1);
        assert_eq!(data.test.len(), 625);
        assert_eq!(data.train.len(), spec.train_len());
        assert_eq!(data.train.len(), 10 * 60 + 3 * 90);
        assert_eq!(data.train.input_dim(), 784);
        assert_eq!(data.train.classes(), 10);
    }

    #[test]
    fn generation_is_deterministic_and_seed_sensitive() {
        for kind in [
            DatasetKind::MnistLike,
            DatasetKind::ForestLike,
            DatasetKind::ReutersLike,
        ] {
            let a = kind.generate(7);
            let b = kind.generate(7);
            assert_eq!(a, b, "{kind:?} must be reproducible");
            let c = kind.generate(8);
            assert_ne!(a, c, "{kind:?} must depend on the seed");
        }
    }

    #[test]
    fn prototypes_have_roughly_the_requested_density() {
        let spec = DatasetKind::MnistLike.spec();
        let data = spec.generate(3);
        // Clean samples are near-prototypes: measure active share.
        let active: usize = (0..50)
            .map(|i| data.train.input(i).iter().filter(|&&v| v > 0.0).count())
            .sum();
        let share = active as f64 / (50.0 * 784.0);
        assert!((share - 0.30).abs() < 0.05, "active share {share}");
    }

    #[test]
    fn labels_stay_in_range() {
        let data = DatasetKind::ForestLike.generate(5);
        for i in 0..data.test.len() {
            assert!((data.test.label(i) as usize) < data.test.classes());
        }
    }
}
