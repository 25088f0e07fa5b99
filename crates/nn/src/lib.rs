//! # uvf-nn — the neural-network substrate for the undervolting study
//!
//! The paper's §V evaluates a fully-connected MNIST accelerator whose
//! weights live in undervolted BRAMs. This crate provides everything *in
//! front of* the hardware: deterministic synthetic datasets with the
//! paper's error anatomy, a small momentum-SGD trainer, and per-layer
//! 16-bit sign-magnitude quantization. The companion crate `uvf-accel`
//! maps the quantized weights into simulated BRAM and runs inference
//! through the fault model.
//!
//! Everything is std-only and bit-deterministic: datasets, weight init
//! and shuffling are all keyed through `uvf_fpga::seedmix`, so a given
//! seed reproduces the exact same trained network on any host.
//!
//! ```
//! use uvf_nn::{DatasetKind, Mlp, QNetwork, TrainConfig};
//!
//! let data = DatasetKind::ForestLike.generate(11);
//! let mut net = Mlp::new(&[54, 32, 7], 11);
//! uvf_nn::train(&mut net, &data.train, &TrainConfig::default());
//! let q = QNetwork::from_mlp(&net);
//! assert!(q.to_mlp().error_on(&data.test) < 0.2);
//! ```

#![deny(deprecated)]

pub mod datasets;
pub mod mlp;
pub mod qtensor;
pub mod quantized;
pub mod score;
pub mod tensor;
pub mod train;

pub use datasets::{Dataset, DatasetKind, DatasetSpec, SyntheticData};
pub use mlp::{Dense, Mlp, MNIST_LAYOUT};
pub use qtensor::{decode_word, encode_word, QTensor, QMAX, SIGN_BIT};
pub use quantized::{QLayer, QNetwork};
pub use score::Scorer;
pub use tensor::Matrix;
pub use train::{train, TrainConfig};
