//! The quantized network: per-layer [`QTensor`] weights plus `f32`
//! biases. This is the artifact the accelerator maps into BRAM — weights
//! live in block RAM as sign-magnitude words, biases stay in registers
//! (the paper's design keeps them out of the vulnerable memory).

use crate::mlp::{Dense, Mlp};
use crate::qtensor::QTensor;

/// One quantized layer: codes + scale for the weights, float biases.
#[derive(Debug, Clone, PartialEq)]
pub struct QLayer {
    pub weights: QTensor,
    pub bias: Vec<f32>,
}

/// A per-layer-quantized MLP.
#[derive(Debug, Clone, PartialEq)]
pub struct QNetwork {
    layers: Vec<QLayer>,
}

impl QNetwork {
    /// Quantize every layer of a trained float network.
    #[must_use]
    pub fn from_mlp(net: &Mlp) -> QNetwork {
        let layers = net
            .layers()
            .iter()
            .map(|l| QLayer {
                weights: QTensor::quantize(&l.w),
                bias: l.b.clone(),
            })
            .collect();
        QNetwork { layers }
    }

    #[must_use]
    pub fn layers(&self) -> &[QLayer] {
        &self.layers
    }

    #[must_use]
    pub fn layer(&self, l: usize) -> &QLayer {
        &self.layers[l]
    }

    /// Zero-bit share over the whole stored image (the paper measures
    /// ~76 % for the trained MNIST net).
    #[must_use]
    pub fn zero_bit_share(&self) -> f64 {
        let total: u64 = self.layers.iter().map(|l| l.weights.len() as u64).sum();
        if total == 0 {
            return 1.0;
        }
        self.layers
            .iter()
            .map(|l| l.weights.zero_bit_share() * l.weights.len() as f64)
            .sum::<f64>()
            / total as f64
    }

    /// Rebuild a float network by dequantizing every layer — the clean
    /// (uncorrupted) reference path, and the net every `uvf-accel`
    /// read-back starts from and overwrites where the BRAMs differ.
    #[must_use]
    pub fn to_mlp(&self) -> Mlp {
        let layers = self
            .layers
            .iter()
            .map(|l| Dense::from_parts(l.weights.dequantize(), l.bias.clone()))
            .collect();
        Mlp::from_layers(layers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::DatasetKind;
    use crate::mlp::Mlp;
    use crate::train::{train, TrainConfig};

    #[test]
    fn quantized_roundtrip_preserves_accuracy() {
        // Quantizing to 16 bits must not measurably move the error rate:
        // the quantization step is ~3e-5 of the weight range.
        let data = DatasetKind::ForestLike.generate(11);
        let mut net = Mlp::new(&[54, 32, 7], 11);
        train(&mut net, &data.train, &TrainConfig::default());
        let float_err = net.error_on(&data.test);
        let q = QNetwork::from_mlp(&net);
        let q_err = q.to_mlp().error_on(&data.test);
        assert!(
            (float_err - q_err).abs() < 0.005,
            "float {float_err} vs quantized {q_err}"
        );
    }

    #[test]
    fn trained_net_is_mostly_zero_bits() {
        // The sign-magnitude sparsity claim (paper: ~76 %). He-initialized
        // gaussian weights already show it; training sharpens it.
        let net = Mlp::new(&[54, 32, 7], 4);
        let q = QNetwork::from_mlp(&net);
        let share = q.zero_bit_share();
        assert!(share > 0.55, "zero-bit share {share}");
    }
}
