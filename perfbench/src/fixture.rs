//! The §V accelerator fixture: the network `repro --quick` trains for
//! Figs. 12–14 and the mitigation shoot-out, built in one place.

use uvf_nn::{train, DatasetKind, Mlp, QNetwork, SyntheticData, TrainConfig};
use uvf_trace::Tracer;

/// Net seed of the Fig. 13/14 fixture.
pub const NET_SEED: u64 = 12;
/// VC707 die whose weak-cell census shows the Fig. 13/14 story.
pub const CHIP_SEED: u64 = 21;
/// Cold die: the worst case of the inverse thermal dependence.
pub const EVAL_TEMPERATURE_C: f64 = 0.0;
/// Run seed `repro` scores; pass 0 of the default workload seed uses it.
pub const EVAL_RUN_SEED: u64 = 1;
/// `repro --quick` layout and epochs.
pub const LAYOUT: [usize; 3] = [784, 128, 10];
pub const EPOCHS: usize = 8;

/// The trained, quantized network and the data it is scored on.
#[derive(Debug, Clone, PartialEq)]
pub struct Fixture {
    pub data: SyntheticData,
    pub qnet: QNetwork,
    /// Weights per layer, the placement input.
    pub weights: Vec<usize>,
    /// Test error of a clean read of the quantized network: every nominal
    /// read-back of every pass must reproduce it exactly.
    pub nominal_error: f64,
}

/// Generate the dataset, train, quantize and score the clean network, each
/// step in its `nn.*` span.
#[must_use]
pub fn build(tracer: &Tracer) -> Fixture {
    let data = {
        let _s = tracer.span("nn.dataset");
        DatasetKind::MnistLike.generate(NET_SEED)
    };
    let mut net = Mlp::new(&LAYOUT, NET_SEED);
    {
        let _s = tracer.span("nn.train");
        train(
            &mut net,
            &data.train,
            &TrainConfig {
                epochs: EPOCHS,
                learning_rate: 0.02,
                momentum: 0.5,
                lr_decay: 0.8,
                shuffle_seed: NET_SEED,
            },
        );
    }
    let qnet = {
        let _s = tracer.span("nn.quantize");
        QNetwork::from_mlp(&net)
    };
    let nominal_error = {
        let _s = tracer.span("nn.classify");
        qnet.to_mlp().error_on(&data.test)
    };
    let weights = net.layers().iter().map(|l| l.w.data().len()).collect();
    Fixture {
        data,
        qnet,
        weights,
        nominal_error,
    }
}
