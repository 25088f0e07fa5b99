//! Weight loading and fault-corrupted inference (§V-D of the paper).
//!
//! The accelerator writes the quantized network into BRAM once at nominal
//! voltage, then runs inference with the rail undervolted: every weight
//! read passes through the fault model, so `1→0` bit flips land on the
//! stored sign-magnitude words exactly as Fig. 10 describes. Biases never
//! touch BRAM (they live in flip-flops), so only weights corrupt.

use crate::placement::Placement;
use uvf_faults::ecc::{self, EccStats};
use uvf_faults::{FaultModel, ResolvedCondition};
use uvf_fpga::eccmode::{self, ECC_DATA_WORDS, ECC_WORDS_PER_BRAM};
use uvf_fpga::{Board, BoardError, BRAM_ROWS};
use uvf_nn::{decode_word, Dataset, Matrix, Mlp, QNetwork};
use uvf_trace::Tracer;

/// Which layers see faults during read-back — the per-layer vulnerability
/// study's knob (Fig. 13 isolates one layer at a time).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LayerFaults {
    /// Every layer reads through the fault model (normal undervolting).
    All,
    /// Clean read-back everywhere (the nominal-voltage reference).
    None,
    /// Faults confined to one layer.
    Only(usize),
    /// Faults everywhere except one layer.
    Except(usize),
}

impl LayerFaults {
    #[must_use]
    pub fn includes(self, layer: usize) -> bool {
        match self {
            LayerFaults::All => true,
            LayerFaults::None => false,
            LayerFaults::Only(l) => l == layer,
            LayerFaults::Except(l) => l != layer,
        }
    }
}

/// A quantized network mapped onto the board's BRAMs.
#[derive(Debug)]
pub struct MappedNetwork<'a> {
    qnet: &'a QNetwork,
    placement: Placement,
    /// Stored in the SECDED ECC layout (64+8 stripes) instead of one
    /// raw word per row. Set by [`MappedNetwork::load_ecc`].
    ecc: bool,
}

impl<'a> MappedNetwork<'a> {
    /// Write every layer's sign-magnitude words into its assigned BRAMs
    /// (one weight per row; tail rows of a layer's last BRAM stay zero).
    /// Do this at nominal voltage — writes to a crashed board fail.
    ///
    /// # Errors
    /// Propagates any [`BoardError`] from the row writes.
    ///
    /// # Panics
    /// If the placement layer count differs from the network's.
    pub fn load(
        board: &mut Board,
        qnet: &'a QNetwork,
        placement: Placement,
    ) -> Result<MappedNetwork<'a>, BoardError> {
        MappedNetwork::load_traced(board, qnet, placement, &Tracer::disabled())
    }

    /// [`MappedNetwork::load`] wrapped in a `weights_load` span, with the
    /// written word count reported as a counter. The stored image is
    /// identical with any tracer.
    ///
    /// # Errors
    /// Propagates any [`BoardError`] from the row writes.
    ///
    /// # Panics
    /// If the placement layer count differs from the network's.
    pub fn load_traced(
        board: &mut Board,
        qnet: &'a QNetwork,
        placement: Placement,
        tracer: &Tracer,
    ) -> Result<MappedNetwork<'a>, BoardError> {
        assert_eq!(placement.layers(), qnet.layers().len(), "layer count");
        let mut span =
            tracer.span_with("weights_load", vec![("layers", placement.layers().into())]);
        let mut written = 0u64;
        for (l, layer) in qnet.layers().iter().enumerate() {
            let words = layer.weights.encoded_words();
            for (i, chunk) in words.chunks(BRAM_ROWS).enumerate() {
                let bram = placement.layer(l)[i];
                for (row, &w) in chunk.iter().enumerate() {
                    board.write_row(bram, row as u32, w)?;
                }
            }
            written += words.len() as u64;
        }
        tracer.counter("weights_written", written);
        span.field("words", written.into());
        Ok(MappedNetwork {
            qnet,
            placement,
            ecc: false,
        })
    }

    /// Like [`MappedNetwork::load`], but store every layer in the
    /// SECDED ECC layout: weights packed four to a 72-bit codeword with
    /// the parity byte written into the same BRAM's parity region (see
    /// [`uvf_fpga::eccmode`]). The placement must have been built with
    /// the 896-word ECC capacity
    /// ([`Placement::contiguous_with_capacity`] /
    /// [`Placement::icbp_with_capacity`]).
    ///
    /// # Errors
    /// Propagates any [`BoardError`] from the row writes.
    ///
    /// # Panics
    /// If the placement layer count differs from the network's.
    pub fn load_ecc(
        board: &mut Board,
        qnet: &'a QNetwork,
        placement: Placement,
    ) -> Result<MappedNetwork<'a>, BoardError> {
        MappedNetwork::load_ecc_traced(board, qnet, placement, &Tracer::disabled())
    }

    /// [`MappedNetwork::load_ecc`] wrapped in a `weights_load` span.
    ///
    /// # Errors
    /// Propagates any [`BoardError`] from the row writes.
    ///
    /// # Panics
    /// If the placement layer count differs from the network's.
    pub fn load_ecc_traced(
        board: &mut Board,
        qnet: &'a QNetwork,
        placement: Placement,
        tracer: &Tracer,
    ) -> Result<MappedNetwork<'a>, BoardError> {
        assert_eq!(placement.layers(), qnet.layers().len(), "layer count");
        let mut span = tracer.span_with(
            "weights_load",
            vec![
                ("layers", placement.layers().into()),
                ("mode", "secded".into()),
            ],
        );
        let mut written = 0u64;
        for (l, layer) in qnet.layers().iter().enumerate() {
            let words = layer.weights.encoded_words();
            for (i, chunk) in words.chunks(ECC_WORDS_PER_BRAM).enumerate() {
                let bram = placement.layer(l)[i];
                let mut image = [0u16; BRAM_ROWS];
                for (cw, group) in chunk.chunks(ECC_DATA_WORDS).enumerate() {
                    let mut data = 0u64;
                    for (k, &w) in group.iter().enumerate() {
                        data |= u64::from(w) << (16 * k);
                    }
                    let coded = ecc::encode(data);
                    eccmode::store_codeword(&mut image, cw, coded.data, coded.parity);
                }
                for (row, &w) in image.iter().enumerate() {
                    board.write_row(bram, row as u32, w)?;
                }
            }
            written += words.len() as u64;
        }
        tracer.counter("weights_written", written);
        span.field("words", written.into());
        Ok(MappedNetwork {
            qnet,
            placement,
            ecc: true,
        })
    }

    #[must_use]
    pub fn placement(&self) -> &Placement {
        &self.placement
    }

    /// Is the network stored in the SECDED ECC layout?
    #[must_use]
    pub fn is_ecc(&self) -> bool {
        self.ecc
    }

    #[must_use]
    pub fn network(&self) -> &QNetwork {
        self.qnet
    }

    /// Read the whole network back out of BRAM and rebuild a float MLP.
    ///
    /// `condition` is the undervolted read condition (pass `None` for a
    /// clean nominal read); `faults` selects which layers it corrupts.
    /// The read is pure: the board and stored words are untouched.
    ///
    /// # Errors
    /// Propagates [`BoardError`] from the bulk reads (e.g. crashed board).
    pub fn read_back(
        &self,
        board: &Board,
        model: &FaultModel,
        condition: Option<&ResolvedCondition>,
        faults: LayerFaults,
    ) -> Result<Mlp, BoardError> {
        self.read_back_traced(board, model, condition, faults, &Tracer::disabled())
    }

    /// [`MappedNetwork::read_back`] wrapped in a `weights_read_back` span,
    /// with per-BRAM mask applications reported as kernel timings. The
    /// rebuilt MLP is identical with any tracer.
    ///
    /// # Errors
    /// Propagates [`BoardError`] from the bulk reads (e.g. crashed board).
    pub fn read_back_traced(
        &self,
        board: &Board,
        model: &FaultModel,
        condition: Option<&ResolvedCondition>,
        faults: LayerFaults,
        tracer: &Tracer,
    ) -> Result<Mlp, BoardError> {
        if self.ecc {
            return self
                .read_back_ecc_traced(board, model, condition, faults, tracer)
                .map(|(mlp, _)| mlp);
        }
        let _span = tracer.span_with(
            "weights_read_back",
            vec![("layers", self.qnet.layers().len().into())],
        );
        let mut matrices = Vec::with_capacity(self.qnet.layers().len());
        for (l, layer) in self.qnet.layers().iter().enumerate() {
            let n = layer.weights.len();
            let scale = layer.weights.scale();
            let mut data = Vec::with_capacity(n);
            for (i, &bram) in self.placement.layer(l).iter().enumerate() {
                let mut words = *board.read_bram(bram)?;
                if faults.includes(l) {
                    if let Some(res) = condition {
                        model
                            .fault_mask(bram, res)
                            .apply_all_traced(&mut words, tracer);
                    }
                }
                let take = (n - i * BRAM_ROWS).min(BRAM_ROWS);
                data.extend(
                    words[..take]
                        .iter()
                        .map(|&w| f32::from(decode_word(w)) * scale),
                );
            }
            matrices.push(Matrix::from_vec(
                layer.weights.rows(),
                layer.weights.cols(),
                data,
            ));
        }
        Ok(self.qnet.rebuild_with_weights(matrices))
    }

    /// ECC-mode read-back: decode every SECDED stripe through the fault
    /// model and rebuild the MLP, tallying correction outcomes.
    ///
    /// Singles are repaired, doubles (and wider detectable patterns)
    /// are flagged but their corrupted data bits flow into the weights
    /// — a real accelerator raises an interrupt it cannot service
    /// mid-inference — and silent miscorrections are counted against
    /// the fault-free stored image. The tallies surface as the
    /// `ecc_corrected` / `ecc_escaped` trace counters.
    ///
    /// # Errors
    /// Propagates [`BoardError`] from the bulk reads (e.g. crashed board).
    ///
    /// # Panics
    /// If the network was not loaded with [`MappedNetwork::load_ecc`].
    pub fn read_back_ecc(
        &self,
        board: &Board,
        model: &FaultModel,
        condition: Option<&ResolvedCondition>,
        faults: LayerFaults,
    ) -> Result<(Mlp, EccStats), BoardError> {
        self.read_back_ecc_traced(board, model, condition, faults, &Tracer::disabled())
    }

    /// [`MappedNetwork::read_back_ecc`] wrapped in a `weights_read_back`
    /// span, with the decode tallies emitted as trace counters.
    ///
    /// # Errors
    /// Propagates [`BoardError`] from the bulk reads (e.g. crashed board).
    ///
    /// # Panics
    /// If the network was not loaded with [`MappedNetwork::load_ecc`].
    pub fn read_back_ecc_traced(
        &self,
        board: &Board,
        model: &FaultModel,
        condition: Option<&ResolvedCondition>,
        faults: LayerFaults,
        tracer: &Tracer,
    ) -> Result<(Mlp, EccStats), BoardError> {
        assert!(self.ecc, "network was not loaded in ECC mode");
        let _span = tracer.span_with(
            "weights_read_back",
            vec![
                ("layers", self.qnet.layers().len().into()),
                ("mode", "secded".into()),
            ],
        );
        let mut stats = EccStats::default();
        let mut matrices = Vec::with_capacity(self.qnet.layers().len());
        let mut decoded = Vec::with_capacity(ECC_WORDS_PER_BRAM);
        for (l, layer) in self.qnet.layers().iter().enumerate() {
            let n = layer.weights.len();
            let scale = layer.weights.scale();
            let mut data = Vec::with_capacity(n);
            for (i, &bram) in self.placement.layer(l).iter().enumerate() {
                let clean = board.read_bram(bram)?;
                let mut words = *clean;
                if faults.includes(l) {
                    if let Some(res) = condition {
                        model
                            .fault_mask(bram, res)
                            .apply_all_traced(&mut words, tracer);
                    }
                }
                let take = (n - i * ECC_WORDS_PER_BRAM).min(ECC_WORDS_PER_BRAM);
                decoded.clear();
                let batch =
                    ecc::decode_image(&words, clean, take.div_ceil(ECC_DATA_WORDS), &mut decoded);
                stats.merge(&batch);
                data.extend(
                    decoded[..take]
                        .iter()
                        .map(|&w| f32::from(decode_word(w)) * scale),
                );
            }
            matrices.push(Matrix::from_vec(
                layer.weights.rows(),
                layer.weights.cols(),
                data,
            ));
        }
        tracer.counter("ecc_corrected", stats.corrected);
        tracer.counter("ecc_escaped", stats.escaped());
        Ok((self.qnet.rebuild_with_weights(matrices), stats))
    }
}

/// Scores the read-back networks of a voltage ladder, one rung after the
/// other. A rung whose read-back is bit-identical to the previous rung's
/// — common above `Vmin`, and wherever a step adds no observable flip —
/// reuses that rung's error instead of classifying the test split again:
/// classification is a pure function of the network's bits, so the reused
/// error is exactly the one a fresh `error_on` would return.
pub(crate) struct RungScorer<'d> {
    data: &'d Dataset,
    previous: Option<(Mlp, f64)>,
}

impl<'d> RungScorer<'d> {
    pub(crate) fn new(data: &'d Dataset) -> RungScorer<'d> {
        RungScorer {
            data,
            previous: None,
        }
    }

    /// Classification error of `net` on the scorer's dataset.
    pub(crate) fn error(&mut self, net: Mlp) -> f64 {
        if let Some((prev, error)) = &self.previous {
            if same_bits(prev, &net) {
                return *error;
            }
        }
        let error = net.error_on(self.data);
        self.previous = Some((net, error));
        error
    }
}

/// Are two networks the same bits — every weight and bias compared with
/// `to_bits`, not `PartialEq`, which would equate `0.0` with `-0.0`?
fn same_bits(a: &Mlp, b: &Mlp) -> bool {
    let bits = |v: &[f32], w: &[f32]| {
        v.len() == w.len() && v.iter().zip(w).all(|(x, y)| x.to_bits() == y.to_bits())
    };
    a.layers().len() == b.layers().len()
        && a.layers().iter().zip(b.layers()).all(|(x, y)| {
            x.w.rows() == y.w.rows() && bits(x.w.data(), y.w.data()) && bits(&x.b, &y.b)
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use uvf_faults::ReadCondition;
    use uvf_fpga::{Millivolts, Platform, PlatformKind, Rail, DEFAULT_TEMPERATURE_C};
    use uvf_nn::{Mlp, QNetwork};

    fn small_setup() -> (Board, QNetwork, Vec<usize>) {
        let board = Board::with_chip_seed(Platform::new(PlatformKind::Vc707), 1);
        // Layer 0 fills four BRAMs completely (256·16 = 4096 rows), so the
        // chip's weak cells land on rows that actually hold weights.
        let net = Mlp::new(&[256, 16, 8], 7);
        let weights: Vec<usize> = net.layers().iter().map(|l| l.w.data().len()).collect();
        (board, QNetwork::from_mlp(&net), weights)
    }

    #[test]
    fn clean_readback_is_exact() {
        let (mut board, qnet, weights) = small_setup();
        let mapped =
            MappedNetwork::load(&mut board, &qnet, Placement::contiguous(&weights)).unwrap();
        let read = mapped
            .read_back(
                &board,
                &FaultModel::new(*board.platform()),
                None,
                LayerFaults::All,
            )
            .unwrap();
        assert_eq!(read, qnet.to_mlp());
    }

    #[test]
    fn undervolted_readback_flips_only_selected_layers() {
        let (mut board, qnet, weights) = small_setup();
        let model = FaultModel::with_chip_seed(*board.platform(), board.chip_seed());
        let mapped =
            MappedNetwork::load(&mut board, &qnet, Placement::contiguous(&weights)).unwrap();
        // Deep undervolt so *some* weight is guaranteed to flip.
        let cond = model.resolve(&ReadCondition {
            v: Millivolts(board.platform().rail(Rail::Vccbram).vcrash.0),
            temperature_c: DEFAULT_TEMPERATURE_C,
            run_seed: 3,
        });
        let clean = mapped
            .read_back(&board, &model, None, LayerFaults::All)
            .unwrap();
        let all = mapped
            .read_back(&board, &model, Some(&cond), LayerFaults::All)
            .unwrap();
        assert_ne!(all, clean, "a vcrash-level read must corrupt something");
        let none = mapped
            .read_back(&board, &model, Some(&cond), LayerFaults::None)
            .unwrap();
        assert_eq!(none, clean, "LayerFaults::None masks everything");
        // Only(l) and Except(l) partition the corruption.
        let only0 = mapped
            .read_back(&board, &model, Some(&cond), LayerFaults::Only(0))
            .unwrap();
        let except0 = mapped
            .read_back(&board, &model, Some(&cond), LayerFaults::Except(0))
            .unwrap();
        assert_eq!(only0.layers()[1], clean.layers()[1]);
        assert_eq!(except0.layers()[0], clean.layers()[0]);
        assert_eq!(all.layers()[0], only0.layers()[0]);
        assert_eq!(all.layers()[1], except0.layers()[1]);
    }

    #[test]
    fn ecc_clean_readback_is_exact_and_tallies_zero() {
        let (mut board, qnet, weights) = small_setup();
        let placement = Placement::contiguous_with_capacity(&weights, uvf_fpga::ECC_WORDS_PER_BRAM);
        let mapped = MappedNetwork::load_ecc(&mut board, &qnet, placement).unwrap();
        assert!(mapped.is_ecc());
        let model = FaultModel::new(*board.platform());
        let (read, stats) = mapped
            .read_back_ecc(&board, &model, None, LayerFaults::All)
            .unwrap();
        assert_eq!(read, qnet.to_mlp());
        assert!(stats.words > 0);
        assert_eq!(
            (stats.raw_flips, stats.corrected, stats.escaped()),
            (0, 0, 0)
        );
    }

    #[test]
    fn ecc_corrects_single_flips_under_undervolt() {
        let (mut board, qnet, weights) = small_setup();
        let model = FaultModel::with_chip_seed(*board.platform(), board.chip_seed());
        let placement = Placement::contiguous_with_capacity(&weights, uvf_fpga::ECC_WORDS_PER_BRAM);
        let mapped = MappedNetwork::load_ecc(&mut board, &qnet, placement).unwrap();
        let cond = model.resolve(&ReadCondition {
            v: Millivolts(board.platform().rail(Rail::Vccbram).vcrash.0),
            temperature_c: DEFAULT_TEMPERATURE_C,
            run_seed: 3,
        });
        let (clean, _) = mapped
            .read_back_ecc(&board, &model, None, LayerFaults::All)
            .unwrap();
        let (read, stats) = mapped
            .read_back_ecc(&board, &model, Some(&cond), LayerFaults::All)
            .unwrap();
        assert!(stats.raw_flips > 0, "vcrash read must flip raw bits");
        assert!(stats.corrected > 0, "singles must be corrected");
        // SECDED semantics: the rebuilt net deviates from the clean one
        // only if some word escaped correction.
        if stats.escaped() == 0 {
            assert_eq!(read, clean);
        } else {
            assert_ne!(read, clean);
        }
        // The generic read-back path on an ECC net routes through the
        // decoder, dropping only the tallies.
        let via_generic = mapped
            .read_back(&board, &model, Some(&cond), LayerFaults::All)
            .unwrap();
        assert_eq!(via_generic, read);
    }

    #[test]
    fn bitwise_comparison_tells_one_flipped_weight_bit_apart() {
        let net = Mlp::new(&[6, 5, 3], 1);
        assert!(same_bits(&net, &net.clone()));
        for (layer, r, c) in [(0, 0, 0), (0, 4, 5), (1, 2, 3)] {
            for bit in [0, 15, 31] {
                let mut flipped = net.clone();
                let w = &mut flipped.layers_mut()[layer].w;
                w.set(r, c, f32::from_bits(w.get(r, c).to_bits() ^ (1 << bit)));
                assert!(
                    !same_bits(&net, &flipped),
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
        assert!(!same_bits(&zero, &neg_zero));
    }

    #[test]
    fn rung_scorer_reuses_only_identical_read_backs() {
        let data = uvf_nn::DatasetKind::ForestLike.generate(5).test;
        let net = Mlp::new(&[54, 9, 7], 5);
        let mut changed = net.clone();
        let w = &mut changed.layers_mut()[1].w;
        w.set(0, 0, w.get(0, 0) * 64.0);
        let mut scorer = RungScorer::new(&data);
        for n in [&net, &net, &changed, &changed, &net] {
            assert_eq!(
                scorer.error(n.clone()).to_bits(),
                n.error_on(&data).to_bits()
            );
        }
    }

    #[test]
    fn readback_is_deterministic() {
        let (mut board, qnet, weights) = small_setup();
        let model = FaultModel::with_chip_seed(*board.platform(), board.chip_seed());
        let mapped =
            MappedNetwork::load(&mut board, &qnet, Placement::contiguous(&weights)).unwrap();
        let cond = model.resolve(&ReadCondition {
            v: Millivolts(board.platform().rail(Rail::Vccbram).vcrash.0 + 5),
            temperature_c: DEFAULT_TEMPERATURE_C,
            run_seed: 9,
        });
        let a = mapped
            .read_back(&board, &model, Some(&cond), LayerFaults::All)
            .unwrap();
        let b = mapped
            .read_back(&board, &model, Some(&cond), LayerFaults::All)
            .unwrap();
        assert_eq!(a, b);
    }
}

#[cfg(test)]
mod scratch {
    use super::*;
    use uvf_faults::ReadCondition;
    use uvf_fpga::{BramId, Platform, PlatformKind, Rail, DEFAULT_TEMPERATURE_C};

    /// Always-on version of [`probe_last_layer_weakness`]: only the chip
    /// the Fig. 13/14 tests pin (seed 21), gating the property the full
    /// scan exists to find — the output layer's BRAM window (1456-1457
    /// under contiguous placement) holds weak cells that actually flip at
    /// `Vcrash` on a cold die.
    #[test]
    fn pinned_chip_output_window_is_weak_at_vcrash() {
        let platform = Platform::new(PlatformKind::Vc707);
        let model = FaultModel::with_chip_seed(platform, 21);
        let cond = model.resolve(&ReadCondition {
            v: platform.rail(Rail::Vccbram).vcrash,
            temperature_c: 0.0,
            run_seed: 1,
        });
        let mut weak_total = 0usize;
        let mut flips_total = 0u32;
        for b in [1456u32, 1457] {
            weak_total += model.weak_cells(BramId(b)).len();
            flips_total += model.fault_mask(BramId(b), &cond).flip_cells();
        }
        println!("chip=21 weak={weak_total} flips_at_vcrash={flips_total}");
        assert!(
            weak_total > 0,
            "chip 21's output window lost its weak cells"
        );
        assert!(
            flips_total > 0,
            "no flips at Vcrash in BRAMs 1456-1457; the Fig. 13 story needs them",
        );
        // A well-above-Vmin read of the same window stays clean.
        let safe = model.resolve(&ReadCondition {
            v: platform.rail(Rail::Vccbram).nominal,
            temperature_c: DEFAULT_TEMPERATURE_C,
            run_seed: 1,
        });
        let safe_flips: u32 = [1456u32, 1457]
            .iter()
            .map(|&b| model.fault_mask(BramId(b), &safe).flip_cells())
            .sum();
        assert_eq!(safe_flips, 0, "nominal voltage must not flip weights");
    }

    #[test]
    #[ignore]
    fn probe_last_layer_weakness() {
        let platform = Platform::new(PlatformKind::Vc707);
        // The MNIST net's last layer sits on BRAMs 1456-1457 under the
        // default contiguous placement.
        for chip_seed in 1u64..=20 {
            let model = FaultModel::with_chip_seed(platform, chip_seed);
            let vcrash = platform.rail(Rail::Vccbram).vcrash;
            let cond = model.resolve(&ReadCondition {
                v: vcrash,
                temperature_c: DEFAULT_TEMPERATURE_C,
                run_seed: 0,
            });
            let weak: Vec<usize> = [1456u32, 1457]
                .iter()
                .map(|&b| model.weak_cells(BramId(b)).len())
                .collect();
            let flips: Vec<u32> = [1456u32, 1457]
                .iter()
                .map(|&b| model.fault_mask(BramId(b), &cond).flip_cells())
                .collect();
            println!("chip={chip_seed} weak={weak:?} flips_at_vcrash={flips:?}");
        }
    }
}
