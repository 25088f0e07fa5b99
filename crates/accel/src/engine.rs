//! Weight loading and fault-corrupted inference (§V-D of the paper).
//!
//! The accelerator writes the quantized network into BRAM once at nominal
//! voltage, then runs inference with the rail undervolted: every weight
//! read passes through the fault model, so `1→0` bit flips land on the
//! stored sign-magnitude words exactly as Fig. 10 describes. Biases never
//! touch BRAM (they live in flip-flops), so only weights corrupt.
//!
//! Every §V ladder is built by one crate-private `ladder` and scored by
//! one rung loop (`MappedNetwork::score_levels`): the Pareto sweep runs it
//! on the raw contiguous placement, the mitigation shoot-out once per mode.
//! That loop and the Fig. 13 layer study step one crate-private `Walk`,
//! whose carried read-back is the one place that finds what changed
//! between two reads.

use crate::placement::Placement;
use uvf_faults::ecc::{self, EccStats};
use uvf_faults::{FaultMask, FaultModel, ReadCondition, ResolvedCondition};
use uvf_fpga::eccmode::{self, ECC_DATA_WORDS, ECC_WORDS_PER_BRAM};
use uvf_fpga::{Board, BoardError, Millivolts, RailLandmarks, BRAM_ROWS};
use uvf_nn::score::Change;
use uvf_nn::{decode_word, Mlp, QNetwork, Scorer};
use uvf_trace::{Tracer, Value};

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
    /// raw word per row. Set by [`MappedNetwork::load_ecc_traced`].
    ecc: bool,
}

impl<'a> MappedNetwork<'a> {
    /// Write every layer's sign-magnitude words into its assigned BRAMs
    /// (one weight per row; tail rows of a layer's last BRAM stay zero)
    /// inside a `weights_load` span, with the written word count reported
    /// as a counter. Do this at nominal voltage — writes to a crashed
    /// board fail. The stored image is identical with any tracer.
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
        MappedNetwork::store(board, qnet, placement, false, tracer)
    }

    /// Like [`MappedNetwork::load_traced`], but store every layer in the
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
    pub fn load_ecc_traced(
        board: &mut Board,
        qnet: &'a QNetwork,
        placement: Placement,
        tracer: &Tracer,
    ) -> Result<MappedNetwork<'a>, BoardError> {
        MappedNetwork::store(board, qnet, placement, true, tracer)
    }

    /// The one store loop behind both layouts: raw writes a layer's words
    /// one per row, SECDED writes each BRAM's whole striped image.
    pub(crate) fn store(
        board: &mut Board,
        qnet: &'a QNetwork,
        placement: Placement,
        ecc: bool,
        tracer: &Tracer,
    ) -> Result<MappedNetwork<'a>, BoardError> {
        assert_eq!(placement.layers(), qnet.layers().len(), "layer count");
        let mut span = tracer.span_with("weights_load", mode_fields(placement.layers(), ecc));
        let capacity = words_per_bram(ecc);
        let mut written = 0u64;
        for (l, layer) in qnet.layers().iter().enumerate() {
            let words = layer.weights.encoded_words();
            for (chunk, &bram) in words.chunks(capacity).zip(placement.layer(l)) {
                let image;
                let rows = if ecc {
                    image = secded_image(chunk);
                    &image[..]
                } else {
                    chunk
                };
                for (row, &w) in rows.iter().enumerate() {
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
            ecc,
        })
    }

    #[must_use]
    pub fn placement(&self) -> &Placement {
        &self.placement
    }

    #[must_use]
    pub fn network(&self) -> &QNetwork {
        self.qnet
    }

    /// Read the whole network back out of BRAM and rebuild a float MLP,
    /// inside a `weights_read_back` span with per-BRAM mask applications
    /// reported as `mask_apply` kernel timings.
    ///
    /// `condition` is the undervolted read condition (pass `None` for a
    /// clean nominal read); `faults` selects which layers it corrupts.
    /// The read is pure: the board and stored words are untouched, and the
    /// rebuilt MLP is identical with any tracer. An ECC-stored network
    /// decodes through SECDED (see [`MappedNetwork::read_back_ecc_traced`])
    /// and drops the tallies.
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
        self.read(board, model, condition, faults, tracer)
            .map(|(mlp, _)| mlp)
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
    /// If the network was not loaded with [`MappedNetwork::load_ecc_traced`].
    pub fn read_back_ecc_traced(
        &self,
        board: &Board,
        model: &FaultModel,
        condition: Option<&ResolvedCondition>,
        faults: LayerFaults,
        tracer: &Tracer,
    ) -> Result<(Mlp, EccStats), BoardError> {
        assert!(self.ecc, "network was not loaded in ECC mode");
        let (mlp, stats) = self.read(board, model, condition, faults, tracer)?;
        Ok((mlp, stats.expect("ECC read-backs tally")))
    }

    /// One read-back with nothing carried over: every BRAM is read.
    fn read(
        &self,
        board: &Board,
        model: &FaultModel,
        condition: Option<&ResolvedCondition>,
        faults: LayerFaults,
        tracer: &Tracer,
    ) -> Result<(Mlp, Option<EccStats>), BoardError> {
        let mut back = ReadBack::new(self.qnet.to_mlp());
        let (stats, _) = self.read_level(&mut back, board, model, condition, faults, tracer)?;
        Ok((back.net, stats))
    }

    /// The one read loop behind both layouts and every level of a ladder:
    /// per BRAM, corrupt the stored image through the fault mask, then
    /// decode it raw or through SECDED and compare it, weight row by weight
    /// row, with `back`'s net, copying the rows that differ. A BRAM whose
    /// mask flips the same cells as on `back`'s last level reads back the
    /// same words, so it keeps its weights and tallies from then; on the
    /// first level every BRAM is read and compared with the start net.
    /// Returns the tallies (`Some` exactly for an ECC net) and how the net
    /// changed (`None`: in no bit).
    fn read_level(
        &self,
        back: &mut ReadBack,
        board: &Board,
        model: &FaultModel,
        condition: Option<&ResolvedCondition>,
        faults: LayerFaults,
        tracer: &Tracer,
    ) -> Result<(Option<EccStats>, Option<Change>), BoardError> {
        let _span = tracer.span_with(
            "weights_read_back",
            mode_fields(self.qnet.layers().len(), self.ecc),
        );
        let capacity = words_per_bram(self.ecc);
        let mut change = None;
        let mut stats = EccStats::default();
        let mut decoded = Vec::new();
        let mut k = 0;
        for (l, layer) in self.qnet.layers().iter().enumerate() {
            let n = layer.weights.len();
            let (scale, cols) = (layer.weights.scale(), layer.weights.cols());
            for (i, &bram) in self.placement.layer(l).iter().enumerate() {
                let mask = condition
                    .filter(|_| faults.includes(l))
                    .map(|res| model.fault_mask(bram, res));
                // A clean mask reads back like no mask at all.
                let faulty = mask.as_ref().filter(|mask| !mask.is_clean());
                let reread = back
                    .brams
                    .get(k)
                    .is_none_or(|last| last.mask.as_ref() != faulty);
                let clean = board.read_bram(bram)?;
                let mut words = reread.then_some(*clean);
                if let Some(mask) = &mask {
                    // Timed on every faulty level, re-read or not, so the
                    // event stream does not depend on what was carried over.
                    tracer.time("mask_apply", BRAM_ROWS as u64, || {
                        if let Some(words) = &mut words {
                            mask.apply_all(words);
                        }
                    });
                }
                let bram_stats = match words {
                    None => back.brams[k].stats,
                    Some(words) => {
                        let (offset, take) = (i * capacity, (n - i * capacity).min(capacity));
                        let (stored, bram_stats) = if self.ecc {
                            decoded.clear();
                            let codewords = take.div_ceil(ECC_DATA_WORDS);
                            let tally = ecc::decode_image(&words, clean, codewords, &mut decoded);
                            (&decoded[..take], tally)
                        } else {
                            (&words[..take], EccStats::default())
                        };
                        let weights = back.net.layers_mut()[l].w.data_mut();
                        let mut fresh = [0.0f32; BRAM_ROWS];
                        for (v, &w) in fresh.iter_mut().zip(stored) {
                            *v = f32::from(decode_word(w)) * scale;
                        }
                        // Compare and copy row by row: the weight rows of
                        // layer `l` this BRAM holds, cut at its ends.
                        let mut at = offset;
                        while at < offset + take {
                            let end = ((at / cols + 1) * cols).min(offset + take);
                            let new = &fresh[at - offset..end - offset];
                            if !same_bits(new, &weights[at..end]) {
                                weights[at..end].copy_from_slice(new);
                                note_row(&mut change, l, at / cols);
                            }
                            at = end;
                        }
                        let read = BramRead {
                            mask: mask.filter(|mask| !mask.is_clean()),
                            stats: bram_stats,
                        };
                        match back.brams.get_mut(k) {
                            Some(last) => *last = read,
                            None => back.brams.push(read),
                        }
                        bram_stats
                    }
                };
                stats.merge(&bram_stats);
                k += 1;
            }
        }
        let stats = self.ecc.then(|| {
            tracer.counter("ecc_corrected", stats.corrected);
            tracer.counter("ecc_escaped", stats.escaped());
            stats
        });
        Ok((stats, change))
    }

    /// Score every level of a ladder on this network: read it back with
    /// every layer faulty (`None` is a clean nominal read) and classify it,
    /// walking from `start` (see [`Walk::new`]). Returns each level's error
    /// and, for an ECC-stored net, its decode tallies.
    pub(crate) fn score_levels(
        &self,
        board: &Board,
        model: &FaultModel,
        levels: &[Option<ReadCondition>],
        start: (Mlp, Scorer<'_>),
        tracer: &Tracer,
    ) -> Result<Vec<(f64, Option<EccStats>)>, BoardError> {
        let mut walk = Walk::new(self, board, model, start, tracer);
        levels
            .iter()
            .map(|level| walk.step(level.map(|c| model.resolve(&c)).as_ref(), LayerFaults::All))
            .collect()
    }
}

/// A walk over reads of one network, each scored on one dataset: one
/// read-back carried from read to read, so a read re-reads only the BRAMs
/// whose fault mask changed, and one [`Scorer`] that recomputes only the
/// weight rows those BRAMs changed.
///
/// A walk starts from a net and the scorer that scored it (or a new
/// scorer): normally `qnet.to_mlp()`, the net a clean read decodes. Its
/// first read re-reads every BRAM and names only the rows that differ from
/// the start net, so a walk whose scorer already scored the clean net
/// reuses that error on its nominal read.
pub(crate) struct Walk<'w> {
    mapped: &'w MappedNetwork<'w>,
    board: &'w Board,
    model: &'w FaultModel,
    tracer: &'w Tracer,
    back: ReadBack,
    scorer: Scorer<'w>,
}

impl<'w> Walk<'w> {
    /// A walk from `start`: the net the first read is compared with and
    /// the scorer that last scored it.
    pub(crate) fn new(
        mapped: &'w MappedNetwork<'w>,
        board: &'w Board,
        model: &'w FaultModel,
        (net, scorer): (Mlp, Scorer<'w>),
        tracer: &'w Tracer,
    ) -> Walk<'w> {
        Walk {
            mapped,
            board,
            model,
            tracer,
            back: ReadBack::new(net),
            scorer,
        }
    }

    /// Read the network at `condition` (`None`: a clean nominal read) with
    /// faults in the layers `faults` selects, and classify the dataset.
    /// Returns the error and, for an ECC-stored net, the decode tallies.
    ///
    /// # Errors
    /// Propagates [`BoardError`] from the bulk reads (e.g. crashed board).
    pub(crate) fn step(
        &mut self,
        condition: Option<&ResolvedCondition>,
        faults: LayerFaults,
    ) -> Result<(f64, Option<EccStats>), BoardError> {
        let (stats, change) = self.mapped.read_level(
            &mut self.back,
            self.board,
            self.model,
            condition,
            faults,
            self.tracer,
        )?;
        Ok((self.scorer.rescore(&self.back.net, change.as_ref()), stats))
    }
}

/// A read-back carried from one read of a walk to the next: the net it
/// decoded and, per BRAM in placement order, what its last read saw.
struct ReadBack {
    net: Mlp,
    brams: Vec<BramRead>,
}

impl ReadBack {
    /// Nothing read yet: the first read re-reads every BRAM and compares
    /// it with `net`.
    fn new(net: Mlp) -> ReadBack {
        ReadBack {
            net,
            brams: Vec::new(),
        }
    }
}

/// One BRAM's last read: its fault mask (`None` for a clean read) and its
/// SECDED tallies.
struct BramRead {
    mask: Option<FaultMask>,
    stats: EccStats,
}

/// `a` and `b` hold the same bits (`0.0` and `-0.0` differ).
fn same_bits(a: &[f32], b: &[f32]) -> bool {
    let diff = a
        .iter()
        .zip(b)
        .fold(0, |d, (x, y)| d | (x.to_bits() ^ y.to_bits()));
    diff == 0
}

/// Record that `row` of `layer` changed, if `layer` is the first changed
/// one so far: rows arrive in ascending order, layer after layer.
fn note_row(change: &mut Option<Change>, layer: usize, row: usize) {
    match change {
        None => {
            *change = Some(Change {
                layer,
                rows: vec![row],
            });
        }
        Some(c) if c.layer == layer && c.rows.last() != Some(&row) => c.rows.push(row),
        Some(_) => {}
    }
}

/// Weights one BRAM holds: one per row raw, [`ECC_WORDS_PER_BRAM`] in
/// the SECDED layout.
pub(crate) fn words_per_bram(ecc: bool) -> usize {
    if ecc {
        ECC_WORDS_PER_BRAM
    } else {
        BRAM_ROWS
    }
}

/// Span fields of a load or read-back: the layer count, plus
/// `"mode": "secded"` for the ECC layout.
fn mode_fields(layers: usize, ecc: bool) -> Vec<(&'static str, Value)> {
    let mut fields = vec![("layers", layers.into())];
    if ecc {
        fields.push(("mode", "secded".into()));
    }
    fields
}

/// One BRAM's SECDED image of up to [`ECC_WORDS_PER_BRAM`] weights: four
/// words to a 72-bit codeword, parity in the same array.
fn secded_image(words: &[u16]) -> [u16; BRAM_ROWS] {
    let mut image = [0u16; BRAM_ROWS];
    for (cw, group) in words.chunks(ECC_DATA_WORDS).enumerate() {
        let mut data = 0u64;
        for (k, &w) in group.iter().enumerate() {
            data |= u64::from(w) << (16 * k);
        }
        let coded = ecc::encode(data);
        eccmode::store_codeword(&mut image, cw, coded.data, coded.parity);
    }
    image
}

/// The levels of a ladder walk: a clean nominal read, then one read per rung.
pub(crate) fn nominal_then(
    rungs: &[Millivolts],
    temperature_c: f64,
    run_seed: u64,
) -> Vec<Option<ReadCondition>> {
    std::iter::once(None)
        .chain(rungs.iter().map(|&v| {
            Some(ReadCondition {
                v,
                temperature_c,
                run_seed,
            })
        }))
        .collect()
}

/// The undervolting ladder: from `Vmin + start_above_vmin_mv` down to
/// `floor_mv` in `step_mv` decrements (a zero step walks 1 mV).
pub(crate) fn ladder(
    rail: RailLandmarks,
    start_above_vmin_mv: u32,
    step_mv: u32,
    floor_mv: u32,
) -> Vec<Millivolts> {
    (floor_mv..=rail.vmin.0 + start_above_vmin_mv)
        .rev()
        .step_by(step_mv.max(1) as usize)
        .map(Millivolts)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use uvf_faults::ReadCondition;
    use uvf_fpga::{Millivolts, Platform, PlatformKind, Rail, DEFAULT_TEMPERATURE_C};
    use uvf_nn::{Mlp, QNetwork};
    use uvf_trace::MemorySink;

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
        let off = Tracer::disabled();
        let (mut board, qnet, weights) = small_setup();
        let mapped =
            MappedNetwork::load_traced(&mut board, &qnet, Placement::contiguous(&weights), &off)
                .unwrap();
        let read = mapped
            .read_back_traced(
                &board,
                &FaultModel::new(*board.platform()),
                None,
                LayerFaults::All,
                &off,
            )
            .unwrap();
        assert_eq!(read, qnet.to_mlp());
    }

    #[test]
    fn undervolted_readback_flips_only_selected_layers() {
        let off = Tracer::disabled();
        let (mut board, qnet, weights) = small_setup();
        let model = FaultModel::with_chip_seed(*board.platform(), board.chip_seed());
        let mapped =
            MappedNetwork::load_traced(&mut board, &qnet, Placement::contiguous(&weights), &off)
                .unwrap();
        // Deep undervolt so *some* weight is guaranteed to flip.
        let cond = model.resolve(&ReadCondition {
            v: Millivolts(board.platform().rail(Rail::Vccbram).vcrash.0),
            temperature_c: DEFAULT_TEMPERATURE_C,
            run_seed: 3,
        });
        let clean = mapped
            .read_back_traced(&board, &model, None, LayerFaults::All, &off)
            .unwrap();
        let all = mapped
            .read_back_traced(&board, &model, Some(&cond), LayerFaults::All, &off)
            .unwrap();
        assert_ne!(all, clean, "a vcrash-level read must corrupt something");
        let none = mapped
            .read_back_traced(&board, &model, Some(&cond), LayerFaults::None, &off)
            .unwrap();
        assert_eq!(none, clean, "LayerFaults::None masks everything");
        // Only(l) and Except(l) partition the corruption.
        let only0 = mapped
            .read_back_traced(&board, &model, Some(&cond), LayerFaults::Only(0), &off)
            .unwrap();
        let except0 = mapped
            .read_back_traced(&board, &model, Some(&cond), LayerFaults::Except(0), &off)
            .unwrap();
        assert_eq!(only0.layers()[1], clean.layers()[1]);
        assert_eq!(except0.layers()[0], clean.layers()[0]);
        assert_eq!(all.layers()[0], only0.layers()[0]);
        assert_eq!(all.layers()[1], except0.layers()[1]);
    }

    #[test]
    fn ecc_clean_readback_is_exact_and_tallies_zero() {
        let off = Tracer::disabled();
        let (mut board, qnet, weights) = small_setup();
        let placement = Placement::contiguous_with_capacity(&weights, uvf_fpga::ECC_WORDS_PER_BRAM);
        let mapped = MappedNetwork::load_ecc_traced(&mut board, &qnet, placement, &off).unwrap();
        let model = FaultModel::new(*board.platform());
        let (read, stats) = mapped
            .read_back_ecc_traced(&board, &model, None, LayerFaults::All, &off)
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
        let off = Tracer::disabled();
        let (mut board, qnet, weights) = small_setup();
        let model = FaultModel::with_chip_seed(*board.platform(), board.chip_seed());
        let placement = Placement::contiguous_with_capacity(&weights, uvf_fpga::ECC_WORDS_PER_BRAM);
        let mapped = MappedNetwork::load_ecc_traced(&mut board, &qnet, placement, &off).unwrap();
        let cond = model.resolve(&ReadCondition {
            v: Millivolts(board.platform().rail(Rail::Vccbram).vcrash.0),
            temperature_c: DEFAULT_TEMPERATURE_C,
            run_seed: 3,
        });
        let (clean, _) = mapped
            .read_back_ecc_traced(&board, &model, None, LayerFaults::All, &off)
            .unwrap();
        let (read, stats) = mapped
            .read_back_ecc_traced(&board, &model, Some(&cond), LayerFaults::All, &off)
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
            .read_back_traced(&board, &model, Some(&cond), LayerFaults::All, &off)
            .unwrap();
        assert_eq!(via_generic, read);
    }

    /// Where `net` first differs from `last` in weight bits, as a
    /// read-back reports it: the first changed layer and its rows.
    fn weight_change(last: &Mlp, net: &Mlp) -> Option<Change> {
        let mut layers = last.layers().iter().zip(net.layers()).enumerate();
        layers.find_map(|(layer, (a, b))| {
            let rows: Vec<usize> = (0..b.out_dim())
                .filter(|&r| !same_bits(a.w.row(r), b.w.row(r)))
                .collect();
            (!rows.is_empty()).then_some(Change { layer, rows })
        })
    }

    #[test]
    fn carried_read_backs_match_fresh_ones_level_by_level() {
        let off = Tracer::disabled();
        for ecc in [false, true] {
            let (mut board, qnet, weights) = small_setup();
            let model = FaultModel::with_chip_seed(*board.platform(), board.chip_seed());
            let placement = Placement::contiguous_with_capacity(&weights, words_per_bram(ecc));
            let mapped = MappedNetwork::store(&mut board, &qnet, placement, ecc, &off).unwrap();
            let vcrash = board.platform().rail(Rail::Vccbram).vcrash.0;
            // Down, a repeat, back to a clean read, and up again.
            let levels = [None, Some(vcrash + 20), Some(vcrash), Some(vcrash)]
                .into_iter()
                .chain([None, Some(vcrash - 10), Some(vcrash + 20), Some(vcrash)]);
            let mut back = ReadBack::new(qnet.to_mlp());
            // The first read is compared with the start net too.
            let mut last = Some(qnet.to_mlp());
            let (mut repeats, mut changes, mut tallies) = (0, 0, Vec::new());
            for v in levels {
                let res = v.map(|v| {
                    model.resolve(&ReadCondition {
                        v: Millivolts(v),
                        temperature_c: DEFAULT_TEMPERATURE_C,
                        run_seed: 3,
                    })
                });
                let (stats, change) = mapped
                    .read_level(
                        &mut back,
                        &board,
                        &model,
                        res.as_ref(),
                        LayerFaults::All,
                        &off,
                    )
                    .unwrap();
                let (fresh, fresh_stats) = mapped
                    .read(&board, &model, res.as_ref(), LayerFaults::All, &off)
                    .unwrap();
                assert_eq!((stats, ecc), (fresh_stats, fresh_stats.is_some()), "{v:?}");
                if !tallies.contains(&stats) {
                    tallies.push(stats);
                }
                assert!(
                    weight_change(&back.net, &fresh).is_none(),
                    "{v:?}: stale weights"
                );
                if let Some(last) = &last {
                    assert_eq!(change, weight_change(last, &fresh), "{v:?}");
                    if change.is_some() {
                        changes += 1;
                    } else {
                        repeats += 1;
                    }
                }
                last = Some(fresh);
            }
            // Raw reads change the weights and repeat; SECDED repairs every
            // flip here, so its tallies move instead.
            if ecc {
                assert!(tallies.len() >= 3, "{tallies:?}");
            } else {
                assert!(
                    repeats > 0 && changes > 2,
                    "{repeats} repeats, {changes} changes"
                );
            }
        }
    }

    /// An untrained `[54, 64, 7]` net, the Forest-like split it scores on,
    /// VC707 die 1, and the net's contiguous placement for the raw or the
    /// SECDED layout.
    fn walk_setup(ecc: bool) -> (uvf_nn::Dataset, QNetwork, Board, FaultModel, Placement) {
        let data = uvf_nn::DatasetKind::ForestLike.generate(2).test;
        let net = Mlp::new(&[54, 64, 7], 2);
        let weights: Vec<usize> = net.layers().iter().map(|l| l.w.data().len()).collect();
        let board = Board::with_chip_seed(Platform::new(PlatformKind::Vc707), 1);
        let model = FaultModel::with_chip_seed(*board.platform(), board.chip_seed());
        let placement = Placement::contiguous_with_capacity(&weights, words_per_bram(ecc));
        (data, QNetwork::from_mlp(&net), board, model, placement)
    }

    /// A clean read, then a ladder that goes down past `Vcrash`, back to
    /// it, and ends on a nominal-voltage rung where every mask is clean.
    fn walk_levels(board: &Board) -> Vec<Option<ReadCondition>> {
        let rail = board.platform().rail(Rail::Vccbram);
        let below = Millivolts(rail.vcrash.0 - 10);
        let rungs = [
            rail.vmin,
            rail.vcrash,
            below,
            rail.vcrash,
            Millivolts::NOMINAL,
        ];
        nominal_then(&rungs, 25.0, 4)
    }

    #[test]
    fn a_walk_from_the_scored_clean_net_matches_a_fresh_walk() {
        for ecc in [false, true] {
            let (data, qnet, mut board, model, placement) = walk_setup(ecc);
            let off = Tracer::disabled();
            let mapped = MappedNetwork::store(&mut board, &qnet, placement, ecc, &off).unwrap();
            let levels = walk_levels(&board);
            let clean = qnet.to_mlp();
            let mut scored = Scorer::new(&data);
            scored.rescore(&clean, None);
            // A fresh walk, then one from the scored clean net.
            let starts = [(clean.clone(), Scorer::new(&data)), (clean, scored)];
            let [fresh, shared] = starts.map(|start| {
                let sink = Arc::new(MemorySink::new(1 << 16));
                let tracer = Tracer::builder().sink(sink.clone()).build();
                let mut walk = Walk::new(&mapped, &board, &model, start, &tracer);
                let steps: Vec<(u64, Option<EccStats>)> = levels
                    .iter()
                    .map(|level| {
                        let res = level.map(|c| model.resolve(&c));
                        let (error, stats) = walk.step(res.as_ref(), LayerFaults::All).unwrap();
                        (error.to_bits(), stats)
                    })
                    .collect();
                let events: Vec<(u64, &str, String)> = sink
                    .events()
                    .iter()
                    .map(|e| (e.seq, e.kind.label(), e.name.to_string()))
                    .collect();
                (steps, events)
            });
            assert_eq!(fresh, shared, "ecc {ecc}");
            // Every level against a fresh read-back and a cold pass.
            for (level, &(error, stats)) in levels.iter().zip(&fresh.0) {
                let res = level.map(|c| model.resolve(&c));
                let (net, want) = mapped
                    .read(&board, &model, res.as_ref(), LayerFaults::All, &off)
                    .unwrap();
                assert_eq!((error, stats), (net.error_on(&data).to_bits(), want));
            }
            let errors: Vec<u64> = fresh.0.iter().map(|&(e, _)| e).collect();
            let tallies: Vec<_> = fresh.0.iter().map(|&(_, t)| t).collect();
            assert!(
                errors.iter().any(|&e| e != errors[0]) || (ecc && tallies[2] != tallies[0]),
                "ecc {ecc}: nothing moved along the ladder"
            );
            let reads = fresh.1.iter().filter(|e| e.2 == "weights_read_back");
            assert_eq!(reads.count(), 2 * levels.len(), "ecc {ecc}");
        }
    }

    #[test]
    fn a_walk_compares_its_first_read_with_the_start_net() {
        for ecc in [false, true] {
            let (data, qnet, mut board, model, placement) = walk_setup(ecc);
            let off = Tracer::disabled();
            let mapped = MappedNetwork::store(&mut board, &qnet, placement, ecc, &off).unwrap();
            // One exponent bit of one output-layer weight: a net the
            // board does not hold, scoring differently from the clean one.
            let clean = qnet.to_mlp();
            let mut start = clean.clone();
            let w = &mut start.layers_mut()[1].w;
            w.set(3, 5, f32::from_bits(w.get(3, 5).to_bits() ^ (1 << 30)));
            assert_ne!(start.error_on(&data), clean.error_on(&data));
            // The nominal read restores the weight and names its row.
            let mut back = ReadBack::new(start.clone());
            let (_, change) = mapped
                .read_level(&mut back, &board, &model, None, LayerFaults::All, &off)
                .unwrap();
            let row = Change {
                layer: 1,
                rows: vec![3],
            };
            assert_eq!(change, Some(row), "ecc {ecc}");
            assert!(weight_change(&back.net, &clean).is_none(), "ecc {ecc}");
            // A walk from that net and its scorer reads what fresh reads do.
            let mut scorer = Scorer::new(&data);
            scorer.rescore(&start, None);
            let mut walk = Walk::new(&mapped, &board, &model, (start, scorer), &off);
            for level in walk_levels(&board) {
                let res = level.map(|c| model.resolve(&c));
                let (error, stats) = walk.step(res.as_ref(), LayerFaults::All).unwrap();
                let (net, want) = mapped
                    .read(&board, &model, res.as_ref(), LayerFaults::All, &off)
                    .unwrap();
                assert_eq!(
                    (error.to_bits(), stats),
                    (net.error_on(&data).to_bits(), want),
                    "ecc {ecc}, {level:?}"
                );
            }
        }
    }

    #[test]
    fn rung_loop_times_every_mask_of_every_faulty_level() {
        // The BRAMs a carried read-back skips still report `mask_apply`,
        // so the event stream does not depend on what was carried over.
        let (data, qnet, mut board, model, placement) = walk_setup(false);
        let off = Tracer::disabled();
        let mapped = MappedNetwork::load_traced(&mut board, &qnet, placement, &off).unwrap();
        let levels = walk_levels(&board);
        let start = || (qnet.to_mlp(), Scorer::new(&data));
        let sink = Arc::new(MemorySink::new(1 << 16));
        let tracer = Tracer::builder().sink(sink.clone()).build();
        let scored = mapped
            .score_levels(&board, &model, &levels, start(), &tracer)
            .unwrap();
        assert_eq!(
            scored,
            mapped
                .score_levels(&board, &model, &levels, start(), &off)
                .unwrap()
        );
        let count = |name: &str| sink.events().iter().filter(|e| e.name == name).count();
        let faulty = levels.iter().filter(|l| l.is_some()).count();
        let brams = mapped.placement().total_brams();
        assert_eq!(count("mask_apply"), faulty * brams);
        assert_eq!(count("weights_read_back"), 2 * levels.len());
    }

    #[test]
    fn ladder_walks_from_above_vmin_down_to_the_floor() {
        let rail = Platform::new(PlatformKind::Vc707).rail(Rail::Vccbram);
        let mv = |v: &[u32]| v.iter().copied().map(Millivolts).collect::<Vec<_>>();
        let top = rail.vmin.0 + 50;
        assert_eq!(
            ladder(rail, 50, 20, top - 45),
            mv(&[top, top - 20, top - 40])
        );
        // The floor itself is a rung when the step lands on it.
        assert_eq!(
            ladder(rail, 50, 25, top - 50),
            mv(&[top, top - 25, top - 50])
        );
        // A zero step walks 1 mV; a floor above the start is empty.
        assert_eq!(
            ladder(rail, 2, 0, top - 50),
            mv(&[rail.vmin.0 + 2, rail.vmin.0 + 1, rail.vmin.0])
        );
        assert!(ladder(rail, 0, 10, rail.vmin.0 + 1).is_empty());
    }

    #[test]
    fn readback_is_deterministic() {
        let off = Tracer::disabled();
        let (mut board, qnet, weights) = small_setup();
        let model = FaultModel::with_chip_seed(*board.platform(), board.chip_seed());
        let mapped =
            MappedNetwork::load_traced(&mut board, &qnet, Placement::contiguous(&weights), &off)
                .unwrap();
        let cond = model.resolve(&ReadCondition {
            v: Millivolts(board.platform().rail(Rail::Vccbram).vcrash.0 + 5),
            temperature_c: DEFAULT_TEMPERATURE_C,
            run_seed: 9,
        });
        let a = mapped
            .read_back_traced(&board, &model, Some(&cond), LayerFaults::All, &off)
            .unwrap();
        let b = mapped
            .read_back_traced(&board, &model, Some(&cond), LayerFaults::All, &off)
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
