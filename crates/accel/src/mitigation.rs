//! §Mitigation · the cross-platform SECDED-vs-ICBP shoot-out.
//!
//! Salami et al.'s follow-up work evaluates the BRAMs' built-in SECDED
//! ECC against exactly the undervolting faults this repo models. The
//! headline is subtle: ECC is a *per-word* mitigation, so it wins as
//! long as faults arrive one bit per 72-bit stripe — and stops helping
//! once the fault density near `Vcrash` produces multi-bit words, which
//! SECDED can only flag (or, worse, silently miscorrect). ICBP is a
//! *placement* mitigation — it steers the critical layer away from
//! faulty sites but leaves the other layers exposed. The two compose:
//! ECC soaks up the singles everywhere while ICBP shields the layer
//! whose faults matter most, so `EccIcbp` holds nominal accuracy deeper
//! into the ladder than either alone.
//!
//! Two instruments here:
//!
//! * [`ecc_ladder_census`] — storage-level rates per platform: walk the
//!   ladder with every BRAM holding all-ones ECC codewords (the
//!   maximally observable pattern, comparable to the paper's `0xFFFF`
//!   fault maps) and tally raw vs corrected vs escaped per Mbit.
//! * [`mitigation_shootout`] — the NN case study: the Fig. 12 ladder
//!   rerun under all four [`Mitigation`] modes, with per-mode recovery
//!   floors (the deepest rung that still holds nominal accuracy).
//!
//! Everything is bit-deterministic in the config, like the rest of the
//! crate: reruns are `PartialEq`-identical, and `repro mitigation
//! --check` gates on exactly that.

use crate::engine::{ladder, nominal_then, words_per_bram, MappedNetwork};
use crate::placement::Placement;
use std::fmt;
use std::str::FromStr;
use uvf_faults::ecc::{self, EccStats};
use uvf_faults::{FaultModel, FaultVariationMap, FvmCache, ReadCondition};
use uvf_fpga::eccmode::{ECC_CODEWORDS_PER_BRAM, ECC_WORDS_PER_BRAM};
use uvf_fpga::BRAM_ROWS;
use uvf_fpga::{eccmode, Board, BoardError, BramId, Platform, PlatformKind, Rail};
use uvf_nn::{QNetwork, Scorer, SyntheticData};
use uvf_trace::Tracer;

/// The mitigation axis threaded through the accelerator read-back.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mitigation {
    /// Raw storage, default contiguous placement.
    None,
    /// SECDED ECC storage, default contiguous placement.
    Ecc,
    /// Raw storage, intelligently-constrained BRAM placement.
    Icbp,
    /// SECDED ECC storage *and* ICBP for the protected layer.
    EccIcbp,
}

impl Mitigation {
    /// Every mode, in shoot-out display order.
    pub const ALL: [Mitigation; 4] = [
        Mitigation::None,
        Mitigation::Ecc,
        Mitigation::Icbp,
        Mitigation::EccIcbp,
    ];

    /// Does this mode store weights in the SECDED layout?
    #[must_use]
    pub fn uses_ecc(self) -> bool {
        matches!(self, Mitigation::Ecc | Mitigation::EccIcbp)
    }

    /// Does this mode pin the protected layer via ICBP?
    #[must_use]
    pub fn uses_icbp(self) -> bool {
        matches!(self, Mitigation::Icbp | Mitigation::EccIcbp)
    }

    /// Place and store `qnet` on `board` the way this mode does: raw
    /// (one word per row) or SECDED storage (896 words per BRAM), with
    /// contiguous placement or ICBP pinning `protected_layer` onto the
    /// cleanest window of `fvm`.
    ///
    /// # Errors
    /// Propagates any [`BoardError`] from the row writes.
    ///
    /// # Panics
    /// If `weights` does not match the network's layers.
    pub fn load<'a>(
        self,
        board: &mut Board,
        qnet: &'a QNetwork,
        weights: &[usize],
        fvm: &FaultVariationMap,
        protected_layer: usize,
        tracer: &Tracer,
    ) -> Result<MappedNetwork<'a>, BoardError> {
        let capacity = words_per_bram(self.uses_ecc());
        let placement = if self.uses_icbp() {
            Placement::icbp_with_capacity(weights, fvm, protected_layer, capacity)
        } else {
            Placement::contiguous_with_capacity(weights, capacity)
        };
        MappedNetwork::store(board, qnet, placement, self.uses_ecc(), tracer)
    }

    /// Short machine name, accepted back by [`FromStr`].
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Mitigation::None => "none",
            Mitigation::Ecc => "ecc",
            Mitigation::Icbp => "icbp",
            Mitigation::EccIcbp => "ecc+icbp",
        }
    }
}

impl fmt::Display for Mitigation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Error for [`Mitigation::from_str`] on an unknown mode name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseMitigationError(String);

impl fmt::Display for ParseMitigationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown mitigation {:?} (expected none, ecc, icbp or ecc+icbp)",
            self.0
        )
    }
}

impl std::error::Error for ParseMitigationError {}

impl FromStr for Mitigation {
    type Err = ParseMitigationError;

    fn from_str(s: &str) -> Result<Mitigation, ParseMitigationError> {
        Mitigation::ALL
            .into_iter()
            .find(|m| m.name() == s)
            .ok_or_else(|| ParseMitigationError(s.to_string()))
    }
}

/// One rung of the per-platform storage census.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EccCensusLevel {
    pub v_mv: u32,
    /// Decode tallies over every BRAM of the device.
    pub stats: EccStats,
    /// Mebibits of SECDED stripe (data + parity) covered by the census.
    pub mbits: f64,
}

impl EccCensusLevel {
    /// Raw bit flips inside the stripes, per Mbit — the pre-mitigation
    /// fault rate on the paper's Fig. 3 scale.
    #[must_use]
    pub fn raw_per_mbit(&self) -> f64 {
        self.stats.raw_flips as f64 / self.mbits
    }

    /// Codewords repaired by single-error correction, per Mbit.
    #[must_use]
    pub fn corrected_per_mbit(&self) -> f64 {
        self.stats.corrected as f64 / self.mbits
    }

    /// Codewords that escaped — flagged uncorrectable plus silent
    /// miscorrections — per Mbit. This is the number ECC cannot fix,
    /// and it wakes up exactly when multi-bit words appear.
    #[must_use]
    pub fn escaped_per_mbit(&self) -> f64 {
        self.stats.escaped() as f64 / self.mbits
    }
}

/// Walk the undervolting ladder with the whole device holding all-ones
/// SECDED codewords and tally raw vs corrected vs escaped per rung.
///
/// The ladder matches the Fig. 12 convention: from `Vmin +
/// start_above_vmin_mv` down to `Vcrash` in `step_mv` decrements. The
/// all-ones data pattern makes every `1→0` weak cell observable, so the
/// raw rate lines up with the paper's `0xFFFF` fault-map rates; parity
/// bytes are corrupted by the same masks as the data rows.
#[must_use]
pub fn ecc_ladder_census(
    platform: PlatformKind,
    chip_seed: u64,
    temperature_c: f64,
    run_seed: u64,
    step_mv: u32,
    start_above_vmin_mv: u32,
) -> Vec<EccCensusLevel> {
    let p = Platform::new(platform);
    let model = FaultModel::with_chip_seed(p, chip_seed);

    // One clean reference image shared by every BRAM: 224 all-ones
    // codewords, parity packed into the same array.
    let mut clean = [0u16; BRAM_ROWS];
    let coded = ecc::encode(u64::MAX);
    for cw in 0..ECC_CODEWORDS_PER_BRAM {
        eccmode::store_codeword(&mut clean, cw, coded.data, coded.parity);
    }

    let stripe_bits = (p.bram_count * ECC_CODEWORDS_PER_BRAM * 72) as f64;
    let mbits = stripe_bits / (1u64 << 20) as f64;

    let rail = p.rail(Rail::Vccbram);
    let levels = ladder(rail, start_above_vmin_mv, step_mv, rail.vcrash.0);

    let mut scratch = [0u16; BRAM_ROWS];
    let mut sink = Vec::with_capacity(ECC_WORDS_PER_BRAM);
    levels
        .into_iter()
        .map(|v| {
            let res = model.resolve(&ReadCondition {
                v,
                temperature_c,
                run_seed,
            });
            let mut stats = EccStats::default();
            for b in 0..p.bram_count as u32 {
                let mask = model.fault_mask(BramId(b), &res);
                if mask.is_clean() {
                    stats.words += ECC_CODEWORDS_PER_BRAM as u64;
                    continue;
                }
                sink.clear();
                let batch = ecc::corrupt_and_decode(
                    &mask,
                    &clean,
                    ECC_CODEWORDS_PER_BRAM,
                    &mut scratch,
                    &mut sink,
                );
                stats.merge(&batch);
            }
            EccCensusLevel {
                v_mv: v.0,
                stats,
                mbits,
            }
        })
        .collect()
}

/// Shoot-out parameters. Everything feeding the fault model is explicit,
/// so equal configs give `PartialEq`-identical reports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShootoutConfig {
    pub platform: PlatformKind,
    pub chip_seed: u64,
    /// Die temperature for fault injection.
    pub temperature_c: f64,
    /// Which repeated undervolted read the curves score.
    pub run_seed: u64,
    /// Ladder step below the starting level, millivolts.
    pub step_mv: u32,
    /// The ladder starts this far above `Vmin`.
    pub start_above_vmin_mv: u32,
    /// Layer ICBP pins onto the cleanest window (the output layer in
    /// the Fig. 14 story).
    pub protected_layer: usize,
    /// How far below `Vcrash` the ladder keeps descending. The board
    /// hangs at `Vcrash`, but the cell fault model extrapolates — and
    /// the whole point of ECC is operating where raw storage already
    /// fails (the follow-up paper runs ECC-mode BRAMs below the
    /// non-ECC minimum safe voltage). Rungs below `Vcrash` are "had
    /// the regulator held" model territory and are labelled as such.
    pub descend_below_vcrash_mv: u32,
}

impl ShootoutConfig {
    /// The configuration `repro mitigation` runs: the Fig. 12 ladder on
    /// VC707 with the Fig. 13/14 chip.
    #[must_use]
    pub fn vc707_default(
        chip_seed: u64,
        run_seed: u64,
        temperature_c: f64,
        protected_layer: usize,
    ) -> ShootoutConfig {
        ShootoutConfig {
            platform: PlatformKind::Vc707,
            chip_seed,
            temperature_c,
            run_seed,
            step_mv: 10,
            start_above_vmin_mv: 50,
            protected_layer,
            descend_below_vcrash_mv: 40,
        }
    }
}

/// One rung of one mitigation's recovery curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MitigationPoint {
    pub v_mv: u32,
    /// Classification error of the read-back network on the test split.
    pub error: f64,
    /// Decode tallies for the ECC modes (`None` for raw storage).
    pub ecc: Option<EccStats>,
}

/// The recovery curve of one mitigation mode down the ladder.
#[derive(Debug, Clone, PartialEq)]
pub struct MitigationCurve {
    pub mitigation: Mitigation,
    /// Error of a clean nominal-voltage read under this mode.
    pub nominal_error: f64,
    /// Undervolted rungs, descending voltage.
    pub points: Vec<MitigationPoint>,
}

impl MitigationCurve {
    /// The recovery floor: the deepest rung such that *every* rung above
    /// it (inclusive) stays within `tol` of the nominal error. `None`
    /// when even the first rung deviates. With `tol = 0.0` this is
    /// "holds exactly nominal accuracy", the strictest reading of the
    /// paper's recovery claim.
    #[must_use]
    pub fn recovery_floor_mv(&self, tol: f64) -> Option<u32> {
        let mut floor = None;
        for p in &self.points {
            if p.error <= self.nominal_error + tol {
                floor = Some(p.v_mv);
            } else {
                break;
            }
        }
        floor
    }
}

/// The full shoot-out: one curve per [`Mitigation::ALL`] mode.
#[derive(Debug, Clone, PartialEq)]
pub struct MitigationShootout {
    pub config: ShootoutConfig,
    pub curves: Vec<MitigationCurve>,
}

impl MitigationShootout {
    /// The curve for one mode.
    ///
    /// # Panics
    /// Never for a report built by [`mitigation_shootout`], which emits
    /// every mode.
    #[must_use]
    pub fn curve(&self, m: Mitigation) -> &MitigationCurve {
        self.curves
            .iter()
            .find(|c| c.mitigation == m)
            .expect("shootout emits every mitigation")
    }
}

/// Run the NN recovery shoot-out: the Fig. 12 voltage ladder under all
/// four mitigation modes. See [`mitigation_shootout_traced`].
///
/// # Errors
/// Propagates any [`BoardError`] from the weight loads or bulk reads.
pub fn mitigation_shootout(
    cfg: &ShootoutConfig,
    qnet: &QNetwork,
    weights: &[usize],
    data: &SyntheticData,
) -> Result<MitigationShootout, BoardError> {
    mitigation_shootout_traced(cfg, qnet, weights, data, &Tracer::disabled())
}

/// [`mitigation_shootout`] with tracing: ECC reads report the
/// `ecc_corrected` / `ecc_escaped` counters, loads and read-backs keep
/// their usual spans. The report is identical with any tracer.
///
/// ICBP variants rank sites with a `Vcrash` fault-variation map — the
/// characterization you would run once per chip — and pin
/// `cfg.protected_layer` onto the cleanest window. Every rung is read
/// back, but only the BRAMs whose fault mask changed since the previous
/// rung are decoded again (the others keep their weights and ECC tallies),
/// and each rung's classification recomputes only the weight rows those
/// BRAMs changed (`uvf_nn::Scorer`); a rung that changed no weight bit
/// reuses the previous error. The clean net is scored once: every mode's
/// walk starts from it and a copy of its scorer, so each mode's nominal
/// read, which decodes that same net, names no changed row and reuses
/// its error. The modes still run one after another, so the event
/// stream is the same as four fresh walks'.
///
/// # Errors
/// Propagates any [`BoardError`] from the weight loads or bulk reads.
pub fn mitigation_shootout_traced(
    cfg: &ShootoutConfig,
    qnet: &QNetwork,
    weights: &[usize],
    data: &SyntheticData,
    tracer: &Tracer,
) -> Result<MitigationShootout, BoardError> {
    let platform = Platform::new(cfg.platform);
    let model = FaultModel::with_chip_seed(platform, cfg.chip_seed);
    let rail = platform.rail(Rail::Vccbram);
    // The cached census at the calibration temperature: bit-identical to
    // `model.variation_map(rail.vcrash)` by the `variation_map_at`
    // invariant, and counted in the cache's hit/miss totals.
    let fvm = FvmCache::global().variation_map(
        platform,
        cfg.chip_seed,
        model.params().t_ref_c,
        rail.vcrash,
    );

    let floor_mv = rail.vcrash.0.saturating_sub(cfg.descend_below_vcrash_mv);
    let rungs = ladder(rail, cfg.start_above_vmin_mv, cfg.step_mv, floor_mv);
    let levels = nominal_then(&rungs, cfg.temperature_c, cfg.run_seed);

    let clean = qnet.to_mlp();
    let mut scorer = Scorer::new(&data.test);
    scorer.rescore(&clean, None);
    let curves = Mitigation::ALL
        .into_iter()
        .map(|m| {
            let mut board = Board::with_chip_seed(platform, cfg.chip_seed);
            let mapped = m.load(&mut board, qnet, weights, &fvm, cfg.protected_layer, tracer)?;
            let start = (clean.clone(), scorer.clone());
            let scored = mapped.score_levels(&board, &model, &levels, start, tracer)?;
            Ok(MitigationCurve {
                mitigation: m,
                nominal_error: scored[0].0,
                points: rungs
                    .iter()
                    .zip(&scored[1..])
                    .map(|(v, &(error, ecc))| MitigationPoint {
                        v_mv: v.0,
                        error,
                        ecc,
                    })
                    .collect(),
            })
        })
        .collect::<Result<Vec<_>, BoardError>>()?;
    Ok(MitigationShootout {
        config: *cfg,
        curves,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mitigation_names_roundtrip() {
        for m in Mitigation::ALL {
            assert_eq!(m.name().parse::<Mitigation>(), Ok(m));
        }
        assert!("tmr".parse::<Mitigation>().is_err());
        assert_eq!(Mitigation::EccIcbp.to_string(), "ecc+icbp");
        assert!(Mitigation::EccIcbp.uses_ecc() && Mitigation::EccIcbp.uses_icbp());
        assert!(!Mitigation::None.uses_ecc() && !Mitigation::None.uses_icbp());
    }

    #[test]
    fn recovery_floor_scans_from_the_top() {
        let curve = MitigationCurve {
            mitigation: Mitigation::None,
            nominal_error: 0.10,
            points: vec![
                MitigationPoint {
                    v_mv: 660,
                    error: 0.10,
                    ecc: None,
                },
                MitigationPoint {
                    v_mv: 650,
                    error: 0.10,
                    ecc: None,
                },
                MitigationPoint {
                    v_mv: 640,
                    error: 0.25,
                    ecc: None,
                },
                // Deeper rung back at nominal must NOT count: the floor
                // is the contiguous-from-the-top depth.
                MitigationPoint {
                    v_mv: 630,
                    error: 0.10,
                    ecc: None,
                },
            ],
        };
        assert_eq!(curve.recovery_floor_mv(0.0), Some(650));
        assert_eq!(curve.recovery_floor_mv(0.2), Some(630));
        let mut none = curve.clone();
        none.points[0].error = 0.9;
        assert_eq!(none.recovery_floor_mv(0.0), None);
    }

    #[test]
    fn census_rates_grow_down_the_ladder() {
        let census = ecc_ladder_census(PlatformKind::Zc702, 7, 25.0, 1, 20, 40);
        assert!(census.len() >= 3);
        let first = &census[0];
        let last = census.last().unwrap();
        assert!(first.v_mv > last.v_mv);
        assert!(
            last.raw_per_mbit() > first.raw_per_mbit(),
            "raw rate must grow toward Vcrash"
        );
        // Near Vcrash ECC must be actually working: corrections happen,
        // and the word count covers the whole device every rung.
        assert!(last.stats.corrected > 0);
        let p = Platform::new(PlatformKind::Zc702);
        assert_eq!(
            last.stats.words,
            (p.bram_count * ECC_CODEWORDS_PER_BRAM) as u64
        );
        // Accounting sanity: every corrected/escaped word saw raw flips.
        assert!(last.stats.raw_flips >= last.stats.corrected + last.stats.escaped());
    }
}
