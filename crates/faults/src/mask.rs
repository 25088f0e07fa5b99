//! Resolved read conditions and bulk fault masks.
//!
//! The per-word fault question ("which bits of this read flip?") factors
//! into a condition-dependent part — the ITD/noise threshold shift and the
//! jitter window — and a per-cell part. [`ResolvedCondition`] hoists the
//! former out of the per-word path: it is computed once per
//! `(voltage, temperature, run)` and reused for every cell decision.
//!
//! [`FaultMask`] goes one step further for bulk corruption: it resolves a
//! condition once into dense per-row AND/OR bitmasks for one BRAM, so
//! corrupting a whole read-back stream (the `uvf-accel` weight path, the
//! pattern experiments) is two bitwise ops per word with no per-cell work
//! at all. `tests/mask_equivalence.rs` pins it bit for bit against a
//! per-cell reference that walks every weak cell of the BRAM.

use crate::model::{FaultModel, ReadCondition, JITTER_WINDOW_SIGMAS, TAG_JITTER};
use crate::rng::standard_normal;
use crate::weakcells::WeakCell;
use std::sync::OnceLock;
use uvf_fpga::seedmix::{mix, mix64, unit_open_f64};
use uvf_fpga::{BramId, BRAM_ROWS, BRAM_WORD_BITS};

/// A [`ReadCondition`] with everything condition-dependent precomputed:
/// the signed threshold shift (ITD + environment noise) and the jitter
/// window boundaries. Build one with [`FaultModel::resolve`] and reuse it
/// across every cell/word/BRAM query at the same condition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResolvedCondition {
    cond: ReadCondition,
    /// Signed shift applied to every threshold (ITD + noise), in mV.
    shift_mv: f64,
    /// Run jitter σ, in mV.
    sigma_mv: f64,
    /// Cells with `vfail_mv` below this can never fail under this
    /// condition (deterministically outside the jitter window). Descending
    /// threshold scans stop here.
    cutoff_mv: f64,
    /// Cells with `vfail_mv` at or above this always fail (deterministic,
    /// no jitter draw needed).
    certain_mv: f64,
}

impl ResolvedCondition {
    pub(crate) fn new(cond: ReadCondition, shift_mv: f64, sigma_mv: f64) -> ResolvedCondition {
        let v = f64::from(cond.v.0);
        ResolvedCondition {
            cond,
            shift_mv,
            sigma_mv,
            cutoff_mv: v - shift_mv - JITTER_WINDOW_SIGMAS * sigma_mv,
            certain_mv: v - shift_mv + JITTER_WINDOW_SIGMAS * sigma_mv,
        }
    }

    #[must_use]
    pub fn condition(&self) -> &ReadCondition {
        &self.cond
    }

    /// Early-exit boundary for descending-threshold scans: no cell with
    /// `vfail_mv` below this fails under this condition.
    #[must_use]
    pub fn cutoff_mv(&self) -> f64 {
        self.cutoff_mv
    }

    /// Deterministic-failure boundary: every cell with `vfail_mv` at or
    /// above this fails under this condition with no jitter draw. Together
    /// with [`ResolvedCondition::cutoff_mv`] it brackets the jitter window,
    /// which is what lets [`crate::MaskPlan`] search both boundaries
    /// on the descending-threshold arrays instead of scanning them.
    #[must_use]
    pub fn certain_mv(&self) -> f64 {
        self.certain_mv
    }

    /// Whether `cell` of `bram` flips under this condition. Pure function
    /// of the resolved condition and the cell's identity — scan order
    /// never matters. The per-cell oracle: production reads go through
    /// [`ResolvedCondition::window_judge`], which is pinned against it.
    #[must_use]
    pub fn cell_fails(&self, bram: BramId, cell: &WeakCell) -> bool {
        if cell.vfail_mv >= self.certain_mv {
            return true;
        }
        if cell.vfail_mv < self.cutoff_mv {
            return false;
        }
        let delta = cell.vfail_mv + self.shift_mv - f64::from(self.cond.v.0);
        let idx = u64::from(cell.row) * BRAM_WORD_BITS as u64 + u64::from(cell.bit);
        let jitter = self.sigma_mv
            * standard_normal(mix(&[
                self.cond.run_seed,
                TAG_JITTER,
                u64::from(bram.0),
                idx,
            ]));
        jitter >= -delta
    }

    /// A batched window oracle for this condition and one BRAM: the same
    /// decisions as [`ResolvedCondition::cell_fails`], priced for tight
    /// loops over many window cells. See [`WindowJudge`].
    #[must_use]
    pub fn window_judge(&self, bram: BramId) -> WindowJudge<'_> {
        // `mix` is a left fold, so the three leading keys of the jitter
        // hash collapse into one state shared by every cell of the BRAM.
        let prefix = mix64(
            mix64(mix64(SEEDMIX_DOMAIN ^ self.cond.run_seed) ^ TAG_JITTER) ^ u64::from(bram.0),
        );
        WindowJudge {
            rc: self,
            prefix,
            v: f64::from(self.cond.v.0),
            env_scale_over_sigma: ENV_SCALE / self.sigma_mv,
            env: env_hi_table(),
        }
    }
}

/// The `seedmix::mix` initial state (its domain tag), replicated so the
/// jitter-hash prefix can be folded once per BRAM. Pinned against `mix`
/// itself by `window_judge_prefix_matches_mix` below.
const SEEDMIX_DOMAIN: u64 = 0x5151_7ed1;

/// Mixing constant of the second Box–Muller draw — must match
/// `rng::standard_normal`'s `u2` derivation (pinned by the same test).
const BM_GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// Conservative quadrant bounds on `u2 = (h2 >> 11) · 2⁻⁵³`: strictly
/// inside these, the sign of `cos(TAU·u2)` is certain with ~6e-4 of true
/// margin — ten orders above f64 `cos` error. `q < Q_COS_POS_BELOW` or
/// `q > Q_COS_POS_ABOVE` ⟹ cos > 0; `Q_COS_NEG_LO < q < Q_COS_NEG_HI`
/// ⟹ cos < 0. (0.2499/0.2501/0.7499/0.7501 × 2⁵³.)
const Q_COS_POS_BELOW: u64 = 2_250_899_093_759_774;
const Q_COS_NEG_LO: u64 = 2_252_700_533_610_722;
const Q_COS_NEG_HI: u64 = 6_754_498_721_130_270;
const Q_COS_POS_ABOVE: u64 = 6_756_300_160_981_218;

/// Envelope-table resolution over `|t| ∈ [0, JITTER_WINDOW_SIGMAS]`.
const ENV_SCALE: f64 = 64.0;
const ENV_LEN: usize = 257;

/// Upper bounds on `exp(-t²/2)` per `1/64`-wide bucket of `|t|`, inflated
/// by 1e-9 so every rounding error in the screen's chain of inequalities
/// (`u1 ≥ env[k]` ⟹ the Box–Muller radius is strictly below `|t|`) is
/// dwarfed by design margin rather than argued away ulp by ulp.
fn env_hi_table() -> &'static [f64; ENV_LEN] {
    static TABLE: OnceLock<[f64; ENV_LEN]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut t = [0.0; ENV_LEN];
        for (k, slot) in t.iter_mut().enumerate() {
            let lo = k as f64 / ENV_SCALE;
            *slot = (-0.5 * lo * lo).exp() * (1.0 + 1e-9);
        }
        t
    })
}

/// Jitter-window oracle for one `(condition, BRAM)` pair, bit-identical to
/// [`ResolvedCondition::cell_fails`] but priced for the batched level
/// scan's inner loops. Three cost tiers per cell:
///
/// 1. the hash prefix over `(run_seed, TAG_JITTER, bram)` is folded once
///    at construction, leaving one `mix64` per cell;
/// 2. most cells are decided by sign or envelope *screens* — conservative
///    interval arguments (cos quadrant of the second draw; a table bound
///    proving the Box–Muller radius below `|Δ|/σ`) that imply the exact
///    f64 comparison's outcome without evaluating `ln`/`sqrt`/`cos`;
/// 3. the remainder falls back to the canonical [`standard_normal`] draw,
///    reusing the cell hash — the literal oracle computation.
///
/// Screens only ever fire strictly inside their safe regions (margins of
/// 1e-4 in `u2`, 1e-9 in the envelope — many orders above every rounding
/// error in play), so agreement with `cell_fails` is by construction, and
/// `tests/ladder_equivalence.rs` plus the in-module exhaustive sweep pin
/// it empirically.
#[derive(Debug, Clone, Copy)]
pub struct WindowJudge<'r> {
    rc: &'r ResolvedCondition,
    prefix: u64,
    v: f64,
    env_scale_over_sigma: f64,
    env: &'static [f64; ENV_LEN],
}

impl WindowJudge<'_> {
    /// Whether `cell` flips — exactly [`ResolvedCondition::cell_fails`] of
    /// the judged BRAM, for cells already known to lie inside the jitter
    /// window (callers bracket with `certain_mv`/`cutoff_mv` first; out of
    /// window the answer is still correct, just priced like the oracle).
    #[must_use]
    pub fn fails(&self, cell: &WeakCell) -> bool {
        if cell.vfail_mv >= self.rc.certain_mv {
            return true;
        }
        if cell.vfail_mv < self.rc.cutoff_mv {
            return false;
        }
        // Same expression shape as `cell_fails`, so `delta` is the exact
        // f64 the oracle would compare against.
        let delta = cell.vfail_mv + self.rc.shift_mv - self.v;
        let idx = u64::from(cell.row) * BRAM_WORD_BITS as u64 + u64::from(cell.bit);
        let h = mix64(self.prefix ^ idx);
        if delta != 0.0 {
            // Envelope screen first — it needs only the first draw:
            // u1 ≥ exp(-t²/2) bounds the Box–Muller radius below
            // |t| = |delta|/σ, deciding by |jitter| < |delta|.
            let k = (delta.abs() * self.env_scale_over_sigma) as usize;
            if k > 0 && unit_open_f64(h) >= self.env[k.min(ENV_LEN - 1)] {
                return delta > 0.0;
            }
            let q = mix64(h ^ BM_GAMMA) >> 11;
            if delta > 0.0 {
                // cos ≥ 0 ⟹ jitter ≥ 0 > -delta: fails regardless of radius.
                if !(Q_COS_POS_BELOW..=Q_COS_POS_ABOVE).contains(&q) {
                    return true;
                }
            } else if q > Q_COS_NEG_LO && q < Q_COS_NEG_HI {
                // cos ≤ 0 ⟹ jitter ≤ 0 < -delta: survives regardless of radius.
                return false;
            }
        }
        // Canonical draw — the oracle's own arithmetic on the same hash.
        self.rc.sigma_mv * standard_normal(h) >= -delta
    }
}

/// Per-row flip bitmasks of one BRAM under one resolved condition.
///
/// `corrupted = (stored & and_mask[row]) | or_mask[row]`: failing `1→0`
/// cells clear their bit in the AND mask (a flip only lands on a stored
/// one — observability for free), failing `0→1` cells set their bit in the
/// OR mask (idempotent on a stored one). Rows with no failing cell carry
/// identity masks, so bulk application needs no sparsity bookkeeping.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultMask {
    and_masks: Vec<u16>,
    or_masks: Vec<u16>,
    flip_cells: u32,
}

impl FaultMask {
    /// Snapshot the failing cells of `bram` under `resolved`. Window cells
    /// are decided by one [`ResolvedCondition::window_judge`] per BRAM, the
    /// kernel [`crate::MaskPlan`] counts with.
    #[must_use]
    pub fn build(model: &FaultModel, bram: BramId, resolved: &ResolvedCondition) -> FaultMask {
        let mut and_masks = vec![0xFFFFu16; BRAM_ROWS];
        let mut or_masks = vec![0x0000u16; BRAM_ROWS];
        let mut flip_cells = 0u32;
        // Descending-threshold order so the scan stops at the cutoff; the
        // masks themselves are order-independent.
        let judge = resolved.window_judge(bram);
        for cell in model.weak_cells(bram) {
            if cell.vfail_mv < resolved.cutoff_mv() {
                break;
            }
            if !judge.fails(cell) {
                continue;
            }
            let bit = 1u16 << cell.bit;
            let row = cell.row as usize;
            if cell.one_to_zero {
                and_masks[row] &= !bit;
            } else {
                or_masks[row] |= bit;
            }
            flip_cells += 1;
        }
        FaultMask {
            and_masks,
            or_masks,
            flip_cells,
        }
    }

    /// Number of cells flipping under this condition (either polarity,
    /// before observability against any particular stored data).
    #[must_use]
    pub fn flip_cells(&self) -> u32 {
        self.flip_cells
    }

    /// `true` when no cell flips: every read-back is exact.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.flip_cells == 0
    }

    /// Corrupt a whole stored image in place; `words[i]` is row `i`.
    pub fn apply_all(&self, words: &mut [u16]) {
        for (row, w) in words.iter_mut().enumerate() {
            *w = (*w & self.and_masks[row]) | self.or_masks[row];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::run_seed;
    use uvf_fpga::{Millivolts, PlatformKind, Rail};

    fn model() -> FaultModel {
        FaultModel::new(PlatformKind::Zc702.descriptor())
    }

    fn cond_at(m: &FaultModel, v: Millivolts, run: u32) -> ReadCondition {
        ReadCondition {
            v,
            temperature_c: 25.0,
            run_seed: run_seed(m.chip_seed(), Rail::Vccbram, v, run),
        }
    }

    #[test]
    fn window_judge_prefix_matches_mix() {
        // The judge folds the first three jitter-hash keys into one state;
        // this pins that fold (and the domain tag) against `mix` itself.
        let keys = [0xdead_beefu64, TAG_JITTER, 7, 0x0012_3456];
        let prefix = mix64(mix64(mix64(SEEDMIX_DOMAIN ^ keys[0]) ^ keys[1]) ^ keys[2]);
        assert_eq!(mix64(prefix ^ keys[3]), mix(&keys));
    }

    #[test]
    fn window_judge_agrees_with_the_oracle() {
        // Every weak cell of a BRAM sample, across the whole active ladder
        // and several runs — certain, window, and never-fail regions all
        // land on the same booleans as `cell_fails`.
        let m = model();
        let lm = m.platform().vccbram;
        for run in 0..3 {
            let mut v = lm.vmin.0 + 10;
            while v >= 450 {
                let rc = m.resolve(&cond_at(&m, Millivolts(v), run));
                for b in (0..m.platform().bram_count as u32).step_by(7) {
                    let bram = BramId(b);
                    let judge = rc.window_judge(bram);
                    for cell in m.weak_cells(bram) {
                        assert_eq!(
                            judge.fails(cell),
                            rc.cell_fails(bram, cell),
                            "BRAM {b} cell ({}, {}) at {v} mV run {run}",
                            cell.row,
                            cell.bit
                        );
                    }
                }
                v -= 10;
            }
        }
    }

    #[test]
    fn judge_screens_are_conservative() {
        // Directly audit the two screening arguments over random hashes:
        // inside the quadrant bounds the cosine sign is as claimed, and
        // `u1 >= env[k]` really does bound the Box–Muller radius by k/64.
        for i in 0..200_000u64 {
            let h2 = mix(&[0x005c_4ee2, i]);
            let q = h2 >> 11;
            let c = (std::f64::consts::TAU * uvf_fpga::seedmix::unit_f64(h2)).cos();
            if !(Q_COS_POS_BELOW..=Q_COS_POS_ABOVE).contains(&q) {
                assert!(c > 0.0, "q {q} claimed cos>0, got {c}");
            }
            if q > Q_COS_NEG_LO && q < Q_COS_NEG_HI {
                assert!(c < 0.0, "q {q} claimed cos<0, got {c}");
            }
            let h = mix(&[0x000a_bcde, i]);
            let u1 = unit_open_f64(h);
            let r = (-2.0 * u1.ln()).sqrt();
            let env = env_hi_table();
            for k in [1usize, 3, 64, 128, 256] {
                if u1 >= env[k] {
                    assert!(r < k as f64 / ENV_SCALE, "k {k}: r {r} not below bound");
                }
            }
        }
    }

    #[test]
    fn resolved_decisions_match_the_model() {
        let m = model();
        let vcrash = m.platform().vccbram.vcrash;
        let cond = cond_at(&m, vcrash, 3);
        let rc = m.resolve(&cond);
        for b in (0..m.platform().bram_count as u32).step_by(37) {
            let bram = BramId(b);
            let mut from_scan = Vec::new();
            m.for_each_failing_resolved(bram, &rc, |c| from_scan.push(*c));
            let from_resolved: Vec<WeakCell> = m
                .weak_cells(bram)
                .iter()
                .filter(|c| rc.cell_fails(bram, c))
                .copied()
                .collect();
            assert_eq!(from_scan, from_resolved, "BRAM {b}");
        }
    }

    #[test]
    fn mask_reproduces_corrupt_word_for_all_patterns() {
        // Per-cell word corruption: every weak cell of the row that fails
        // the condition and is observable under the stored bit flips.
        let corrupt_word = |m: &FaultModel, bram, row, stored: u16, rc: &ResolvedCondition| {
            let mut word = stored;
            for cell in m.weak_cells(bram).iter().filter(|c| c.row == row) {
                let bit = 1u16 << cell.bit;
                if cell.observable(stored & bit != 0) && rc.cell_fails(bram, cell) {
                    word = if cell.one_to_zero {
                        word & !bit
                    } else {
                        word | bit
                    };
                }
            }
            word
        };
        let m = model();
        let vcrash = m.platform().vccbram.vcrash;
        let cond = cond_at(&m, vcrash, 0);
        let rc = m.resolve(&cond);
        for b in (0..m.platform().bram_count as u32).step_by(19) {
            let bram = BramId(b);
            let mask = FaultMask::build(&m, bram, &rc);
            for stored in [0xFFFFu16, 0x0000, 0xAAAA, 0x5555, 0x1234] {
                let mut read = vec![stored; BRAM_ROWS];
                mask.apply_all(&mut read);
                for row in (0..BRAM_ROWS as u16).step_by(61) {
                    assert_eq!(
                        read[row as usize],
                        corrupt_word(&m, bram, row, stored, &rc),
                        "BRAM {b} row {row} stored {stored:#06x}"
                    );
                }
            }
        }
    }

    #[test]
    fn mask_is_clean_above_vmin() {
        let m = model();
        let above = Millivolts(m.platform().vccbram.vmin.0 + 10);
        let cond = cond_at(&m, above, 0);
        let rc = m.resolve(&cond);
        for b in 0..m.platform().bram_count as u32 {
            let mask = FaultMask::build(&m, BramId(b), &rc);
            assert!(mask.is_clean(), "flips above Vmin in BRAM {b}");
        }
    }

    #[test]
    fn bulk_application_matches_per_word() {
        let m = model();
        let vcrash = m.platform().vccbram.vcrash;
        let cond = cond_at(&m, vcrash, 1);
        let rc = m.resolve(&cond);
        let (bram, _, _) = m.sentinel();
        let mask = FaultMask::build(&m, bram, &rc);
        let mut words: Vec<u16> = (0..BRAM_ROWS as u32)
            .map(|r| r.wrapping_mul(2654435761) as u16)
            .collect();
        let expect: Vec<u16> = words
            .iter()
            .enumerate()
            .map(|(row, &w)| (w & mask.and_masks[row]) | mask.or_masks[row])
            .collect();
        mask.apply_all(&mut words);
        assert_eq!(words, expect);
    }
}
