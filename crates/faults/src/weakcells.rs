//! Per-cell failure-voltage sampling.
//!
//! Every bitcell owns a deterministic threshold `Vfail`, drawn from an
//! exponential-tail distribution shaped by the variation layers and keyed
//! by `(chip_seed, bram, row, col)` — the ISSUE-level determinism contract.
//! Only the tiny "weak" tail with `Vfail` near or above the crash boundary
//! is materialized; the bulk of the population can never fail while the
//! board is operational and costs neither memory nor sweep time.

use crate::params::FaultParams;
use uvf_fpga::seedmix::{mix, mix64, unit_f64, unit_open_f64, GAMMA};
use uvf_fpga::{BramId, RailLandmarks, BRAM_ROWS, BRAM_WORD_BITS};

const TAG_CELL: u64 = 0x00ce_1101;
const TAG_POLARITY: u64 = 0x00ce_1102;

/// Cells below `Vcrash - KEEP_MARGIN_MV` are dropped at generation time.
/// The margin covers everything that can re-expose them: environment noise
/// (≤ ~15 mV per DESIGN §6b), per-cell run jitter (≤ 4σ ≈ 5 mV) and the
/// common-mode run spread (≤ 4σ ≈ 1.1 mV on the widest platform).
pub const KEEP_MARGIN_MV: f64 = 25.0;

/// The `Vmin` sentinel sits `3σ` above `Vmin`: it faults with ≈99.9 %
/// probability per run *at* `Vmin` yet stays deterministically silent one
/// VID step higher (params assert `7σ < 10 mV`). It models the weakest
/// natural cell of the die — the cell whose first flip *defines* `Vmin`.
pub const SENTINEL_SIGMA_OFFSET: f64 = 3.0;

/// One materialized weak cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WeakCell {
    pub row: u16,
    pub bit: u8,
    /// `true` for the dominant `1→0` polarity (99.9 % of cells).
    pub one_to_zero: bool,
    /// Failure threshold in mV: the cell flips when the rail (after
    /// thermal/noise shifts and run jitter) is at or below this.
    pub vfail_mv: f64,
}

impl WeakCell {
    /// Whether a flip of this cell is *observable* given the stored bit:
    /// `1→0` cells corrupt stored ones, `0→1` cells corrupt stored zeros.
    #[must_use]
    pub fn observable(&self, stored_bit: bool) -> bool {
        self.one_to_zero == stored_bit
    }
}

/// Cells screened per keep mask: one bit of a `u64` each.
const BLOCK: usize = 64;
/// Keep masks per BRAM.
const BLOCKS: usize = BRAM_ROWS * BRAM_WORD_BITS / BLOCK;

/// Bit `j` of mask `k` is set when cell `64k + j` of the BRAM is kept.
type KeepMasks = [u64; BLOCKS];

/// The per-cell hash every draw of a cell derives from; `idx` is the cell's
/// `row * BRAM_WORD_BITS + bit` address.
#[inline(always)]
fn cell_hash(base: u64, idx: u64) -> u64 {
    mix64(base ^ idx.wrapping_mul(GAMMA))
}

/// The keep test `unit_open_f64(h) <= u_keep` in integers, as
/// `(h >> 11) + 1 <= keep_limit(u_keep)`, i.e. `(h >> 11) < lim`.
/// `unit_open_f64(h)` is `((h >> 11) + 1) · 2⁻⁵³` exactly, and scaling both
/// sides by 2⁵³ is exact in f64, so the integer side may be floored. `as`
/// floors a positive product and saturates past `u64::MAX`.
fn keep_limit(u_keep: f64) -> u64 {
    (u_keep * (1u64 << 53) as f64) as u64
}

/// Screen every cell of one BRAM against a [`keep_limit`]. Branch-free
/// over 64-cell blocks, so LLVM can vectorize the hashing.
#[inline(always)]
fn screen_body(base: u64, lim: u64, masks: &mut KeepMasks) {
    for (block, mask) in masks.iter_mut().enumerate() {
        let first = (block * BLOCK) as u64;
        let mut keep = 0u64;
        for j in 0..BLOCK as u64 {
            let h = cell_hash(base, first + j);
            keep |= u64::from((h >> 11) < lim) << j;
        }
        *mask = keep;
    }
}

/// The screen compiled for every x86-64 (and every other) target.
fn screen_portable(base: u64, lim: u64, masks: &mut KeepMasks) {
    screen_body(base, lim, masks);
}

/// The same screen compiled with AVX-512, where the three 64-bit
/// multiplies of `mix64` vectorize to `vpmullq`.
///
/// # Safety
/// Calling it is `unsafe` outside code compiled for these features: the
/// caller must have checked that the CPU supports `avx512f`, `avx512dq`
/// and `avx512vl` ([`wide_screen_available`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq,avx512vl")]
fn screen_wide(base: u64, lim: u64, masks: &mut KeepMasks) {
    screen_body(base, lim, masks);
}

/// Whether this CPU runs [`screen_wide`]; detected once per process.
#[cfg(target_arch = "x86_64")]
fn wide_screen_available() -> bool {
    static WIDE: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *WIDE.get_or_init(|| {
        is_x86_feature_detected!("avx512f")
            && is_x86_feature_detected!("avx512dq")
            && is_x86_feature_detected!("avx512vl")
    })
}

/// Screen one BRAM with the widest copy this CPU runs. Both copies compile
/// the same body, so their masks are equal (pinned by a test below).
fn screen(base: u64, lim: u64, masks: &mut KeepMasks) {
    #[cfg(target_arch = "x86_64")]
    if wide_screen_available() {
        // SAFETY: the CPU reports every feature `screen_wide` is compiled for.
        unsafe { screen_wide(base, lim, masks) };
        return;
    }
    screen_portable(base, lim, masks);
}

/// Generate the weak-cell population of one BRAM, in `(row, bit)` order.
///
/// Every cell is screened by its hash alone; only the kept tail is
/// materialized (threshold `ln`, polarity draw).
#[must_use]
pub fn generate_bram(
    chip_seed: u64,
    bram: BramId,
    multiplier: f64,
    landmarks: RailLandmarks,
    params: &FaultParams,
    sentinel: Option<(u16, u8)>,
) -> Vec<WeakCell> {
    let vcrash = f64::from(landmarks.vcrash.0);
    let vmin = f64::from(landmarks.vmin.0);
    let eff = params.p_crash_per_bit * multiplier;
    // u <= u_keep  ⟺  vfail >= vcrash - KEEP_MARGIN_MV.
    let u_keep = eff * (KEEP_MARGIN_MV / params.tau_mv).exp();
    let base = mix(&[chip_seed, TAG_CELL, u64::from(bram.0)]);

    let mut cells = Vec::new();
    if eff > 0.0 {
        let mut masks = [0u64; BLOCKS];
        screen(base, keep_limit(u_keep), &mut masks);
        let kept: u32 = masks.iter().map(|m| m.count_ones()).sum();
        cells.reserve_exact(kept as usize + usize::from(sentinel.is_some()));
        for (block, &mask) in masks.iter().enumerate() {
            let mut rest = mask;
            while rest != 0 {
                let idx = (block * BLOCK) as u64 + u64::from(rest.trailing_zeros());
                rest &= rest - 1;
                let h = cell_hash(base, idx);
                // Inverse-CDF of the exponential tail, clamped at Vmin so
                // the guardband above Vmin stays fault-free by definition.
                let vfail = (vcrash + params.tau_mv * (eff / unit_open_f64(h)).ln()).min(vmin);
                let one_to_zero = unit_f64(mix64(h ^ TAG_POLARITY)) < params.one_to_zero_share;
                cells.push(WeakCell {
                    row: (idx / BRAM_WORD_BITS as u64) as u16,
                    bit: (idx % BRAM_WORD_BITS as u64) as u8,
                    one_to_zero,
                    vfail_mv: vfail,
                });
            }
        }
    }

    if let Some((row, bit)) = sentinel {
        let cell = WeakCell {
            row,
            bit,
            one_to_zero: true,
            vfail_mv: vmin + SENTINEL_SIGMA_OFFSET * params.run_jitter_sigma_mv,
        };
        match cells.binary_search_by_key(&(row, bit), |c| (c.row, c.bit)) {
            Ok(i) => cells[i] = cell,
            Err(i) => cells.insert(i, cell),
        }
    }
    cells
}

#[cfg(test)]
mod tests {
    use super::*;
    use uvf_fpga::PlatformKind;

    fn landmarks() -> RailLandmarks {
        PlatformKind::Vc707.descriptor().vccbram
    }

    fn params() -> FaultParams {
        FaultParams::for_platform(PlatformKind::Vc707)
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate_bram(42, BramId(7), 1.0, landmarks(), &params(), None);
        let b = generate_bram(42, BramId(7), 1.0, landmarks(), &params(), None);
        assert_eq!(a, b);
        assert!(!a.is_empty());
    }

    #[test]
    fn cells_are_sorted_and_clamped() {
        let cells = generate_bram(42, BramId(7), 1.0, landmarks(), &params(), None);
        let vmin = f64::from(landmarks().vmin.0);
        let floor = f64::from(landmarks().vcrash.0) - KEEP_MARGIN_MV;
        for w in cells.windows(2) {
            assert!((w[0].row, w[0].bit) < (w[1].row, w[1].bit));
        }
        for c in &cells {
            assert!(c.vfail_mv <= vmin && c.vfail_mv >= floor);
        }
    }

    #[test]
    fn expected_count_tracks_multiplier() {
        let lo = generate_bram(42, BramId(7), 0.5, landmarks(), &params(), None);
        let hi = generate_bram(42, BramId(7), 2.0, landmarks(), &params(), None);
        assert!(hi.len() > lo.len());
        let none = generate_bram(42, BramId(7), 0.0, landmarks(), &params(), None);
        assert!(none.is_empty(), "immune BRAM has no weak cells");
    }

    #[test]
    fn sentinel_is_upserted_above_vmin() {
        let p = params();
        let cells = generate_bram(42, BramId(7), 1.0, landmarks(), &p, Some((100, 3)));
        let vmin = f64::from(landmarks().vmin.0);
        let s = cells
            .iter()
            .find(|c| c.row == 100 && c.bit == 3)
            .expect("sentinel present");
        assert!(s.one_to_zero);
        assert!((s.vfail_mv - (vmin + 3.0 * p.run_jitter_sigma_mv)).abs() < 1e-9);
        // Nothing outranks the sentinel, and the row order holds around it.
        assert!(cells.iter().all(|c| c.vfail_mv <= s.vfail_mv));
        assert!(cells
            .windows(2)
            .all(|w| (w[0].row, w[0].bit) < (w[1].row, w[1].bit)));
        // Upserting an address that already holds a weak cell replaces it.
        let first = generate_bram(42, BramId(7), 1.0, landmarks(), &p, None)[0];
        let upserted = generate_bram(
            42,
            BramId(7),
            1.0,
            landmarks(),
            &p,
            Some((first.row, first.bit)),
        );
        assert_eq!(upserted.len(), cells.len() - 1);
        assert_eq!(upserted[0].vfail_mv, s.vfail_mv);
    }

    /// Keep masks of one BRAM through the portable screen.
    fn portable_masks(base: u64, lim: u64) -> KeepMasks {
        let mut masks = [0u64; BLOCKS];
        screen_portable(base, lim, &mut masks);
        masks
    }

    /// `u_keep` values of real BRAMs plus the edges: nothing kept
    /// (`lim = 0`) and everything kept (`lim >= 2⁵³`).
    fn keep_probabilities() -> Vec<f64> {
        let p = params();
        let scale = (KEEP_MARGIN_MV / p.tau_mv).exp();
        let mut u = vec![0.0, 1e-300, 0.5, 1.0, 2.0, f64::INFINITY];
        u.extend([0.05, 1.0, 4.0, 60.0].map(|m| p.p_crash_per_bit * m * scale));
        u
    }

    #[test]
    fn portable_screen_matches_the_float_keep_test() {
        for b in [0u32, 7, 1234] {
            let base = mix(&[42, TAG_CELL, u64::from(b)]);
            for u_keep in keep_probabilities() {
                let masks = portable_masks(base, keep_limit(u_keep));
                for idx in 0..(BLOCKS * BLOCK) as u64 {
                    let kept = masks[idx as usize / BLOCK] >> (idx % BLOCK as u64) & 1 == 1;
                    let float = unit_open_f64(cell_hash(base, idx)) <= u_keep;
                    assert_eq!(kept, float, "BRAM {b} cell {idx} u_keep {u_keep:e}");
                }
            }
        }
        assert_eq!(keep_limit(0.0), 0);
        assert!(keep_limit(1.0) >= 1 << 53);
    }

    #[test]
    fn wide_screen_matches_the_portable_screen() {
        #[cfg(target_arch = "x86_64")]
        if wide_screen_available() {
            let chip_seed = PlatformKind::Vc707.descriptor().default_chip_seed;
            for b in [0u32, 7, 1234, 2059] {
                let base = mix(&[chip_seed, TAG_CELL, u64::from(b)]);
                let mut lims: Vec<u64> = keep_probabilities().into_iter().map(keep_limit).collect();
                lims.extend([1, (1 << 53) - 1, 1 << 53, u64::MAX]);
                for lim in lims {
                    // On this CPU the dispatch picks the wide copy.
                    let mut wide = [0u64; BLOCKS];
                    screen(base, lim, &mut wide);
                    assert_eq!(wide, portable_masks(base, lim), "BRAM {b} lim {lim}");
                }
            }
        }
    }

    #[test]
    fn one_to_zero_dominates() {
        // Pool enough cells to check the 99.9 % polarity share coarsely.
        let mut total = 0usize;
        let mut otz = 0usize;
        for b in 0..200u32 {
            for c in generate_bram(42, BramId(b), 4.0, landmarks(), &params(), None) {
                total += 1;
                if c.one_to_zero {
                    otz += 1;
                }
            }
        }
        assert!(total > 5_000, "need a meaningful pool, got {total}");
        let share = otz as f64 / total as f64;
        assert!(share > 0.995, "1→0 share {share}");
    }

    #[test]
    fn observability_matches_polarity() {
        let otz = WeakCell {
            row: 0,
            bit: 0,
            one_to_zero: true,
            vfail_mv: 600.0,
        };
        assert!(otz.observable(true) && !otz.observable(false));
    }

    #[test]
    fn margin_constant_is_consistent_with_params() {
        // Keep margin must cover 4σ jitter plus the documented noise knob.
        let p = params();
        assert!(KEEP_MARGIN_MV >= 4.0 * p.run_jitter_sigma_mv + 15.0);
    }
}
