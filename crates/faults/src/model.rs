//! The fault model: corrupted read-back under a (V, T, run) condition.
//!
//! Composes the variation layers and the per-cell thresholds into the one
//! question the experiments ask: *which cells flip right now?* Everything
//! is a pure function of `(chip_seed, physical site, voltage, temperature,
//! run_seed)` — the determinism invariant the paper's observation ❶ rests
//! on and that the property tests pin across crash/recovery cycles.

use crate::cache::FvmCache;
use crate::mask::{FaultMask, ResolvedCondition};
use crate::params::FaultParams;
use crate::rng::standard_normal;
use crate::thermal::itd_shift_mv;
use crate::variation::die_multipliers;
use crate::weakcells::{generate_bram, WeakCell};
use std::cmp::Reverse;
use std::sync::Arc;
use uvf_fpga::seedmix::mix;
use uvf_fpga::{BramId, Floorplan, Millivolts, Platform, Rail, BRAM_ROWS, BRAM_WORD_BITS};

const TAG_RUN: u64 = 0x005e_ed21;
pub(crate) const TAG_JITTER: u64 = 0x005e_ed22;
const TAG_SENTINEL: u64 = 0x005e_ed23;
const TAG_SPREAD: u64 = 0x005e_ed24;

/// Jitter beyond ±4σ is treated as impossible; the decision becomes
/// deterministic outside that window (error mass < 1e-4 per cell).
pub(crate) const JITTER_WINDOW_SIGMAS: f64 = 4.0;

/// One read-back condition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReadCondition {
    /// Rail voltage seen by the cells (`VCCBRAM`).
    pub v: Millivolts,
    /// Die temperature in °C.
    pub temperature_c: f64,
    /// Per-run seed; use [`run_seed`] to derive it from logical indices so
    /// interrupted sweeps resume onto identical jitter.
    pub run_seed: u64,
}

/// Canonical per-run seed: a pure function of logical position, never of
/// wall-clock or attempt history — checkpoint resume depends on this.
#[must_use]
pub fn run_seed(chip_seed: u64, rail: Rail, v: Millivolts, run: u32) -> u64 {
    mix(&[
        chip_seed,
        TAG_RUN,
        rail as u64,
        u64::from(v.0),
        u64::from(run),
    ])
}

/// Sort one BRAM's weak cells (generated in `(row, bit)` order) in place
/// into the one order every read takes: descending `vfail_mv`, so a scan
/// stops at its condition's cutoff. `(row, bit)` is unique per BRAM and
/// breaks ties, so the key is a total order and an unstable sort is
/// deterministic.
///
/// The key is integer: every kept threshold is positive and finite (at
/// least `Vcrash − KEEP_MARGIN_MV`; the sentinel sits above `Vmin`), and on
/// such values `to_bits` order is `total_cmp` order.
fn sort_by_threshold(mut cells: Vec<WeakCell>) -> Vec<WeakCell> {
    debug_assert!(cells
        .iter()
        .all(|c| c.vfail_mv.is_finite() && c.vfail_mv > 0.0));
    cells.sort_unstable_by_key(|c| (Reverse(c.vfail_mv.to_bits()), c.row, c.bit));
    cells
}

/// The immutable part of a die: its weak-cell population and sentinel.
/// Built once per `(platform, chip_seed)` and shared behind an `Arc` by
/// every [`FaultModel`] handle of that die.
#[derive(Debug)]
struct Die {
    /// Per BRAM, its weak cells by descending threshold.
    weak: Vec<Vec<WeakCell>>,
    /// Cached at construction: the weak population never changes.
    total_weak: usize,
    sentinel: (BramId, u16, u8),
}

/// Calibrated, deterministic fault model of one die.
///
/// A handle: the die itself sits behind one `Arc`, so `Clone` is O(1) and
/// every handle of the same `(platform, chip_seed)` reads the same cells.
/// Only the environment-noise knob is per handle.
#[derive(Debug, Clone)]
pub struct FaultModel {
    platform: Platform,
    chip_seed: u64,
    params: FaultParams,
    /// Supply-noise knob of DESIGN §6b: raises effective thresholds, i.e.
    /// exposes faults *above* the bench-measured `Vmin`.
    env_noise_mv: f64,
    die: Arc<Die>,
}

impl FaultModel {
    /// Model the platform's default die.
    #[must_use]
    pub fn new(platform: Platform) -> FaultModel {
        let seed = platform.default_chip_seed;
        FaultModel::with_chip_seed(platform, seed)
    }

    /// Model a specific die. Same `(platform, chip_seed)` ⇒ bit-identical
    /// weak-cell population, thresholds and jitter — always.
    ///
    /// The die comes from [`FvmCache::global`]: it is generated on the
    /// first call for its key and shared by every later handle, so a die
    /// is resident once however many callers model it.
    #[must_use]
    pub fn with_chip_seed(platform: Platform, chip_seed: u64) -> FaultModel {
        FaultModel::clone(&FvmCache::global().model(platform, chip_seed))
    }

    /// Generate the die from scratch: every bitcell of the pool is hashed.
    /// Only [`FvmCache`] calls this, on a miss.
    pub(crate) fn build(platform: Platform, chip_seed: u64) -> FaultModel {
        let params = FaultParams::for_platform(platform.kind);
        let floorplan = Floorplan::new(platform.bram_count);
        let multipliers = die_multipliers(chip_seed, &floorplan, &params);
        let landmarks = platform.vccbram;

        let sent_h = mix(&[chip_seed, TAG_SENTINEL]);
        let sentinel_bram = BramId((sent_h % platform.bram_count as u64) as u32);
        let sentinel_row = ((sent_h >> 24) % BRAM_ROWS as u64) as u16;
        let sentinel_bit = ((sent_h >> 48) % BRAM_WORD_BITS as u64) as u8;

        let weak: Vec<Vec<WeakCell>> = multipliers
            .iter()
            .enumerate()
            .map(|(i, &multiplier)| {
                let id = BramId(i as u32);
                let sentinel = (id == sentinel_bram).then_some((sentinel_row, sentinel_bit));
                sort_by_threshold(generate_bram(
                    chip_seed, id, multiplier, landmarks, &params, sentinel,
                ))
            })
            .collect();
        let total_weak = weak.iter().map(Vec::len).sum();

        FaultModel {
            platform,
            chip_seed,
            params,
            env_noise_mv: 0.0,
            die: Arc::new(Die {
                weak,
                total_weak,
                sentinel: (sentinel_bram, sentinel_row, sentinel_bit),
            }),
        }
    }

    #[must_use]
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    #[must_use]
    pub fn chip_seed(&self) -> u64 {
        self.chip_seed
    }

    #[must_use]
    pub fn params(&self) -> &FaultParams {
        &self.params
    }

    /// The die's weakest cell — the one whose flip defines `Vmin`.
    #[must_use]
    pub fn sentinel(&self) -> (BramId, u16, u8) {
        self.die.sentinel
    }

    /// Harsh-environment knob (DESIGN §6b): `mv` of supply droop raises
    /// every effective threshold, exposing faults above the bench `Vmin`.
    /// Per handle: the shared die and every other handle are untouched.
    pub fn set_environment_noise_mv(&mut self, mv: f64) {
        self.env_noise_mv = mv;
    }

    #[must_use]
    pub fn environment_noise_mv(&self) -> f64 {
        self.env_noise_mv
    }

    /// Weak cells of one BRAM, sorted by descending threshold.
    #[must_use]
    pub fn weak_cells(&self, bram: BramId) -> &[WeakCell] {
        self.die
            .weak
            .get(bram.0 as usize)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    #[must_use]
    pub fn total_weak_cells(&self) -> usize {
        self.die.total_weak
    }

    /// Common-mode component of the run-to-run spread: one Gaussian draw
    /// per `run_seed` shifts every threshold on the die together. Per-cell
    /// jitter is independent across cells and averages out of the die-wide
    /// rate; this shared term survives the averaging and is what carries
    /// Table II's per-voltage-step σ (σ_rate ≈ rate · σ_spread / τ).
    /// Clamped to the same ±4σ window as cell jitter so the guardband
    /// above `Vmin` stays deterministically fault-free.
    fn run_spread_shift_mv(&self, cond: &ReadCondition) -> f64 {
        let sigma = self.params.run_spread_mv;
        if sigma == 0.0 {
            return 0.0;
        }
        let draw = standard_normal(mix(&[cond.run_seed, TAG_SPREAD]));
        sigma * draw.clamp(-JITTER_WINDOW_SIGMAS, JITTER_WINDOW_SIGMAS)
    }

    /// Signed shift applied to every threshold under `cond` (ITD + supply
    /// noise + the common-mode run spread).
    fn threshold_shift_mv(&self, cond: &ReadCondition) -> f64 {
        itd_shift_mv(&self.params, cond.temperature_c)
            + self.env_noise_mv
            + self.run_spread_shift_mv(cond)
    }

    /// Hoist the condition-dependent work (thermal shift, jitter window)
    /// out of the per-cell path: resolve once, query many.
    #[must_use]
    pub fn resolve(&self, cond: &ReadCondition) -> ResolvedCondition {
        ResolvedCondition::new(
            *cond,
            self.threshold_shift_mv(cond),
            self.params.run_jitter_sigma_mv,
        )
    }

    /// Per-row flip bitmasks of `bram` under `resolved`, for bulk
    /// corruption of whole read-back streams.
    #[must_use]
    pub fn fault_mask(&self, bram: BramId, resolved: &ResolvedCondition) -> FaultMask {
        FaultMask::build(self, bram, resolved)
    }

    /// Visit every cell of `bram` that flips under `resolved`, in
    /// descending threshold order: the per-cell scan the mask and plan
    /// kernels are tested against. Observability against stored data is
    /// the caller's concern ([`WeakCell::observable`]) — the silicon
    /// doesn't know what the design wrote.
    pub fn for_each_failing_resolved(
        &self,
        bram: BramId,
        resolved: &ResolvedCondition,
        mut f: impl FnMut(&WeakCell),
    ) {
        let cutoff = resolved.cutoff_mv();
        for cell in self.weak_cells(bram) {
            if cell.vfail_mv < cutoff {
                break; // sorted descending: nothing further can fail
            }
            if resolved.cell_fails(bram, cell) {
                f(cell);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uvf_fpga::PlatformKind;

    fn model(kind: PlatformKind) -> FaultModel {
        FaultModel::new(kind.descriptor())
    }

    fn count_at(m: &FaultModel, v: Millivolts, run: u32) -> u64 {
        let cond = ReadCondition {
            v,
            temperature_c: 25.0,
            run_seed: run_seed(m.chip_seed(), Rail::Vccbram, v, run),
        };
        let resolved = m.resolve(&cond);
        let mut n = 0u64;
        for b in 0..m.platform().bram_count as u32 {
            // FFFF pattern: every 1→0 flip is observable.
            m.for_each_failing_resolved(BramId(b), &resolved, |c| {
                if c.one_to_zero {
                    n += 1;
                }
            });
        }
        n
    }

    #[test]
    fn rate_at_vcrash_is_calibrated() {
        // ZC702 is the smallest pool → fastest; the calibration acceptance
        // tests in uvf-characterize cover all four platforms end-to-end.
        let m = model(PlatformKind::Zc702);
        let vcrash = m.platform().vccbram.vcrash;
        let target = m.params().p_crash_per_bit * m.platform().total_bits() as f64;
        let got = count_at(&m, vcrash, 0) as f64;
        let rel = (got - target).abs() / target;
        assert!(rel < 0.10, "faults at Vcrash {got}, target {target}");
    }

    #[test]
    fn no_faults_above_vmin_and_some_at_vmin() {
        let m = model(PlatformKind::Zc702);
        let vmin = m.platform().vccbram.vmin;
        assert_eq!(count_at(&m, Millivolts(vmin.0 + 10), 0), 0);
        assert!(count_at(&m, vmin, 0) >= 1, "sentinel defines Vmin");
    }

    #[test]
    fn rate_grows_exponentially_towards_vcrash() {
        let m = model(PlatformKind::Zc702);
        let lm = m.platform().vccbram;
        let mid = Millivolts((lm.vmin.0 + lm.vcrash.0) / 2);
        let at_mid = count_at(&m, mid, 0);
        let at_crash = count_at(&m, lm.vcrash, 0);
        assert!(
            at_mid > 0 && at_crash > at_mid * 4,
            "{at_mid} vs {at_crash}"
        );
    }

    #[test]
    fn same_seed_same_faults_different_seed_different_faults() {
        let p = PlatformKind::Zc702.descriptor();
        let a = FaultModel::with_chip_seed(p, 111);
        // An independent generation, not a second handle onto `a`'s die.
        let b = FaultModel::build(p, 111);
        let c = FaultModel::with_chip_seed(p, 222);
        let vcrash = p.vccbram.vcrash;
        assert_eq!(count_at(&a, vcrash, 5), count_at(&b, vcrash, 5));
        assert_ne!(count_at(&a, vcrash, 5), count_at(&c, vcrash, 5));
    }

    #[test]
    fn hotter_die_shows_fewer_faults() {
        let m = model(PlatformKind::Zc702);
        let vcrash = m.platform().vccbram.vcrash;
        let cond = |t| ReadCondition {
            v: vcrash,
            temperature_c: t,
            run_seed: run_seed(m.chip_seed(), Rail::Vccbram, vcrash, 0),
        };
        let count = |t| {
            let resolved = m.resolve(&cond(t));
            let mut n = 0u64;
            for b in 0..m.platform().bram_count as u32 {
                m.for_each_failing_resolved(BramId(b), &resolved, |_| n += 1);
            }
            n
        };
        let cold = count(50.0);
        let hot = count(80.0);
        assert!(
            hot * 2 < cold,
            "ITD: hot {hot} should be well below cold {cold}"
        );
    }

    #[test]
    fn environment_noise_exposes_faults_above_vmin() {
        let mut m = model(PlatformKind::Zc702);
        let above = Millivolts(m.platform().vccbram.vmin.0 + 10);
        assert_eq!(count_at(&m, above, 0), 0);
        m.set_environment_noise_mv(15.0);
        assert!(count_at(&m, above, 0) >= 1, "droop exposes faults early");
    }

    #[test]
    fn every_default_die_is_in_comparator_order() {
        // The integer sort key must give the order of the float comparator
        // it replaced: descending `total_cmp`, then `(row, bit)`.
        for kind in PlatformKind::ALL {
            let m = model(kind);
            for b in 0..m.platform().bram_count as u32 {
                let cells = m.weak_cells(BramId(b));
                assert!(
                    cells.is_sorted_by(|a, b| {
                        b.vfail_mv
                            .total_cmp(&a.vfail_mv)
                            .then(a.row.cmp(&b.row))
                            .then(a.bit.cmp(&b.bit))
                            .is_lt()
                    }),
                    "{kind:?} BRAM {b}"
                );
            }
        }
    }

    #[test]
    fn total_weak_cells_matches_per_bram_sum() {
        let m = model(PlatformKind::Zc702);
        let summed: usize = (0..m.platform().bram_count as u32)
            .map(|b| m.weak_cells(BramId(b)).len())
            .sum();
        assert_eq!(m.total_weak_cells(), summed);
        assert!(m.total_weak_cells() > 0);
    }

    #[test]
    fn corrupt_word_flips_only_observable_bits() {
        let m = model(PlatformKind::Zc702);
        let vcrash = m.platform().vccbram.vcrash;
        let resolved = m.resolve(&ReadCondition {
            v: vcrash,
            temperature_c: 25.0,
            run_seed: run_seed(m.chip_seed(), Rail::Vccbram, vcrash, 0),
        });
        let mut checked_flip = false;
        for b in 0..m.platform().bram_count as u32 {
            let id = BramId(b);
            let mask = m.fault_mask(id, &resolved);
            let mut ones = [0xFFFFu16; BRAM_ROWS];
            let mut zeros = [0x0000u16; BRAM_ROWS];
            mask.apply_all(&mut ones);
            mask.apply_all(&mut zeros);
            m.for_each_failing_resolved(id, &resolved, |c| {
                if c.one_to_zero {
                    let read = ones[c.row as usize];
                    assert_eq!(read & (1 << c.bit), 0, "1→0 flip visible on FFFF");
                    // The same cell is invisible on a stored 0.
                    let zero = zeros[c.row as usize];
                    assert_eq!(zero & (1 << c.bit), 0);
                    checked_flip = true;
                }
            });
            if checked_flip {
                break;
            }
        }
        assert!(checked_flip, "no failing cell found at Vcrash");
    }
}
