//! Fault Variation Map (FVM): the paper's per-BRAM vulnerability census.
//!
//! Section V-C builds ICBP on one observation: fault rates vary wildly
//! across the BRAMs of a die (Fig. 5 — a quarter of blocks never fault,
//! the worst ones carry many times the average), and the variation is a
//! *repeatable property of the physical sites*. The FVM is that
//! observation as data: for every BRAM, the number of cells whose failure
//! threshold sits at or above a reference voltage, counted from the die
//! model alone — no jitter, no thermal shift — so the map is a pure
//! function of `(chip_seed, v_ref)` and identical across power cycles,
//! recompilations and placements.
//!
//! `uvf-accel` ranks BRAMs by this census to constrain the most vulnerable
//! NN layer onto the least faulty sites; `uvf-characterize` persists it as
//! an `FvmRecord`.

use crate::model::FaultModel;
use uvf_fpga::{BramId, Millivolts, PlatformKind};

/// Per-BRAM weak-cell census at a reference voltage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultVariationMap {
    platform: PlatformKind,
    chip_seed: u64,
    v_ref_mv: u32,
    counts: Vec<u32>,
}

impl FaultVariationMap {
    /// Build the census directly from per-BRAM counts (the record-loading
    /// path). Prefer [`FaultModel::variation_map`] when a model is at hand.
    #[must_use]
    pub fn from_counts(
        platform: PlatformKind,
        chip_seed: u64,
        v_ref: Millivolts,
        counts: Vec<u32>,
    ) -> FaultVariationMap {
        FaultVariationMap {
            platform,
            chip_seed,
            v_ref_mv: v_ref.0,
            counts,
        }
    }

    #[must_use]
    pub fn platform(&self) -> PlatformKind {
        self.platform
    }

    #[must_use]
    pub fn chip_seed(&self) -> u64 {
        self.chip_seed
    }

    /// Reference voltage of the census.
    #[must_use]
    pub fn v_ref(&self) -> Millivolts {
        Millivolts(self.v_ref_mv)
    }

    /// Weak-cell count per BRAM, indexed by `BramId`.
    #[must_use]
    pub fn counts(&self) -> &[u32] {
        &self.counts
    }

    #[must_use]
    pub fn count(&self, bram: BramId) -> u32 {
        self.counts[bram.0 as usize]
    }

    #[must_use]
    pub fn bram_count(&self) -> usize {
        self.counts.len()
    }

    /// Total weak cells at the reference voltage, die-wide.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.counts.iter().map(|&c| u64::from(c)).sum()
    }

    /// Fraction of BRAMs with no weak cell at the reference voltage — the
    /// paper's "never faulty" share (Fig. 5).
    #[must_use]
    pub fn never_faulty_share(&self) -> f64 {
        let clean = self.counts.iter().filter(|&&c| c == 0).count();
        clean as f64 / self.counts.len() as f64
    }
}

impl FaultModel {
    /// Census the die at `v_ref`: for each BRAM, how many cells would fail
    /// a read at `v_ref` deterministically (no run jitter, reference
    /// temperature). The paper obtains this map experimentally by sweeping
    /// at `v_ref`; observation ❶ (faults are repeatable) makes the
    /// experimental map converge to exactly this census.
    #[must_use]
    pub fn variation_map(&self, v_ref: Millivolts) -> FaultVariationMap {
        self.variation_map_at(v_ref, self.params().t_ref_c)
    }

    /// [`FaultModel::variation_map`] at an explicit die temperature: the
    /// ITD shift moves every effective threshold, so a hotter die shows a
    /// smaller census at the same reference voltage (Fig. 8 applied to the
    /// FVM). At the calibration reference temperature the shift is exactly
    /// zero and this is byte-for-byte [`FaultModel::variation_map`] — the
    /// invariant the `(platform, chip_seed, temp_c)` cache key relies on.
    #[must_use]
    pub fn variation_map_at(&self, v_ref: Millivolts, temperature_c: f64) -> FaultVariationMap {
        let cutoff =
            f64::from(v_ref.0) - crate::thermal::itd_shift_mv(self.params(), temperature_c);
        let counts = (0..self.platform().bram_count as u32)
            .map(|b| {
                // Weak lists are sorted by descending threshold: count the
                // prefix at or above the reference cutoff.
                self.weak_cells(BramId(b))
                    .iter()
                    .take_while(|c| c.vfail_mv >= cutoff)
                    .count() as u32
            })
            .collect();
        FaultVariationMap {
            platform: self.platform().kind,
            chip_seed: self.chip_seed(),
            v_ref_mv: v_ref.0,
            counts,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> FaultModel {
        FaultModel::new(PlatformKind::Zc702.descriptor())
    }

    #[test]
    fn census_is_deterministic_per_chip_seed() {
        let platform = PlatformKind::Zc702.descriptor();
        let v = platform.vccbram.vcrash;
        let a = FaultModel::with_chip_seed(platform, 0xD1E5).variation_map(v);
        // An independent generation, not a second handle onto `a`'s die.
        let b = FaultModel::build(platform, 0xD1E5).variation_map(v);
        assert_eq!(a, b);
        let c = FaultModel::with_chip_seed(platform, 0xD1E6).variation_map(v);
        assert_ne!(a.counts(), c.counts(), "different die, different map");
    }

    #[test]
    fn census_grows_as_v_ref_drops() {
        let m = model();
        let lm = m.platform().vccbram;
        let at_vmin = m.variation_map(lm.vmin);
        let at_vcrash = m.variation_map(lm.vcrash);
        assert!(at_vcrash.total() > at_vmin.total());
        for (a, b) in at_vmin.counts().iter().zip(at_vcrash.counts()) {
            assert!(a <= b, "census must be monotone in v_ref");
        }
    }

    #[test]
    fn total_matches_the_per_bram_counts() {
        let m = model();
        let map = m.variation_map(m.platform().vccbram.vcrash);
        assert_eq!(map.counts().len(), m.platform().bram_count);
        let sum: u64 = (0..m.platform().bram_count as u32)
            .map(|b| u64::from(map.count(BramId(b))))
            .sum();
        assert_eq!(sum, map.total());
    }

    #[test]
    fn immune_mass_shows_up_as_never_faulty_brams() {
        let m = model();
        let map = m.variation_map(m.platform().vccbram.vcrash);
        let share = map.never_faulty_share();
        // At least the immune fraction of BRAMs carries zero weak cells
        // (low-multiplier dies add a few more).
        assert!(
            share >= m.params().immune_fraction,
            "never-faulty share {share}"
        );
        assert!(share < 0.75, "never-faulty share {share}");
    }
}
