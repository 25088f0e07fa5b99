//! Weight→BRAM placement (the paper's §V-C floorplanning study).
//!
//! Every layer's weight matrix is stored one 16-bit word per BRAM row, so
//! a layer occupying `ceil(weights / 1024)` block RAMs. The default
//! toolflow packs layers back-to-back into consecutive BRAM sites — the
//! Pblock-style contiguous placement the paper starts from. The
//! *intelligently-constrained BRAM placement* (ICBP) mitigation reorders
//! this: it ranks sites by their measured fault counts (the
//! [`FaultVariationMap`]) and pins the most-vulnerable layer onto the
//! least-faulty contiguous window, at zero area cost.

use uvf_faults::FaultVariationMap;
use uvf_fpga::{BramId, BRAM_ROWS};

/// BRAMs needed to hold `weights` 16-bit words when each BRAM only
/// offers `words_per_bram` usable words — 1024 in the raw layout, 896
/// ([`uvf_fpga::ECC_WORDS_PER_BRAM`]) in ECC mode, where the parity
/// region eats 12.5 % of the array.
#[must_use]
pub fn brams_for_capacity(weights: usize, words_per_bram: usize) -> usize {
    weights.div_ceil(words_per_bram)
}

/// A per-layer assignment of BRAM sites.
///
/// Layer `l`'s `i`-th block of 1024 weights lives in `layer(l)[i]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Placement {
    assignments: Vec<Vec<BramId>>,
}

impl Placement {
    /// Default toolflow placement: layers packed back-to-back from site 0.
    #[must_use]
    pub fn contiguous(layer_weights: &[usize]) -> Placement {
        Placement::contiguous_with_capacity(layer_weights, BRAM_ROWS)
    }

    /// [`Placement::contiguous`] with an explicit per-BRAM word capacity
    /// (ECC mode stores 896 usable words per BRAM instead of 1024).
    #[must_use]
    pub fn contiguous_with_capacity(layer_weights: &[usize], words_per_bram: usize) -> Placement {
        let mut next = 0u32;
        let assignments = layer_weights
            .iter()
            .map(|&w| {
                let start = next;
                next += brams_for_capacity(w, words_per_bram) as u32;
                (start..next).map(BramId).collect()
            })
            .collect();
        Placement { assignments }
    }

    /// ICBP: pin `protected` onto the least-faulty contiguous window of
    /// the device, then pack the remaining layers in order around it.
    ///
    /// The window is chosen by minimum total fault count in `fvm`, ties
    /// broken toward the lowest start index — fully deterministic for a
    /// given map. Uses exactly as many BRAMs as [`Placement::contiguous`].
    ///
    /// # Panics
    /// If the device is too small for the network or `protected` is out
    /// of range.
    #[must_use]
    pub fn icbp(layer_weights: &[usize], fvm: &FaultVariationMap, protected: usize) -> Placement {
        Placement::icbp_with_capacity(layer_weights, fvm, protected, BRAM_ROWS)
    }

    /// [`Placement::icbp`] with an explicit per-BRAM word capacity, for
    /// combining ICBP with the ECC storage layout (`EccIcbp`).
    ///
    /// # Panics
    /// If the device is too small for the network or `protected` is out
    /// of range.
    #[must_use]
    pub fn icbp_with_capacity(
        layer_weights: &[usize],
        fvm: &FaultVariationMap,
        protected: usize,
        words_per_bram: usize,
    ) -> Placement {
        assert!(protected < layer_weights.len(), "protected layer index");
        let counts = fvm.counts();
        let total: usize = layer_weights
            .iter()
            .map(|&w| brams_for_capacity(w, words_per_bram))
            .sum();
        assert!(total <= counts.len(), "network does not fit the device");

        let k = brams_for_capacity(layer_weights[protected], words_per_bram);
        let window = min_fault_window(counts, k);

        let mut assignments = vec![Vec::new(); layer_weights.len()];
        assignments[protected] = (window..window + k as u32).map(BramId).collect();

        // Remaining layers fill the id space in order, skipping the
        // protected window. A layer may straddle the window; its rows
        // stay ordered, so the mapping is still deterministic.
        let mut next = 0u32;
        for (l, &w) in layer_weights.iter().enumerate() {
            if l == protected {
                continue;
            }
            let need = brams_for_capacity(w, words_per_bram);
            let mut ids = Vec::with_capacity(need);
            while ids.len() < need {
                if next >= window && next < window + k as u32 {
                    next = window + k as u32;
                }
                ids.push(BramId(next));
                next += 1;
            }
            assignments[l] = ids;
        }
        Placement { assignments }
    }

    /// Number of layers.
    #[must_use]
    pub fn layers(&self) -> usize {
        self.assignments.len()
    }

    /// The BRAM sites assigned to layer `l`, in weight order.
    #[must_use]
    pub fn layer(&self, l: usize) -> &[BramId] {
        &self.assignments[l]
    }

    /// Total BRAMs used across all layers.
    #[must_use]
    pub fn total_brams(&self) -> usize {
        self.assignments.iter().map(Vec::len).sum()
    }

    /// Total measured faults across layer `l`'s sites.
    #[must_use]
    pub fn layer_fault_count(&self, l: usize, fvm: &FaultVariationMap) -> u64 {
        self.assignments[l]
            .iter()
            .map(|&id| u64::from(fvm.count(id)))
            .sum()
    }
}

/// Start of the size-`k` window with the fewest faults (lowest start on
/// ties).
fn min_fault_window(counts: &[u32], k: usize) -> u32 {
    assert!(k > 0 && k <= counts.len(), "window size");
    let mut sum: u64 = counts[..k].iter().map(|&c| u64::from(c)).sum();
    let mut best = (sum, 0u32);
    for s in 1..=counts.len() - k {
        sum += u64::from(counts[s + k - 1]);
        sum -= u64::from(counts[s - 1]);
        if sum < best.0 {
            best = (sum, s as u32);
        }
    }
    best.1
}

#[cfg(test)]
mod tests {
    use super::*;
    use uvf_faults::FaultModel;
    use uvf_fpga::{Millivolts, Platform, PlatformKind};

    fn vc707_fvm(chip_seed: u64) -> FaultVariationMap {
        let platform = Platform::new(PlatformKind::Vc707);
        let v = Millivolts(platform.rail(uvf_fpga::Rail::Vccbram).vcrash.0 + 10);
        FaultModel::with_chip_seed(platform, chip_seed).variation_map(v)
    }

    #[test]
    fn contiguous_packs_back_to_back() {
        let p = Placement::contiguous(&[2048, 1024, 100]);
        assert_eq!(p.layer(0), &[BramId(0), BramId(1)]);
        assert_eq!(p.layer(1), &[BramId(2)]);
        assert_eq!(p.layer(2), &[BramId(3)]);
        assert_eq!(p.total_brams(), 4);
    }

    #[test]
    fn min_window_is_truly_minimal() {
        let counts = [5u32, 0, 1, 0, 0, 7];
        // Size-2 windows: 5,1,1,0,7 → best starts at 3.
        assert_eq!(min_fault_window(&counts, 2), 3);
        // Ties break low: two zero singles at 1 and 3 → 1.
        assert_eq!(min_fault_window(&counts, 1), 1);
    }

    #[test]
    fn icbp_pins_protected_layer_to_cleanest_window() {
        let fvm = vc707_fvm(1);
        let weights = [2048usize, 1024, 512];
        let p = Placement::icbp(&weights, &fvm, 2);
        // Exhaustive check: no size-1 window beats the chosen one.
        let chosen = p.layer_fault_count(2, &fvm);
        let min = fvm.counts().iter().copied().min().unwrap();
        assert_eq!(chosen, u64::from(min));
        // Same budget as the default placement, no overlaps.
        assert_eq!(
            p.total_brams(),
            Placement::contiguous(&weights).total_brams()
        );
        let mut all: Vec<u32> = (0..p.layers())
            .flat_map(|l| p.layer(l).iter().map(|b| b.0))
            .collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), p.total_brams(), "no BRAM shared by two layers");
    }

    #[test]
    fn ecc_capacity_needs_more_brams_for_the_same_net() {
        let weights = [100_352usize, 1280];
        let raw = Placement::contiguous(&weights);
        let ecc = Placement::contiguous_with_capacity(&weights, uvf_fpga::ECC_WORDS_PER_BRAM);
        assert_eq!(raw.layer(0).len(), 98);
        assert_eq!(ecc.layer(0).len(), 112, "896-word BRAMs: 12.5 % more sites");
        assert_eq!(ecc.layer(1).len(), 2);
        // ICBP composes with the reduced capacity: protected window sized
        // in ECC BRAMs, disjoint from the rest, deterministic.
        let fvm = vc707_fvm(3);
        let a = Placement::icbp_with_capacity(&weights, &fvm, 1, uvf_fpga::ECC_WORDS_PER_BRAM);
        let b = Placement::icbp_with_capacity(&weights, &fvm, 1, uvf_fpga::ECC_WORDS_PER_BRAM);
        assert_eq!(a, b);
        assert_eq!(a.total_brams(), ecc.total_brams());
        let mut all: Vec<u32> = (0..a.layers())
            .flat_map(|l| a.layer(l).iter().map(|b| b.0))
            .collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), a.total_brams());
    }

    #[test]
    fn icbp_is_deterministic_across_rebuilds() {
        // Property-style: for several chips, two independently computed
        // placements from equal maps must be identical.
        for chip_seed in [1u64, 2, 3, 4, 5] {
            let a = Placement::icbp(&[4096, 2048, 1280], &vc707_fvm(chip_seed), 2);
            let b = Placement::icbp(&[4096, 2048, 1280], &vc707_fvm(chip_seed), 2);
            assert_eq!(a, b, "chip {chip_seed}");
            // Every site lies on the VC707's 2060 BRAMs.
            assert!((0..a.layers()).all(|l| a.layer(l).iter().all(|id| id.0 < 2060)));
        }
    }
}
