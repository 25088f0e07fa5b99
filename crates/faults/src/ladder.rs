//! Batched level scans: every run of one ladder level through one
//! sorted-cell scan.
//!
//! Listing 1 reads each level of its voltage ladder many times, one run
//! seed per read, and the weak-cell arrays are already sorted by descending
//! threshold. [`MaskPlan`] batches every run of one level through a single
//! [`ResolvedCondition`] family sharing one sorted-cell scan: the certain
//! prefix common to every run is counted once per BRAM and each run then
//! costs two galloping searches, its few extra certain cells and its own
//! jitter window. A single-condition plan is the per-run scan.
//!
//! Bit-identity with the per-run scan holds by construction: the search
//! predicates are the exact comparisons of
//! [`ResolvedCondition::cell_fails`] (`vfail >= certain_mv` always fails,
//! `vfail < cutoff_mv` never fails), window cells are decided by the
//! [`crate::WindowJudge`] that reproduces `cell_fails` with identical
//! draws, and per-run counts are sums of `u64`s — order-independent.
//! `tests/ladder_equivalence.rs` pins this against
//! [`FaultModel::for_each_failing_resolved`] over randomized trials.

use crate::mask::ResolvedCondition;
use crate::model::FaultModel;
use crate::weakcells::WeakCell;
use uvf_fpga::BramId;

/// All runs of one ladder level, batched through a single sorted-cell scan.
///
/// The conditions of one level share `(v, T)` but differ in `run_seed`, so
/// their common-mode spread (and with it the certain/cutoff boundaries)
/// jitters by a few mV per run. The plan scans each BRAM once down to the
/// *loosest* cutoff of the family, counts the certain prefix every run
/// shares, and then prices each run at two galloping searches, its own extra
/// certain cells and its jitter window — instead of one full descending
/// scan per run. Window cells go through [`ResolvedCondition::window_judge`].
#[derive(Debug, Clone)]
pub struct MaskPlan<'m> {
    model: &'m FaultModel,
    resolved: Vec<ResolvedCondition>,
    /// Minimum `cutoff_mv` across the family: the shared scan boundary.
    scan_cutoff_mv: f64,
    /// Maximum `certain_mv` across the family: cells at or above it fail
    /// under every condition.
    shared_certain_mv: f64,
}

/// Length of the leading run of `cells` with `vfail_mv >= mv`: exactly
/// `cells.partition_point(|c| c.vfail_mv >= mv)` on a descending-threshold
/// array, found by galloping from the head. It probes indices 0, 1, 3, 7,
/// … until a cell falls below `mv`, then binary-searches the last doubling.
/// The prefixes a scan needs are short next to a BRAM's array, so the
/// search stays in its first cache lines, and an empty prefix (most BRAMs
/// on most rungs) costs one compare.
pub(crate) fn prefix_len(cells: &[WeakCell], mv: f64) -> usize {
    // `cells[..lo]` are known to be at or above `mv`.
    let mut lo = 0;
    let mut probe = 0;
    let mut step = 1;
    while probe < cells.len() && cells[probe].vfail_mv >= mv {
        lo = probe + 1;
        probe += step;
        step *= 2;
    }
    let hi = probe.min(cells.len());
    lo + cells[lo..hi].partition_point(|c| c.vfail_mv >= mv)
}

/// Cells of `cells` that satisfy `pred`.
fn count(cells: &[WeakCell], pred: impl Fn(&WeakCell) -> bool) -> u64 {
    let mut n = 0u64;
    for cell in cells {
        if pred(cell) {
            n += 1;
        }
    }
    n
}

impl<'m> MaskPlan<'m> {
    /// Plan a family of resolved conditions (typically every run of one
    /// level). An empty family is allowed and prices everything at zero.
    #[must_use]
    pub fn new(model: &'m FaultModel, resolved: Vec<ResolvedCondition>) -> MaskPlan<'m> {
        let scan_cutoff_mv = resolved
            .iter()
            .map(ResolvedCondition::cutoff_mv)
            .fold(f64::INFINITY, f64::min);
        let shared_certain_mv = resolved
            .iter()
            .map(ResolvedCondition::certain_mv)
            .fold(f64::NEG_INFINITY, f64::max);
        MaskPlan {
            model,
            resolved,
            scan_cutoff_mv,
            shared_certain_mv,
        }
    }

    /// Observable fault counts of one BRAM for every condition of the
    /// family; `out[i]` receives condition `i`'s count. `observable`
    /// decides whether a flipping cell is visible against the stored data
    /// (see [`WeakCell::observable`]). Each count is bit-identical to an
    /// independent descending scan of the same condition. Allocates
    /// nothing.
    ///
    /// # Panics
    /// When `out` is shorter than the condition family.
    pub fn bram_counts(
        &self,
        bram: BramId,
        observable: impl Fn(BramId, &WeakCell) -> bool,
        out: &mut [u64],
    ) {
        assert!(out.len() >= self.resolved.len(), "output slice too short");
        let cells = self.model.weak_cells(bram);
        let prefix = &cells[..prefix_len(cells, self.scan_cutoff_mv)];
        if prefix.is_empty() {
            // Most BRAMs on most rungs: nothing can fail, nothing to judge.
            out[..self.resolved.len()].fill(0);
            return;
        }
        // Every condition's certain prefix contains the family's shortest
        // one: count that shared part once, then each condition's own few
        // extra certain cells and its jitter window.
        let shared = prefix_len(prefix, self.shared_certain_mv);
        let shared_count = count(&prefix[..shared], |c| observable(bram, c));
        for (slot, rc) in out.iter_mut().zip(&self.resolved) {
            // Nested boundaries: `shared ≤ certain_idx ≤ cutoff_idx`, so
            // each search gallops on from the last.
            let certain_idx = shared + prefix_len(&prefix[shared..], rc.certain_mv());
            let cutoff_idx = certain_idx + prefix_len(&prefix[certain_idx..], rc.cutoff_mv());
            let mut n = shared_count + count(&prefix[shared..certain_idx], |c| observable(bram, c));
            if certain_idx < cutoff_idx {
                let judge = rc.window_judge(bram);
                n += count(&prefix[certain_idx..cutoff_idx], |c| {
                    observable(bram, c) && judge.fails(c)
                });
            }
            *slot = n;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mask::FaultMask;
    use crate::model::{run_seed, ReadCondition};
    use uvf_fpga::{Millivolts, PlatformKind, Rail};

    fn model() -> FaultModel {
        FaultModel::new(PlatformKind::Zc702.descriptor())
    }

    fn resolved_at(m: &FaultModel, v: Millivolts, run: u32) -> ResolvedCondition {
        m.resolve(&ReadCondition {
            v,
            temperature_c: 25.0,
            run_seed: run_seed(m.chip_seed(), Rail::Vccbram, v, run),
        })
    }

    #[test]
    fn plan_counts_match_independent_scans() {
        let m = model();
        let lm = m.platform().vccbram;
        let v = lm.vcrash;
        let family: Vec<ResolvedCondition> = (0..8).map(|run| resolved_at(&m, v, run)).collect();
        let plan = MaskPlan::new(&m, family.clone());
        let all_ones = |_: BramId, c: &WeakCell| c.observable(true);
        let mut got = vec![0u64; family.len()];
        for b in (0..m.platform().bram_count as u32).step_by(11) {
            let bram = BramId(b);
            plan.bram_counts(bram, all_ones, &mut got);
            for (i, rc) in family.iter().enumerate() {
                let mut expect = 0u64;
                m.for_each_failing_resolved(bram, rc, |c| {
                    if c.observable(true) {
                        expect += 1;
                    }
                });
                assert_eq!(got[i], expect, "BRAM {b} run {i}");
            }
        }
    }

    #[test]
    fn plan_masks_match_rebuilds() {
        // With every flip observable, a plan counts exactly the cells the
        // rebuilt mask of the same condition flips.
        let m = model();
        let v = m.platform().vccbram.vcrash;
        let family: Vec<ResolvedCondition> = (0..4).map(|run| resolved_at(&m, v, run)).collect();
        let plan = MaskPlan::new(&m, family.clone());
        let bram = m.sentinel().0;
        let mut got = vec![0u64; family.len()];
        plan.bram_counts(bram, |_, _| true, &mut got);
        assert!(got.iter().any(|&n| n > 0), "{got:?}");
        for (n, rc) in got.iter().zip(&family) {
            assert_eq!(*n, u64::from(FaultMask::build(&m, bram, rc).flip_cells()));
        }
    }

    #[test]
    fn prefix_len_equals_partition_point() {
        // Descending thresholds 1000, 999, …: a cutoff of `1000.5 - p`
        // keeps exactly the first `p` cells.
        let descending = |n: usize| -> Vec<WeakCell> {
            (0..n)
                .map(|i| WeakCell {
                    row: i as u16,
                    bit: 0,
                    one_to_zero: true,
                    vfail_mv: 1000.0 - i as f64,
                })
                .collect()
        };
        let check = |cells: &[WeakCell], mv: f64| {
            assert_eq!(
                prefix_len(cells, mv),
                cells.partition_point(|c| c.vfail_mv >= mv),
                "{} cells, cutoff {mv}",
                cells.len()
            );
        };
        check(&[], 500.0);
        for n in [1, 2, 3, 7, 8, 9, 300] {
            let cells = descending(n);
            check(&cells, 0.0); // all above
            check(&cells, 2000.0); // all below
            check(&cells, 1000.0); // equality keeps the head
            for p in 0..=n {
                check(&cells, 1000.5 - p as f64);
                check(&cells, 1000.0 - p as f64); // on a threshold
            }
        }
        // Prefix lengths at and around every power of two.
        let cells = descending(1100);
        for e in 0..11 {
            for p in [(1usize << e) - 1, 1 << e, (1 << e) + 1] {
                assert_eq!(prefix_len(&cells, 1000.5 - p as f64), p);
            }
        }
    }

    #[test]
    fn empty_plan_is_harmless() {
        let m = model();
        let plan = MaskPlan::new(&m, Vec::new());
        assert!(plan.resolved.is_empty());
        let mut out = [7u64; 2];
        plan.bram_counts(BramId(0), |_, _| true, &mut out);
        assert_eq!(out, [7, 7], "no condition may touch the output");
    }
}
