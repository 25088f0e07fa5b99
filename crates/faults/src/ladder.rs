//! Incremental ladder kernels: monotone mask deltas and batched level scans.
//!
//! Listing 1 is a monotone descending voltage ladder, and the weak-cell
//! arrays are already sorted by descending threshold, so each level's
//! deterministic failing set is a *prefix* of the previous level's — yet
//! the seed-era path rebuilt every [`FaultMask`] from scratch at every
//! (level, run) condition. The two kernels here exploit the sort once:
//!
//! * [`LadderKernel`] maintains one BRAM's AND/OR row masks *incrementally*
//!   across conditions. The deterministic ("certain") prefix is located by
//!   binary search and only newly-certain cells are OR'd in; the per-run
//!   jitter window — which is **not** monotone across levels, because the
//!   jitter draws are keyed by the level-specific `run_seed` — is applied
//!   as a revertible overlay with an undo log. Per-sweep mask cost drops
//!   from O(levels × cells) to O(cells log cells + total faulting cells).
//! * [`MaskPlan`] batches every run of one level through a single
//!   [`ResolvedCondition`] family sharing one sorted-cell scan: the
//!   certain prefix common to every run is counted once per BRAM and each
//!   run then costs two binary searches, its few extra certain cells and
//!   its own jitter window. A single-condition plan is the per-run scan.
//!
//! Bit-identity with the per-level path is non-negotiable and holds by
//! construction: the binary-search predicates are the exact comparisons of
//! [`ResolvedCondition::cell_fails`] (`vfail >= certain_mv` always fails,
//! `vfail < cutoff_mv` never fails), window cells are decided by
//! `cell_fails` itself with identical draws, and per-run counts are sums of
//! `u64`s — order-independent. `tests/ladder_equivalence.rs` pins this
//! against [`FaultMask::build`] over randomized ladders.

use crate::mask::{FaultMask, ResolvedCondition};
use crate::model::FaultModel;
use crate::weakcells::WeakCell;
use uvf_fpga::{BramId, BRAM_ROWS};

/// What one [`LadderKernel::advance`] did — the per-level delta stats the
/// bench and trace layers report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LadderStep {
    /// Cells newly committed to the deterministic prefix at this level.
    pub newly_certain: u32,
    /// Cells un-committed because the ladder moved *up* (non-monotone
    /// ladders only; zero on a pure Listing-1 descent).
    pub retreated: u32,
    /// Cells inside this condition's jitter window (evaluated per level).
    pub window_cells: u32,
    /// Window cells that actually failed this condition's jitter draw.
    pub window_flips: u32,
}

/// Incremental per-BRAM fault masks across a ladder of conditions.
///
/// After [`LadderKernel::advance`], the kernel's rows are exactly the rows
/// [`FaultMask::build`] would produce for the same condition; snapshot them
/// with [`LadderKernel::to_mask`].
#[derive(Debug, Clone)]
pub struct LadderKernel<'m> {
    model: &'m FaultModel,
    bram: BramId,
    and_masks: Vec<u16>,
    or_masks: Vec<u16>,
    /// Length of the descending weak-cell prefix committed into the masks.
    committed: usize,
    /// Jitter-window overlay undo log: indexes (into the BRAM's weak-cell
    /// array) of overlay-applied cells, reverted via `unapply_cell` before
    /// each advance. Sound because `(row, bit)` is unique per BRAM, so
    /// apply/unapply touch exactly one bit of one mask word.
    undo: Vec<u32>,
    window_flips: u32,
    /// Previous condition's cutoff boundary — the seek hint that turns the
    /// per-level binary searches into amortized-O(1) scans on a ladder.
    cutoff_hint: usize,
}

/// Boundary of the descending prefix `vfail_mv >= bound`, sought linearly
/// from a hint index. Successive ladder conditions move each boundary by
/// only a few cells (a 10 mV rung, or the run-to-run spread within one
/// level's family), so a bidirectional linear scan beats re-running binary
/// search — and is never asymptotically worse than the rebuild it
/// replaces. Exact same answer as `cells.partition_point` by construction.
fn boundary_from(cells: &[WeakCell], hint: usize, bound: f64) -> usize {
    let mut i = hint.min(cells.len());
    while i > 0 && cells[i - 1].vfail_mv < bound {
        i -= 1;
    }
    while i < cells.len() && cells[i].vfail_mv >= bound {
        i += 1;
    }
    i
}

impl<'m> LadderKernel<'m> {
    /// A kernel with identity masks (no condition advanced yet).
    #[must_use]
    pub fn new(model: &'m FaultModel, bram: BramId) -> LadderKernel<'m> {
        LadderKernel {
            model,
            bram,
            and_masks: vec![0xFFFF; BRAM_ROWS],
            or_masks: vec![0x0000; BRAM_ROWS],
            committed: 0,
            undo: Vec::new(),
            window_flips: 0,
            cutoff_hint: 0,
        }
    }

    #[must_use]
    pub fn bram(&self) -> BramId {
        self.bram
    }

    /// Cells currently flipping (committed prefix + window overlay) —
    /// equals [`FaultMask::flip_cells`] of the same condition.
    #[must_use]
    pub fn flip_cells(&self) -> u32 {
        self.committed as u32 + self.window_flips
    }

    fn apply_cell(and_masks: &mut [u16], or_masks: &mut [u16], cell: &WeakCell) {
        let bit = 1u16 << cell.bit;
        let row = cell.row as usize;
        if cell.one_to_zero {
            and_masks[row] &= !bit;
        } else {
            or_masks[row] |= bit;
        }
    }

    /// Inverse of [`LadderKernel::apply_cell`]; sound because `(row, bit)`
    /// is unique within a BRAM's weak population (`generate_bram` visits
    /// each address once and the sentinel upserts).
    fn unapply_cell(&mut self, cell: &WeakCell) {
        let bit = 1u16 << cell.bit;
        let row = cell.row as usize;
        if cell.one_to_zero {
            self.and_masks[row] |= bit;
        } else {
            self.or_masks[row] &= !bit;
        }
    }

    /// Move the kernel to `resolved`; afterwards the rows equal
    /// [`FaultMask::build`]`(model, bram, resolved)` exactly.
    pub fn advance(&mut self, resolved: &ResolvedCondition) -> LadderStep {
        let model: &'m FaultModel = self.model;
        let cells = model.weak_cells(self.bram);
        // Revert the previous condition's jitter-window overlay.
        while let Some(i) = self.undo.pop() {
            self.unapply_cell(&cells[i as usize]);
        }
        self.window_flips = 0;
        // The exact `cell_fails` boundaries, sought incrementally from the
        // previous level: descending sort makes both predicates
        // prefix-monotone, and a descending ladder only grows them.
        let certain_idx = boundary_from(cells, self.committed, resolved.certain_mv());
        let cutoff_idx = boundary_from(cells, self.cutoff_hint, resolved.cutoff_mv());
        self.cutoff_hint = cutoff_idx;

        let mut retreated = 0u32;
        if certain_idx < self.committed {
            // The ladder moved up: un-commit the suffix that is no longer
            // deterministically failing.
            for cell in &cells[certain_idx..self.committed] {
                self.unapply_cell(cell);
                retreated += 1;
            }
            self.committed = certain_idx;
        }
        let newly_certain = (certain_idx - self.committed) as u32;
        for cell in &cells[self.committed..certain_idx] {
            Self::apply_cell(&mut self.and_masks, &mut self.or_masks, cell);
        }
        self.committed = certain_idx;

        // Jitter-window overlay: per-condition draws, revertible. The
        // judge hoists the hash prefix and screens most decisions without
        // the full Box–Muller transform — same booleans as `cell_fails`.
        let judge = resolved.window_judge(self.bram);
        let mut window_flips = 0u32;
        for (i, cell) in cells[certain_idx..cutoff_idx].iter().enumerate() {
            if judge.fails(cell) {
                self.undo.push((certain_idx + i) as u32);
                Self::apply_cell(&mut self.and_masks, &mut self.or_masks, cell);
                window_flips += 1;
            }
        }
        self.window_flips = window_flips;

        LadderStep {
            newly_certain,
            retreated,
            window_cells: (cutoff_idx - certain_idx) as u32,
            window_flips,
        }
    }

    /// Snapshot the advanced condition as an owned [`FaultMask`],
    /// bit-identical to [`FaultMask::build`] for the same condition.
    #[must_use]
    pub fn to_mask(&self) -> FaultMask {
        FaultMask::from_parts(
            self.bram,
            self.and_masks.clone(),
            self.or_masks.clone(),
            self.flip_cells(),
        )
    }
}

/// All runs of one ladder level, batched through a single sorted-cell scan.
///
/// The conditions of one level share `(v, T)` but differ in `run_seed`, so
/// their common-mode spread (and with it the certain/cutoff boundaries)
/// jitters by a few mV per run. The plan scans each BRAM once down to the
/// *loosest* cutoff of the family, counts the certain prefix every run
/// shares, and then prices each run at two binary searches, its own extra
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

    #[must_use]
    pub fn len(&self) -> usize {
        self.resolved.len()
    }

    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.resolved.is_empty()
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
        let prefix = &cells[..cells.partition_point(|c| c.vfail_mv >= self.scan_cutoff_mv)];
        if prefix.is_empty() {
            // Most BRAMs on most rungs: nothing can fail, nothing to judge.
            out[..self.resolved.len()].fill(0);
            return;
        }
        // Every condition's certain prefix contains the family's shortest
        // one: count that shared part once, then each condition's own few
        // extra certain cells and its jitter window.
        let shared = prefix.partition_point(|c| c.vfail_mv >= self.shared_certain_mv);
        let shared_count = count(&prefix[..shared], |c| observable(bram, c));
        for (slot, rc) in out.iter_mut().zip(&self.resolved) {
            let certain_idx = prefix.partition_point(|c| c.vfail_mv >= rc.certain_mv());
            let cutoff_idx = prefix.partition_point(|c| c.vfail_mv >= rc.cutoff_mv());
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
    fn kernel_matches_rebuild_down_a_listing1_descent() {
        let m = model();
        let lm = m.platform().vccbram;
        let bram = m.sentinel().0;
        let mut kernel = LadderKernel::new(&m, bram);
        let mut v = lm.vmin.0 + 30;
        while v + 10 >= lm.vcrash.0 {
            let rc = resolved_at(&m, Millivolts(v), 0);
            kernel.advance(&rc);
            let expect = FaultMask::build(&m, bram, &rc);
            assert_eq!(kernel.to_mask(), expect, "at {v} mV");
            assert_eq!(kernel.flip_cells(), expect.flip_cells());
            v -= 10;
        }
    }

    #[test]
    fn kernel_retreats_when_the_ladder_goes_back_up() {
        let m = model();
        let lm = m.platform().vccbram;
        let bram = m.sentinel().0;
        let mut kernel = LadderKernel::new(&m, bram);
        // Down to the crash boundary, then jump back above Vmin.
        for v in [lm.vmin.0, lm.vcrash.0, lm.vmin.0 + 20, lm.vcrash.0 + 4] {
            let rc = resolved_at(&m, Millivolts(v), 1);
            let step = kernel.advance(&rc);
            let expect = FaultMask::build(&m, bram, &rc);
            assert_eq!(kernel.to_mask(), expect, "at {v} mV");
            assert_eq!(kernel.flip_cells(), expect.flip_cells(), "at {v} mV");
            assert_eq!(
                kernel.committed as u32 + step.window_flips,
                kernel.flip_cells()
            );
        }
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
        let m = model();
        let v = m.platform().vccbram.vcrash;
        let family: Vec<ResolvedCondition> = (0..4).map(|run| resolved_at(&m, v, run)).collect();
        let bram = m.sentinel().0;
        let mut kernel = LadderKernel::new(&m, bram);
        for rc in &family {
            kernel.advance(rc);
            assert_eq!(kernel.to_mask(), FaultMask::build(&m, bram, rc));
        }
    }

    #[test]
    fn empty_plan_is_harmless() {
        let m = model();
        let plan = MaskPlan::new(&m, Vec::new());
        assert!(plan.is_empty());
        let mut out = [7u64; 2];
        plan.bram_counts(BramId(0), |_, _| true, &mut out);
        assert_eq!(out, [7, 7], "no condition may touch the output");
        // A kernel advanced over no condition holds identity masks.
        assert!(LadderKernel::new(&m, BramId(0)).to_mask().is_clean());
    }
}
