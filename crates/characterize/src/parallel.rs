//! Deterministic scoped-thread fan-out for per-BRAM probe scans.
//!
//! The per-BRAM fault scan is embarrassingly parallel: each BRAM's count is
//! a pure function of `(chip_seed, bram, resolved condition)`, so workers
//! share nothing but the read-only model. The hard invariant — pinned by
//! `tests/parallel_identity.rs` — is that the parallel result is
//! **bit-identical** to the sequential baseline: each worker sums one
//! contiguous `BramId` chunk and the chunk totals merge in `BramId` order,
//! so thread scheduling can never reorder the merge.
//!
//! std-only: `std::thread::scope` with a static partition of the `BramId`
//! space (BRAM scan costs are near-uniform, so work-stealing buys nothing
//! here; the multi-board campaign in [`crate::campaign`] is where dynamic
//! scheduling pays off).

use uvf_faults::{FaultModel, MaskPlan, ResolvedCondition, WeakCell};
use uvf_fpga::{BramId, DataPattern};

/// Threads worth using on this host (≥ 1). The sweep engine treats `0` and
/// `1` as "stay sequential".
#[must_use]
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Observable flips across the whole BRAM pool under one condition: the
/// one-condition family of [`platform_level_counts`], so the certain
/// prefix is counted without draws and only the jitter window is judged.
/// Any thread count produces the same count.
#[must_use]
pub fn platform_fault_count(
    model: &FaultModel,
    pattern: DataPattern,
    resolved: &ResolvedCondition,
    threads: usize,
) -> u64 {
    platform_level_counts(model, pattern, std::slice::from_ref(resolved), threads)[0]
}

/// Whether a flip of `cell` is observable against `pattern`.
fn observable_against(pattern: DataPattern, bram: BramId, cell: &WeakCell) -> bool {
    let stored = pattern.word(bram, u32::from(cell.row));
    cell.observable(stored & (1u16 << cell.bit) != 0)
}

/// Observable flips across the whole BRAM pool for *every* condition of a
/// ladder-level family at once — the [`MaskPlan`] path. `out[i]` is the
/// count of `conditions[i]` for any thread count: per-BRAM counts are
/// `u64` sums, accumulated chunk by chunk and merged in `BramId` order.
#[must_use]
pub fn platform_level_counts(
    model: &FaultModel,
    pattern: DataPattern,
    conditions: &[ResolvedCondition],
    threads: usize,
) -> Vec<u64> {
    let runs = conditions.len();
    let n_brams = model.platform().bram_count;
    let plan = MaskPlan::new(model, conditions.to_vec());
    let count_brams = |brams: std::ops::Range<usize>| {
        let mut totals = vec![0u64; runs];
        let mut per_bram = vec![0u64; runs];
        for b in brams {
            plan.bram_counts(
                BramId(b as u32),
                |bram, cell| observable_against(pattern, bram, cell),
                &mut per_bram,
            );
            for (t, c) in totals.iter_mut().zip(&per_bram) {
                *t += c;
            }
        }
        totals
    };
    let workers = threads.min(n_brams).max(1);
    if workers == 1 || runs == 0 {
        return count_brams(0..n_brams);
    }
    let chunk = n_brams.div_ceil(workers);
    let partials: Vec<Vec<u64>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n_brams)
            .step_by(chunk)
            .map(|first| {
                let count_brams = &count_brams;
                scope.spawn(move || count_brams(first..(first + chunk).min(n_brams)))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("scan worker panicked"))
            .collect()
    });
    // Chunk accumulators merge in chunk (= BramId) order; u64 addition is
    // exact, so the totals match the sequential reduction bit-for-bit.
    let mut totals = vec![0u64; runs];
    for acc in &partials {
        for (t, c) in totals.iter_mut().zip(acc) {
            *t += c;
        }
    }
    totals
}

#[cfg(test)]
mod tests {
    use super::*;
    use uvf_faults::{run_seed, ReadCondition};
    use uvf_fpga::{Millivolts, PlatformKind, Rail};

    #[test]
    fn parallel_count_equals_sequential_for_any_thread_count() {
        let platform = PlatformKind::Zc702.descriptor();
        let model = FaultModel::new(platform);
        let vcrash = platform.vccbram.vcrash;
        let cond = ReadCondition {
            v: vcrash,
            temperature_c: 25.0,
            run_seed: run_seed(model.chip_seed(), Rail::Vccbram, vcrash, 0),
        };
        let resolved = model.resolve(&cond);
        let sequential = platform_fault_count(&model, DataPattern::AllOnes, &resolved, 1);
        assert!(sequential > 0, "no faults at Vcrash");
        for threads in [2, 3, 4, 7, 64, 1000] {
            assert_eq!(
                platform_fault_count(&model, DataPattern::AllOnes, &resolved, threads),
                sequential,
                "{threads} threads"
            );
        }
    }

    #[test]
    fn fault_count_equals_the_per_cell_oracle_on_every_platform() {
        for kind in PlatformKind::ALL {
            let platform = kind.descriptor();
            let model = FaultModel::new(platform);
            let lm = platform.vccbram;
            let levels = [
                lm.vmin.0 + 10,
                lm.vmin.0,
                (lm.vmin.0 + lm.vcrash.0) / 2,
                lm.vcrash.0,
            ];
            for v in levels.map(Millivolts) {
                let resolved = model.resolve(&ReadCondition {
                    v,
                    temperature_c: 25.0,
                    run_seed: run_seed(model.chip_seed(), Rail::Vccbram, v, 0),
                });
                for pattern in DataPattern::ALL {
                    let mut expect = 0u64;
                    for b in 0..platform.bram_count as u32 {
                        let bram = BramId(b);
                        model.for_each_failing_resolved(bram, &resolved, |cell| {
                            if observable_against(pattern, bram, cell) {
                                expect += 1;
                            }
                        });
                    }
                    if v == lm.vcrash && pattern == DataPattern::AllOnes {
                        assert!(expect > 0, "{kind:?}: no faults at Vcrash");
                    }
                    for threads in [1, 2] {
                        assert_eq!(
                            platform_fault_count(&model, pattern, &resolved, threads),
                            expect,
                            "{kind:?} {pattern:?} at {} mV, {threads} threads",
                            v.0
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn available_threads_is_positive() {
        assert!(available_threads() >= 1);
    }

    #[test]
    fn batched_level_counts_equal_per_run_counts_for_any_thread_count() {
        let platform = PlatformKind::Zc702.descriptor();
        let model = FaultModel::new(platform);
        let vcrash = platform.vccbram.vcrash;
        let conditions: Vec<ResolvedCondition> = (0..6)
            .map(|run| {
                model.resolve(&ReadCondition {
                    v: vcrash,
                    temperature_c: 25.0,
                    run_seed: run_seed(model.chip_seed(), Rail::Vccbram, vcrash, run),
                })
            })
            .collect();
        let expect: Vec<u64> = conditions
            .iter()
            .map(|rc| platform_fault_count(&model, DataPattern::AllOnes, rc, 1))
            .collect();
        assert!(expect.iter().any(|&c| c > 0), "no faults at Vcrash");
        for threads in [1, 2, 5, 64] {
            assert_eq!(
                platform_level_counts(&model, DataPattern::AllOnes, &conditions, threads),
                expect,
                "{threads} threads"
            );
        }
        assert!(platform_level_counts(&model, DataPattern::AllOnes, &[], 4).is_empty());
    }
}
