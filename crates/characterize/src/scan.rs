//! Per-BRAM probe scans: observable flips across the whole BRAM pool.
//!
//! Each BRAM's count is a pure function of `(chip_seed, bram, resolved
//! condition)`. The scan visits BRAMs in `BramId` order on the calling
//! thread and sums exact `u64` counts, so a count never depends on the
//! host it runs on.

use uvf_faults::{FaultModel, MaskPlan, ResolvedCondition, WeakCell};
use uvf_fpga::{BramId, DataPattern};

/// Observable flips across the whole BRAM pool under one condition: the
/// one-condition family of [`platform_level_counts`], so the certain
/// prefix is counted without draws and only the jitter window is judged.
#[must_use]
pub fn platform_fault_count(
    model: &FaultModel,
    pattern: DataPattern,
    resolved: &ResolvedCondition,
) -> u64 {
    platform_level_counts(model, pattern, std::slice::from_ref(resolved))[0]
}

/// Whether a flip of `cell` is observable against `pattern`.
fn observable_against(pattern: DataPattern, bram: BramId, cell: &WeakCell) -> bool {
    let stored = pattern.word(bram, u32::from(cell.row));
    cell.observable(stored & (1u16 << cell.bit) != 0)
}

/// Observable flips across the whole BRAM pool for *every* condition of a
/// ladder-level family at once — the [`MaskPlan`] path. `out[i]` is the
/// count of `conditions[i]`.
#[must_use]
pub fn platform_level_counts(
    model: &FaultModel,
    pattern: DataPattern,
    conditions: &[ResolvedCondition],
) -> Vec<u64> {
    let plan = MaskPlan::new(model, conditions.to_vec());
    let mut totals = vec![0u64; conditions.len()];
    let mut per_bram = vec![0u64; conditions.len()];
    for b in 0..model.platform().bram_count {
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use uvf_faults::{run_seed, ReadCondition};
    use uvf_fpga::{Millivolts, PlatformKind, Rail};

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
                    assert_eq!(
                        platform_fault_count(&model, pattern, &resolved),
                        expect,
                        "{kind:?} {pattern:?} at {} mV",
                        v.0
                    );
                }
            }
        }
    }

    #[test]
    fn batched_level_counts_equal_per_run_counts() {
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
            .map(|rc| platform_fault_count(&model, DataPattern::AllOnes, rc))
            .collect();
        assert!(expect.iter().any(|&c| c > 0), "no faults at Vcrash");
        assert_eq!(
            platform_level_counts(&model, DataPattern::AllOnes, &conditions),
            expect
        );
        assert!(platform_level_counts(&model, DataPattern::AllOnes, &[]).is_empty());
    }
}
