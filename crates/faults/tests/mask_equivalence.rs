//! Property tests for the fault-mask kernel.
//!
//! The hot path — [`FaultMask`]'s per-row AND/OR masks with
//! `count_observable` — must agree bit-for-bit with the naive per-cell
//! reference (walk every weak cell, apply observability and `cell_fails`
//! directly) under *any* (platform, voltage, temperature, chip seed, run
//! seed, stored data) combination. The trials here are drawn from a seeded
//! generator, so a failure reproduces exactly.

use uvf_faults::{FaultMask, FaultModel, ReadCondition, ResolvedCondition};
use uvf_fpga::{BramId, Millivolts, PlatformKind, BRAM_ROWS, BRAM_WORD_BITS};

/// SplitMix64 — the same tiny generator the workspace uses everywhere a
/// test needs reproducible randomness without a dependency.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }
}

/// One randomized trial condition.
struct Trial {
    kind: PlatformKind,
    chip_seed: u64,
    cond: ReadCondition,
    bram: BramId,
}

fn draw_trial(rng: &mut SplitMix64) -> Trial {
    let kind = PlatformKind::ALL[rng.below(PlatformKind::ALL.len() as u64) as usize];
    let platform = kind.descriptor();
    let rail = platform.vccbram;
    // Anywhere from just below Vcrash up to nominal: spans the clean
    // guardband, the fault band, and the jitter-sensitive boundary.
    let span = u64::from(rail.nominal.0 - rail.vcrash.0) + 20;
    let v = Millivolts(rail.vcrash.0 - 10 + rng.below(span) as u32);
    Trial {
        kind,
        chip_seed: 1 + rng.below(64),
        cond: ReadCondition {
            v,
            temperature_c: -10.0 + rng.below(101) as f64,
            run_seed: rng.next_u64() % 1000,
        },
        bram: BramId(rng.below(platform.bram_count as u64) as u32),
    }
}

fn stored_words(rng: &mut SplitMix64) -> Vec<u16> {
    (0..BRAM_ROWS).map(|_| rng.next_u64() as u16).collect()
}

/// Fixed stored images every trial also reads: both uniform polarities,
/// both checkerboards and one irregular word.
const FIXED_PATTERNS: [u16; 5] = [0xFFFF, 0x0000, 0xAAAA, 0x5555, 0x1234];

/// Naive reference: corrupt one word by walking the BRAM's full weak-cell
/// list and applying observability + `cell_fails` per cell.
fn corrupt_reference(
    model: &FaultModel,
    bram: BramId,
    row: u16,
    stored: u16,
    resolved: &ResolvedCondition,
) -> u16 {
    let mut word = stored;
    for cell in model.weak_cells(bram) {
        if cell.row != row {
            continue;
        }
        let mask = 1u16 << cell.bit;
        let stored_bit = stored & mask != 0;
        if cell.observable(stored_bit) && resolved.cell_fails(bram, cell) {
            if cell.one_to_zero {
                word &= !mask;
            } else {
                word |= mask;
            }
        }
    }
    word
}

#[test]
fn mask_kernels_match_the_per_cell_reference() {
    let mut rng = SplitMix64(0x5eed_cafe);
    for trial in 0..24 {
        let t = draw_trial(&mut rng);
        let platform = t.kind.descriptor();
        let model = FaultModel::with_chip_seed(platform, t.chip_seed);
        let resolved = model.resolve(&t.cond);
        let mask: FaultMask = model.fault_mask(t.bram, &resolved);
        let random = stored_words(&mut rng);

        // flip_cells == the number of weak cells failing the condition,
        // regardless of stored data.
        let failing = model
            .weak_cells(t.bram)
            .iter()
            .filter(|c| resolved.cell_fails(t.bram, c))
            .count();
        assert_eq!(
            mask.flip_cells() as usize,
            failing,
            "trial {trial}: {:?} flip_cells",
            (t.kind, t.chip_seed, t.cond.v, t.bram),
        );

        // Per-word: AND/OR mask application == per-cell reference, on the
        // random image and on every fixed pattern.
        let fixed = FIXED_PATTERNS.map(|p| vec![p; BRAM_ROWS]);
        for words in std::iter::once(&random).chain(&fixed) {
            let mut observable = 0u64;
            for (row, &w) in words.iter().enumerate() {
                let row = row as u16;
                let reference = corrupt_reference(&model, t.bram, row, w, &resolved);
                assert_eq!(
                    (w & mask.and_mask(row)) | mask.or_mask(row),
                    reference,
                    "trial {trial} row {row} stored {w:#06x}: mask vs reference",
                );
                observable += u64::from((w ^ reference).count_ones());
            }
            assert_eq!(
                mask.count_observable(words),
                observable,
                "trial {trial}: observable flip total",
            );
        }
    }
}

#[test]
fn nominal_voltage_masks_are_clean_everywhere() {
    let mut rng = SplitMix64(7);
    for kind in PlatformKind::ALL {
        let platform = kind.descriptor();
        let model = FaultModel::with_chip_seed(platform, 1 + rng.below(32));
        let resolved = model.resolve(&ReadCondition {
            v: platform.vccbram.nominal,
            temperature_c: 25.0,
            run_seed: rng.next_u64(),
        });
        for _ in 0..8 {
            let bram = BramId(rng.below(platform.bram_count as u64) as u32);
            let mask = model.fault_mask(bram, &resolved);
            assert!(mask.is_clean(), "{kind}: flips at nominal in {bram:?}");
            let words = stored_words(&mut rng);
            assert_eq!(mask.count_observable(&words), 0);
        }
    }
}

#[test]
fn observability_partitions_the_flips_by_stored_polarity() {
    // All-ones storage exposes exactly the 1→0 cells, all-zeros exactly
    // the 0→1 cells; together they account for every failing cell.
    let mut rng = SplitMix64(99);
    for _ in 0..8 {
        let t = draw_trial(&mut rng);
        let model = FaultModel::with_chip_seed(t.kind.descriptor(), t.chip_seed);
        let resolved = model.resolve(&t.cond);
        let mask = model.fault_mask(t.bram, &resolved);
        let ones = vec![u16::MAX; BRAM_ROWS];
        let zeros = vec![0u16; BRAM_ROWS];
        let from_ones = mask.count_observable(&ones);
        let from_zeros = mask.count_observable(&zeros);
        assert_eq!(
            from_ones + from_zeros,
            u64::from(mask.flip_cells()),
            "polarity split must cover every failing cell",
        );
        // Sanity on the word geometry the masks assume.
        assert_eq!(BRAM_WORD_BITS, 16);
    }
}
