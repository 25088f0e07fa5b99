//! Property tests for the fault-mask kernel.
//!
//! The hot path — [`FaultMask`]'s per-row AND/OR masks, applied to a
//! stored image with `apply_all` — must agree bit-for-bit with the naive
//! per-cell reference (walk every weak cell, apply observability and
//! `cell_fails` directly) under *any* (platform, voltage, temperature, chip
//! seed, run seed, stored data) combination. The trials here are drawn from a seeded
//! generator, so a failure reproduces exactly.

use uvf_faults::{FaultMask, FaultModel, ReadCondition, ResolvedCondition};
use uvf_fpga::seedmix::SplitMix64;
use uvf_fpga::{BramId, Millivolts, PlatformKind, BRAM_ROWS, BRAM_WORD_BITS};

fn below(rng: &mut SplitMix64, n: u64) -> u64 {
    rng.next_u64() % n.max(1)
}

/// One randomized trial condition.
struct Trial {
    kind: PlatformKind,
    chip_seed: u64,
    cond: ReadCondition,
    bram: BramId,
}

fn draw_trial(rng: &mut SplitMix64) -> Trial {
    let kind = PlatformKind::ALL[below(rng, PlatformKind::ALL.len() as u64) as usize];
    let platform = kind.descriptor();
    let rail = platform.vccbram;
    // Anywhere from just below Vcrash up to nominal: spans the clean
    // guardband, the fault band, and the jitter-sensitive boundary.
    let span = u64::from(rail.nominal.0 - rail.vcrash.0) + 20;
    let v = Millivolts(rail.vcrash.0 - 10 + below(rng, span) as u32);
    Trial {
        kind,
        chip_seed: 1 + below(rng, 64),
        cond: ReadCondition {
            v,
            temperature_c: -10.0 + below(rng, 101) as f64,
            run_seed: rng.next_u64() % 1000,
        },
        bram: BramId(below(rng, platform.bram_count as u64) as u32),
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

/// Bits of `words` that read back flipped through `mask`.
fn observable_flips(mask: &FaultMask, words: &[u16]) -> u64 {
    let mut read = words.to_vec();
    mask.apply_all(&mut read);
    words
        .iter()
        .zip(&read)
        .map(|(w, r)| u64::from((w ^ r).count_ones()))
        .sum()
}

#[test]
fn mask_kernels_match_the_per_cell_reference() {
    let mut rng = SplitMix64::new(0x5eed_cafe);
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
            let mut read = words.clone();
            mask.apply_all(&mut read);
            for (row, (&w, &got)) in words.iter().zip(&read).enumerate() {
                let row = row as u16;
                let reference = corrupt_reference(&model, t.bram, row, w, &resolved);
                assert_eq!(
                    got, reference,
                    "trial {trial} row {row} stored {w:#06x}: mask vs reference",
                );
            }
        }
    }
}

#[test]
fn nominal_voltage_masks_are_clean_everywhere() {
    let mut rng = SplitMix64::new(7);
    for kind in PlatformKind::ALL {
        let platform = kind.descriptor();
        let model = FaultModel::with_chip_seed(platform, 1 + below(&mut rng, 32));
        let resolved = model.resolve(&ReadCondition {
            v: platform.vccbram.nominal,
            temperature_c: 25.0,
            run_seed: rng.next_u64(),
        });
        for _ in 0..8 {
            let bram = BramId(below(&mut rng, platform.bram_count as u64) as u32);
            let mask = model.fault_mask(bram, &resolved);
            assert!(mask.is_clean(), "{kind}: flips at nominal in {bram:?}");
            let words = stored_words(&mut rng);
            assert_eq!(observable_flips(&mask, &words), 0);
        }
    }
}

#[test]
fn observability_partitions_the_flips_by_stored_polarity() {
    // All-ones storage exposes exactly the 1→0 cells, all-zeros exactly
    // the 0→1 cells; together they account for every failing cell.
    let mut rng = SplitMix64::new(99);
    for _ in 0..8 {
        let t = draw_trial(&mut rng);
        let model = FaultModel::with_chip_seed(t.kind.descriptor(), t.chip_seed);
        let resolved = model.resolve(&t.cond);
        let mask = model.fault_mask(t.bram, &resolved);
        let ones = vec![u16::MAX; BRAM_ROWS];
        let zeros = vec![0u16; BRAM_ROWS];
        let from_ones = observable_flips(&mask, &ones);
        let from_zeros = observable_flips(&mask, &zeros);
        assert_eq!(
            from_ones + from_zeros,
            u64::from(mask.flip_cells()),
            "polarity split must cover every failing cell",
        );
        // Sanity on the word geometry the masks assume.
        assert_eq!(BRAM_WORD_BITS, 16);
    }
}
