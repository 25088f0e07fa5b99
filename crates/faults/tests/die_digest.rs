//! Golden die digests: every weak cell of a die, hashed bit for bit.
//!
//! The die generator may change how it finds its cells, but never which
//! cells it finds. Each digest folds every weak cell's `row`, `bit`,
//! `one_to_zero` and `vfail_mv.to_bits()` in two orders: descending
//! threshold, as [`FaultModel::weak_cells`] stores them, and `(row, bit)`,
//! the generator's own order. The constants were computed from the
//! original scalar generator; any drift in a single threshold bit, a
//! polarity, the sentinel or the stored order changes them.

use uvf_faults::{FaultModel, WeakCell};
use uvf_fpga::seedmix::mix64;
use uvf_fpga::{BramId, PlatformKind};

/// Fold one weak cell into a running hash.
fn fold(h: u64, cell: &WeakCell) -> u64 {
    let packed = u64::from(cell.row) << 16 | u64::from(cell.bit) << 8 | u64::from(cell.one_to_zero);
    mix64(mix64(h ^ packed) ^ cell.vfail_mv.to_bits())
}

/// `(threshold-order digest, row-order digest, weak-cell count)` of a die.
fn digests(model: &FaultModel) -> (u64, u64, usize) {
    let mut by_threshold = 0u64;
    let mut by_row = 0u64;
    for b in 0..model.platform().bram_count as u32 {
        let bram = BramId(b);
        let cells = model.weak_cells(bram);
        by_threshold = cells.iter().fold(by_threshold, fold);
        let mut rows = cells.to_vec();
        rows.sort_by_key(|c| (c.row, c.bit));
        by_row = rows.iter().fold(by_row, fold);
    }
    (by_threshold, by_row, model.total_weak_cells())
}

/// Each platform's default die, then one non-default seed.
const GOLDEN: [(PlatformKind, Option<u64>, u64, u64, usize); 5] = [
    (
        PlatformKind::Vc707,
        None,
        0xbfc5_d621_9e32_3ada,
        0x3e62_5827_1193_e3ff,
        616_922,
    ),
    (
        PlatformKind::Kc705A,
        None,
        0x330b_4f55_2eba_a10a,
        0x6367_014b_5a16_ec03,
        103_654,
    ),
    (
        PlatformKind::Kc705B,
        None,
        0x0022_40cf_671e_c728,
        0x4737_854b_41d0_e2b9,
        24_593,
    ),
    (
        PlatformKind::Zc702,
        None,
        0xeb65_42ab_c378_b1b9,
        0xf5e3_9665_dd85_3546,
        20_129,
    ),
    (
        PlatformKind::Kc705B,
        Some(0xD1E5_0017),
        0xd9b8_0b62_f37f_dcd4,
        0x4599_362e_4d97_4fb5,
        24_372,
    ),
];

#[test]
fn weak_cell_populations_match_the_golden_digests() {
    for (kind, seed, by_threshold, by_row, count) in GOLDEN {
        let platform = kind.descriptor();
        let model = match seed {
            Some(seed) => FaultModel::with_chip_seed(platform, seed),
            None => FaultModel::new(platform),
        };
        assert_eq!(
            digests(&model),
            (by_threshold, by_row, count),
            "{kind:?} die {:#x}",
            model.chip_seed()
        );
    }
}
