//! The die-sharing contract: `FaultModel::with_chip_seed` hands out
//! handles onto one cached die per `(platform, chip_seed)`. Sharing must be
//! invisible: the shared die is bit-identical to a fresh build, survives
//! eviction unchanged, and a handle's environment noise stays its own.

use std::sync::{Mutex, MutexGuard};
use uvf_faults::{run_seed, FaultModel, FvmCache, ReadCondition, WeakCell};
use uvf_fpga::{BramId, Platform, PlatformKind, Rail};

/// Platform × chip-seed grid: the smallest pool, a mid-size one and the
/// largest, two dies each.
const DIES: [(PlatformKind, u64); 6] = [
    (PlatformKind::Zc702, 3),
    (PlatformKind::Zc702, 0xD1E5),
    (PlatformKind::Kc705A, 5),
    (PlatformKind::Kc705A, 0xBEEF),
    (PlatformKind::Vc707, 21),
    (PlatformKind::Vc707, 0xC0FFEE),
];

/// Tests here read the global cache's identity (pointers), and one clears
/// it; serialize them so no test sees another's clearing.
fn global_cache() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn vcrash_condition(model: &FaultModel) -> ReadCondition {
    let vcrash = model.platform().vccbram.vcrash;
    ReadCondition {
        v: vcrash,
        temperature_c: 25.0,
        run_seed: run_seed(model.chip_seed(), Rail::Vccbram, vcrash, 0),
    }
}

/// Bit-level view of a weak-cell list: `f64` thresholds by their bits.
fn cell_bits(cells: &[WeakCell]) -> Vec<(u16, u8, bool, u64)> {
    cells
        .iter()
        .map(|c| (c.row, c.bit, c.one_to_zero, c.vfail_mv.to_bits()))
        .collect()
}

/// `a` and `b` model the same die, bit for bit: every BRAM's weak cells,
/// the sentinel, the population total, and the `Vcrash` fault masks of
/// sampled BRAMs.
fn assert_same_die(a: &FaultModel, b: &FaultModel) {
    let brams = a.platform().bram_count as u32;
    assert_eq!(brams, b.platform().bram_count as u32);
    for bram in (0..brams).map(BramId) {
        assert_eq!(
            cell_bits(a.weak_cells(bram)),
            cell_bits(b.weak_cells(bram)),
            "{bram:?}"
        );
    }
    assert_eq!(a.sentinel(), b.sentinel());
    assert_eq!(a.total_weak_cells(), b.total_weak_cells());
    let cond = vcrash_condition(a);
    let (ra, rb) = (a.resolve(&cond), b.resolve(&cond));
    for bram in (0..brams).step_by(37).map(BramId) {
        assert_eq!(a.fault_mask(bram, &ra), b.fault_mask(bram, &rb), "{bram:?}");
    }
}

#[test]
fn handles_of_one_die_share_storage() {
    let _g = global_cache();
    for (kind, seed) in DIES {
        let p = Platform::new(kind);
        let a = FaultModel::with_chip_seed(p, seed);
        let b = FaultModel::with_chip_seed(p, seed);
        let clone = a.clone();
        for bram in (0..p.bram_count as u32).step_by(11).map(BramId) {
            let ptr = a.weak_cells(bram).as_ptr();
            assert_eq!(ptr, b.weak_cells(bram).as_ptr(), "{kind} {seed} {bram:?}");
            assert_eq!(ptr, clone.weak_cells(bram).as_ptr());
        }
    }
}

#[test]
fn shared_die_matches_a_fresh_build_bit_for_bit() {
    let _g = global_cache();
    for (kind, seed) in DIES {
        let p = Platform::new(kind);
        let shared = FaultModel::with_chip_seed(p, seed);
        let fresh = FvmCache::new(1, 1).model(p, seed);
        let sentinel = shared.sentinel().0;
        assert_ne!(
            shared.weak_cells(sentinel).as_ptr(),
            fresh.weak_cells(sentinel).as_ptr(),
            "a private cache builds its own die"
        );
        assert_same_die(&shared, &fresh);
    }
}

#[test]
fn environment_noise_stays_on_its_handle() {
    let _g = global_cache();
    for (kind, seed) in DIES {
        let p = Platform::new(kind);
        let other = FaultModel::with_chip_seed(p, seed);
        let mut noisy = other.clone();
        noisy.set_environment_noise_mv(15.0);
        assert_eq!(noisy.environment_noise_mv(), 15.0);
        assert_eq!(other.environment_noise_mv(), 0.0);
        assert_eq!(
            FvmCache::global().model(p, seed).environment_noise_mv(),
            0.0
        );
        assert_eq!(
            FaultModel::with_chip_seed(p, seed).environment_noise_mv(),
            0.0
        );
        // The noise moves the handle's thresholds, not the shared die.
        let cond = vcrash_condition(&other);
        let fresh_handle = FaultModel::with_chip_seed(p, seed);
        assert!(noisy.resolve(&cond).cutoff_mv() < other.resolve(&cond).cutoff_mv());
        assert_eq!(
            fresh_handle.resolve(&cond).cutoff_mv().to_bits(),
            other.resolve(&cond).cutoff_mv().to_bits()
        );
        let sentinel = other.sentinel().0;
        assert_eq!(
            noisy.weak_cells(sentinel).as_ptr(),
            other.weak_cells(sentinel).as_ptr()
        );
    }
}

#[test]
fn a_die_rebuilt_after_eviction_is_identical() {
    let _g = global_cache();
    for (kind, seed) in DIES {
        let p = Platform::new(kind);
        let before = FaultModel::with_chip_seed(p, seed);
        FvmCache::global().clear();
        let misses = FvmCache::global().misses();
        let rebuilt = FaultModel::with_chip_seed(p, seed);
        assert_eq!(FvmCache::global().misses(), misses + 1);
        let sentinel = before.sentinel().0;
        assert_ne!(
            before.weak_cells(sentinel).as_ptr(),
            rebuilt.weak_cells(sentinel).as_ptr(),
            "{kind} {seed}: clearing must force a rebuild"
        );
        assert_same_die(&before, &rebuilt);
    }
}
