//! Property tests: the incremental ladder kernels are bit-identical to the
//! per-level [`FaultMask::build`] path.
//!
//! Randomized over (platform, temperature, chip seed, run, ladder shape) —
//! including non-uniform steps, repeated levels, upward jumps, and levels
//! straddling the `Vcrash` boundary — because the jitter window makes the
//! failing set *non*-monotone across levels even though the deterministic
//! core is monotone: exactly the regime where a naive delta kernel would
//! silently diverge.

use uvf_faults::{
    run_seed, FaultMask, FaultModel, LadderKernel, MaskPlan, ReadCondition, ResolvedCondition,
    WeakCell,
};
use uvf_fpga::{BramId, DataPattern, Millivolts, PlatformKind, Rail};

/// Tiny deterministic PRNG (xorshift64*); no external crates.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn resolved_at(m: &FaultModel, v: Millivolts, temp: f64, run: u32) -> ResolvedCondition {
    m.resolve(&ReadCondition {
        v,
        temperature_c: temp,
        run_seed: run_seed(m.chip_seed(), Rail::Vccbram, v, run),
    })
}

/// A random ladder: mostly descending with non-uniform steps, a few
/// repeats and upward jumps, clamped around the interesting
/// `[Vcrash - 20, Vmin + 20]` band so the Vcrash boundary is crossed.
fn random_ladder(rng: &mut Rng, kind: PlatformKind) -> Vec<Millivolts> {
    let lm = kind.descriptor().vccbram;
    let top = lm.vmin.0 + 20;
    let floor = lm.vcrash.0.saturating_sub(20);
    let mut v = top - rng.below(15) as u32;
    let mut ladder = Vec::new();
    for _ in 0..14 {
        ladder.push(Millivolts(v));
        match rng.below(10) {
            0 => {}                                           // repeated level
            1 => v = (v + 5 + rng.below(20) as u32).min(top), // upward jump
            _ => {
                let step = 1 + rng.below(25) as u32; // non-uniform descent
                v = v.saturating_sub(step).max(floor);
            }
        }
    }
    ladder
}

#[test]
fn kernel_deltas_match_per_level_builds_over_random_trials() {
    let mut rng = Rng(0x0001_adde_0001);
    for trial in 0..12u32 {
        let kind = PlatformKind::ALL[(trial as usize) % PlatformKind::ALL.len()];
        let platform = kind.descriptor();
        let model = FaultModel::with_chip_seed(platform, 0xC0FFEE ^ (u64::from(trial) * 7919));
        let temp = rng.below(86) as f64;
        let run = rng.below(100) as u32;
        let ladder = random_ladder(&mut rng, kind);
        // A handful of BRAMs per trial keeps the test fast; always include
        // the sentinel's BRAM (the one guaranteed to carry weak cells).
        let mut brams = vec![model.sentinel().0];
        for _ in 0..3 {
            brams.push(BramId(rng.below(platform.bram_count as u64) as u32));
        }
        for bram in brams {
            let mut kernel = LadderKernel::new(&model, bram);
            for &v in &ladder {
                let rc = resolved_at(&model, v, temp, run);
                let step = kernel.advance(&rc);
                let expect = FaultMask::build(&model, bram, &rc);
                assert_eq!(
                    kernel.to_mask(),
                    expect,
                    "trial {trial} {kind:?} BRAM {} at {} mV T={temp}",
                    bram.0,
                    v.0
                );
                assert_eq!(kernel.flip_cells(), expect.flip_cells());
                assert!(step.window_flips <= step.window_cells);
            }
        }
    }
}

#[test]
fn plan_counts_match_per_run_scans_over_random_trials() {
    let mut rng = Rng(0x0001_adde_0002);
    let mut zero_to_one_flips = 0u64;
    for trial in 0..8u32 {
        let kind = PlatformKind::ALL[(trial as usize) % PlatformKind::ALL.len()];
        let platform = kind.descriptor();
        let mut model = FaultModel::with_chip_seed(platform, 0xBEEF ^ (u64::from(trial) * 104729));
        // Every other trial reads under supply droop (DESIGN §6b).
        if trial % 2 == 1 {
            model.set_environment_noise_mv(1.0 + rng.below(15) as f64);
        }
        let temp = rng.below(86) as f64;
        let lm = platform.vccbram;
        // One level per trial, anywhere from above Vmin down past Vcrash.
        let v = Millivolts(lm.vcrash.0.saturating_sub(15) + rng.below(40) as u32);
        let runs = 1 + rng.below(12) as u32;
        let family: Vec<ResolvedCondition> =
            (0..runs).map(|r| resolved_at(&model, v, temp, r)).collect();
        let plan = MaskPlan::new(&model, family.clone());
        let mut got = vec![0u64; family.len()];
        let mut brams = vec![model.sentinel().0];
        for _ in 0..4 {
            brams.push(BramId(rng.below(platform.bram_count as u64) as u32));
        }
        // Every stored pattern, so 0→1 cells (stored zeros) count too.
        for pattern in DataPattern::ALL {
            let observable = |bram: BramId, c: &WeakCell| {
                c.observable(pattern.word(bram, u32::from(c.row)) & (1 << c.bit) != 0)
            };
            for &bram in &brams {
                plan.bram_counts(bram, observable, &mut got);
                if pattern == DataPattern::AllZeros {
                    zero_to_one_flips += got.iter().sum::<u64>();
                }
                for (i, rc) in family.iter().enumerate() {
                    let mut expect = 0u64;
                    model.for_each_failing_resolved(bram, rc, |c| {
                        if observable(bram, c) {
                            expect += 1;
                        }
                    });
                    assert_eq!(
                        got[i],
                        expect,
                        "trial {trial} {kind:?} {pattern:?} BRAM {} run {i} at {} mV, noise {}",
                        bram.0,
                        v.0,
                        model.environment_noise_mv()
                    );
                }
            }
        }
    }
    assert!(zero_to_one_flips > 0, "no 0→1 flip was ever counted");
}

#[test]
fn kernel_crosses_the_vcrash_boundary_exactly() {
    // Walk 1 mV at a time through the Vcrash boundary on every platform:
    // the densest fault region, where off-by-one boundary handling in the
    // binary searches would show up immediately.
    for kind in PlatformKind::ALL {
        let model = FaultModel::new(kind.descriptor());
        let lm = model.platform().vccbram;
        let bram = model.sentinel().0;
        let mut kernel = LadderKernel::new(&model, bram);
        for v in (lm.vcrash.0.saturating_sub(5)..=lm.vcrash.0 + 5).rev() {
            let rc = resolved_at(&model, Millivolts(v), 25.0, 3);
            kernel.advance(&rc);
            let expect = FaultMask::build(&model, bram, &rc);
            assert_eq!(kernel.to_mask(), expect, "{kind:?} at {v} mV");
        }
    }
}
