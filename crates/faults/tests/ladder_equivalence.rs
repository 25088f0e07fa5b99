//! Property tests: the batched level counts of [`MaskPlan`] are
//! bit-identical to one per-cell scan per run.
//!
//! Randomized over (platform, temperature, chip seed, supply droop, level,
//! run family, stored pattern), with levels from above `Vmin` down past
//! `Vcrash`, where the jitter window decides the most cells.

use uvf_faults::{run_seed, FaultModel, MaskPlan, ReadCondition, ResolvedCondition, WeakCell};
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
