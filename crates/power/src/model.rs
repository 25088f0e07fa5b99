//! The analytic rail power model and its landmark calibration.
//!
//! Per rail, with `r = v / v_nominal`:
//!
//! ```text
//! P(v, T) = P_dyn_nom · r²  +  P_stat_nom · exp(k · (r − 1)) · θ(T)
//! ```
//!
//! The quadratic term is the CV²f dynamic power of the switched
//! capacitance behind the rail; the exponential term is subthreshold +
//! gate leakage, whose strong voltage sensitivity is what makes BRAM
//! undervolting pay off so dramatically (the BRAM rail of a 28 nm part
//! is overwhelmingly leakage: the arrays mostly *retain*, they don't
//! switch). `θ(T) = exp(c·(T − 25 °C))` is the usual exponential leakage
//! temperature factor, normalized to 1 at the 25 °C bench temperature so
//! the §V-B landmarks are temperature-free.
//!
//! Calibration: the split and the nominal wattages are modeling inputs
//! (VC707 totals chosen so `VCCBRAM` is exactly 24.1 % of on-chip
//! power); the leakage exponent `k` of each *sweepable* rail is then
//! solved by deterministic bisection so the rail loses exactly the
//! paper's further ~40 % between Vmin and Vcrash. The >10× reduction at
//! Vmin is **not** fitted — it emerges from the calibrated exponent
//! (≈20× on the VC707) and is gated by tests, like the paper's own
//! measurement.

use crate::breakdown::PowerBreakdown;
use uvf_fpga::platform::PlatformKind;
use uvf_fpga::voltage::{Millivolts, Rail, RailLandmarks};

/// Dynamic fraction of the BRAM rail at nominal. Retention-dominated
/// arrays barely switch; this is what lets the rail shed >10× at Vmin.
pub const BRAM_DYNAMIC_SHARE: f64 = 0.02;

/// The paper's "further ~40 %" Vmin→Vcrash reduction that calibration
/// targets on every sweepable rail's BRAM-style leakage exponent.
pub const FURTHER_REDUCTION_TARGET: f64 = 0.40;

/// Exponential leakage temperature coefficient per °C (θ doubles every
/// ~35 °C — a typical 28 nm figure). θ(25 °C) = 1 exactly.
pub const LEAK_TEMP_COEFF_PER_C: f64 = 0.02;

const BENCH_TEMPERATURE_C: f64 = 25.0;

/// One evaluated operating point, split into its two components (watts).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerSample {
    pub dynamic_w: f64,
    pub static_w: f64,
}

impl PowerSample {
    #[must_use]
    pub fn total_w(self) -> f64 {
        self.dynamic_w + self.static_w
    }

    /// Dynamic share of this sample, in `[0, 1]`.
    #[must_use]
    pub fn dynamic_fraction(self) -> f64 {
        self.dynamic_w / self.total_w()
    }

    /// Total draw quantized to integer microwatts — the unit every
    /// persisted/exposed consumer (records, Prometheus) uses.
    #[must_use]
    pub fn total_uw(self) -> u64 {
        let uw = self.total_w() * 1e6;
        if uw <= 0.0 {
            0
        } else {
            uw.round() as u64
        }
    }
}

/// Calibrated model of one rail.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RailPowerSpec {
    pub rail: Rail,
    pub landmarks: RailLandmarks,
    /// Dynamic draw at nominal voltage, watts.
    pub dynamic_w_nom: f64,
    /// Static (leakage) draw at nominal voltage and 25 °C, watts.
    pub static_w_nom: f64,
    /// Leakage voltage exponent `k` (dimensionless, per unit of `r`).
    pub leak_exponent: f64,
}

impl RailPowerSpec {
    #[must_use]
    pub fn nominal_w(&self) -> f64 {
        self.dynamic_w_nom + self.static_w_nom
    }

    /// Evaluate the model at voltage `v` and die temperature.
    #[must_use]
    pub fn sample(&self, v: Millivolts, temperature_c: f64) -> PowerSample {
        let r = f64::from(v.0) / f64::from(self.landmarks.nominal.0);
        let theta = (LEAK_TEMP_COEFF_PER_C * (temperature_c - BENCH_TEMPERATURE_C)).exp();
        PowerSample {
            dynamic_w: self.dynamic_w_nom * r * r,
            static_w: self.static_w_nom * (self.leak_exponent * (r - 1.0)).exp() * theta,
        }
    }

    /// `P(nominal) / P(v)` at bench temperature — "the rail draws N×
    /// less" in the paper's phrasing.
    #[must_use]
    pub fn reduction_at(&self, v: Millivolts) -> f64 {
        self.nominal_w() / self.sample(v, BENCH_TEMPERATURE_C).total_w()
    }

    /// Fractional drop between two operating points (e.g. Vmin→Vcrash).
    #[must_use]
    pub fn further_reduction(&self, from: Millivolts, to: Millivolts) -> f64 {
        let a = self.sample(from, BENCH_TEMPERATURE_C).total_w();
        let b = self.sample(to, BENCH_TEMPERATURE_C).total_w();
        1.0 - b / a
    }
}

/// Solve the leakage exponent `k` so the rail loses `further_target`
/// of its power between the landmarks' Vmin and Vcrash, given the
/// dynamic share at nominal.
///
/// Deterministic bisection on `k ∈ [0.5, 9]`: for leakage-dominated
/// shares the Vmin→Vcrash drop grows monotonically with `k` over this
/// bracket (beyond it the residual dynamic floor bends the curve back).
/// 64 halvings pin the result to one f64, bit-identical everywhere.
#[must_use]
pub fn calibrate_leak_exponent(
    landmarks: RailLandmarks,
    dynamic_share: f64,
    further_target: f64,
) -> f64 {
    let further = |k: f64| {
        let p = |v: Millivolts| {
            let r = f64::from(v.0) / f64::from(landmarks.nominal.0);
            dynamic_share * r * r + (1.0 - dynamic_share) * (k * (r - 1.0)).exp()
        };
        1.0 - p(landmarks.vcrash) / p(landmarks.vmin)
    };
    let (mut lo, mut hi) = (0.5f64, 9.0f64);
    for _ in 0..64 {
        let mid = 0.5 * (lo + hi);
        if further(mid) < further_target {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

/// The whole chip: one calibrated [`RailPowerSpec`] per supply rail.
#[derive(Debug, Clone, PartialEq)]
pub struct ChipPowerModel {
    rails: [RailPowerSpec; 3],
}

impl ChipPowerModel {
    /// Calibrated model for one of the Table-I boards.
    ///
    /// Nominal wattages are modeling inputs sized to the board class;
    /// the VC707 set totals exactly 10 W with 2.41 W on `VCCBRAM`, i.e.
    /// the paper's 24.1 % share. The BRAM-rail leakage exponent is
    /// solved from the platform's own landmarks
    /// ([`calibrate_leak_exponent`]); `VCCINT` is switching-dominated
    /// (the datapath clocks every cycle) and `VCCAUX` is never
    /// underscaled, so both carry fixed textbook exponents.
    #[must_use]
    pub fn for_platform(kind: PlatformKind) -> ChipPowerModel {
        let platform = kind.descriptor();
        // (bram_w, int_w, aux_w) at nominal, per board class.
        let (bram_w, int_w, aux_w) = match kind {
            PlatformKind::Vc707 => (2.41, 6.59, 1.00),
            PlatformKind::Zc702 => (0.41, 1.89, 0.45),
            PlatformKind::Kc705A | PlatformKind::Kc705B => (1.08, 3.42, 0.70),
        };
        let bram_lm = platform.rail(Rail::Vccbram);
        let int_lm = platform.rail(Rail::Vccint);
        let aux_lm = RailLandmarks {
            nominal: Millivolts::NOMINAL,
            vmin: Millivolts::NOMINAL,
            vcrash: Millivolts::NOMINAL,
        };
        let bram_k = calibrate_leak_exponent(bram_lm, BRAM_DYNAMIC_SHARE, FURTHER_REDUCTION_TARGET);
        let rails = [
            RailPowerSpec {
                rail: Rail::Vccbram,
                landmarks: bram_lm,
                dynamic_w_nom: bram_w * BRAM_DYNAMIC_SHARE,
                static_w_nom: bram_w * (1.0 - BRAM_DYNAMIC_SHARE),
                leak_exponent: bram_k,
            },
            RailPowerSpec {
                rail: Rail::Vccint,
                landmarks: int_lm,
                dynamic_w_nom: int_w * 0.62,
                static_w_nom: int_w * 0.38,
                leak_exponent: 4.0,
            },
            RailPowerSpec {
                rail: Rail::Vccaux,
                landmarks: aux_lm,
                dynamic_w_nom: aux_w * 0.30,
                static_w_nom: aux_w * 0.70,
                leak_exponent: 2.0,
            },
        ];
        ChipPowerModel { rails }
    }

    #[must_use]
    pub fn rail(&self, rail: Rail) -> &RailPowerSpec {
        self.rails
            .iter()
            .find(|s| s.rail == rail)
            .expect("all three rails are modeled")
    }

    #[must_use]
    pub fn rails(&self) -> &[RailPowerSpec; 3] {
        &self.rails
    }

    /// Evaluate one rail at `(v, T)`.
    #[must_use]
    pub fn sample(&self, rail: Rail, v: Millivolts, temperature_c: f64) -> PowerSample {
        self.rail(rail).sample(v, temperature_c)
    }

    /// Total on-chip power with every rail at nominal and 25 °C, watts.
    #[must_use]
    pub fn total_nominal_w(&self) -> f64 {
        self.rails.iter().map(RailPowerSpec::nominal_w).sum()
    }

    /// One rail's share of total on-chip power at nominal (the paper's
    /// 24.1 % figure for `VCCBRAM` on the VC707).
    #[must_use]
    pub fn rail_share_nominal(&self, rail: Rail) -> f64 {
        self.rail(rail).nominal_w() / self.total_nominal_w()
    }

    /// Hierarchical breakdown at an arbitrary operating point; `v_of`
    /// gives each rail's programmed voltage.
    #[must_use]
    pub fn breakdown(
        &self,
        v_of: impl Fn(Rail) -> Millivolts,
        temperature_c: f64,
    ) -> PowerBreakdown {
        PowerBreakdown::of_model(self, v_of, temperature_c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vc707() -> ChipPowerModel {
        ChipPowerModel::for_platform(PlatformKind::Vc707)
    }

    #[test]
    fn dynamic_term_scales_quadratically() {
        let spec = RailPowerSpec {
            rail: Rail::Vccbram,
            landmarks: RailLandmarks {
                nominal: Millivolts(1000),
                vmin: Millivolts(610),
                vcrash: Millivolts(540),
            },
            dynamic_w_nom: 4.0,
            static_w_nom: 0.0,
            leak_exponent: 8.0,
        };
        // Pure-dynamic rail: halving V quarters the power, exactly.
        let half = spec.sample(Millivolts(500), 25.0);
        assert!((half.total_w() - 1.0).abs() < 1e-12, "{}", half.total_w());
        assert_eq!(half.static_w, 0.0);
    }

    #[test]
    fn static_dynamic_split_at_nominal_is_the_configured_share() {
        let m = vc707();
        let s = m.sample(Rail::Vccbram, Millivolts::NOMINAL, 25.0);
        assert!((s.dynamic_fraction() - BRAM_DYNAMIC_SHARE).abs() < 1e-12);
        assert!((s.total_w() - 2.41).abs() < 1e-12, "{}", s.total_w());
    }

    #[test]
    fn temperature_factor_is_unity_at_bench_and_grows_above() {
        let m = vc707();
        let bench = m.sample(Rail::Vccbram, Millivolts(610), 25.0);
        let hot = m.sample(Rail::Vccbram, Millivolts(610), 60.0);
        assert!(hot.static_w > bench.static_w, "leakage grows with T");
        assert_eq!(hot.dynamic_w, bench.dynamic_w, "dynamic is T-free here");
        let expected = bench.static_w * (LEAK_TEMP_COEFF_PER_C * 35.0).exp();
        assert!((hot.static_w - expected).abs() < 1e-12);
    }

    #[test]
    fn calibration_hits_the_further_reduction_target_exactly() {
        for kind in PlatformKind::ALL {
            let m = ChipPowerModel::for_platform(kind);
            let spec = m.rail(Rail::Vccbram);
            let further = spec.further_reduction(spec.landmarks.vmin, spec.landmarks.vcrash);
            assert!(
                (further - FURTHER_REDUCTION_TARGET).abs() < 1e-9,
                "{kind}: further {further}"
            );
        }
    }

    #[test]
    fn model_is_bit_identical_across_constructions() {
        let a = vc707();
        let b = vc707();
        assert_eq!(a, b);
        let k_a = a.rail(Rail::Vccbram).leak_exponent;
        let k_b = b.rail(Rail::Vccbram).leak_exponent;
        assert_eq!(k_a.to_bits(), k_b.to_bits());
    }

    #[test]
    fn microwatt_quantization_rounds_and_clamps() {
        let s = PowerSample {
            dynamic_w: 0.0,
            static_w: 1.234_567_89,
        };
        assert_eq!(s.total_uw(), 1_234_568);
        let z = PowerSample {
            dynamic_w: 0.0,
            static_w: 0.0,
        };
        assert_eq!(z.total_uw(), 0);
    }
}
