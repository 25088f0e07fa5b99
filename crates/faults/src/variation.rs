//! Process-variation layers: why fault rates are wildly non-uniform.
//!
//! Three multiplicative layers shape each cell's failure threshold, all
//! keyed by the *physical site* (README invariant 2 — recompiling a design
//! moves which faults it sees, never the die's map):
//!
//! 1. a within-die spatially-correlated field (smooth over the floorplan,
//!    gives the FVM its clustered hot regions, Figs. 6–7),
//! 2. a heavy-tailed per-BRAM vulnerability multiplier with an immune mass
//!    (gives the Fig.-5 never-faulty share and the long tail),
//! 3. die-to-die offsets, carried entirely by the chip seed (KC705-A vs
//!    KC705-B divergence, Fig. 7).

use crate::params::FaultParams;
use crate::rng::standard_normal;
use uvf_fpga::seedmix::{mix, unit_f64, SplitMix64, GAMMA};
use uvf_fpga::{Floorplan, Site};

const TAG_VULN: u64 = 0x0011_a811;
const TAG_IMMUNE: u64 = 0x0011_a812;
const TAG_FIELD: u64 = 0x0011_a813;

/// Smooth unit-variance random field over the floorplan, realized as a sum
/// of seeded cosine harmonics (a spectral approximation of a Gaussian
/// process with wavelength `spatial_wavelength`).
#[derive(Debug, Clone)]
pub struct SpatialField {
    harmonics: Vec<(f64, f64, f64)>, // (kx, ky, phase)
    amplitude: f64,
}

impl SpatialField {
    const HARMONICS: usize = 8;

    #[must_use]
    pub fn new(chip_seed: u64, params: &FaultParams) -> SpatialField {
        // Offset by `GAMMA`: the stream every persisted die was drawn from.
        let mut rng = SplitMix64::new(mix(&[chip_seed, TAG_FIELD]).wrapping_add(GAMMA));
        let k0 = std::f64::consts::TAU / params.spatial_wavelength;
        let harmonics = (0..SpatialField::HARMONICS)
            .map(|_| {
                let theta = rng.next_f64() * std::f64::consts::TAU;
                // Jitter the magnitude so the field is not strictly periodic.
                let k = k0 * (0.6 + 0.8 * rng.next_f64());
                let phase = rng.next_f64() * std::f64::consts::TAU;
                (k * theta.cos(), k * theta.sin(), phase)
            })
            .collect();
        SpatialField {
            harmonics,
            amplitude: (2.0 / SpatialField::HARMONICS as f64).sqrt(),
        }
    }

    /// Approximately standard-normal value at a site; smooth in (x, y).
    #[must_use]
    pub fn value(&self, site: Site) -> f64 {
        let (x, y) = (f64::from(site.x), f64::from(site.y));
        self.amplitude
            * self
                .harmonics
                .iter()
                .map(|&(kx, ky, phase)| (kx * x + ky * y + phase).cos())
                .sum::<f64>()
    }
}

/// Normalized per-BRAM vulnerability multipliers for a whole die, indexed
/// by dense BRAM id. The raw layered draws are rescaled so the die mean is
/// exactly 1: the paper's faults/Mbit targets are *per-die measurements*,
/// so calibration pins the die aggregate and leaves only per-cell Poisson
/// residue (heavy-tailed spread across BRAMs is preserved untouched).
#[must_use]
pub fn die_multipliers(chip_seed: u64, floorplan: &Floorplan, params: &FaultParams) -> Vec<f64> {
    let field = SpatialField::new(chip_seed, params);
    let raw: Vec<f64> = floorplan
        .sites()
        .map(|(_, site)| bram_multiplier(chip_seed, site, &field, params))
        .collect();
    let mean = raw.iter().sum::<f64>() / raw.len().max(1) as f64;
    if mean <= 0.0 {
        return raw;
    }
    raw.into_iter().map(|m| m / mean).collect()
}

/// Per-BRAM vulnerability multiplier at a site, `>= 0`, with `E[m] = 1`
/// over the die so the pooled rate stays pinned to `p_crash_per_bit`.
#[must_use]
pub fn bram_multiplier(
    chip_seed: u64,
    site: Site,
    field: &SpatialField,
    params: &FaultParams,
) -> f64 {
    let site_key = (u64::from(site.x) << 16) | u64::from(site.y);
    // Immune mass: a fixed share of blocks carries no vulnerability at all.
    let immune_roll = unit_f64(mix(&[chip_seed, TAG_IMMUNE, site_key]));
    if immune_roll < params.immune_fraction {
        return 0.0;
    }
    // Heavy-tailed log-normal vulnerability, mean-corrected so that the
    // immune mass plus the log-normal mass average to 1.
    let z = standard_normal(mix(&[chip_seed, TAG_VULN, site_key]));
    let sigma = params.vuln_sigma;
    let mean_target = 1.0 / (1.0 - params.immune_fraction);
    let mu = mean_target.ln() - 0.5 * sigma * sigma;
    let vuln = (mu + sigma * z).exp();
    // Spatial layer, also mean-one in expectation.
    let s = params.spatial_sigma;
    let spatial = (s * field.value(site) - 0.5 * s * s).exp();
    vuln * spatial
}

#[cfg(test)]
mod tests {
    use super::*;
    use uvf_fpga::PlatformKind;

    fn setup() -> (FaultParams, SpatialField) {
        let params = FaultParams::for_platform(PlatformKind::Vc707);
        let field = SpatialField::new(0xd1e5_eed1, &params);
        (params, field)
    }

    #[test]
    fn field_is_smooth_and_roughly_normal() {
        let (_, field) = setup();
        let mut sum = 0.0;
        let mut sum2 = 0.0;
        let n = 21 * 100;
        for x in 0..21u16 {
            for y in 0..100u16 {
                let v = field.value(Site { x, y });
                sum += v;
                sum2 += v * v;
                // Smoothness: neighbour delta bounded well below the
                // field's full range (≈ ±4 for a unit-variance field).
                let down = field.value(Site { x, y: y + 1 });
                assert!((v - down).abs() < 4.0, "rough field at ({x},{y})");
            }
        }
        let mean = sum / f64::from(n);
        let var = sum2 / f64::from(n) - mean * mean;
        assert!(mean.abs() < 0.5, "mean {mean}");
        assert!((0.2..3.0).contains(&var), "var {var}");
    }

    #[test]
    fn multiplier_mean_is_one_and_immune_mass_exists() {
        let (params, field) = setup();
        let mut sum = 0.0;
        let mut immune = 0usize;
        let n = 2060u64;
        for i in 0..n {
            let site = Site {
                x: (i / 100) as u16,
                y: (i % 100) as u16,
            };
            let m = bram_multiplier(0xd1e5_eed1, site, &field, &params);
            assert!(m >= 0.0);
            sum += m;
            if m == 0.0 {
                immune += 1;
            }
        }
        let mean = sum / n as f64;
        assert!((mean - 1.0).abs() < 0.25, "mean multiplier {mean}");
        let immune_share = immune as f64 / n as f64;
        assert!(
            (immune_share - params.immune_fraction).abs() < 0.05,
            "immune share {immune_share}"
        );
    }

    #[test]
    fn different_chip_seeds_give_different_dies() {
        // A single site can coincide (e.g. both dies immune there); whole
        // maps must not.
        let (params, _) = setup();
        let fp = Floorplan::new(890);
        let a = die_multipliers(1, &fp, &params);
        let b = die_multipliers(2, &fp, &params);
        let differing = a.iter().zip(&b).filter(|(x, y)| x != y).count();
        assert!(differing > 800, "only {differing}/890 sites differ");
    }

    #[test]
    fn die_multipliers_are_mean_one_exactly() {
        let (params, _) = setup();
        let fp = Floorplan::new(2060);
        let m = die_multipliers(0xd1e5_eed1, &fp, &params);
        assert_eq!(m.len(), 2060);
        let mean = m.iter().sum::<f64>() / m.len() as f64;
        assert!((mean - 1.0).abs() < 1e-12, "mean {mean}");
        assert!(m.contains(&0.0), "immune mass survives scaling");
    }
}
