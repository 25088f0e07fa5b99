//! Deterministic seed mixing.
//!
//! Every stochastic-looking quantity in the workspace is a pure function of
//! integer keys (chip seed, site, voltage, run, attempt, …). This module is
//! the one place that turns a key tuple into uniform bits, so determinism —
//! the paper's observation ❶ and the invariant ICBP relies on — has a
//! single, testable root.

/// The SplitMix64 increment ("golden gamma", ⌊2⁶⁴/φ⌋, odd).
pub const GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// SplitMix64 output permutation (the finalizer alone, no increment).
#[must_use]
pub fn finalize(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// SplitMix64 finalizer with a pre-add of [`GAMMA`]: a strong 64-bit
/// mixing permutation.
#[must_use]
pub fn mix64(z: u64) -> u64 {
    finalize(z.wrapping_add(GAMMA))
}

/// Canonical sequential SplitMix64 stream: `state += GAMMA`, then
/// [`finalize`]. Seeded at 0 the first outputs are the reference vector
/// `0xe220_a839_7b1d_cdaf, 0x6e78_9e6a_a1b9_65f4, …`.
///
/// This is *the* sequential generator of the workspace — `uvf-stats`
/// (k-means++ seeding) re-exports it verbatim and `uvf-faults` wraps it
/// with a seed offset that preserves its historical stream. Both streams
/// are pinned bit-identical by regression tests in their home crates.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    #[must_use]
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GAMMA);
        finalize(self.state)
    }

    /// Uniform in `[0, 1)` (53-bit mantissa).
    pub fn next_f64(&mut self) -> f64 {
        unit_f64(self.next_u64())
    }
}

/// Hash a key tuple into 64 uniform bits. Order-sensitive by construction.
#[must_use]
pub fn mix(keys: &[u64]) -> u64 {
    let mut h: u64 = 0x5151_7ed1_u64; // arbitrary non-zero domain tag
    for &k in keys {
        h = mix64(h ^ k);
    }
    h
}

/// 64-bit FNV-1a over `bytes`: the workspace's one content hash (record
/// identities, manifest fingerprints, golden digests). Not a mixer —
/// use [`mix`] for key tuples.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Map 64 uniform bits onto a double in `[0, 1)` (53-bit mantissa).
#[must_use]
pub fn unit_f64(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Uniform draw in `(0, 1]` — safe as a log argument.
#[must_use]
pub fn unit_open_f64(h: u64) -> f64 {
    ((h >> 11) + 1) as f64 * (1.0 / (1u64 << 53) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_is_deterministic_and_order_sensitive() {
        assert_eq!(mix(&[1, 2, 3]), mix(&[1, 2, 3]));
        assert_ne!(mix(&[1, 2, 3]), mix(&[3, 2, 1]));
        assert_ne!(mix(&[1]), mix(&[1, 0]));
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn unit_range() {
        for i in 0..1000u64 {
            let u = unit_f64(mix(&[i]));
            assert!((0.0..1.0).contains(&u));
            let uo = unit_open_f64(mix(&[i]));
            assert!(uo > 0.0 && uo <= 1.0);
        }
    }

    #[test]
    fn mix64_is_finalize_after_gamma() {
        for z in [0u64, 1, 42, u64::MAX, 0xdead_beef] {
            assert_eq!(mix64(z), finalize(z.wrapping_add(GAMMA)));
        }
    }

    #[test]
    fn splitmix_stream_matches_reference_vector() {
        // Canonical SplitMix64 outputs for seed 0 (same vector that the
        // JDK SplittableRandom / the original Steele et al. code emit).
        let mut r = SplitMix64::new(0);
        assert_eq!(r.next_u64(), 0xe220_a839_7b1d_cdaf);
        assert_eq!(r.next_u64(), 0x6e78_9e6a_a1b9_65f4);
        assert_eq!(r.next_u64(), 0x06c4_5d18_8009_454f);
        assert_eq!(r.next_u64(), 0xf88b_b8a8_724c_81ec);
    }

    #[test]
    fn unit_is_roughly_uniform() {
        let n = 10_000u64;
        let mean: f64 = (0..n).map(|i| unit_f64(mix(&[0xabc, i]))).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }
}
