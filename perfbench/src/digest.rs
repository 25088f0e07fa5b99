//! Output digests: FNV-1a over the bytes that describe a simulated result.
//!
//! Every operation folds its outputs into one `u64`; a run folds the
//! digests of its first few operations (a prefix that does not depend on
//! how fast the host is) into the `outputs_digest` it prints, so two
//! commits can compare simulated results exactly.

const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// Incremental FNV-1a hasher.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Digest {
        Digest(OFFSET)
    }
}

impl Digest {
    #[must_use]
    pub fn new() -> Digest {
        Digest::default()
    }

    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Digest {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(PRIME);
        }
        self
    }

    pub fn u64(&mut self, v: u64) -> &mut Digest {
        self.bytes(&v.to_le_bytes())
    }

    /// Floats enter by their exact bit pattern.
    pub fn f64(&mut self, v: f64) -> &mut Digest {
        self.u64(v.to_bits())
    }

    pub fn str(&mut self, s: &str) -> &mut Digest {
        self.u64(s.len() as u64).bytes(s.as_bytes())
    }

    #[must_use]
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// The digest a run prints: FNV-1a over its prefix operations' digests.
#[must_use]
pub fn fold(digests: &[u64]) -> u64 {
    let mut d = Digest::new();
    for &x in digests {
        d.u64(x);
    }
    d.finish()
}

/// SplitMix64 finalizer: derives independent per-operation inputs (chip
/// seeds, run seeds, job choices) from the workload seed.
#[must_use]
pub fn mix(a: u64, b: u64) -> u64 {
    let mut z = a
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(b)
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        assert_eq!(Digest::new().finish(), 0xcbf2_9ce4_8422_2325);
        assert_eq!(Digest::new().bytes(b"a").finish(), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(
            Digest::new().bytes(b"foobar").finish(),
            0x8594_4171_f739_67e8
        );
    }

    #[test]
    fn mix_separates_neighbouring_inputs() {
        assert_ne!(mix(0, 0), mix(0, 1));
        assert_ne!(mix(0, 1), mix(1, 0));
        assert_eq!(mix(7, 3), mix(7, 3));
    }
}
