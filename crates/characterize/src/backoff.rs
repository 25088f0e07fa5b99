//! Exponential backoff with deterministic jitter — the one retry-delay
//! implementation shared by the sweep harness (board power-cycle retries)
//! and the campaign server's worker supervisor (process restarts).
//!
//! The schedule is the classic capped exponential, `min(cap, base·2^a)`,
//! with *subtractive* jitter: up to a quarter of the exponential delay is
//! shaved off, keyed by a caller-supplied position key instead of an RNG.
//! Two properties fall out of that choice:
//!
//! * **Determinism.** The same `(key, attempt)` always yields the same
//!   delay, so a checkpoint-resumed sweep replays byte-identical
//!   `backoff_ms` telemetry, while distinct keys (different rails, dies,
//!   workers) de-synchronize their retry storms exactly like random
//!   jitter would.
//! * **Monotonicity below the cap.** The jittered delay lives in
//!   `[3/4·exp, exp]`, and `3/4·exp(a+1) = 3/2·exp(a) ≥ exp(a)`, so each
//!   retry always waits at least as long as the previous one — property
//!   tested below across the whole key space.

use uvf_fpga::seedmix::mix;

uvf_trace::json_record! {
    /// Capped exponential backoff with deterministic subtractive jitter.
    /// Its keys are the ones [`RecoveryPolicy`](crate::harness::RecoveryPolicy)
    /// splices into its own wire form.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct Backoff {
        /// Delay of attempt 0, before jitter.
        pub base_ms: u64 => "backoff_base_ms",
        /// Ceiling the exponential saturates at (pre-jitter).
        pub cap_ms: u64 => "backoff_cap_ms",
    }
}

impl Backoff {
    #[must_use]
    pub const fn new(base_ms: u64, cap_ms: u64) -> Backoff {
        Backoff { base_ms, cap_ms }
    }

    /// The un-jittered schedule: `min(cap, base · 2^attempt)`, saturating.
    #[must_use]
    pub fn exp_ms(&self, attempt: u32) -> u64 {
        let doubled = if attempt >= 63 {
            u64::MAX
        } else {
            self.base_ms.saturating_mul(1u64 << attempt)
        };
        doubled.min(self.cap_ms)
    }

    /// The delay to wait before retry `attempt`, jittered by `key`.
    ///
    /// `key` identifies the retrying *position* (die, rail, voltage, run —
    /// or a worker id), so replays of the same position wait identically
    /// while distinct positions spread out. The result is always within
    /// `[3/4 · exp_ms, exp_ms]`.
    #[must_use]
    pub fn delay_ms(&self, attempt: u32, key: u64) -> u64 {
        let exp = self.exp_ms(attempt);
        let jitter_span = exp / 4 + 1;
        exp - mix(&[key, u64::from(attempt)]) % jitter_span
    }
}

impl Default for Backoff {
    /// The harness default: first retry ~100 ms, capped at 5 s — attempts
    /// 0–5 still double, anything later holds at the cap.
    fn default() -> Backoff {
        Backoff::new(100, 5_000)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exponential_doubles_then_saturates_at_the_cap() {
        let b = Backoff::new(100, 5_000);
        assert_eq!(b.exp_ms(0), 100);
        assert_eq!(b.exp_ms(1), 200);
        assert_eq!(b.exp_ms(5), 3_200);
        assert_eq!(b.exp_ms(6), 5_000, "cap reached");
        assert_eq!(b.exp_ms(63), 5_000);
        assert_eq!(b.exp_ms(200), 5_000, "huge attempts never overflow");
    }

    #[test]
    fn delay_is_deterministic_per_position() {
        let b = Backoff::default();
        for key in [0u64, 1, 0xdead_beef, u64::MAX] {
            for attempt in 0..10 {
                assert_eq!(b.delay_ms(attempt, key), b.delay_ms(attempt, key));
            }
        }
        // Distinct keys de-synchronize (at least one attempt differs).
        assert!((0..10).any(|a| b.delay_ms(a, 1) != b.delay_ms(a, 2)));
    }

    /// Property test over a spread of keys: the jittered delay stays in
    /// `[3/4·exp, exp]`, is monotone non-decreasing in the attempt, and
    /// never exceeds the cap.
    #[test]
    fn jittered_delays_are_bounded_and_monotone() {
        let b = Backoff::new(100, 5_000);
        for i in 0..500u64 {
            let key = mix(&[i]);
            let mut prev = 0u64;
            for attempt in 0..20 {
                let exp = b.exp_ms(attempt);
                let d = b.delay_ms(attempt, key);
                assert!(d <= exp, "key {key:#x} attempt {attempt}: {d} > exp {exp}");
                assert!(
                    d >= exp - exp / 4,
                    "key {key:#x} attempt {attempt}: {d} below 3/4·{exp}"
                );
                assert!(d <= b.cap_ms);
                assert!(
                    d >= prev || exp == b.cap_ms,
                    "key {key:#x} attempt {attempt}: {d} < previous {prev} below the cap"
                );
                prev = d;
            }
        }
    }

    #[test]
    fn degenerate_bases_stay_sane() {
        // base 0: every delay is 0 (jitter span is 1).
        let zero = Backoff::new(0, 1_000);
        assert_eq!(zero.delay_ms(7, 42), 0);
        // cap below base: clamped immediately.
        let clamped = Backoff::new(1_000, 10);
        assert_eq!(clamped.exp_ms(0), 10);
        assert!(clamped.delay_ms(0, 42) <= 10);
    }
}
