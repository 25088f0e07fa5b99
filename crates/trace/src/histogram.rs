//! Fixed-bucket latency histogram.
//!
//! Buckets are powers of two from 128 ns up to ~4.8 hours — fixed at
//! compile time so two histograms are always mergeable and the Prometheus
//! exposition never needs to negotiate boundaries. Quantiles are
//! bucket-interpolated estimates clamped to the exact observed `[min, max]`
//! range, which keeps tiny sample sets honest (p99 of 5 samples is the
//! max, not an extrapolation past it).

/// Number of finite buckets; upper bound of bucket `i` is `2^(7+i)` ns.
pub const BUCKET_COUNT: usize = 38;

/// Upper bound (inclusive) of finite bucket `i`, in nanoseconds.
#[must_use]
pub fn bucket_upper_ns(i: usize) -> u64 {
    debug_assert!(i < BUCKET_COUNT);
    1u64 << (7 + i)
}

/// A fixed-bucket histogram of nanosecond observations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    counts: [u64; BUCKET_COUNT],
    /// Observations above the last finite bucket (`le="+Inf"` only).
    overflow: u64,
    count: u64,
    sum_ns: u64,
    min_ns: u64,
    max_ns: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl Histogram {
    #[must_use]
    pub fn new() -> Histogram {
        Histogram {
            counts: [0; BUCKET_COUNT],
            overflow: 0,
            count: 0,
            sum_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
        }
    }

    pub fn record(&mut self, ns: u64) {
        match self
            .counts
            .iter_mut()
            .enumerate()
            .find(|(i, _)| ns <= bucket_upper_ns(*i))
        {
            Some((_, slot)) => *slot += 1,
            None => self.overflow += 1,
        }
        self.count += 1;
        self.sum_ns = self.sum_ns.saturating_add(ns);
        self.min_ns = self.min_ns.min(ns);
        self.max_ns = self.max_ns.max(ns);
    }

    /// Fold `other` into `self` (bucket-wise; boundaries are fixed, so the
    /// merge is exact).
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.overflow += other.overflow;
        self.count += other.count;
        self.sum_ns = self.sum_ns.saturating_add(other.sum_ns);
        self.min_ns = self.min_ns.min(other.min_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
    }

    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    #[must_use]
    pub fn sum_ns(&self) -> u64 {
        self.sum_ns
    }

    #[must_use]
    pub fn min_ns(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min_ns
        }
    }

    /// Cumulative count at each finite bucket boundary plus the overflow
    /// tally, in Prometheus `le` order (for exposition rendering).
    #[must_use]
    pub fn cumulative(&self) -> ([u64; BUCKET_COUNT], u64) {
        let mut cum = [0u64; BUCKET_COUNT];
        let mut acc = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            acc += c;
            cum[i] = acc;
        }
        (cum, self.count)
    }

    /// Bucket-interpolated quantile estimate (`q` in `[0, 1]`), clamped to
    /// the observed range. Returns 0 on an empty histogram.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        if q == 0.0 {
            return self.min_ns();
        }
        // Rank of the target observation, 1-based.
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if seen + c >= target {
                let lower = if i == 0 { 0 } else { bucket_upper_ns(i - 1) };
                let upper = bucket_upper_ns(i);
                let frac = (target - seen) as f64 / c as f64;
                let est = lower as f64 + frac * (upper - lower) as f64;
                return (est as u64).clamp(self.min_ns(), self.max_ns);
            }
            seen += c;
        }
        // Target lives in the overflow bucket: all we know is the max.
        self.max_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn from_samples(samples_ns: &[u64]) -> Histogram {
        let mut h = Histogram::new();
        for &s in samples_ns {
            h.record(s);
        }
        h
    }

    #[test]
    fn quantiles_are_ordered_and_clamped() {
        let mut h = Histogram::new();
        for ns in [100u64, 200, 300, 400, 500, 10_000, 20_000] {
            h.record(ns);
        }
        assert_eq!(h.count(), 7);
        let (p95, p99) = (h.quantile(0.95), h.quantile(0.99));
        assert!(h.quantile(0.5) <= p95 && p95 <= p99);
        assert!(p99 <= h.max_ns, "clamped to the observed max");
        assert!(h.quantile(0.5) >= h.min_ns());
        assert_eq!(h.quantile(0.0), h.min_ns());
        assert_eq!(h.quantile(1.0), h.max_ns);
    }

    #[test]
    fn empty_histogram_is_harmless() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.min_ns(), 0);
        assert_eq!(h.max_ns, 0);
    }

    #[test]
    fn merge_equals_recording_everything_in_one() {
        let xs = [150u64, 90, 4_000, 77_000, 1 << 50];
        let ys = [300u64, 300, 128];
        let mut a = from_samples(&xs);
        let b = from_samples(&ys);
        a.merge(&b);
        let all: Vec<u64> = xs.iter().chain(ys.iter()).copied().collect();
        assert_eq!(a, from_samples(&all));
        assert_eq!(a.count(), 8);
    }

    #[test]
    fn overflow_lands_past_the_last_bucket() {
        let mut h = Histogram::new();
        let huge = bucket_upper_ns(BUCKET_COUNT - 1) + 1;
        h.record(huge);
        let (cum, total) = h.cumulative();
        assert_eq!(cum[BUCKET_COUNT - 1], 0, "no finite bucket saw it");
        assert_eq!(total, 1);
        assert_eq!(h.quantile(0.5), huge, "overflow quantile reports max");
    }

    #[test]
    fn single_sample_every_quantile_is_that_sample() {
        let h = from_samples(&[777]);
        for q in [0.0, 0.25, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 777);
        }
    }
}
