//! `uvf-bench` — std-only timing harness for the simulator's hot paths.
//!
//! No Criterion in an offline workspace, so this is the minimal honest
//! subset: per-sample wall-clock timing over a work closure, warmup
//! iterations to fault in caches and branch predictors, the **median** of
//! N samples as the reported statistic (robust against scheduler noise on
//! shared runners), and byte-stable JSON output so CI can archive
//! `BENCH_sweep.json` and later PRs can diff perf trajectories.
//!
//! The harness measures; it does not judge. Speedup claims are derived
//! ratios stored next to the raw samples, and assertions about them live
//! in the caller (the `uvf-bench` binary prints them; CI archives them).
//!
//! [`registry`] holds the paper's experiments, one row per table/figure,
//! with their landmark gates; the `repro` binary is its command line.

#![deny(deprecated)]

pub mod registry;

use std::hint::black_box;
use std::time::Instant;
use uvf_characterize::Json;
use uvf_trace::codec::Value;
use uvf_trace::{Histogram, PhaseTime};

/// Global sizing of a suite run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BenchOptions {
    /// Unmeasured iterations before sampling starts.
    pub warmup_iters: u32,
    /// Measured samples; the median is the reported statistic.
    pub samples: u32,
    /// Reduced problem sizes (CI smoke mode).
    pub quick: bool,
}

impl BenchOptions {
    #[must_use]
    pub fn full() -> BenchOptions {
        BenchOptions {
            warmup_iters: 3,
            samples: 9,
            quick: false,
        }
    }

    #[must_use]
    pub fn quick() -> BenchOptions {
        BenchOptions {
            warmup_iters: 1,
            samples: 5,
            quick: true,
        }
    }
}

/// One benchmark's timing summary.
#[derive(Debug, Clone, PartialEq)]
pub struct Measurement {
    pub name: String,
    /// Work units per sample (words corrupted, runs measured, …); lets the
    /// JSON carry per-op times without losing the raw totals.
    pub ops_per_sample: u64,
    pub samples_ns: Vec<u64>,
    pub median_ns: u64,
    pub min_ns: u64,
    pub max_ns: u64,
}

impl Measurement {
    /// Median nanoseconds per single work unit.
    #[must_use]
    pub fn ns_per_op(&self) -> f64 {
        self.median_ns as f64 / self.ops_per_sample.max(1) as f64
    }

    /// The samples folded into a `uvf-trace` fixed-bucket histogram —
    /// the source of the reported p50/p95/p99.
    #[must_use]
    pub fn histogram(&self) -> Histogram {
        Histogram::from_samples(&self.samples_ns)
    }

    #[must_use]
    pub fn to_json(&self) -> Json {
        let hist = self.histogram();
        Json::obj(vec![
            ("name", Json::Str(self.name.clone())),
            ("ops_per_sample", Json::UInt(self.ops_per_sample)),
            ("median_ns", Json::UInt(self.median_ns)),
            ("min_ns", Json::UInt(self.min_ns)),
            ("max_ns", Json::UInt(self.max_ns)),
            ("p50_ns", Json::UInt(hist.p50())),
            ("p95_ns", Json::UInt(hist.p95())),
            ("p99_ns", Json::UInt(hist.p99())),
            ("ns_per_op", Json::Float(self.ns_per_op())),
            ("samples_ns", self.samples_ns.encode()),
        ])
    }
}

/// Median of a sample set (odd or even), without mutating the input.
#[must_use]
pub fn median_ns(samples: &[u64]) -> u64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2
    }
}

/// Time `work` (`warmup` unmeasured + `samples` measured calls); the
/// closure's return value is routed through [`black_box`] so the optimizer
/// cannot delete the measured work.
pub fn bench<R>(
    name: &str,
    ops_per_sample: u64,
    opts: &BenchOptions,
    mut work: impl FnMut() -> R,
) -> Measurement {
    for _ in 0..opts.warmup_iters {
        black_box(work());
    }
    let samples_ns: Vec<u64> = (0..opts.samples.max(1))
        .map(|_| {
            let start = Instant::now();
            black_box(work());
            u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
        })
        .collect();
    let median = median_ns(&samples_ns);
    let min = *samples_ns.iter().min().expect("samples nonempty");
    let max = *samples_ns.iter().max().expect("samples nonempty");
    Measurement {
        name: name.to_string(),
        ops_per_sample,
        samples_ns,
        median_ns: median,
        min_ns: min,
        max_ns: max,
    }
}

/// A named scalar derived from measurements (speedup ratios etc.).
#[derive(Debug, Clone, PartialEq)]
pub struct Derived {
    pub name: String,
    pub value: f64,
}

/// The whole suite's output: raw measurements + derived ratios + context.
#[derive(Debug, Clone, PartialEq)]
pub struct Suite {
    pub quick: bool,
    /// The host's available parallelism, recorded as a host fact.
    pub threads: usize,
    pub measurements: Vec<Measurement>,
    pub derived: Vec<Derived>,
    /// Per-phase wall time of the suite run itself (from `uvf-trace` root
    /// spans), so `BENCH_sweep.json` records where the wall clock went.
    pub phases: Vec<PhaseTime>,
}

impl Suite {
    #[must_use]
    pub fn new(quick: bool, threads: usize) -> Suite {
        Suite {
            quick,
            threads,
            measurements: Vec::new(),
            derived: Vec::new(),
            phases: Vec::new(),
        }
    }

    pub fn record(&mut self, m: Measurement) -> &Measurement {
        self.measurements.push(m);
        self.measurements.last().expect("just pushed")
    }

    pub fn derive(&mut self, name: &str, value: f64) {
        self.derived.push(Derived {
            name: name.to_string(),
            value,
        });
    }

    #[must_use]
    pub fn derived_value(&self, name: &str) -> Option<f64> {
        self.derived
            .iter()
            .find(|d| d.name == name)
            .map(|d| d.value)
    }

    #[must_use]
    pub fn to_json_string(&self) -> String {
        Json::obj(vec![
            ("version", Json::UInt(2)),
            ("quick", Json::Bool(self.quick)),
            ("threads", Json::UInt(self.threads as u64)),
            (
                "benches",
                Json::Arr(self.measurements.iter().map(Measurement::to_json).collect()),
            ),
            ("phases", self.phases.encode()),
            (
                "derived",
                Json::obj(
                    self.derived
                        .iter()
                        .map(|d| (d.name.as_str(), Json::Float(d.value)))
                        .collect(),
                ),
            ),
        ])
        .to_string()
    }

    /// Atomic write ([`uvf_trace::write_atomic`]: temp + fsync + rename).
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        uvf_trace::write_atomic(path, &self.to_json_string())
    }
}

/// Compare this suite's medians against a previously committed
/// `BENCH_sweep.json` (parsed into `baseline`). A **watched** bench — one
/// whose name starts with any of `watch_prefixes` — regresses when its
/// median exceeds the baseline median by more than `max_regression_pct`;
/// the returned list describes every regression (empty = pass). Benches
/// new since the baseline are skipped: they have nothing to regress from.
///
/// Quick and full runs have different problem sizes, so comparing across
/// modes is meaningless and an error, not a silent pass.
pub fn compare_to_baseline(
    current: &Suite,
    baseline: &Json,
    max_regression_pct: f64,
    watch_prefixes: &[&str],
) -> Result<Vec<String>, String> {
    let base_quick = baseline
        .get("quick")
        .and_then(Json::as_bool)
        .ok_or("baseline missing quick flag")?;
    if base_quick != current.quick {
        return Err(format!(
            "baseline is a {} run, current is {}: not comparable",
            if base_quick { "quick" } else { "full" },
            if current.quick { "quick" } else { "full" },
        ));
    }
    let benches = baseline
        .get("benches")
        .and_then(Json::as_arr)
        .ok_or("baseline missing benches array")?;
    let base_median = |name: &str| -> Option<u64> {
        benches
            .iter()
            .find(|b| b.get("name").and_then(Json::as_str) == Some(name))
            .and_then(|b| b.get("median_ns").and_then(Json::as_u64))
    };
    let allowed = 1.0 + max_regression_pct / 100.0;
    let mut regressions = Vec::new();
    for m in &current.measurements {
        if !watch_prefixes.iter().any(|p| m.name.starts_with(p)) {
            continue;
        }
        let Some(base) = base_median(&m.name) else {
            continue;
        };
        let limit = base as f64 * allowed;
        if m.median_ns as f64 > limit {
            regressions.push(format!(
                "{}: median {} ns > baseline {} ns (+{:.1}% > +{:.0}% allowed)",
                m.name,
                m.median_ns,
                base,
                (m.median_ns as f64 / base.max(1) as f64 - 1.0) * 100.0,
                max_regression_pct,
            ));
        }
    }
    Ok(regressions)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_and_even() {
        assert_eq!(median_ns(&[5]), 5);
        assert_eq!(median_ns(&[3, 1, 2]), 2);
        assert_eq!(median_ns(&[4, 1, 3, 2]), 2);
    }

    #[test]
    fn bench_counts_samples_and_orders_stats() {
        let opts = BenchOptions {
            warmup_iters: 2,
            samples: 7,
            quick: true,
        };
        let mut calls = 0u32;
        let m = bench("spin", 10, &opts, || {
            calls += 1;
            std::hint::black_box((0..100u64).sum::<u64>())
        });
        assert_eq!(calls, 9, "warmup + samples");
        assert_eq!(m.samples_ns.len(), 7);
        assert!(m.min_ns <= m.median_ns && m.median_ns <= m.max_ns);
        assert!(m.ns_per_op() >= 0.0);
    }

    #[test]
    fn suite_json_is_parseable_and_carries_derived() {
        let mut suite = Suite::new(true, 4);
        suite.record(Measurement {
            name: "x".into(),
            ops_per_sample: 2,
            samples_ns: vec![10, 20, 30],
            median_ns: 20,
            min_ns: 10,
            max_ns: 30,
        });
        suite.derive("speedup", 12.5);
        suite.phases.push(PhaseTime {
            name: "word_kernels".into(),
            wall_ns: 1234,
        });
        assert_eq!(suite.derived_value("speedup"), Some(12.5));
        let parsed = Json::parse(&suite.to_json_string()).unwrap();
        assert_eq!(parsed.get("version").and_then(Json::as_u64), Some(2));
        assert_eq!(parsed.get("threads").and_then(Json::as_u64), Some(4));
        // Quantiles are bucket-interpolated estimates clamped to [min, max].
        let bench0 = parsed.get("benches").and_then(Json::as_arr).unwrap()[0].clone();
        let p50 = bench0.get("p50_ns").and_then(Json::as_u64).unwrap();
        let p99 = bench0.get("p99_ns").and_then(Json::as_u64).unwrap();
        assert!((10..=30).contains(&p50));
        assert!(p50 <= p99 && p99 <= 30);
        let phase0 = parsed.get("phases").and_then(Json::as_arr).unwrap()[0].clone();
        assert_eq!(
            phase0.get("name").and_then(Json::as_str),
            Some("word_kernels")
        );
        assert_eq!(phase0.get("wall_ns").and_then(Json::as_u64), Some(1234));
        let speedup = parsed
            .get("derived")
            .and_then(|d| d.get("speedup"))
            .and_then(Json::as_f64);
        assert_eq!(speedup, Some(12.5));
    }

    #[test]
    fn baseline_compare_flags_watched_regressions_only() {
        let mut old = Suite::new(true, 4);
        for (name, ns) in [
            ("mask_build/full_die", 100u64),
            ("ladder_mask_build/ladder_kernel", 100),
            ("nn/classify_per_sample", 100),
        ] {
            old.record(Measurement {
                name: name.into(),
                ops_per_sample: 1,
                samples_ns: vec![ns],
                median_ns: ns,
                min_ns: ns,
                max_ns: ns,
            });
        }
        let baseline = Json::parse(&old.to_json_string()).unwrap();

        let mut new = Suite::new(true, 4);
        for (name, ns) in [
            ("mask_build/full_die", 150u64),          // +50%: regression
            ("ladder_mask_build/ladder_kernel", 110), // +10%: within budget
            ("nn/classify_per_sample", 900),          // unwatched: ignored
            ("ladder_mask_build/brand_new", 999),     // no baseline: skipped
        ] {
            new.record(Measurement {
                name: name.into(),
                ops_per_sample: 1,
                samples_ns: vec![ns],
                median_ns: ns,
                min_ns: ns,
                max_ns: ns,
            });
        }
        let watch = ["mask_build", "ladder_mask_build"];
        let regressions = compare_to_baseline(&new, &baseline, 20.0, &watch).unwrap();
        assert_eq!(regressions.len(), 1, "{regressions:?}");
        assert!(regressions[0].starts_with("mask_build/full_die"));

        let mut full = new.clone();
        full.quick = false;
        assert!(
            compare_to_baseline(&full, &baseline, 20.0, &watch).is_err(),
            "quick baseline vs full run must refuse to compare"
        );
    }

    #[test]
    fn suite_write_is_atomic() {
        let dir = std::env::temp_dir().join(format!("uvf-bench-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_sweep.json");
        let suite = Suite::new(false, 1);
        suite.write(&path).unwrap();
        assert!(path.exists());
        assert!(!dir.join("BENCH_sweep.json.tmp").exists());
        std::fs::remove_dir_all(&dir).ok();
    }
}
