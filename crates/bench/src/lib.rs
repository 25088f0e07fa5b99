//! `uvf-bench` — std-only timing harness for the simulator's hot paths.
//!
//! No Criterion in an offline workspace, so the harness has one
//! primitive: a [`Pair`]. [`pair`] times a reference and the kernel that
//! replaced it back to back in every sample, after warmup calls of both,
//! and reports the median per-sample ratio of their per-op times (kernel ÷
//! reference, so lower is better). Scheduler drift and host speed hit both
//! sides of a sample alike, so the ratio describes the code rather than
//! the host, which is what lets CI hold it to a committed baseline
//! ([`ratio_regressions`]). The suite is byte-stable JSON
//! (`BENCH_sweep.json`).
//!
//! [`registry`] holds the paper's experiments, one row per table/figure,
//! with their landmark gates; the `repro` binary is its command line.

#![deny(deprecated)]

pub mod registry;

use std::hint::black_box;
use std::time::Instant;
use uvf_trace::codec::Value;
use uvf_trace::PhaseTime;

/// Global sizing of a suite run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BenchOptions {
    /// Unmeasured calls of each side before sampling starts.
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
            samples: 31,
            quick: true,
        }
    }
}

uvf_trace::json_record! {
    /// One side of a pair: its wall-clock samples.
    #[derive(Debug, Clone, PartialEq)]
    pub struct Measurement {
        pub name: String,
        /// Work units per call (conditions, BRAMs, images, …), so sides
        /// of different sizes compare per op.
        pub ops_per_sample: u64,
        pub median_ns: u64,
        pub samples_ns: Vec<u64>,
    }
}

impl Measurement {
    #[must_use]
    fn new(name: &str, ops_per_sample: u64, samples_ns: Vec<u64>) -> Measurement {
        Measurement {
            name: name.to_string(),
            ops_per_sample,
            median_ns: median_ns(&samples_ns),
            samples_ns,
        }
    }

    /// Median nanoseconds per single work unit.
    #[must_use]
    pub fn ns_per_op(&self) -> f64 {
        self.median_ns as f64 / self.ops_per_sample.max(1) as f64
    }
}

uvf_trace::json_record! {
    /// A kernel timed against its reference, sample by sample.
    #[derive(Debug, Clone, PartialEq)]
    pub struct Pair {
        pub name: String,
        /// Held to its committed ratio by [`ratio_regressions`]; an
        /// ungated pair is only reported (or held to a fixed bar by its
        /// caller).
        pub gated: bool,
        /// Median over samples of kernel ns/op ÷ reference ns/op.
        pub ratio: f64,
        pub reference: Measurement,
        pub kernel: Measurement,
    }
}

impl Pair {
    /// The same pair, held to the committed baseline.
    #[must_use]
    pub fn gate(self) -> Pair {
        Pair {
            gated: true,
            ..self
        }
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

/// Wall-clock nanoseconds of one call. The result goes through
/// [`black_box`], so the optimizer cannot delete the measured work, and
/// is dropped after the clock stops, so a side can hand back what it
/// wants torn down off the clock.
fn time<R>(work: &mut impl FnMut() -> R) -> u64 {
    let start = Instant::now();
    let result = black_box(work());
    let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    drop(result);
    ns
}

/// Time `kernel` against `reference`: `warmup_iters` unmeasured calls of
/// each, then `samples` samples that each call `reference` and then
/// `kernel`. Each side is `(measurement name, ops per call)`.
pub fn pair<A, B>(
    name: &str,
    opts: &BenchOptions,
    (reference_name, reference_ops): (&str, u64),
    (kernel_name, kernel_ops): (&str, u64),
    mut reference: impl FnMut() -> A,
    mut kernel: impl FnMut() -> B,
) -> Pair {
    for _ in 0..opts.warmup_iters {
        black_box(reference());
        black_box(kernel());
    }
    let (reference_ns, kernel_ns): (Vec<u64>, Vec<u64>) = (0..opts.samples.max(1))
        .map(|_| (time(&mut reference), time(&mut kernel)))
        .unzip();
    let per_op = |ns: u64, ops: u64| ns.max(1) as f64 / ops.max(1) as f64;
    let mut ratios: Vec<f64> = reference_ns
        .iter()
        .zip(&kernel_ns)
        .map(|(&r, &k)| per_op(k, kernel_ops) / per_op(r, reference_ops))
        .collect();
    ratios.sort_by(f64::total_cmp);
    Pair {
        name: name.to_string(),
        gated: false,
        ratio: ratios[ratios.len() / 2],
        reference: Measurement::new(reference_name, reference_ops, reference_ns),
        kernel: Measurement::new(kernel_name, kernel_ops, kernel_ns),
    }
}

uvf_trace::json_record! {
    /// The whole suite's output: every pair, plus context.
    #[derive(Debug, Clone, PartialEq)]
    pub struct Suite {
        pub quick: bool,
        /// The host's available parallelism, recorded as a host fact.
        pub threads: usize,
        pub pairs: Vec<Pair>,
        /// Per-phase wall time of the suite run itself (from `uvf-trace`
        /// root spans), so `BENCH_sweep.json` records where the wall
        /// clock went.
        pub phases: Vec<PhaseTime>,
    }
}

impl Suite {
    #[must_use]
    pub fn new(quick: bool, threads: usize) -> Suite {
        Suite {
            quick,
            threads,
            pairs: Vec::new(),
            phases: Vec::new(),
        }
    }

    /// The ratio of the pair called `name`.
    #[must_use]
    pub fn ratio(&self, name: &str) -> Option<f64> {
        self.pairs.iter().find(|p| p.name == name).map(|p| p.ratio)
    }

    #[must_use]
    pub fn to_json_string(&self) -> String {
        self.encode().to_string()
    }

    /// Atomic write ([`uvf_trace::write_atomic`]: temp + fsync + rename).
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        uvf_trace::write_atomic(path, &self.to_json_string())
    }
}

/// `--baseline`'s one rule: a gated pair regresses when its ratio is more
/// than `max_regression_pct` above the same pair's ratio in `baseline`.
/// Returns a description of every regression (empty = pass). A pair the
/// baseline lacks is skipped: it has nothing to regress from.
///
/// Quick and full runs have different problem sizes, so comparing across
/// modes is an error, not a silent pass.
pub fn ratio_regressions(
    current: &Suite,
    baseline: &Suite,
    max_regression_pct: f64,
) -> Result<Vec<String>, String> {
    let mode = |quick| if quick { "quick" } else { "full" };
    if baseline.quick != current.quick {
        return Err(format!(
            "baseline is a {} run, current is {}: not comparable",
            mode(baseline.quick),
            mode(current.quick),
        ));
    }
    let allowed = 1.0 + max_regression_pct / 100.0;
    Ok(current
        .pairs
        .iter()
        .filter(|p| p.gated)
        .filter_map(|p| {
            let base = baseline.ratio(&p.name)?;
            (p.ratio > base * allowed).then(|| {
                format!(
                    "{}: ratio {:.3} > baseline {base:.3} (+{:.1}% > +{max_regression_pct:.0}% allowed)",
                    p.name,
                    p.ratio,
                    (p.ratio / base - 1.0) * 100.0,
                )
            })
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use uvf_trace::Json;

    fn fixed_pair(name: &str, ratio: f64) -> Pair {
        Pair {
            name: name.into(),
            gated: true,
            ratio,
            reference: Measurement::new("reference", 1, vec![100]),
            kernel: Measurement::new("kernel", 1, vec![(100.0 * ratio) as u64]),
        }
    }

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
        let calls = RefCell::new(String::new());
        let spin = |side: char, n: u64| {
            calls.borrow_mut().push(side);
            black_box((0..n).sum::<u64>())
        };
        let p = pair(
            "spin",
            &opts,
            ("spin/reference", 10),
            ("spin/kernel", 5),
            || spin('r', 1000),
            || spin('k', 100),
        );
        assert_eq!(
            *calls.borrow(),
            "rk".repeat(9),
            "warmup + samples, alternating"
        );
        assert_eq!(p.reference.samples_ns.len(), 7);
        assert_eq!(p.kernel.samples_ns.len(), 7);
        assert_eq!(
            (p.reference.ops_per_sample, p.kernel.ops_per_sample),
            (10, 5)
        );
        assert!(!p.gated && p.clone().gate().gated);
        // The ratio is the median of the per-sample per-op ratios.
        let mut ratios: Vec<f64> = (0..7)
            .map(|i| {
                let r = p.reference.samples_ns[i].max(1) as f64 / 10.0;
                p.kernel.samples_ns[i].max(1) as f64 / 5.0 / r
            })
            .collect();
        ratios.sort_by(f64::total_cmp);
        assert_eq!(p.ratio, ratios[3]);
        let sorted = |m: &Measurement| {
            let mut s = m.samples_ns.clone();
            s.sort_unstable();
            s
        };
        assert_eq!(p.reference.median_ns, sorted(&p.reference)[3]);
        assert!(p.kernel.ns_per_op() >= 0.0);
    }

    #[test]
    fn suite_json_is_parseable_and_carries_derived() {
        let mut suite = Suite::new(true, 4);
        suite.pairs.push(Pair {
            gated: false,
            ..fixed_pair("ladder_mask_build", 0.25)
        });
        suite.phases.push(PhaseTime {
            name: "ladder".into(),
            wall_ns: 1234,
        });
        assert_eq!(suite.ratio("ladder_mask_build"), Some(0.25));
        assert_eq!(suite.ratio("absent"), None);
        let parsed = Json::parse(&suite.to_json_string()).unwrap();
        assert_eq!(parsed.get("threads").and_then(Json::as_u64), Some(4));
        let pair0 = parsed.get("pairs").and_then(Json::as_arr).unwrap()[0].clone();
        assert_eq!(pair0.get("ratio").and_then(Json::as_f64), Some(0.25));
        assert_eq!(
            pair0
                .get("kernel")
                .and_then(|k| k.get("median_ns"))
                .and_then(Json::as_u64),
            Some(25)
        );
        let phase0 = parsed.get("phases").and_then(Json::as_arr).unwrap()[0].clone();
        assert_eq!(phase0.get("name").and_then(Json::as_str), Some("ladder"));
        assert_eq!(phase0.get("wall_ns").and_then(Json::as_u64), Some(1234));
        assert_eq!(Suite::decode(&parsed).unwrap(), suite, "round trip");
    }

    #[test]
    fn baseline_compare_flags_watched_regressions_only() {
        let mut old = Suite::new(true, 4);
        old.pairs = vec![
            fixed_pair("ladder_mask_build", 0.20),
            fixed_pair("sweep_level_counts", 0.30),
            fixed_pair("serve_subscribe", 1.00),
        ];
        let baseline = Suite::decode(&Json::parse(&old.to_json_string()).unwrap()).unwrap();

        let mut new = Suite::new(true, 2);
        new.pairs = vec![
            fixed_pair("ladder_mask_build", 0.25),  // +25%: regression
            fixed_pair("sweep_level_counts", 0.35), // +16.7%: within budget
            fixed_pair("brand_new", 9.0),           // no baseline: skipped
            Pair {
                gated: false, // an overhead pair: not the baseline's to judge
                ..fixed_pair("serve_subscribe", 2.0)
            },
        ];
        let regressions = ratio_regressions(&new, &baseline, 20.0).unwrap();
        assert_eq!(regressions.len(), 1, "{regressions:?}");
        assert!(regressions[0].starts_with("ladder_mask_build: ratio 0.250"));

        let mut full = new.clone();
        full.quick = false;
        assert!(
            ratio_regressions(&full, &baseline, 20.0).is_err(),
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
