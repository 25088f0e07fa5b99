//! `Vmin` binary search: bracket the first-fault boundary in O(log n)
//! probes instead of an exhaustive ladder walk.
//!
//! A full Listing-1 sweep spends `runs_per_level` runs on *every* level
//! between nominal and the crash boundary; most of them are fault-free
//! guardband. Because the fault boundary is monotone — levels above
//! `Vmin` read clean, every level at or below it faults (and below
//! `Vcrash` the board hangs, which counts as the faulty side) — `Vmin`
//! is a predicate boundary and binary search applies.
//!
//! Each probe is a real single-level [`Harness`] drive, so it inherits
//! the whole recovery stack: watchdog hang detection, retry/backoff,
//! power-cycle recovery, and (with [`VminSearch::with_checkpoint_dir`])
//! atomic per-probe checkpoints that a killed search resumes from.
//! Probe fault counts are keyed by the attempt-independent
//! [`uvf_faults::run_seed`] — position only, never call count — so a
//! probe at level `v` measures *bit-identically* what the exhaustive
//! sweep measures at `v`, which is why the two methods agree on `Vmin`
//! exactly, not just within a step.

use crate::harness::{Harness, HarnessError, RecoveryPolicy};
use crate::sweep::SweepConfig;
use std::collections::BTreeMap;
use std::path::PathBuf;
use uvf_fpga::{Board, Millivolts, PlatformKind};
use uvf_trace::Tracer;

/// What one single-level probe observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VminProbe {
    pub v_mv: u32,
    /// Total faults over the probe's runs (0 when the level crashed).
    pub faults: u64,
    /// The board hung at this level through every recovery retry.
    pub crashed: bool,
}

impl VminProbe {
    /// Is this level on the faulty side of the boundary?
    #[must_use]
    pub fn faulty(&self) -> bool {
        self.crashed || self.faults > 0
    }
}

/// Result of a [`VminSearch`] drive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VminSearchReport {
    pub platform: PlatformKind,
    pub chip_seed: u64,
    /// Highest level with faults, or `None` when the ladder's floor read
    /// clean (the boundary sits below the configured floor).
    pub vmin: Option<Millivolts>,
    /// Every probe performed, in probing order.
    pub probes: Vec<VminProbe>,
    /// Ladder size an exhaustive sweep would have walked.
    pub levels_total: usize,
}

impl VminSearchReport {
    #[must_use]
    pub fn probe_count(&self) -> usize {
        self.probes.len()
    }

    /// Upper bound the search contract promises: bottom + top + the
    /// bisection of the remaining ladder.
    #[must_use]
    pub fn probe_budget(levels_total: usize) -> usize {
        2 + usize::BITS as usize - levels_total.max(1).leading_zeros() as usize
    }
}

/// Binary search for `Vmin` over a sweep configuration's level ladder.
pub struct VminSearch {
    kind: PlatformKind,
    cfg: SweepConfig,
    policy: RecoveryPolicy,
    chip_seed: Option<u64>,
    checkpoint_dir: Option<PathBuf>,
    tracer: Tracer,
}

impl VminSearch {
    /// A search over `cfg`'s ladder on `kind`'s default die, with default
    /// recovery and no checkpoints.
    #[must_use]
    pub fn new(kind: PlatformKind, cfg: SweepConfig) -> VminSearch {
        VminSearch {
            kind,
            cfg,
            policy: RecoveryPolicy::default(),
            chip_seed: None,
            checkpoint_dir: None,
            tracer: Tracer::disabled(),
        }
    }

    #[must_use]
    pub fn with_chip_seed(mut self, chip_seed: u64) -> VminSearch {
        self.chip_seed = Some(chip_seed);
        self
    }

    /// Checkpoint every probe into `dir` (one file per level). A search
    /// killed mid-probe resumes from the probe's checkpoint; finished
    /// probes short-circuit entirely on re-run.
    #[must_use]
    pub fn with_checkpoint_dir(mut self, dir: impl Into<PathBuf>) -> VminSearch {
        self.checkpoint_dir = Some(dir.into());
        self
    }

    #[must_use]
    pub fn with_tracer(mut self, tracer: Tracer) -> VminSearch {
        self.tracer = tracer;
        self
    }

    /// Run the search. O(log levels) single-level harness probes.
    pub fn run(&self) -> Result<VminSearchReport, HarnessError> {
        self.cfg.validate().map_err(HarnessError::Config)?;
        let ladder = self.cfg.levels();
        let platform = self.kind.descriptor();
        let chip_seed = self.chip_seed.unwrap_or(platform.default_chip_seed);
        let mut span = self.tracer.span_with(
            "vmin_search",
            vec![
                ("platform", self.kind.to_string().into()),
                ("levels_total", ladder.len().into()),
                ("runs_per_level", self.cfg.runs_per_level.into()),
            ],
        );
        // Probe cache: indices may be revisited at tiny ladders.
        let mut seen: BTreeMap<usize, VminProbe> = BTreeMap::new();
        let mut order: Vec<VminProbe> = Vec::new();
        let mut probe = |idx: usize| -> Result<VminProbe, HarnessError> {
            if let Some(p) = seen.get(&idx) {
                return Ok(*p);
            }
            let p = self.probe_level(ladder[idx])?;
            seen.insert(idx, p);
            order.push(p);
            self.tracer.instant(
                "vmin_probe",
                vec![
                    ("v_mv", p.v_mv.into()),
                    ("faults", p.faults.into()),
                    ("crashed", p.crashed.into()),
                ],
            );
            Ok(p)
        };

        let last = ladder.len() - 1;
        // The ladder floor: clean ⇒ the boundary sits below the ladder.
        let bottom = probe(last)?;
        let vmin = if !bottom.faulty() {
            None
        } else if probe(0)?.faulty() {
            // Faults already at the start level; cannot bracket higher.
            Some(ladder[0])
        } else {
            // Invariant: ladder[lo] clean, ladder[hi] faulty.
            let (mut lo, mut hi) = (0usize, last);
            while hi - lo > 1 {
                let mid = lo + (hi - lo) / 2;
                if probe(mid)?.faulty() {
                    hi = mid;
                } else {
                    lo = mid;
                }
            }
            Some(ladder[hi])
        };
        span.field("probes", order.len().into());
        self.tracer.instant(
            "vmin_found",
            vec![
                ("found", vmin.is_some().into()),
                ("vmin_mv", vmin.map_or(0, |v| v.0).into()),
                ("probes", order.len().into()),
                ("levels_total", ladder.len().into()),
            ],
        );
        Ok(VminSearchReport {
            platform: self.kind,
            chip_seed,
            vmin,
            probes: order,
            levels_total: ladder.len(),
        })
    }

    /// One single-level harness drive at `v`, through the full recovery
    /// (and, when configured, checkpoint/resume) machinery.
    fn probe_level(&self, v: Millivolts) -> Result<VminProbe, HarnessError> {
        let mut cfg = self.cfg;
        cfg.start = v;
        cfg.floor = v;
        let platform = self.kind.descriptor();
        let chip_seed = self.chip_seed.unwrap_or(platform.default_chip_seed);
        let board = Board::with_chip_seed(platform, chip_seed);
        let mut harness = Harness::new(board, cfg, self.policy)?.with_tracer(self.tracer.clone());
        if let Some(dir) = &self.checkpoint_dir {
            std::fs::create_dir_all(dir).map_err(|e| {
                HarnessError::Config(format!("checkpoint dir {}: {e}", dir.display()))
            })?;
            harness =
                harness.with_checkpoint_path(dir.join(format!("vmin_probe_{}mv.json", v.0)))?;
        }
        harness.run()?;
        let record = harness.record();
        let level = record
            .levels
            .first()
            .ok_or_else(|| HarnessError::Config("probe recorded no level".into()))?;
        Ok(VminProbe {
            v_mv: level.v_mv,
            faults: level.runs.iter().map(|r| r.faults).sum(),
            crashed: level.crashed,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uvf_fpga::Rail;

    fn short_cfg(kind: PlatformKind) -> SweepConfig {
        let platform = kind.descriptor();
        SweepConfig::builder(Rail::Vccbram)
            .runs(2)
            .start(Millivolts(platform.vccbram.vmin.0 + 40))
            .build()
    }

    #[test]
    fn finds_vmin_in_logarithmic_probes() {
        let kind = PlatformKind::Zc702;
        let cfg = short_cfg(kind);
        let report = VminSearch::new(kind, cfg).run().unwrap();
        assert_eq!(report.vmin, Some(kind.descriptor().vccbram.vmin));
        assert!(
            report.probe_count() <= VminSearchReport::probe_budget(report.levels_total),
            "{} probes for {} levels",
            report.probe_count(),
            report.levels_total,
        );
        assert!(report.probe_count() < report.levels_total);
    }

    #[test]
    fn clean_ladder_reports_no_vmin() {
        let kind = PlatformKind::Zc702;
        let platform = kind.descriptor();
        // Entire ladder inside the guardband.
        let cfg = SweepConfig::builder(Rail::Vccbram)
            .runs(2)
            .start(Millivolts(platform.vccbram.vmin.0 + 60))
            .floor(Millivolts(platform.vccbram.vmin.0 + 20))
            .build();
        let report = VminSearch::new(kind, cfg).run().unwrap();
        assert_eq!(report.vmin, None);
        assert_eq!(report.probe_count(), 1, "one clean floor probe suffices");
    }

    #[test]
    fn faulty_start_level_is_reported_as_is() {
        let kind = PlatformKind::Zc702;
        let platform = kind.descriptor();
        // The whole ladder sits below Vmin.
        let start = Millivolts(platform.vccbram.vmin.0 - 10);
        let cfg = SweepConfig::builder(Rail::Vccbram)
            .runs(2)
            .start(start)
            .floor(Millivolts(platform.vccbram.vcrash.0))
            .build();
        let report = VminSearch::new(kind, cfg).run().unwrap();
        assert_eq!(report.vmin, Some(start));
    }

    #[test]
    fn search_is_deterministic() {
        let kind = PlatformKind::Kc705B;
        let cfg = short_cfg(kind);
        let a = VminSearch::new(kind, cfg).run().unwrap();
        let b = VminSearch::new(kind, cfg).run().unwrap();
        assert_eq!(a, b);
    }
}
