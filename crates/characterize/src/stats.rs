//! Statistical characterization of a die: the analyses behind Fig. 5–8.
//!
//! Three estimator families from `uvf-stats`, wired to fault-model data:
//!
//! * [`LocationStats`] — weak-cell location histograms (per BRAM, per die
//!   column, per die row, and per within-BRAM row/bit) with Pearson χ²
//!   uniformity tests. The paper's Figs. 6–7 claim: fault locations are
//!   grossly non-uniform *across* the die but structureless *within* a
//!   BRAM; the χ² p-values turn both halves into gates.
//! * [`cluster_brams`] — seeded k-means over per-BRAM weak-cell counts
//!   with silhouette `k` selection (Fig. 5's vulnerability classes).
//! * [`ThermalCampaign`] — fault rate vs. die temperature at a fixed
//!   level, least-squares fitted: the inverse thermal dependence of
//!   Fig. 8 shows up as a negative slope (and, because the rate law is
//!   `∝ exp(−k·T)`, a near-perfect log-linear fit).
//!
//! Every result is a pure function of `(platform, chip_seed, inputs)` —
//! reruns are bit-identical. [`LocationStats::emit_events`] reports
//! `chi2_done` events and [`ThermalCampaign::run`] reports `thermal_point`
//! / `thermal_fit`; clustering is a pure computation whose callers report
//! it (`repro fig5` emits `kmeans_done`).

use crate::harness::HarnessError;
use crate::sweep::{Probe, SweepConfig};
use uvf_faults::{FaultModel, FaultVariationMap};
use uvf_fpga::{Board, Floorplan, Millivolts, PlatformKind, Rail, BRAM_ROWS, BRAM_WORD_BITS};
use uvf_stats::{chi2_gof, chi2_uniform, linear_fit, median, select_k, Chi2, LinFit};
use uvf_trace::Tracer;

/// Significance level of the location-uniformity gates (and the
/// `rejected` flag on `chi2_done` events).
pub const LOCATION_ALPHA: f64 = 0.01;

/// Weak-cell location histograms of one die at a reference voltage.
///
/// Like [`FaultModel::variation_map`], the census counts cells whose
/// failure threshold sits at or above `v_ref` — no jitter, no thermal
/// shift — so it is a pure function of `(chip_seed, v_ref)`.
#[derive(Debug, Clone, PartialEq)]
pub struct LocationStats {
    platform: PlatformKind,
    chip_seed: u64,
    v_ref_mv: u32,
    /// Weak cells per BRAM, indexed by `BramId`.
    bram_counts: Vec<u64>,
    /// Weak cells per die column (floorplan `x`).
    grid_col_counts: Vec<u64>,
    /// Weak cells per die row (floorplan `y`).
    grid_row_counts: Vec<u64>,
    /// BRAM sites per die column — the uniform null model must weight a
    /// partially-populated last column by its actual site count.
    sites_per_col: Vec<f64>,
    /// BRAM sites per die row (short last column ⇒ shorter high rows).
    sites_per_row: Vec<f64>,
    /// Weak cells per within-BRAM word row, pooled over all BRAMs.
    cell_row_counts: Vec<u64>,
    /// Weak cells per within-BRAM bit position, pooled over all BRAMs.
    cell_bit_counts: Vec<u64>,
}

impl LocationStats {
    /// Census `model` at `v_ref` and bin every weak cell by its physical
    /// location.
    #[must_use]
    pub fn census(model: &FaultModel, v_ref: Millivolts) -> LocationStats {
        let platform = model.platform();
        let plan = Floorplan::new(platform.bram_count);
        let cols = plan.columns();
        let cutoff = f64::from(v_ref.0);
        let mut stats = LocationStats {
            platform: platform.kind,
            chip_seed: model.chip_seed(),
            v_ref_mv: v_ref.0,
            bram_counts: vec![0; platform.bram_count],
            grid_col_counts: vec![0; cols],
            grid_row_counts: vec![0; Floorplan::ROWS_PER_COLUMN],
            sites_per_col: vec![0.0; cols],
            sites_per_row: vec![0.0; Floorplan::ROWS_PER_COLUMN],
            cell_row_counts: vec![0; BRAM_ROWS],
            cell_bit_counts: vec![0; BRAM_WORD_BITS],
        };
        for (id, site) in plan.sites() {
            stats.sites_per_col[site.x as usize] += 1.0;
            stats.sites_per_row[site.y as usize] += 1.0;
            // Weak lists are sorted by descending threshold: the census is
            // the prefix at or above the cutoff.
            let mut n = 0u64;
            for cell in model
                .weak_cells(id)
                .iter()
                .take_while(|c| c.vfail_mv >= cutoff)
            {
                n += 1;
                stats.cell_row_counts[cell.row as usize] += 1;
                stats.cell_bit_counts[cell.bit as usize] += 1;
            }
            stats.bram_counts[id.0 as usize] = n;
            stats.grid_col_counts[site.x as usize] += n;
            stats.grid_row_counts[site.y as usize] += n;
        }
        stats
    }

    #[must_use]
    pub fn platform(&self) -> PlatformKind {
        self.platform
    }

    #[must_use]
    pub fn chip_seed(&self) -> u64 {
        self.chip_seed
    }

    #[must_use]
    pub fn v_ref(&self) -> Millivolts {
        Millivolts(self.v_ref_mv)
    }

    /// Total weak cells in the census.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.bram_counts.iter().sum()
    }

    #[must_use]
    pub fn bram_counts(&self) -> &[u64] {
        &self.bram_counts
    }

    /// χ² of the per-BRAM histogram against "every BRAM equally likely"
    /// — the Figs. 6–7 headline: this rejects on every platform.
    #[must_use]
    pub fn bram_uniformity(&self) -> Option<Chi2> {
        chi2_uniform(&self.bram_counts)
    }

    /// χ² of the die-column histogram against site-count-weighted
    /// uniformity (the striped FVM geometry).
    #[must_use]
    pub fn grid_column_uniformity(&self) -> Option<Chi2> {
        chi2_gof(&self.grid_col_counts, &self.sites_per_col)
    }

    /// χ² of the die-row histogram against site-count-weighted uniformity.
    #[must_use]
    pub fn grid_row_uniformity(&self) -> Option<Chi2> {
        chi2_gof(&self.grid_row_counts, &self.sites_per_row)
    }

    /// χ² of the within-BRAM word-row histogram against uniformity. The
    /// paper finds *no* structure inside a BRAM; this should not reject.
    #[must_use]
    pub fn cell_row_uniformity(&self) -> Option<Chi2> {
        chi2_uniform(&self.cell_row_counts)
    }

    /// χ² of the within-BRAM bit-position histogram against uniformity.
    #[must_use]
    pub fn cell_bit_uniformity(&self) -> Option<Chi2> {
        chi2_uniform(&self.cell_bit_counts)
    }

    /// Emit one `chi2_done` event per location test.
    pub fn emit_events(&self, tracer: &Tracer) {
        if !tracer.enabled() {
            return;
        }
        let tests = [
            ("bram", self.bram_uniformity()),
            ("grid_column", self.grid_column_uniformity()),
            ("grid_row", self.grid_row_uniformity()),
            ("cell_row", self.cell_row_uniformity()),
            ("cell_bit", self.cell_bit_uniformity()),
        ];
        for (scope, test) in tests {
            let Some(t) = test else { continue };
            tracer.instant(
                "chi2_done",
                vec![
                    ("scope", scope.into()),
                    ("statistic", t.statistic.into()),
                    ("df", t.df.into()),
                    ("p_value", t.p_value.into()),
                    ("rejected", t.rejects_at(LOCATION_ALPHA).into()),
                ],
            );
        }
    }
}

/// Fig. 5: per-BRAM vulnerability classes from a k-means scan.
#[derive(Debug, Clone, PartialEq)]
pub struct BramClusters {
    pub platform: PlatformKind,
    pub chip_seed: u64,
    pub v_ref_mv: u32,
    /// Winning cluster count (highest mean silhouette).
    pub k: usize,
    /// Cluster centers in weak cells per BRAM, ascending — cluster `0` is
    /// the least-faulty class (it holds the paper's never-faulty share).
    pub centroids: Vec<f64>,
    /// Cluster id per BRAM, indexed by `BramId`.
    pub assignments: Vec<usize>,
    pub sizes: Vec<usize>,
    pub silhouette: f64,
    /// Every `(k, silhouette)` candidate tried.
    pub scores: Vec<(usize, f64)>,
}

impl BramClusters {
    /// Share of BRAMs in the least-faulty cluster — comparable to the
    /// FVM's never-faulty share when that cluster's centroid is ~0.
    #[must_use]
    pub fn least_faulty_share(&self) -> f64 {
        self.sizes[0] as f64 / self.assignments.len() as f64
    }
}

/// Cluster the per-BRAM weak-cell census with `k = 2..=max_k` candidates
/// and silhouette selection. Deterministic in `(map, max_k, seed)`.
#[must_use]
pub fn cluster_brams(map: &FaultVariationMap, max_k: usize, seed: u64) -> Option<BramClusters> {
    let points: Vec<f64> = map.counts().iter().map(|&c| f64::from(c)).collect();
    let sel = select_k(&points, max_k, seed)?;
    Some(BramClusters {
        platform: map.platform(),
        chip_seed: map.chip_seed(),
        v_ref_mv: map.v_ref().0,
        k: sel.best.k,
        centroids: sel.best.centroids,
        assignments: sel.best.assignments,
        sizes: sel.best.sizes,
        silhouette: sel.silhouette,
        scores: sel.scores,
    })
}

/// Fig. 8: fault rate vs. die temperature at one fixed level.
#[derive(Debug, Clone, PartialEq)]
pub struct ThermalCampaign {
    pub kind: PlatformKind,
    /// Level held during every run; must be at or above the platform's
    /// `Vcrash` (the board hangs below it).
    pub v: Millivolts,
    /// Temperature ladder, ascending by convention.
    pub temperatures_c: Vec<f64>,
    pub runs_per_point: u32,
    /// Chip seed override; the platform default when `None`.
    pub chip_seed: Option<u64>,
}

/// One temperature point of a [`ThermalCampaign`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThermalPoint {
    pub temperature_c: f64,
    /// Median fault count over the point's runs.
    pub median_faults: f64,
}

/// The campaign's measurements plus both least-squares fits.
#[derive(Debug, Clone, PartialEq)]
pub struct ThermalReport {
    pub platform: PlatformKind,
    pub chip_seed: u64,
    pub v_mv: u32,
    pub runs_per_point: u32,
    pub points: Vec<ThermalPoint>,
    /// Fault count vs. °C. Inverse thermal dependence ⇒ negative slope.
    pub rate_fit: LinFit,
    /// `ln(faults)` vs. °C, where the exponential rate law is linear;
    /// `None` if any point measured zero faults.
    pub log_fit: Option<LinFit>,
}

impl ThermalCampaign {
    /// Fig.-8 defaults for `kind`: probe at `Vcrash` over a cold-to-hot
    /// ladder, 10 runs per point, sequential scan.
    #[must_use]
    pub fn new(kind: PlatformKind) -> ThermalCampaign {
        ThermalCampaign {
            kind,
            v: kind.descriptor().vccbram.vcrash,
            temperatures_c: vec![0.0, 25.0, 50.0, 65.0, 80.0],
            runs_per_point: 10,
            chip_seed: None,
        }
    }

    /// Measure every temperature point and fit both regressions. The
    /// run data is keyed by the attempt-independent
    /// [`uvf_faults::run_seed`], so reruns are bit-identical.
    pub fn run(&self, tracer: &Tracer) -> Result<ThermalReport, HarnessError> {
        if self.temperatures_c.len() < 2 {
            return Err(HarnessError::Config(
                "thermal campaign needs at least two temperatures".into(),
            ));
        }
        if self.runs_per_point == 0 {
            return Err(HarnessError::Config(
                "runs_per_point must be positive".into(),
            ));
        }
        let platform = self.kind.descriptor();
        let chip_seed = self.chip_seed.unwrap_or(platform.default_chip_seed);
        let model = FaultModel::with_chip_seed(platform, chip_seed);
        let mut board = Board::with_chip_seed(platform, chip_seed);
        let mut span = tracer.span_with(
            "thermal_campaign",
            vec![
                ("platform", self.kind.to_string().into()),
                ("v_mv", self.v.0.into()),
                ("points", self.temperatures_c.len().into()),
            ],
        );
        let mut points = Vec::with_capacity(self.temperatures_c.len());
        for &t_c in &self.temperatures_c {
            let cfg = SweepConfig::builder(Rail::Vccbram)
                .start(self.v)
                .floor(self.v)
                .runs(self.runs_per_point)
                .temperature_c(t_c)
                .build();
            board.set_temperature_c(t_c);
            Probe::Bram.arm(&mut board, cfg.pattern)?;
            board.set_rail_mv(Rail::Vccbram, self.v)?;
            let mut counts = Vec::with_capacity(self.runs_per_point as usize);
            for run in 0..self.runs_per_point {
                let faults = Probe::Bram.sample(&board, &model, &cfg, self.v, run)?;
                tracer.counter("runs", 1);
                counts.push(faults as f64);
            }
            let point = ThermalPoint {
                temperature_c: t_c,
                median_faults: median(&counts),
            };
            tracer.instant(
                "thermal_point",
                vec![
                    ("temperature_c", point.temperature_c.into()),
                    ("median_faults", point.median_faults.into()),
                ],
            );
            points.push(point);
        }
        let xs: Vec<f64> = points.iter().map(|p| p.temperature_c).collect();
        let ys: Vec<f64> = points.iter().map(|p| p.median_faults).collect();
        let rate_fit = linear_fit(&xs, &ys)
            .ok_or_else(|| HarnessError::Config("degenerate temperature ladder".into()))?;
        let log_fit = if ys.iter().all(|&y| y > 0.0) {
            let log_ys: Vec<f64> = ys.iter().map(|y| y.ln()).collect();
            linear_fit(&xs, &log_ys)
        } else {
            None
        };
        span.field("slope", rate_fit.slope.into());
        tracer.instant(
            "thermal_fit",
            vec![
                ("platform", self.kind.to_string().into()),
                ("slope", rate_fit.slope.into()),
                ("intercept", rate_fit.intercept.into()),
                ("r2", rate_fit.r2.into()),
                ("log_slope", log_fit.map_or(f64::NAN, |f| f.slope).into()),
            ],
        );
        Ok(ThermalReport {
            platform: self.kind,
            chip_seed,
            v_mv: self.v.0,
            runs_per_point: self.runs_per_point,
            points,
            rate_fit,
            log_fit,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uvf_fpga::BramId;

    fn model(kind: PlatformKind) -> FaultModel {
        FaultModel::new(kind.descriptor())
    }

    #[test]
    fn census_totals_match_the_variation_map() {
        let m = model(PlatformKind::Zc702);
        let v = m.platform().vccbram.vcrash;
        let stats = LocationStats::census(&m, v);
        let map = m.variation_map(v);
        assert_eq!(stats.total(), map.total());
        for (id, &count) in stats.bram_counts().iter().enumerate() {
            assert_eq!(count, u64::from(map.count(BramId(id as u32))));
        }
        // Grid histograms are re-binnings of the same census.
        assert_eq!(stats.grid_col_counts.iter().sum::<u64>(), stats.total());
        assert_eq!(stats.grid_row_counts.iter().sum::<u64>(), stats.total());
    }

    #[test]
    fn census_is_deterministic() {
        let kind = PlatformKind::Kc705A;
        let v = kind.descriptor().vccbram.vcrash;
        let a = LocationStats::census(&model(kind), v);
        let b = LocationStats::census(&model(kind), v);
        assert_eq!(a, b);
    }

    #[test]
    fn clusters_are_deterministic_and_multi() {
        let m = model(PlatformKind::Zc702);
        let map = m.variation_map(m.platform().vccbram.vcrash);
        let a = cluster_brams(&map, 6, 5).unwrap();
        let b = cluster_brams(&map, 6, 5).unwrap();
        assert_eq!(a, b, "same seed must give bit-identical clusters");
        assert!(a.k >= 2);
        assert_eq!(a.assignments.len(), map.bram_count());
        assert!(a.centroids.windows(2).all(|w| w[0] <= w[1]));
        // The least-faulty cluster absorbs the never-faulty BRAMs.
        assert!(a.least_faulty_share() >= map.never_faulty_share());
    }

    #[test]
    fn thermal_campaign_rejects_bad_configs() {
        let mut c = ThermalCampaign::new(PlatformKind::Zc702);
        c.temperatures_c = vec![25.0];
        assert!(matches!(
            c.run(&Tracer::disabled()),
            Err(HarnessError::Config(_))
        ));
        let mut c = ThermalCampaign::new(PlatformKind::Zc702);
        c.runs_per_point = 0;
        assert!(matches!(
            c.run(&Tracer::disabled()),
            Err(HarnessError::Config(_))
        ));
    }
}
