//! Sweep configuration (Listing 1 of the paper) and read-out probes.
//!
//! A sweep walks one rail downwards in VID steps, performing
//! `runs_per_level` write/read-back runs at each level. The probe is how a
//! run turns silicon state into a fault count: BRAM sweeps count observable
//! bit flips against the written pattern; VCCINT sweeps run the logic
//! self-test. Either way the probe goes *through the board*, so a hung
//! board surfaces as `BoardError::Crashed` for the harness watchdog.

use crate::record::{RecordError, SweepRecord};
use crate::scan;
use std::fmt;
use std::str::FromStr;
use uvf_faults::{run_seed, FaultModel, ReadCondition};
use uvf_fpga::{
    Board, BoardError, BramId, DataPattern, Millivolts, PlatformKind, Rail, DEFAULT_TEMPERATURE_C,
};
use uvf_trace::codec::Text;

uvf_trace::json_record! {
    /// Parameters of one guardband sweep. Its JSON is the campaign-job
    /// wire form: the same byte-stable discipline as [`SweepRecord`],
    /// carrying every field including the probe override.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct SweepConfig: RecordError {
        pub rail: Rail as Text,
        /// How runs turn silicon state into fault counts. Defaults to the
        /// rail's natural probe ([`Probe::for_rail`]); override through
        /// [`SweepConfigBuilder::probe`]. Not part of the checkpoint
        /// fingerprint — the rail default is what resume assumes.
        pub probe: Probe as Text,
        /// Pattern written before every read-back run (the paper's default and
        /// worst case is all-ones, `FFFF`).
        pub pattern: DataPattern as Text,
        /// First level, normally nominal.
        pub start: Millivolts as u32 => "start_mv",
        /// Lowest level the sweep will attempt if no crash intervenes.
        pub floor: Millivolts as u32 => "floor_mv",
        /// VID step between levels (10 mV on every Table-I regulator).
        pub step_mv: u32,
        /// Read-back runs per level (100 in the paper).
        pub runs_per_level: u32,
        pub temperature_c: f64,
        /// Width of the noisy-environment band above `Vcrash` in which supply
        /// noise can crash the board early; 0 disables it (lab conditions).
        pub noise_band_mv: u32,
    }
}

impl SweepConfig {
    /// The paper's Listing-1 defaults for `rail`.
    #[must_use]
    pub fn listing1(rail: Rail) -> SweepConfig {
        SweepConfig {
            rail,
            probe: Probe::for_rail(rail),
            pattern: DataPattern::AllOnes,
            start: Millivolts::NOMINAL,
            floor: Millivolts(450),
            step_mv: 10,
            runs_per_level: 100,
            temperature_c: DEFAULT_TEMPERATURE_C,
            noise_band_mv: 0,
        }
    }

    /// A reduced-runs variant for tests and examples; statistically noisier
    /// but walks the identical level ladder.
    #[must_use]
    pub fn quick(rail: Rail, runs_per_level: u32) -> SweepConfig {
        SweepConfig::builder(rail).runs(runs_per_level).build()
    }

    /// Fluent construction starting from the Listing-1 defaults for `rail`:
    /// `SweepConfig::builder(rail).runs(5).start(v).build()`.
    #[must_use]
    pub fn builder(rail: Rail) -> SweepConfigBuilder {
        SweepConfigBuilder {
            cfg: SweepConfig::listing1(rail),
        }
    }

    /// The descending level ladder, `start` and `floor` inclusive (when the
    /// step lands on it).
    #[must_use]
    pub fn levels(&self) -> Vec<Millivolts> {
        let mut out = Vec::new();
        let mut v = self.start;
        while v >= self.floor && v.0 > 0 {
            out.push(v);
            if v.0 < self.step_mv {
                break;
            }
            v = v.saturating_sub(self.step_mv);
        }
        out
    }

    /// Reject configurations the harness cannot run.
    pub fn validate(&self) -> Result<(), String> {
        if self.step_mv == 0 {
            return Err("step_mv must be positive".into());
        }
        if self.runs_per_level == 0 {
            return Err("runs_per_level must be positive".into());
        }
        if self.start < self.floor {
            return Err(format!("start {} below floor {}", self.start, self.floor));
        }
        if self.rail == Rail::Vccaux {
            return Err("VCCAUX is never underscaled".into());
        }
        Ok(())
    }

    /// An empty record carrying this configuration for the die
    /// `(platform, chip_seed)`, ready for the harness. Takes the die's
    /// identity rather than a [`Board`], so a record can be checked against
    /// its job without building the board.
    #[must_use]
    pub fn empty_record(&self, platform: PlatformKind, chip_seed: u64) -> SweepRecord {
        SweepRecord {
            platform,
            rail: self.rail,
            pattern: self.pattern,
            chip_seed,
            start_mv: self.start.0,
            floor_mv: self.floor.0,
            step_mv: self.step_mv,
            runs_per_level: self.runs_per_level,
            temperature_c: self.temperature_c,
            noise_band_mv: self.noise_band_mv,
            levels: Vec::new(),
            crash_events: Vec::new(),
            outcome: crate::record::SweepOutcome::InProgress,
            power_cycles: 0,
        }
    }
}

/// Builder for [`SweepConfig`], seeded with the Listing-1 defaults of its
/// rail. Every setter overrides one parameter; `build()` hands the config
/// back without validating — [`SweepConfig::validate`] (called by
/// `Harness::new`) still rejects impossible sweeps, so tests can construct
/// deliberately broken configs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepConfigBuilder {
    cfg: SweepConfig,
}

impl SweepConfigBuilder {
    /// Override the rail's natural probe (e.g. force the logic self-test).
    #[must_use]
    pub fn probe(mut self, probe: Probe) -> SweepConfigBuilder {
        self.cfg.probe = probe;
        self
    }

    #[must_use]
    pub fn pattern(mut self, pattern: DataPattern) -> SweepConfigBuilder {
        self.cfg.pattern = pattern;
        self
    }

    #[must_use]
    pub fn start(mut self, start: Millivolts) -> SweepConfigBuilder {
        self.cfg.start = start;
        self
    }

    #[must_use]
    pub fn floor(mut self, floor: Millivolts) -> SweepConfigBuilder {
        self.cfg.floor = floor;
        self
    }

    #[must_use]
    pub fn runs(mut self, runs_per_level: u32) -> SweepConfigBuilder {
        self.cfg.runs_per_level = runs_per_level;
        self
    }

    #[must_use]
    pub fn temperature_c(mut self, temperature_c: f64) -> SweepConfigBuilder {
        self.cfg.temperature_c = temperature_c;
        self
    }

    #[must_use]
    pub fn build(self) -> SweepConfig {
        self.cfg
    }
}

/// How a run measures faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Probe {
    /// Write `pattern`, read every BRAM back, count observable flips.
    Bram,
    /// Run the logic self-test and count its miscompares (VCCINT sweeps).
    Logic,
}

/// The stable lowercase wire label (campaign-job serialization).
impl fmt::Display for Probe {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Probe::Bram => "bram",
            Probe::Logic => "logic",
        })
    }
}

impl FromStr for Probe {
    type Err = String;

    fn from_str(label: &str) -> Result<Probe, String> {
        match label {
            "bram" => Ok(Probe::Bram),
            "logic" => Ok(Probe::Logic),
            _ => Err(format!("unknown probe {label:?}")),
        }
    }
}

impl Probe {
    /// The natural probe for a rail.
    #[must_use]
    pub fn for_rail(rail: Rail) -> Probe {
        match rail {
            Rail::Vccbram => Probe::Bram,
            _ => Probe::Logic,
        }
    }

    /// (Re-)arm the probe: performed at sweep start and after every power
    /// cycle, because recovery wipes BRAM contents.
    pub fn arm(self, board: &mut Board, pattern: DataPattern) -> Result<(), BoardError> {
        match self {
            Probe::Bram => board.write_pattern(pattern),
            Probe::Logic => Ok(()),
        }
    }

    /// One run's fault count at level `v`.
    ///
    /// The count is keyed by the attempt-independent
    /// [`uvf_faults::run_seed`], which is what makes a resumed
    /// sweep bit-identical to an uninterrupted one: re-measuring run `r`
    /// after a recovery draws the same jitter as the first attempt did.
    pub fn sample(
        self,
        board: &Board,
        model: &FaultModel,
        cfg: &SweepConfig,
        v: Millivolts,
        run: u32,
    ) -> Result<u64, BoardError> {
        match self {
            Probe::Bram => {
                // Liveness check through the real read path: a hung board
                // must fail here, not silently return model data.
                board.read_row(BramId(0), 0)?;
                let cond = ReadCondition {
                    v,
                    temperature_c: cfg.temperature_c,
                    run_seed: run_seed(board.chip_seed(), cfg.rail, v, run),
                };
                // Resolve once per condition: the thermal shift and jitter
                // window are hoisted out of the per-BRAM, per-cell path.
                let resolved = model.resolve(&cond);
                Ok(scan::platform_fault_count(model, cfg.pattern, &resolved))
            }
            Probe::Logic => board.logic_selftest().map(u64::from),
        }
    }

    /// Forwards to [`Probe::sample`]; `_threads` is ignored. Kept only
    /// because the `perfbench/` workloads still call it by this name.
    pub fn sample_with_threads(
        self,
        board: &Board,
        model: &FaultModel,
        cfg: &SweepConfig,
        v: Millivolts,
        run: u32,
        _threads: usize,
    ) -> Result<u64, BoardError> {
        self.sample(board, model, cfg, v, run)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uvf_fpga::PlatformKind;

    #[test]
    fn listing1_defaults_match_the_paper() {
        let cfg = SweepConfig::listing1(Rail::Vccbram);
        assert_eq!(cfg.step_mv, 10);
        assert_eq!(cfg.runs_per_level, 100);
        assert_eq!(cfg.pattern, DataPattern::AllOnes);
        assert_eq!(cfg.start, Millivolts(1000));
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn builder_starts_from_listing1_and_overrides() {
        let cfg = SweepConfig::builder(Rail::Vccbram)
            .runs(7)
            .start(Millivolts(700))
            .probe(Probe::Logic)
            .build();
        assert_eq!(cfg.runs_per_level, 7);
        assert_eq!(cfg.start, Millivolts(700));
        assert_eq!(cfg.probe, Probe::Logic);
        // Everything else keeps the Listing-1 defaults.
        assert_eq!(cfg.pattern, DataPattern::AllOnes);
        assert_eq!(cfg.step_mv, 10);
        assert_eq!(
            SweepConfig::builder(Rail::Vccbram).build(),
            SweepConfig::listing1(Rail::Vccbram)
        );
    }

    #[test]
    fn level_ladder_is_descending_and_inclusive() {
        let cfg = SweepConfig::builder(Rail::Vccbram)
            .start(Millivolts(1000))
            .floor(Millivolts(970))
            .build();
        let levels = cfg.levels();
        assert_eq!(
            levels,
            vec![
                Millivolts(1000),
                Millivolts(990),
                Millivolts(980),
                Millivolts(970)
            ]
        );
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let b = || SweepConfig::builder(Rail::Vccbram);
        let no_step = SweepConfig {
            step_mv: 0,
            ..b().build()
        };
        assert!(no_step.validate().is_err());
        assert!(b().runs(0).build().validate().is_err());
        assert!(b().floor(Millivolts(1100)).build().validate().is_err());
        assert!(SweepConfig::builder(Rail::Vccaux)
            .build()
            .validate()
            .is_err());
    }

    #[test]
    fn safe_region_runs_count_zero_faults() {
        let platform = PlatformKind::Zc702.descriptor();
        let mut board = Board::new(platform);
        let model = FaultModel::new(platform);
        let cfg = SweepConfig::quick(Rail::Vccbram, 3);
        Probe::Bram.arm(&mut board, cfg.pattern).unwrap();
        let n = Probe::Bram
            .sample(&board, &model, &cfg, Millivolts(900), 0)
            .unwrap();
        assert_eq!(n, 0, "faults well inside the guardband");
    }

    #[test]
    fn critical_region_runs_count_faults() {
        let platform = PlatformKind::Zc702.descriptor();
        let mut board = Board::new(platform);
        let model = FaultModel::new(platform);
        let cfg = SweepConfig::quick(Rail::Vccbram, 3);
        let vcrash = platform.vccbram.vcrash;
        board.set_rail_mv(Rail::Vccbram, vcrash).unwrap();
        Probe::Bram.arm(&mut board, cfg.pattern).unwrap();
        let n = Probe::Bram.sample(&board, &model, &cfg, vcrash, 0).unwrap();
        assert!(n > 0, "no faults at Vcrash");
    }

    #[test]
    fn crashed_board_fails_the_sample() {
        let platform = PlatformKind::Zc702.descriptor();
        let mut board = Board::new(platform);
        let model = FaultModel::new(platform);
        let cfg = SweepConfig::quick(Rail::Vccbram, 3);
        Probe::Bram.arm(&mut board, cfg.pattern).unwrap();
        let lethal = platform.vccbram.vcrash.saturating_sub(10);
        board.set_rail_mv(Rail::Vccbram, lethal).unwrap();
        assert!(matches!(
            Probe::Bram.sample(&board, &model, &cfg, lethal, 0),
            Err(BoardError::Crashed { .. })
        ));
    }
}
