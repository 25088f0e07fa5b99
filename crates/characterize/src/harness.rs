//! Crash-resilient sweep harness.
//!
//! The hard part of undervolting characterization is not the sweep loop —
//! it is that driving a rail below `Vcrash` hangs the board *silently*: the
//! lethal rail setting is acknowledged, and the hang only becomes visible
//! when a later read never returns. This harness wraps Listing 1 with
//! exactly the machinery a multi-day lab campaign needs:
//!
//! * a **watchdog**: any board access that never completes is declared hung
//!   after `watchdog_timeout_ms` of simulated waiting,
//! * **bounded retries with exponential backoff**, each retry power-cycling
//!   the board (nominal rails, cleared BRAMs) and re-arming the probe,
//! * **checkpoints**: the record-so-far plus a tiny cursor is atomically
//!   persisted, so a sweep killed at any point — even mid-recovery — resumes
//!   where it died and produces a bit-identical record (run data is keyed by
//!   attempt-independent seeds; noise rolls by the persisted attempt).
//!
//! Simulated time advances only by run / watchdog / backoff costs, never by
//! process restarts, which is what keeps resumed timelines identical too.

use crate::backoff::Backoff;
use crate::record::{
    Checkpoint, CrashEvent, LevelRecord, RecordError, RunRecord, SweepOutcome, SweepRecord,
};
use crate::scan::platform_level_counts;
use crate::sweep::{Probe, SweepConfig};
use std::error::Error;
use std::fmt;
use std::path::PathBuf;
use std::sync::Arc;
use uvf_faults::{run_seed, FaultModel, FvmCache, ReadCondition, ResolvedCondition};
use uvf_fpga::seedmix::mix;
use uvf_fpga::{Board, BoardError, BramId, Millivolts};
use uvf_power::ChipPowerModel;
use uvf_trace::codec::Flat;
use uvf_trace::Tracer;

/// Simulated cost of one write/read-back run.
pub const MS_PER_RUN: u64 = 3;

uvf_trace::json_record! {
    /// Recovery knobs of the harness. Its JSON is the campaign server →
    /// worker wire form.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecoveryPolicy: RecordError {
        /// How long the watchdog waits before declaring a hung board.
        pub watchdog_timeout_ms: u64,
        /// Power-cycle retries per run before the level is declared the crash
        /// boundary.
        pub max_retries: u32,
        /// Retry delay schedule: capped exponential with deterministic jitter
        /// keyed by the sweep position, so resumes replay identical delays
        /// (see [`Backoff`]). Shared with the campaign server's worker
        /// supervisor.
        pub backoff: Backoff as Flat,
        /// Checkpoint after this many completed runs (1 = after every run).
        pub checkpoint_every_runs: u32,
    }
}

impl Default for RecoveryPolicy {
    fn default() -> RecoveryPolicy {
        RecoveryPolicy {
            watchdog_timeout_ms: 250,
            max_retries: 3,
            backoff: Backoff::default(),
            checkpoint_every_runs: 10,
        }
    }
}

/// Deterministic simulated clock; persisted in checkpoints so resumed
/// timelines continue, not restart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimClock {
    now_ms: u64,
}

impl SimClock {
    #[must_use]
    pub fn new() -> SimClock {
        SimClock { now_ms: 0 }
    }

    #[must_use]
    pub fn at(now_ms: u64) -> SimClock {
        SimClock { now_ms }
    }

    #[must_use]
    pub fn now_ms(&self) -> u64 {
        self.now_ms
    }

    pub fn advance(&mut self, ms: u64) {
        self.now_ms = self.now_ms.saturating_add(ms);
    }
}

impl Default for SimClock {
    fn default() -> SimClock {
        SimClock::new()
    }
}

/// Errors of the harness itself (board faults below `Vcrash` are *data*,
/// not errors — they end the sweep with [`SweepOutcome::CrashFound`]).
#[derive(Debug)]
pub enum HarnessError {
    /// The sweep configuration cannot be run.
    Config(String),
    /// Checkpoint load/save failed or the file does not belong to this
    /// sweep configuration.
    Checkpoint(RecordError),
    /// A board error the recovery machinery does not handle (e.g. a
    /// voltage outside the regulator range).
    Board(BoardError),
}

impl fmt::Display for HarnessError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HarnessError::Config(msg) => write!(f, "invalid sweep config: {msg}"),
            HarnessError::Checkpoint(e) => write!(f, "checkpoint: {e}"),
            HarnessError::Board(e) => write!(f, "board: {e}"),
        }
    }
}

impl Error for HarnessError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            HarnessError::Config(_) => None,
            HarnessError::Checkpoint(e) => Some(e),
            HarnessError::Board(e) => Some(e),
        }
    }
}

impl From<RecordError> for HarnessError {
    fn from(e: RecordError) -> HarnessError {
        HarnessError::Checkpoint(e)
    }
}

impl From<BoardError> for HarnessError {
    fn from(e: BoardError) -> HarnessError {
        HarnessError::Board(e)
    }
}

/// Result of a (possibly budgeted) harness drive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HarnessStatus {
    /// The sweep ended: crash boundary found or floor reached.
    Finished(SweepOutcome),
    /// The run budget ran out mid-sweep; a checkpoint was saved.
    Paused { runs_done: u64 },
}

/// The crash-resilient sweep driver.
pub struct Harness {
    board: Board,
    /// Shared through [`FvmCache`]: the same die is reused across probes,
    /// campaign jobs and worker assignments instead of being regenerated.
    model: Arc<FaultModel>,
    probe: Probe,
    cfg: SweepConfig,
    policy: RecoveryPolicy,
    checkpoint_path: Option<PathBuf>,
    record: SweepRecord,
    /// Retry attempt at the current (level, run) position; persisted so a
    /// resume replays the same noise-crash rolls.
    attempt: u32,
    clock: SimClock,
    armed: bool,
    runs_since_checkpoint: u32,
    /// The BRAM probe's level plan: per-run counts of the level currently
    /// being swept, batched through one sorted-cell scan. Purely derived
    /// state — never checkpointed, rebuilt identically on resume.
    level_counts: Option<(Millivolts, Vec<u64>)>,
    /// Passive observability: events mirror what the harness does and
    /// never influence it, so records are bit-identical with tracing on.
    tracer: Tracer,
    /// Analytic rail-power model for the platform under test; sampled once
    /// per level into [`LevelRecord::rail_uw`]. Pure in (rail, voltage,
    /// temperature), so it never perturbs the sweep record's fault data.
    power: ChipPowerModel,
}

impl Harness {
    pub fn new(
        board: Board,
        cfg: SweepConfig,
        policy: RecoveryPolicy,
    ) -> Result<Harness, HarnessError> {
        cfg.validate().map_err(HarnessError::Config)?;
        // Consult the process-wide cache: the same (platform, chip_seed)
        // die is shared across harnesses, search probes and worker jobs.
        let model = FvmCache::global().model(*board.platform(), board.chip_seed());
        let mut record = cfg.empty_record(board.platform().kind, board.chip_seed());
        record.noise_band_mv = cfg.noise_band_mv;
        let mut board = board;
        board.set_noise_band_mv(cfg.noise_band_mv);
        board.set_temperature_c(cfg.temperature_c);
        let power = ChipPowerModel::for_platform(board.platform().kind);
        Ok(Harness {
            board,
            model,
            probe: cfg.probe,
            cfg,
            policy,
            checkpoint_path: None,
            record,
            attempt: 0,
            clock: SimClock::new(),
            armed: false,
            runs_since_checkpoint: 0,
            level_counts: None,
            tracer: Tracer::disabled(),
            power,
        })
    }

    /// Attach a tracer. Telemetry is strictly passive: the sweep record is
    /// bit-identical whether the tracer is enabled, disabled, or absent.
    #[must_use]
    pub fn with_tracer(mut self, tracer: Tracer) -> Harness {
        self.tracer = tracer;
        self
    }

    /// Attach a checkpoint file. If it already exists it must belong to
    /// this exact sweep configuration (fingerprint check); the harness then
    /// resumes from it. A missing file means a fresh sweep that will
    /// checkpoint to `path`.
    pub fn with_checkpoint_path(
        mut self,
        path: impl Into<PathBuf>,
    ) -> Result<Harness, HarnessError> {
        let path: PathBuf = path.into();
        if path.exists() {
            let cp = Checkpoint::load(&path)?;
            let expected = self.record.fingerprint();
            let found = cp.record.fingerprint();
            if found != expected {
                return Err(HarnessError::Checkpoint(RecordError::FingerprintMismatch {
                    stored: found,
                    computed: expected,
                }));
            }
            self.record = cp.record;
            self.attempt = cp.attempt;
            self.clock = SimClock::at(cp.clock_ms);
            // The host restarted: bring the board to a known state. This is
            // maintenance, not a sweep event — it costs no simulated time
            // and is not counted in the record's power-cycle tally.
            self.board.power_cycle();
            self.board.set_noise_band_mv(self.cfg.noise_band_mv);
            self.board.set_temperature_c(self.cfg.temperature_c);
            self.armed = false;
            self.tracer.counter("checkpoint_loads", 1);
            self.tracer.instant_at(
                self.clock.now_ms(),
                "checkpoint_loaded",
                vec![
                    ("levels_done", self.record.levels.len().into()),
                    ("attempt", self.attempt.into()),
                ],
            );
        }
        self.checkpoint_path = Some(path);
        Ok(self)
    }

    #[must_use]
    pub fn record(&self) -> &SweepRecord {
        &self.record
    }

    #[must_use]
    pub fn board(&self) -> &Board {
        &self.board
    }

    #[must_use]
    pub fn model(&self) -> &FaultModel {
        &self.model
    }

    #[must_use]
    pub fn clock_ms(&self) -> u64 {
        self.clock.now_ms()
    }

    /// Drive the sweep to completion (through any number of crashes).
    pub fn run(&mut self) -> Result<SweepOutcome, HarnessError> {
        match self.run_budgeted(u64::MAX)? {
            HarnessStatus::Finished(outcome) => Ok(outcome),
            HarnessStatus::Paused { .. } => unreachable!("unlimited budget cannot pause"),
        }
    }

    /// Drive at most `max_runs` further runs, checkpointing along the way.
    /// Pausing and resuming (even in a fresh process via
    /// [`Harness::with_checkpoint_path`]) yields a record bit-identical to
    /// an uninterrupted sweep.
    pub fn run_budgeted(&mut self, max_runs: u64) -> Result<HarnessStatus, HarnessError> {
        let ladder = self.cfg.levels();
        let mut done: u64 = 0;
        let mut sweep_span = self.tracer.span_with(
            "sweep",
            vec![
                ("levels_total", ladder.len().into()),
                ("runs_per_level", self.record.runs_per_level.into()),
            ],
        );
        loop {
            let Some((level_idx, run)) = self.position(&ladder) else {
                if self.record.outcome == SweepOutcome::InProgress {
                    self.record.outcome = SweepOutcome::FloorReached;
                }
                self.save_checkpoint()?;
                self.emit_sweep_done(&mut sweep_span);
                return Ok(HarnessStatus::Finished(self.record.outcome));
            };
            if done >= max_runs {
                self.save_checkpoint()?;
                self.tracer.instant_at(
                    self.clock.now_ms(),
                    "sweep_paused",
                    vec![("runs_done", done.into())],
                );
                sweep_span.field("paused", true.into());
                return Ok(HarnessStatus::Paused { runs_done: done });
            }
            if self.record.levels.len() == level_idx {
                let rail_uw = self
                    .power
                    .sample(
                        self.record.rail,
                        ladder[level_idx],
                        self.record.temperature_c,
                    )
                    .total_uw();
                self.record.levels.push(LevelRecord {
                    v_mv: ladder[level_idx].0,
                    rail_uw,
                    crashed: false,
                    runs: Vec::new(),
                });
                self.tracer.instant_at(
                    self.clock.now_ms(),
                    "level_start",
                    vec![
                        ("level", level_idx.into()),
                        ("v_mv", ladder[level_idx].0.into()),
                    ],
                );
            }
            let survived = self.measure_run(level_idx, ladder[level_idx], run)?;
            done += 1;
            if survived {
                self.emit_level_progress(level_idx, &ladder);
            } else {
                self.emit_sweep_done(&mut sweep_span);
                return Ok(HarnessStatus::Finished(self.record.outcome));
            }
        }
    }

    /// Emit `level_done` with deterministic progress/ETA once the current
    /// level has all its runs. The ETA extrapolates the *simulated* clock
    /// over the remaining ladder, so it is bit-stable across reruns.
    fn emit_level_progress(&self, level_idx: usize, ladder: &[Millivolts]) {
        if !self.tracer.enabled() {
            return;
        }
        let level = &self.record.levels[level_idx];
        if (level.runs.len() as u32) < self.record.runs_per_level {
            return;
        }
        let done = level_idx as u64 + 1;
        let remaining = ladder.len() as u64 - done;
        let eta_ms = (self.clock.now_ms() / done).saturating_mul(remaining);
        self.tracer.instant_at(
            self.clock.now_ms(),
            "level_done",
            vec![
                ("level", level_idx.into()),
                ("v_mv", level.v_mv.into()),
                (
                    "faults",
                    level.runs.iter().map(|r| r.faults).sum::<u64>().into(),
                ),
                ("rail_uw", level.rail_uw.into()),
                ("levels_done", done.into()),
                ("levels_total", ladder.len().into()),
                ("eta_ms", eta_ms.into()),
            ],
        );
        // Instantaneous rail draw at this level, plus the energy the level's
        // runs spent at it (µW × ms → nJ, /1000 → µJ; exact integer math).
        self.tracer.gauge("rail_power_uw", level.rail_uw);
        let level_ms = u64::from(self.record.runs_per_level) * MS_PER_RUN;
        self.tracer
            .counter("rail_energy_uj", level.rail_uw * level_ms / 1000);
    }

    fn emit_sweep_done(&self, sweep_span: &mut uvf_trace::Span) {
        if !self.tracer.enabled() {
            return;
        }
        let outcome = match self.record.outcome {
            SweepOutcome::InProgress => "in_progress",
            SweepOutcome::FloorReached => "floor_reached",
            SweepOutcome::CrashFound { .. } => "crash_found",
        };
        sweep_span.field("outcome", outcome.into());
        self.tracer.instant_at(
            self.clock.now_ms(),
            "sweep_done",
            vec![
                ("outcome", outcome.into()),
                ("levels_done", self.record.levels.len().into()),
                ("power_cycles", self.record.power_cycles.into()),
            ],
        );
    }

    /// Next (ladder index, run index) to measure, or `None` when done.
    fn position(&self, ladder: &[Millivolts]) -> Option<(usize, u32)> {
        if self.record.outcome != SweepOutcome::InProgress {
            return None;
        }
        match self.record.levels.last() {
            None => {
                if ladder.is_empty() {
                    None
                } else {
                    Some((0, 0))
                }
            }
            Some(last) => {
                let idx = self.record.levels.len() - 1;
                if last.crashed {
                    None
                } else if (last.runs.len() as u32) < self.record.runs_per_level {
                    Some((idx, last.runs.len() as u32))
                } else if idx + 1 < ladder.len() {
                    Some((idx + 1, 0))
                } else {
                    None
                }
            }
        }
    }

    /// One run, retried through crashes. Returns `false` when retries were
    /// exhausted and the sweep ended with `CrashFound`.
    fn measure_run(
        &mut self,
        level_idx: usize,
        v: Millivolts,
        run: u32,
    ) -> Result<bool, HarnessError> {
        loop {
            match self.attempt_run(v, run)? {
                Some(faults) => {
                    self.clock.advance(MS_PER_RUN);
                    self.record.levels[level_idx]
                        .runs
                        .push(RunRecord { run, faults });
                    self.attempt = 0;
                    self.runs_since_checkpoint += 1;
                    if self.runs_since_checkpoint >= self.policy.checkpoint_every_runs {
                        self.save_checkpoint()?;
                        self.runs_since_checkpoint = 0;
                    }
                    return Ok(true);
                }
                None => {
                    // The watchdog waited its full timeout before declaring
                    // the hang.
                    self.clock.advance(self.policy.watchdog_timeout_ms);
                    // Jitter keyed by the sweep position (die+config via
                    // the fingerprint, then voltage and run), so a resumed
                    // sweep replays identical delays while distinct
                    // sweeps de-synchronize their retries.
                    let jitter_key =
                        mix(&[self.record.fingerprint(), u64::from(v.0), u64::from(run)]);
                    let backoff = self.policy.backoff.delay_ms(self.attempt, jitter_key);
                    self.record.crash_events.push(CrashEvent {
                        v_mv: v.0,
                        run,
                        attempt: self.attempt,
                        sim_ms: self.clock.now_ms(),
                        detected_ms: self.policy.watchdog_timeout_ms,
                        backoff_ms: backoff,
                    });
                    self.tracer.counter("crashes", 1);
                    self.tracer.instant_at(
                        self.clock.now_ms(),
                        "crash",
                        vec![
                            ("v_mv", v.0.into()),
                            ("run", run.into()),
                            ("attempt", self.attempt.into()),
                            ("detected_ms", self.policy.watchdog_timeout_ms.into()),
                        ],
                    );
                    if self.attempt >= self.policy.max_retries {
                        // Retries exhausted: this level is below the crash
                        // boundary; the level above is Vcrash (Fig. 1).
                        self.record.levels[level_idx].crashed = true;
                        self.record.outcome = SweepOutcome::CrashFound {
                            vcrash_mv: v.0 + self.cfg.step_mv,
                        };
                        self.tracer.instant_at(
                            self.clock.now_ms(),
                            "crash_boundary",
                            vec![
                                ("v_mv", v.0.into()),
                                ("vcrash_mv", (v.0 + self.cfg.step_mv).into()),
                            ],
                        );
                        self.save_checkpoint()?;
                        return Ok(false);
                    }
                    self.attempt += 1;
                    self.tracer.instant_at(
                        self.clock.now_ms(),
                        "backoff",
                        vec![
                            ("backoff_ms", backoff.into()),
                            ("attempt", self.attempt.into()),
                        ],
                    );
                    self.clock.advance(backoff);
                    self.board.power_cycle();
                    self.record.power_cycles += 1;
                    self.tracer.counter("power_cycles", 1);
                    self.tracer.instant_at(
                        self.clock.now_ms(),
                        "power_cycle",
                        vec![("v_mv", v.0.into())],
                    );
                    self.armed = false;
                    // Persist the attempt counter before retrying so a
                    // process death here replays the same noise rolls.
                    self.save_checkpoint()?;
                    self.tracer.instant_at(
                        self.clock.now_ms(),
                        "resume",
                        vec![
                            ("v_mv", v.0.into()),
                            ("run", run.into()),
                            ("attempt", self.attempt.into()),
                        ],
                    );
                }
            }
        }
    }

    /// One attempt: restore board state if needed, roll supply noise, read.
    /// `Ok(None)` means the watchdog detected a hang.
    fn attempt_run(&mut self, v: Millivolts, run: u32) -> Result<Option<u64>, HarnessError> {
        let result = self.ensure_ready(v).and_then(|()| {
            // In the noisy band the supply can dip lethally at any run; the
            // roll is keyed by (chip, rail, v, run, attempt) so retries see
            // fresh noise but replays see the same.
            self.board
                .apply_supply_noise(self.cfg.rail, run, self.attempt);
            let _scan = self.tracer.span_with(
                "probe_scan",
                vec![
                    ("v_mv", v.0.into()),
                    ("run", run.into()),
                    // The scan runs on one thread; the field stays so every
                    // event log is byte-stable.
                    ("threads", 1usize.into()),
                ],
            );
            self.scan_faults(v, run)
        });
        match result {
            Ok(faults) => {
                self.tracer.counter("runs", 1);
                Ok(Some(faults))
            }
            Err(BoardError::Crashed { .. }) => Ok(None),
            Err(e) => Err(HarnessError::Board(e)),
        }
    }

    /// One probe scan. BRAM counts come from the level plan (the same
    /// `u64`s [`Probe::sample`] returns, built from the same seeds); the
    /// liveness read is preserved so a hung board still fails here instead
    /// of silently returning model data.
    fn scan_faults(&mut self, v: Millivolts, run: u32) -> Result<u64, BoardError> {
        if self.probe == Probe::Bram {
            // Same liveness check as `Probe::sample`.
            self.board.read_row(BramId(0), 0)?;
            if self.level_counts.as_ref().map(|(lv, _)| *lv) != Some(v) {
                let counts = self.build_level_counts(v);
                self.level_counts = Some((v, counts));
            }
            let (_, counts) = self.level_counts.as_ref().expect("level plan just built");
            Ok(counts[run as usize])
        } else {
            self.probe
                .sample(&self.board, &self.model, &self.cfg, v, run)
        }
    }

    /// Batch every run of level `v` through one `MaskPlan`: the sorted
    /// cells are scanned once and each run costs two binary searches plus
    /// its jitter window. Derived state only — a resume rebuilds the same
    /// counts from the same attempt-independent seeds.
    fn build_level_counts(&self, v: Millivolts) -> Vec<u64> {
        let conditions: Vec<ResolvedCondition> = (0..self.cfg.runs_per_level)
            .map(|run| {
                self.model.resolve(&ReadCondition {
                    v,
                    temperature_c: self.cfg.temperature_c,
                    run_seed: run_seed(self.model.chip_seed(), self.cfg.rail, v, run),
                })
            })
            .collect();
        platform_level_counts(&self.model, self.cfg.pattern, &conditions)
    }

    /// Arm the probe and set the rail if either was disturbed (sweep start,
    /// level change, or power-cycle recovery). Arming happens at the
    /// *current* rail state before the lethal set, mirroring the real rig:
    /// the pattern write succeeds, then the rail drops.
    fn ensure_ready(&mut self, v: Millivolts) -> Result<(), BoardError> {
        if !self.armed {
            self.probe.arm(&mut self.board, self.cfg.pattern)?;
            self.armed = true;
        }
        if self.board.rail_mv(self.cfg.rail) != v {
            self.board.set_rail_mv(self.cfg.rail, v)?;
        }
        Ok(())
    }

    fn save_checkpoint(&mut self) -> Result<(), HarnessError> {
        let Some(path) = &self.checkpoint_path else {
            return Ok(());
        };
        let cp = Checkpoint {
            record: self.record.clone(),
            attempt: self.attempt,
            clock_ms: self.clock.now_ms(),
        };
        cp.save(path)?;
        self.tracer.counter("checkpoint_writes", 1);
        self.tracer.instant_at(
            self.clock.now_ms(),
            "checkpoint_saved",
            vec![("levels_done", self.record.levels.len().into())],
        );
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uvf_fpga::{PlatformKind, Rail};

    fn short_cfg() -> SweepConfig {
        let platform = PlatformKind::Zc702.descriptor();
        // Start just above Vmin so the test sweeps the interesting region
        // quickly: a few safe levels, the critical region, then the crash.
        SweepConfig::builder(Rail::Vccbram)
            .runs(2)
            .start(Millivolts(platform.vccbram.vmin.0 + 20))
            .build()
    }

    fn harness(cfg: SweepConfig) -> Harness {
        let board = Board::new(PlatformKind::Zc702.descriptor());
        Harness::new(board, cfg, RecoveryPolicy::default()).unwrap()
    }

    #[test]
    fn sweep_finds_the_crash_boundary() {
        let platform = PlatformKind::Zc702.descriptor();
        let mut h = harness(short_cfg());
        let outcome = h.run().unwrap();
        assert_eq!(
            outcome,
            SweepOutcome::CrashFound {
                vcrash_mv: platform.vccbram.vcrash.0
            }
        );
        // Watchdog fired once per attempt: initial + max_retries.
        assert_eq!(h.record().crash_events.len(), 4);
        assert_eq!(h.record().power_cycles, 3);
        assert_eq!(h.record().vmin(), Some(platform.vccbram.vmin));
    }

    #[test]
    fn levels_above_vmin_are_fault_free() {
        let mut h = harness(short_cfg());
        h.run().unwrap();
        let platform = PlatformKind::Zc702.descriptor();
        for level in &h.record().levels {
            if level.v_mv > platform.vccbram.vmin.0 {
                assert!(!level.any_faults(), "faults at {} mV", level.v_mv);
            }
        }
    }

    #[test]
    fn budgeted_run_pauses_and_continues_in_memory() {
        let cfg = short_cfg();
        let mut interrupted = harness(cfg);
        let status = interrupted.run_budgeted(3).unwrap();
        assert_eq!(status, HarnessStatus::Paused { runs_done: 3 });
        let outcome = interrupted.run().unwrap();

        let mut straight = harness(cfg);
        let straight_outcome = straight.run().unwrap();

        assert_eq!(outcome, straight_outcome);
        assert_eq!(
            interrupted.record().to_json_string(),
            straight.record().to_json_string(),
            "paused+continued record must be bit-identical"
        );
        assert_eq!(interrupted.clock_ms(), straight.clock_ms());
    }

    #[test]
    fn config_validation_is_enforced() {
        let board = Board::new(PlatformKind::Zc702.descriptor());
        let cfg = SweepConfig {
            step_mv: 0,
            ..SweepConfig::builder(Rail::Vccbram).build()
        };
        assert!(matches!(
            Harness::new(board, cfg, RecoveryPolicy::default()),
            Err(HarnessError::Config(_))
        ));
    }
}
