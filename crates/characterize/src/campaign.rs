//! Multi-board campaign runner: one crash-resilient [`Harness`] per die.
//!
//! The paper characterizes four independent boards (Table I); a campaign
//! runs each board's sweep as one job, in job order, on the calling
//! thread. Scale-out is the cross-process `uvf-serve` fleet, which is
//! required to reproduce this runner's manifest byte-for-byte.
//!
//! With a shared checkpoint directory every job checkpoints exactly like a
//! standalone harness (same fingerprint guard, same atomic writes): a
//! campaign killed mid-flight resumes every unfinished board from its file
//! and still produces the sequential baseline's bytes.

use crate::guardband::GuardbandReport;
use crate::harness::{Harness, HarnessError, RecoveryPolicy};
use crate::json::Json;
use crate::record::{RecordError, SweepOutcome, SweepRecord};
use crate::store::CheckpointStore;
use crate::sweep::SweepConfig;
use std::path::PathBuf;
use uvf_fpga::{Board, PlatformKind};
use uvf_trace::codec::Text;
use uvf_trace::Tracer;

uvf_trace::json_record! {
    /// One board's sweep within a campaign. Its JSON is the campaign
    /// server → worker wire form.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct CampaignJob: RecordError {
        pub kind: PlatformKind as Text => "platform",
        /// Die identity; `None` uses the platform's default die.
        pub chip_seed: Option<u64>,
        pub cfg: SweepConfig,
    }
}

impl CampaignJob {
    #[must_use]
    pub fn new(kind: PlatformKind, cfg: SweepConfig) -> CampaignJob {
        CampaignJob {
            kind,
            chip_seed: None,
            cfg,
        }
    }

    /// The board this job sweeps (die identity included).
    #[must_use]
    pub fn board(&self) -> Board {
        let platform = self.kind.descriptor();
        match self.chip_seed {
            Some(seed) => Board::with_chip_seed(platform, seed),
            None => Board::new(platform),
        }
    }

    /// The effective die seed (platform default when unset).
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.chip_seed
            .unwrap_or(self.kind.descriptor().default_chip_seed)
    }

    /// Checkpoint filename of this job inside the campaign directory:
    /// unique per (platform, rail, pattern, die), stable across resumes.
    #[must_use]
    pub fn checkpoint_name(&self) -> String {
        format!(
            "{}_{}_{}_{:016x}.json",
            self.kind,
            self.cfg.rail,
            self.cfg.pattern,
            self.seed(),
        )
    }
}

/// Result of one job, in job order.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignEntry {
    pub job: CampaignJob,
    pub outcome: SweepOutcome,
    pub record: SweepRecord,
    pub report: GuardbandReport,
    /// Simulated milliseconds this board's sweep took.
    pub sim_ms: u64,
}

uvf_trace::json_record! {
    /// One job's line in a [`CampaignManifest`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct ManifestEntry {
        pub platform: PlatformKind as Text,
        pub chip_seed: u64,
        /// The record's configuration fingerprint (checkpoint guard).
        pub fingerprint: u64,
        pub outcome: SweepOutcome,
        /// Simulated milliseconds the job's sweep took.
        pub sim_ms: u64,
        /// FNV-1a over the record's canonical JSON ([`SweepRecord::content_hash`]).
        pub record_hash: u64,
    }
}

uvf_trace::json_record! {
    /// The deterministic campaign summary: per-job identity, outcome,
    /// simulated duration and record content hash — and nothing that depends
    /// on wall clocks, worker count, or scheduling. This is the document the
    /// distributed path is required to reproduce **byte-for-byte** against
    /// the in-process [`Campaign`], which makes "the cluster computed the
    /// same science" a single string comparison.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct CampaignManifest: RecordError {
        pub entries: Vec<ManifestEntry> => "jobs",
    }
}

impl CampaignManifest {
    #[must_use]
    pub fn from_entries(entries: &[CampaignEntry]) -> CampaignManifest {
        CampaignManifest {
            entries: entries
                .iter()
                .map(|e| ManifestEntry {
                    platform: e.record.platform,
                    chip_seed: e.record.chip_seed,
                    fingerprint: e.record.fingerprint(),
                    outcome: e.outcome,
                    sim_ms: e.sim_ms,
                    record_hash: e.record.content_hash(),
                })
                .collect(),
        }
    }

    pub fn parse(text: &str) -> Result<CampaignManifest, RecordError> {
        CampaignManifest::from_json(&Json::parse(text)?)
    }
}

/// A set of independent board sweeps, run one after another.
#[derive(Debug, Clone)]
pub struct Campaign {
    jobs: Vec<CampaignJob>,
    policy: RecoveryPolicy,
    checkpoint_dir: Option<PathBuf>,
    /// Passive observability inherited by every job's harness.
    tracer: Tracer,
}

impl Campaign {
    #[must_use]
    pub fn new(policy: RecoveryPolicy) -> Campaign {
        Campaign {
            jobs: Vec::new(),
            policy,
            checkpoint_dir: None,
            tracer: Tracer::disabled(),
        }
    }

    /// Attach a tracer; every job's harness inherits it. Results are
    /// bit-identical with or without one.
    #[must_use]
    pub fn with_tracer(mut self, tracer: Tracer) -> Campaign {
        self.tracer = tracer;
        self
    }

    pub fn push(&mut self, job: CampaignJob) -> &mut Campaign {
        self.jobs.push(job);
        self
    }

    /// Checkpoint every job into `dir` (created on run). A rerun after a
    /// kill resumes each unfinished board from its file.
    #[must_use]
    pub fn with_checkpoint_dir(mut self, dir: impl Into<PathBuf>) -> Campaign {
        self.checkpoint_dir = Some(dir.into());
        self
    }

    /// One job's full lifecycle: claim → sweep → done, with progress/ETA
    /// after completion. Jobs run in order, so `idx + 1` jobs are done
    /// once this one is.
    fn run_job(&self, idx: usize, job: &CampaignJob) -> Result<CampaignEntry, HarnessError> {
        self.tracer.instant(
            "job_claimed",
            vec![
                ("job", idx.into()),
                ("platform", job.kind.to_string().into()),
                ("jobs_total", self.jobs.len().into()),
            ],
        );
        let mut harness =
            Harness::new(job.board(), job.cfg, self.policy)?.with_tracer(self.tracer.clone());
        if let Some(dir) = &self.checkpoint_dir {
            let path = dir.join(job.checkpoint_name());
            // A torn or corrupt checkpoint (host crash mid-write) is
            // discarded so the job resweeps from scratch, instead of
            // failing the whole campaign on a parse error.
            if CheckpointStore::discard_if_corrupt(&path)? {
                self.tracer.counter("checkpoints_discarded", 1);
                self.tracer.instant(
                    "checkpoint_discarded",
                    vec![
                        ("job", idx.into()),
                        ("platform", job.kind.to_string().into()),
                    ],
                );
            }
            harness = harness.with_checkpoint_path(path)?;
        }
        match harness.run() {
            Ok(outcome) => {
                self.tracer.counter("jobs_done", 1);
                self.tracer.instant(
                    "job_done",
                    vec![
                        ("job", idx.into()),
                        ("platform", job.kind.to_string().into()),
                        ("sim_ms", harness.clock_ms().into()),
                        ("jobs_done", (idx + 1).into()),
                        ("jobs_total", self.jobs.len().into()),
                    ],
                );
                let record = harness.record().clone();
                Ok(CampaignEntry {
                    job: *job,
                    outcome,
                    record: record.clone(),
                    report: GuardbandReport::from_record(&record),
                    sim_ms: harness.clock_ms(),
                })
            }
            Err(e) => {
                self.tracer.counter("jobs_failed", 1);
                self.tracer.instant(
                    "job_failed",
                    vec![
                        ("job", idx.into()),
                        ("platform", job.kind.to_string().into()),
                        ("error", e.to_string().into()),
                    ],
                );
                Err(e)
            }
        }
    }

    fn ensure_checkpoint_dir(&self) -> Result<(), HarnessError> {
        if let Some(dir) = &self.checkpoint_dir {
            std::fs::create_dir_all(dir).map_err(|e| {
                HarnessError::Config(format!(
                    "cannot create checkpoint dir {}: {e}",
                    dir.display()
                ))
            })?;
        }
        Ok(())
    }

    /// Run every job on this thread, in job order.
    pub fn run_sequential(&self) -> Result<Vec<CampaignEntry>, HarnessError> {
        self.ensure_checkpoint_dir()?;
        let _span = self.tracer.span_with(
            "campaign",
            // Jobs run on one thread; the field stays so every event
            // log is byte-stable.
            vec![("jobs", self.jobs.len().into()), ("workers", 1usize.into())],
        );
        self.jobs
            .iter()
            .enumerate()
            .map(|(idx, job)| self.run_job(idx, job))
            .collect()
    }

    /// Forwards to [`Campaign::run_sequential`]; `_board_threads` is
    /// ignored. Kept only because the `perfbench/` workloads still call it.
    pub fn run(&self, _board_threads: usize) -> Result<Vec<CampaignEntry>, HarnessError> {
        self.run_sequential()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uvf_fpga::{Millivolts, Rail};

    fn short_campaign() -> Campaign {
        let mut campaign = Campaign::new(RecoveryPolicy::default());
        for kind in PlatformKind::ALL {
            let cfg = SweepConfig::builder(Rail::Vccbram)
                .runs(2)
                .start(Millivolts(kind.descriptor().vccbram.vmin.0 + 20))
                .build();
            campaign.push(CampaignJob::new(kind, cfg));
        }
        campaign
    }

    #[test]
    fn campaign_discovers_all_landmarks() {
        let entries = short_campaign().run_sequential().unwrap();
        assert_eq!(entries.len(), 4);
        for entry in &entries {
            let platform = entry.job.kind.descriptor();
            assert_eq!(entry.report.vmin, Some(platform.vccbram.vmin));
            assert_eq!(entry.report.vcrash, Some(platform.vccbram.vcrash));
        }
    }

    /// `run(n)` ignores its board count: any `n` gives `run_sequential`'s bytes.
    #[test]
    fn parallel_campaign_matches_sequential_bytes() {
        let campaign = short_campaign();
        let sequential = campaign.run_sequential().unwrap();
        for threads in [2, 4, 16] {
            let parallel = campaign.run(threads).unwrap();
            for (s, p) in sequential.iter().zip(&parallel) {
                assert_eq!(
                    s.record.to_json_string(),
                    p.record.to_json_string(),
                    "{:?} with {threads} board threads",
                    s.job.kind
                );
                assert_eq!(s.sim_ms, p.sim_ms);
            }
        }
    }

    #[test]
    fn checkpointed_campaign_resumes_to_identical_bytes() {
        let dir = std::env::temp_dir().join(format!("uvf-campaign-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let campaign = short_campaign().with_checkpoint_dir(&dir);
        let first = campaign.run_sequential().unwrap();
        // Rerun: every job resumes from its finished checkpoint.
        let second = campaign.run_sequential().unwrap();
        for (a, b) in first.iter().zip(&second) {
            assert_eq!(a.record.to_json_string(), b.record.to_json_string());
        }
        let baseline = short_campaign().run_sequential().unwrap();
        for (a, b) in first.iter().zip(&baseline) {
            assert_eq!(a.record.to_json_string(), b.record.to_json_string());
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn job_and_policy_roundtrip_through_wire_json() {
        // Bytes as the hand-written encoders wrote them before the codec;
        // a VCCINT job carries the logic probe.
        let cfg = r#"{"rail":"vccint","probe":"logic","pattern":"ffff","start_mv":1000,"floor_mv":450,"step_mv":10,"runs_per_level":5,"temperature_c":25.0,"noise_band_mv":0}"#;
        let mut job = CampaignJob::new(
            PlatformKind::Vc707,
            SweepConfig::builder(Rail::Vccint).runs(5).build(),
        );
        assert_eq!(
            job.to_json_string(),
            format!(r#"{{"platform":"vc707","cfg":{cfg}}}"#)
        );
        let back = CampaignJob::from_json(&job.to_json()).unwrap();
        assert_eq!(back, job);
        job.chip_seed = Some(0xabcd);
        assert_eq!(
            job.to_json_string(),
            format!(r#"{{"platform":"vc707","chip_seed":43981,"cfg":{cfg}}}"#)
        );
        let back = CampaignJob::from_json(&job.to_json()).unwrap();
        assert_eq!(back, job);
        assert_eq!(back.to_json().to_string(), job.to_json().to_string());
        let bad = job.to_json_string().replace("logic", "laser");
        assert_eq!(
            CampaignJob::from_json(&Json::parse(&bad).unwrap()),
            Err(RecordError::Schema(r#"unknown cfg.probe "laser""#.into()))
        );

        let policy = RecoveryPolicy::default();
        assert_eq!(
            policy.to_json_string(),
            r#"{"watchdog_timeout_ms":250,"max_retries":3,"backoff_base_ms":100,"backoff_cap_ms":5000,"checkpoint_every_runs":10}"#
        );
        let back = RecoveryPolicy::from_json(&policy.to_json()).unwrap();
        assert_eq!(back, policy);
    }

    #[test]
    fn manifest_is_deterministic_and_roundtrips() {
        let campaign = short_campaign();
        let manifest = CampaignManifest::from_entries(&campaign.run_sequential().unwrap());
        let rerun = CampaignManifest::from_entries(&campaign.run_sequential().unwrap());
        assert_eq!(manifest, rerun, "manifest is deterministic");
        let text = manifest.to_json_string();
        let back = CampaignManifest::parse(&text).unwrap();
        assert_eq!(back, manifest);
        assert_eq!(back.to_json_string(), text, "byte-stable");
        assert_eq!(back.entries.len(), 4);
        assert!(back
            .entries
            .iter()
            .all(|e| matches!(e.outcome, SweepOutcome::CrashFound { .. })));
    }

    #[test]
    fn corrupt_campaign_checkpoint_is_discarded_and_reswept() {
        let dir = std::env::temp_dir().join(format!("uvf-campaign-corrupt-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let campaign = short_campaign().with_checkpoint_dir(&dir);
        let baseline = campaign.run_sequential().unwrap();
        // Truncate one finished checkpoint to a torn prefix.
        let victim = dir.join(campaign.jobs[1].checkpoint_name());
        let bytes = std::fs::read_to_string(&victim).unwrap();
        std::fs::write(&victim, &bytes[..bytes.len() / 3]).unwrap();
        let rerun = campaign.run_sequential().unwrap();
        for (a, b) in baseline.iter().zip(&rerun) {
            assert_eq!(a.record.to_json_string(), b.record.to_json_string());
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn job_checkpoint_names_are_unique_and_stable() {
        let campaign = short_campaign();
        let mut names: Vec<String> = campaign
            .jobs
            .iter()
            .map(CampaignJob::checkpoint_name)
            .collect();
        assert_eq!(names[0], campaign.jobs[0].checkpoint_name());
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 4);
    }
}
