//! Same seeds, same bytes, on any host: no campaign or probe-scan entry
//! point takes a worker count that can reach its output.
//!
//! * campaign — a traced `Campaign::run(4)` over the four Table-I jobs
//!   writes `run_sequential()`'s JSONL event log, records and on-disk
//!   checkpoint files, and either checkpoint directory resumes the other,
//! * probe — [`Probe::sample_with_threads`] equals [`Probe::sample`].

use std::path::{Path, PathBuf};
use std::sync::Arc;
use uvf_characterize::{
    Campaign, CampaignEntry, CampaignJob, HarnessError, Probe, RecoveryPolicy, SweepConfig,
};
use uvf_faults::FaultModel;
use uvf_fpga::{Board, Millivolts, PlatformKind, Rail};
use uvf_trace::{JsonlSink, Tracer};

type RunFn = fn(&Campaign) -> Result<Vec<CampaignEntry>, HarnessError>;

/// The four Table-I boards, each on a short ladder ending in the crash,
/// checkpointing into `dir`.
fn table1_campaign(dir: &Path) -> Campaign {
    let mut campaign = Campaign::new(RecoveryPolicy::default()).with_checkpoint_dir(dir);
    for kind in PlatformKind::ALL {
        let cfg = SweepConfig::builder(Rail::Vccbram)
            .runs(2)
            .start(Millivolts(kind.descriptor().vccbram.vmin.0 + 20))
            .build();
        campaign.push(CampaignJob::new(kind, cfg));
    }
    campaign
}

/// Run the campaign traced into a fresh `tag` directory; return its
/// entries, its event log and the directory.
fn traced_run(tag: &str, run: RunFn) -> (Vec<CampaignEntry>, String, PathBuf) {
    let dir = std::env::temp_dir().join(format!("uvf-par-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let log = dir.join("events.jsonl");
    let tracer = Tracer::builder()
        .sink(Arc::new(JsonlSink::create(&log).unwrap()))
        .build();
    let entries = run(&table1_campaign(&dir).with_tracer(tracer.clone())).unwrap();
    tracer.flush();
    (entries, std::fs::read_to_string(&log).unwrap(), dir)
}

#[test]
fn parallel_campaign_matches_sequential_bytes_and_checkpoints() {
    let (sequential, seq_log, seq_dir) = traced_run("seq", Campaign::run_sequential);
    let (four, four_log, four_dir) = traced_run("four", |c| c.run(4));
    assert!(seq_log.contains("\"job_done\""), "jobs land in the log");
    assert!(seq_log.contains("\"workers\":1"), "one campaign worker");
    assert_eq!(seq_log, four_log, "run(4) changed the event log");

    assert_eq!(sequential, four);
    for s in &sequential {
        // The on-disk checkpoints — fingerprint line included — must be the
        // same bytes, so either directory can resume the other's campaign.
        let name = s.job.checkpoint_name();
        assert_eq!(
            std::fs::read(seq_dir.join(&name)).unwrap(),
            std::fs::read(four_dir.join(&name)).unwrap(),
            "{name}: checkpoint bytes differ"
        );
    }
    let resumed = table1_campaign(&seq_dir).run(4).unwrap();
    assert_eq!(sequential, resumed, "cross-resume drifted");

    std::fs::remove_dir_all(&seq_dir).ok();
    std::fs::remove_dir_all(&four_dir).ok();
}

#[test]
fn parallel_probe_sample_equals_sequential_on_all_platforms() {
    for kind in PlatformKind::ALL {
        let platform = kind.descriptor();
        let model = FaultModel::new(platform);
        let cfg = SweepConfig::quick(Rail::Vccbram, 3);
        let mut board = Board::new(platform);
        Probe::Bram.arm(&mut board, cfg.pattern).unwrap();
        let lm = platform.vccbram;
        for v in [Millivolts::NOMINAL, lm.vmin, lm.vcrash] {
            for run in 0..3 {
                let sample = Probe::Bram.sample(&board, &model, &cfg, v, run);
                let with_threads = Probe::Bram.sample_with_threads(&board, &model, &cfg, v, run, 8);
                assert_eq!(sample, with_threads, "{kind:?} at {v} run {run}");
            }
        }
    }
}
