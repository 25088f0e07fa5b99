//! `serve`: every operation is one small distributed campaign.
//!
//! An in-process `CampaignServer` listens on a Unix socket; one
//! `run_worker` thread sweeps the jobs while a `Subscription` drains the
//! live event stream. The merged records and manifest must be
//! byte-identical to the in-process `Campaign` computed in set-up. The dies
//! are the platforms' default dies, cached by the set-up's warm-up
//! campaign, so the sweep code runs behind the lease queue and event
//! streaming with die construction near zero.
//!
//! The server gets no checkpoint directory: checkpoints are fsync'd, and
//! the latency of `fsync` on a shared virtual disk swings several-fold from
//! run to run, which would drown every protocol or IPC change.

use crate::digest::{mix, Digest};
use crate::runner::{OpOutput, RunConfig, Workload};
use std::path::PathBuf;
use uvf_characterize::prelude::{
    Campaign, CampaignEntry, CampaignJob, CampaignManifest, RecoveryPolicy, SweepConfig,
};
use uvf_fpga::{Millivolts, PlatformKind, Rail};
use uvf_serve::{run_worker, CampaignServer, Endpoint, ServerConfig, Subscription, WorkerOptions};
use uvf_trace::Tracer;

/// Runs per level of the pool's quick sweeps.
pub const RUNS: [u32; 2] = [2, 3];
/// Where the quick sweeps start, above each platform's `Vmin`.
pub const START_ABOVE_VMIN_MV: [u32; 3] = [20, 30, 40];

#[derive(Debug, PartialEq)]
pub struct Serve {
    seed: u64,
    /// The job pool and its in-process results, in pool order.
    expected: Vec<CampaignEntry>,
    dir: PathBuf,
}

/// Every (platform, runs, start) variant of the quick sweep on the
/// platforms' default dies.
#[must_use]
pub fn job_pool() -> Vec<CampaignJob> {
    let mut jobs = Vec::new();
    for kind in PlatformKind::ALL {
        for runs in RUNS {
            for above in START_ABOVE_VMIN_MV {
                let cfg = SweepConfig::builder(Rail::Vccbram)
                    .runs(runs)
                    .start(Millivolts(kind.descriptor().vccbram.vmin.0 + above))
                    .build();
                jobs.push(CampaignJob::new(kind, cfg));
            }
        }
    }
    jobs
}

impl Serve {
    /// The mini-campaign of operation `index`: one pool variant per
    /// platform, chosen from the workload seed.
    fn pick(&self, index: u64) -> Vec<&CampaignEntry> {
        let per_platform = RUNS.len() * START_ABOVE_VMIN_MV.len();
        (0..PlatformKind::ALL.len())
            .map(|p| {
                let variant = mix(mix(self.seed, index), p as u64) as usize % per_platform;
                &self.expected[p * per_platform + variant]
            })
            .collect()
    }
}

impl Workload for Serve {
    const NAME: &'static str = "serve";
    const ITEM: &'static str = "job";
    const OP: &'static str = "campaign";
    const LATENCY_OF: &'static str = "campaign";
    const DIGEST_OPS: u64 = 8;
    const SETUP_REPS: usize = 5;
    const SETUP_FILLS_CACHE: bool = true;

    /// One worker thread and two connections (worker, subscriber).
    fn load() -> (usize, usize) {
        (1, 2)
    }

    /// One warm-up campaign over the job pool: it fills the process-wide
    /// `FvmCache` with the default dies (each repetition starts from an
    /// evicted cache) and gives the reference results.
    fn setup(cfg: &RunConfig, tracer: &Tracer) -> Result<Serve, String> {
        let mut campaign = Campaign::new(RecoveryPolicy::default());
        for job in job_pool() {
            campaign.push(job);
        }
        let expected = {
            let _s = tracer.span("characterize.sweep");
            campaign
                .run_sequential()
                .map_err(|e| format!("warm-up campaign: {e}"))?
        };
        Ok(Serve {
            seed: cfg.seed,
            expected,
            dir: cfg.out_dir.join(format!("serve-{}", std::process::id())),
        })
    }

    fn op(&mut self, index: u64, tracer: &Tracer) -> Result<OpOutput, String> {
        let want: Vec<CampaignEntry> = self.pick(index).into_iter().cloned().collect();
        let dir = self.dir.join(format!("op{index}"));
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let config = ServerConfig::new(
            want.iter().map(|e| e.job).collect(),
            RecoveryPolicy::default(),
            Endpoint::Unix(dir.join("s.sock")),
        );
        let handle = {
            let _s = tracer.span("serve.start");
            CampaignServer::start(config).map_err(|e| format!("server start: {e}"))?
        };
        let endpoint = handle.endpoint().clone();
        let (worker, streamed) = std::thread::scope(|scope| {
            let worker = scope.spawn(|| {
                let _s = tracer.span("serve.worker");
                let result = run_worker(&WorkerOptions::new(endpoint.clone()));
                if result.is_err() {
                    // The campaign cannot finish: end the stream it feeds.
                    handle.stop();
                }
                result
            });
            let streamed = {
                let _s = tracer.span("serve.stream");
                Subscription::open(&endpoint, 0, 0).and_then(Subscription::drain)
            };
            (worker.join(), streamed)
        });
        worker
            .map_err(|_| "worker thread panicked".to_string())?
            .map_err(|e| format!("worker: {e}"))?;
        let (lines, dropped) = streamed.map_err(|e| format!("subscription: {e}"))?;
        let snapshot = handle.snapshot();
        let result = {
            let _s = tracer.span("serve.join");
            handle.join().map_err(|e| format!("server join: {e}"))?
        };
        std::fs::remove_dir_all(&dir).map_err(|e| format!("remove {}: {e}", dir.display()))?;

        tracer.counter("serve.events_streamed", lines.len() as u64);
        tracer.counter("serve.events_dropped", dropped);
        let reassigned: u32 = snapshot
            .assignments
            .iter()
            .map(|&a| a.saturating_sub(1))
            .sum();
        tracer.counter("serve.reassignments", u64::from(reassigned));
        tracer.counter("serve.jobs_failed", snapshot.failed.len() as u64);

        if dropped != 0 {
            return Err(format!("subscriber dropped {dropped} events"));
        }
        let merged: Vec<String> = result
            .events
            .iter()
            .map(uvf_trace::Event::to_jsonl)
            .collect();
        if lines != merged {
            return Err("streamed events differ from the merged log".into());
        }
        if result.entries.len() != want.len() {
            return Err(format!(
                "{} entries merged, {} jobs",
                result.entries.len(),
                want.len()
            ));
        }
        let mut d = Digest::new();
        for (i, (got, expected)) in result.entries.iter().zip(&want).enumerate() {
            let record = got.record.to_json_string();
            if record != expected.record.to_json_string() || got.sim_ms != expected.sim_ms {
                return Err(format!(
                    "job {i} ({}): record differs from the in-process run",
                    got.job.kind
                ));
            }
            d.str(&record).u64(got.sim_ms);
        }
        let manifest = result.manifest.to_json_string();
        if manifest != CampaignManifest::from_entries(&want).to_json_string() {
            return Err("manifest differs from the in-process run".into());
        }
        d.str(&manifest);
        Ok(OpOutput {
            items: want.len() as u64,
            digest: d.finish(),
            latencies_ms: Vec::new(),
        })
    }
}

impl Drop for Serve {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}
