//! `characterize`: every operation characterizes one fresh die.
//!
//! The Fig. 1 guardband sweep runs through `Campaign` on the Listing-1
//! ladder with watchdog crash recovery; Table-II stability scans repeat at
//! the die's `Vcrash`; the Fig. 5 clustering and location census run on
//! its `Vcrash` map. No die repeats, so die construction, the sweep and the
//! scans carry the load while the accelerator layers do nothing.

use crate::digest::{mix, Digest};
use crate::runner::{evict_fvm_cache, OpOutput, RunConfig, Workload};
use uvf_characterize::prelude::{
    cluster_brams, Campaign, CampaignJob, LocationStats, Probe, RecoveryPolicy, SweepConfig,
    SweepOutcome,
};
use uvf_characterize::FvmCache;
use uvf_fpga::{Board, Millivolts, PlatformKind, Rail};
use uvf_trace::Tracer;

/// Platforms in the order dies are drawn (the cheap ZC702 twice), each
/// with the Table-II stability scans every one of its dies gets.
///
/// Only the chip seed changes from die to die. The scan counts give every
/// platform the same mix of work, die construction about 40 % of a die's
/// time and scans about a third (one scan of a VC707 costs about 25 times
/// one of a ZC702), so a change in the host's relative speed of those
/// kernels moves the latency percentiles as it moves the throughput. The
/// cycle puts the median inside the band of the 890-BRAM KC705 dies
/// (40–80 % of the dies) and the 90th percentile inside the band of the
/// VC707 dies (the top 20 %), never on a gap between platforms.
pub const CYCLE: [(PlatformKind, u32); 5] = [
    (PlatformKind::Zc702, 240),
    (PlatformKind::Kc705A, 150),
    (PlatformKind::Zc702, 240),
    (PlatformKind::Kc705B, 500),
    (PlatformKind::Vc707, 90),
];
/// Listing-1 runs per level of the guardband sweep.
pub const RUNS_PER_LEVEL: u32 = 40;
/// Threads each stability scan fans out to.
pub const SCAN_THREADS: usize = 1;
/// Fig. 5 knobs: up to six classes, clustering seed 5.
pub const MAX_K: usize = 6;
pub const CLUSTER_SEED: u64 = 5;
/// Jobs prepared by the set-up; operations beyond wrap around (a run of
/// this length would need hours).
pub const JOB_LIST_LEN: usize = 65_536;

/// One die's characterization: the sweep job and its stability scans.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DieJob {
    pub sweep: CampaignJob,
    pub scans: u32,
}

#[derive(Debug, PartialEq)]
pub struct Characterize {
    jobs: Vec<DieJob>,
}

impl Workload for Characterize {
    const NAME: &'static str = "characterize";
    const ITEM: &'static str = "die";
    const OP: &'static str = "die";
    const LATENCY_OF: &'static str = "die";
    const DIGEST_OPS: u64 = 10;
    const SETUP_REPS: usize = 101;

    fn load() -> (usize, usize) {
        (SCAN_THREADS, 0)
    }

    /// The job list: one fresh die per operation, its chip seed drawn from
    /// the workload seed.
    fn setup(cfg: &RunConfig, _tracer: &Tracer) -> Result<Characterize, String> {
        let jobs = (0..JOB_LIST_LEN as u64)
            .map(|i| {
                let sweep = SweepConfig::builder(Rail::Vccbram)
                    .runs(RUNS_PER_LEVEL)
                    .build();
                sweep.validate()?;
                let (kind, scans) = CYCLE[i as usize % CYCLE.len()];
                Ok(DieJob {
                    sweep: CampaignJob {
                        kind,
                        chip_seed: Some(mix(cfg.seed, i)),
                        cfg: sweep,
                    },
                    scans,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Characterize { jobs })
    }

    /// Every die of the traced phase is built again, as at process start.
    fn cold_start(&mut self) {
        evict_fvm_cache();
    }

    fn op(&mut self, index: u64, tracer: &Tracer) -> Result<OpOutput, String> {
        let DieJob { sweep: job, scans } = self.jobs[index as usize % self.jobs.len()];
        let platform = job.kind.descriptor();
        let chip_seed = job.seed();

        let model = {
            let _s = tracer.span("faults.model_build");
            let misses = FvmCache::global().misses();
            let model = FvmCache::global().model(platform, chip_seed);
            tracer.counter("faults.model_builds", FvmCache::global().misses() - misses);
            model
        };

        let entry = {
            let _s = tracer.span("characterize.sweep");
            let mut campaign = Campaign::new(RecoveryPolicy::default()).with_tracer(tracer.clone());
            campaign.push(job);
            campaign
                .run(1)
                .map_err(|e| format!("campaign: {e}"))?
                .pop()
                .ok_or("campaign returned no entry")?
        };
        let record = &entry.record;
        tracer.counter("characterize.levels", record.levels.len() as u64);
        let SweepOutcome::CrashFound { vcrash_mv } = entry.outcome else {
            return Err(format!("{}: sweep ended {:?}", job.kind, entry.outcome));
        };
        if vcrash_mv != platform.vccbram.vcrash.0 {
            return Err(format!(
                "{}: Vcrash {vcrash_mv} mV, landmark {} mV",
                job.kind, platform.vccbram.vcrash.0
            ));
        }
        let vcrash = Millivolts(vcrash_mv);
        let swept = record
            .levels
            .iter()
            .find(|l| l.v_mv == vcrash_mv)
            .ok_or("no record of the Vcrash level")?;

        let board = {
            let _s = tracer.span("fpga.board_build");
            let mut board = Board::with_chip_seed(platform, chip_seed);
            Probe::Bram
                .arm(&mut board, job.cfg.pattern)
                .map_err(|e| format!("arm: {e:?}"))?;
            board
        };
        let mut d = Digest::new();
        d.u64(record.content_hash()).u64(record.fingerprint());
        for run in 0..scans {
            let faults = {
                let _s = tracer.span("characterize.scan");
                Probe::Bram
                    .sample_with_threads(&board, &model, &job.cfg, vcrash, run, SCAN_THREADS)
                    .map_err(|e| format!("scan: {e:?}"))?
            };
            // The sweep measured the same (die, level, run) triple.
            if let Some(r) = swept.runs.get(run as usize) {
                if r.faults != faults {
                    return Err(format!(
                        "{}: scan {run} counted {faults} faults, the sweep {}",
                        job.kind, r.faults
                    ));
                }
            }
            d.u64(faults);
        }

        let map = {
            let _s = tracer.span("faults.variation_map");
            model.variation_map(vcrash)
        };
        let clusters = {
            let _s = tracer.span("stats.cluster");
            cluster_brams(&map, MAX_K, CLUSTER_SEED).ok_or("census too small to cluster")?
        };
        if clusters.sizes.iter().sum::<usize>() != platform.bram_count {
            return Err(format!("{}: clusters do not cover every BRAM", job.kind));
        }
        d.u64(clusters.k as u64);
        for &s in &clusters.sizes {
            d.u64(s as u64);
        }
        let chi2 = {
            let _s = tracer.span("stats.census");
            let census = LocationStats::census(&model, vcrash);
            if census.total() != map.total() {
                return Err(format!(
                    "{}: census counts {} faults, the variation map {}",
                    job.kind,
                    census.total(),
                    map.total()
                ));
            }
            [
                census.bram_uniformity(),
                census.grid_column_uniformity(),
                census.grid_row_uniformity(),
                census.cell_row_uniformity(),
                census.cell_bit_uniformity(),
            ]
        };
        for test in chi2 {
            d.f64(test.ok_or("empty census")?.statistic);
        }
        Ok(OpOutput {
            items: 1,
            digest: d.finish(),
            latencies_ms: Vec::new(),
        })
    }
}
