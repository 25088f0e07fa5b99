//! Campaign-shared checkpoint store and lease-based job queue.
//!
//! PR 1–2 made a *single* sweep crash-resilient; this module extracts the
//! two pieces a multi-worker campaign needs on top:
//!
//! * [`CheckpointStore`] — one directory of per-job checkpoint files,
//!   with a sanitize pass that discards torn or corrupt files (a host
//!   crash mid-write, a truncation) so the job cleanly resweeps instead
//!   of failing the whole campaign. Config-fingerprint mismatches stay
//!   hard errors — those are operator mistakes, not torn writes.
//! * [`JobQueue`] — a lease-based work queue: a worker *claims* a job and
//!   holds a deadline-bounded lease on it; if the worker dies (connection
//!   drop) or hangs (deadline expiry) the lease lapses and the job goes
//!   back to pending for the next claimant, which resumes from the
//!   checkpoint the dead worker left behind. Time is an explicit
//!   parameter everywhere, so the whole reassignment machinery is
//!   deterministic under test.

use crate::campaign::CampaignJob;
use crate::record::{Checkpoint, RecordError};
use std::fs;
use std::path::{Path, PathBuf};

/// A directory of per-job checkpoint files shared by every worker of a
/// campaign (same fingerprint guard and atomic fsync'd writes as a
/// standalone harness — see [`Checkpoint::save`]).
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    dir: PathBuf,
}

impl CheckpointStore {
    /// Open (creating if needed) the store directory.
    pub fn open(dir: impl Into<PathBuf>) -> Result<CheckpointStore, RecordError> {
        let dir: PathBuf = dir.into();
        fs::create_dir_all(&dir).map_err(|e| RecordError::Io {
            path: dir.clone(),
            msg: e.to_string(),
        })?;
        Ok(CheckpointStore { dir })
    }

    /// The checkpoint file of `job` inside this store.
    #[must_use]
    pub fn path_for(&self, job: &CampaignJob) -> PathBuf {
        self.dir.join(job.checkpoint_name())
    }

    /// If the file at `path` exists but does not parse as a checkpoint —
    /// torn write, truncation, bit rot — delete it and return `true`.
    /// A *valid* checkpoint (or a missing file) returns `false`;
    /// unreadable-file I/O errors propagate. A fingerprint stored-vs-
    /// computed mismatch inside the file is treated as corruption too:
    /// the self-check failed, so the data cannot be trusted to resume.
    pub fn discard_if_corrupt(path: &Path) -> Result<bool, RecordError> {
        if !path.exists() {
            return Ok(false);
        }
        match Checkpoint::load(path) {
            Ok(_) => Ok(false),
            Err(RecordError::Io { .. }) => {
                // Could not even read the bytes; surface it rather than
                // guessing.
                Err(RecordError::Io {
                    path: path.to_path_buf(),
                    msg: "unreadable checkpoint".into(),
                })
            }
            Err(_) => {
                fs::remove_file(path).map_err(|e| RecordError::Io {
                    path: path.to_path_buf(),
                    msg: e.to_string(),
                })?;
                Ok(true)
            }
        }
    }

    /// Sanitize the whole store for `jobs`: every corrupt checkpoint is
    /// deleted (its job will resweep from scratch). Returns the discarded
    /// paths.
    pub fn sanitize(&self, jobs: &[CampaignJob]) -> Result<Vec<PathBuf>, RecordError> {
        let mut discarded = Vec::new();
        for job in jobs {
            let path = self.path_for(job);
            if CheckpointStore::discard_if_corrupt(&path)? {
                discarded.push(path);
            }
        }
        Ok(discarded)
    }
}

/// Lifecycle of one queued job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LeaseState {
    /// Unclaimed (fresh, or returned by a lapsed lease).
    Pending,
    /// Claimed by `worker`; the lease lapses at `deadline_ms` unless the
    /// job completes or the worker's connection drops first.
    Leased { worker: u64, deadline_ms: u64 },
    /// Finished; terminal.
    Done,
}

/// Deadline-leased job queue. All methods take explicit `now_ms` time, so
/// expiry is driven by the caller's clock — the server's wall clock in
/// production, a scripted timeline in tests.
#[derive(Debug, Clone)]
pub struct JobQueue {
    jobs: Vec<CampaignJob>,
    states: Vec<LeaseState>,
    /// Times each job has been assigned (1 = never reassigned).
    assignments: Vec<u32>,
    lease_ms: u64,
}

impl JobQueue {
    #[must_use]
    pub fn new(jobs: Vec<CampaignJob>, lease_ms: u64) -> JobQueue {
        let n = jobs.len();
        JobQueue {
            jobs,
            states: vec![LeaseState::Pending; n],
            assignments: vec![0; n],
            lease_ms,
        }
    }

    #[must_use]
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    #[must_use]
    pub fn state(&self, idx: usize) -> LeaseState {
        self.states[idx]
    }

    /// How many times job `idx` has been handed to a worker.
    #[must_use]
    pub fn assignments(&self, idx: usize) -> u32 {
        self.assignments[idx]
    }

    /// Claim the lowest-index pending job for `worker`, leasing it until
    /// `now_ms + lease_ms`. Lowest-index-first keeps assignment
    /// deterministic given a claim order.
    pub fn claim(&mut self, worker: u64, now_ms: u64) -> Option<(usize, CampaignJob)> {
        let idx = self.states.iter().position(|s| *s == LeaseState::Pending)?;
        self.states[idx] = LeaseState::Leased {
            worker,
            deadline_ms: now_ms.saturating_add(self.lease_ms),
        };
        self.assignments[idx] += 1;
        Some((idx, self.jobs[idx]))
    }

    /// Mark `idx` done. Idempotent: completing an already-done job (a
    /// zombie worker finishing after its lease was reassigned) returns
    /// `false` and changes nothing — the first completion wins, which is
    /// sound because determinism makes every completion's record
    /// identical.
    pub fn complete(&mut self, idx: usize) -> bool {
        if self.states[idx] == LeaseState::Done {
            return false;
        }
        self.states[idx] = LeaseState::Done;
        true
    }

    /// Lapse every lease whose deadline has passed at `now_ms`; the jobs
    /// go back to pending. Returns `(job, worker)` per lapsed lease.
    pub fn expire(&mut self, now_ms: u64) -> Vec<(usize, u64)> {
        let mut lapsed = Vec::new();
        for (idx, state) in self.states.iter_mut().enumerate() {
            if let LeaseState::Leased {
                worker,
                deadline_ms,
            } = *state
            {
                if now_ms >= deadline_ms {
                    *state = LeaseState::Pending;
                    lapsed.push((idx, worker));
                }
            }
        }
        lapsed
    }

    /// Extend the lease on `idx` if (and only if) `worker` holds it: the
    /// progress heartbeat. The campaign server renews on every trace
    /// event a holder streams, so a *slow* worker keeps its job no matter
    /// how long the sweep runs, while a *hung* one — no events — still
    /// expires after `lease_ms`. Returns whether a lease was renewed.
    pub fn renew(&mut self, idx: usize, worker: u64, now_ms: u64) -> bool {
        if let LeaseState::Leased {
            worker: w,
            deadline_ms,
        } = &mut self.states[idx]
        {
            if *w == worker {
                *deadline_ms = now_ms.saturating_add(self.lease_ms);
                return true;
            }
        }
        false
    }

    /// Release job `idx`'s lease (a failed attempt the server wants to
    /// retry elsewhere); the job returns to pending for the next
    /// claimant. Pending and done jobs are untouched. Returns whether a
    /// lease was actually released.
    pub fn release(&mut self, idx: usize) -> bool {
        if matches!(self.states[idx], LeaseState::Leased { .. }) {
            self.states[idx] = LeaseState::Pending;
            return true;
        }
        false
    }

    /// Release every lease held by `worker` (its connection dropped);
    /// the jobs go back to pending immediately. Returns the released
    /// job indices.
    pub fn release_worker(&mut self, worker: u64) -> Vec<usize> {
        let mut released = Vec::new();
        for (idx, state) in self.states.iter_mut().enumerate() {
            if matches!(*state, LeaseState::Leased { worker: w, .. } if w == worker) {
                *state = LeaseState::Pending;
                released.push(idx);
            }
        }
        released
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{Harness, RecoveryPolicy};
    use crate::record::SweepOutcome;
    use crate::sweep::SweepConfig;
    use uvf_fpga::{Board, Millivolts, PlatformKind, Rail};

    fn jobs(n: usize) -> Vec<CampaignJob> {
        let kinds = PlatformKind::ALL;
        (0..n)
            .map(|i| {
                let kind = kinds[i % kinds.len()];
                let mut job = CampaignJob::new(kind, SweepConfig::quick(Rail::Vccbram, 2));
                job.chip_seed = Some(i as u64 + 1);
                job
            })
            .collect()
    }

    #[test]
    fn claims_are_exclusive_and_lowest_index_first() {
        let mut q = JobQueue::new(jobs(3), 1_000);
        let (a, _) = q.claim(1, 0).unwrap();
        let (b, _) = q.claim(2, 0).unwrap();
        let (c, _) = q.claim(3, 0).unwrap();
        assert_eq!((a, b, c), (0, 1, 2));
        assert!(q.claim(4, 0).is_none(), "no pending jobs left");
        assert_eq!(q.assignments(0), 1);
    }

    #[test]
    fn expiry_returns_jobs_to_pending_for_reassignment() {
        let mut q = JobQueue::new(jobs(2), 1_000);
        q.claim(1, 0).unwrap();
        q.claim(2, 0).unwrap();
        assert!(q.expire(999).is_empty(), "leases still live");
        let lapsed = q.expire(1_000);
        assert_eq!(lapsed, vec![(0, 1), (1, 2)]);
        // Reassigned to a new worker, counting the reassignment.
        let (idx, _) = q.claim(3, 1_000).unwrap();
        assert_eq!(idx, 0);
        assert_eq!(q.assignments(0), 2);
    }

    #[test]
    fn worker_release_is_immediate_and_scoped_to_the_worker() {
        let mut q = JobQueue::new(jobs(3), 1_000_000);
        q.claim(7, 0).unwrap();
        q.claim(8, 0).unwrap();
        q.claim(7, 0).unwrap();
        assert_eq!(q.release_worker(7), vec![0, 2]);
        assert_eq!(
            q.state(1),
            LeaseState::Leased {
                worker: 8,
                deadline_ms: 1_000_000
            },
            "other worker's lease untouched"
        );
    }

    #[test]
    fn renewal_is_holder_only_and_pushes_the_deadline() {
        let mut q = JobQueue::new(jobs(1), 1_000);
        let (idx, _) = q.claim(7, 0).unwrap();
        assert!(!q.renew(idx, 8, 500), "non-holders cannot renew");
        assert!(q.renew(idx, 7, 500), "holder heartbeat renews");
        assert!(q.expire(1_000).is_empty(), "old deadline superseded");
        let lapsed = q.expire(1_500);
        assert_eq!(lapsed, vec![(idx, 7)], "renewed lease expires later");
        assert!(
            !q.renew(idx, 7, 2_000),
            "pending jobs have nothing to renew"
        );
    }

    #[test]
    fn single_job_release_returns_lease_to_pending() {
        let mut q = JobQueue::new(jobs(2), 1_000);
        let (a, _) = q.claim(1, 0).unwrap();
        assert!(q.release(a));
        assert_eq!(q.state(a), LeaseState::Pending);
        assert!(!q.release(a), "pending jobs have no lease");
        let (b, _) = q.claim(2, 0).unwrap();
        assert_eq!(b, a, "released job is reclaimable");
        q.complete(b);
        assert!(!q.release(b), "done jobs stay done");
        assert_eq!(q.state(b), LeaseState::Done);
    }

    #[test]
    fn complete_is_idempotent_and_drives_all_done() {
        let mut q = JobQueue::new(jobs(2), 1_000);
        let (a, _) = q.claim(1, 0).unwrap();
        assert!(q.complete(a));
        assert!(!q.complete(a), "second completion is a no-op");
        let (b, _) = q.claim(1, 0).unwrap();
        assert!(q.complete(b));
        assert_eq!([q.state(a), q.state(b)], [LeaseState::Done; 2]);
        // Done jobs never expire back to pending.
        assert!(q.expire(u64::MAX).is_empty());
    }

    #[test]
    fn store_discards_torn_checkpoints_and_keeps_valid_ones() {
        let dir = std::env::temp_dir().join(format!("uvf-store-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let store = CheckpointStore::open(&dir).unwrap();
        let job_list = jobs(2);

        // Job 0: a valid checkpoint from a real (partial) sweep.
        let platform = job_list[0].kind.descriptor();
        let cfg = SweepConfig::builder(Rail::Vccbram)
            .runs(2)
            .start(Millivolts(platform.vccbram.vmin.0 + 20))
            .build();
        let mut job0 = job_list[0];
        job0.cfg = cfg;
        let board = Board::with_chip_seed(platform, 1);
        let mut h = Harness::new(board, cfg, RecoveryPolicy::default())
            .unwrap()
            .with_checkpoint_path(store.path_for(&job0))
            .unwrap();
        h.run_budgeted(3).unwrap();

        // Job 1: a torn write — valid prefix, truncated mid-JSON.
        let torn = store.path_for(&job_list[1]);
        let valid = std::fs::read_to_string(store.path_for(&job0)).unwrap();
        std::fs::write(&torn, &valid[..valid.len() / 2]).unwrap();

        let discarded = store.sanitize(&[job0, job_list[1]]).unwrap();
        assert_eq!(discarded, vec![torn.clone()]);
        assert!(!torn.exists(), "torn checkpoint deleted");
        assert!(store.path_for(&job0).exists(), "valid checkpoint kept");

        // The resweep after discard is bit-identical to an uninterrupted
        // sweep (nothing of the torn file survives).
        let outcome = h.run().unwrap();
        assert!(matches!(outcome, SweepOutcome::CrashFound { .. }));
        std::fs::remove_dir_all(&dir).ok();
    }
}
