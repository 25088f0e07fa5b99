//! Chaos tests for the campaign server: real worker *processes* on a real
//! socket, SIGKILLed at job boundaries and mid-job, hung mid-lease — and
//! the merged campaign still byte-identical to the in-process baseline.
//!
//! These tests exercise the whole tentpole path end to end:
//!
//! * workers are the actual `uvf-serve-worker` binary, spawned and
//!   SIGKILLed by the [`Supervisor`];
//! * kill timing is driven by *observed* server state (a job-boundary
//!   kill right after a completion, a mid-job kill after a jittered
//!   delay), so the test stays meaningful across machine speeds;
//! * recovery is asserted twice over — as bytes (records, checkpoint
//!   contents, manifest equal to [`Campaign::run_sequential`]) and as
//!   *ordered trace events* (worker lost / lease expired → reassigned →
//!   checkpoint loaded).

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use uvf_characterize::prelude::*;
use uvf_characterize::record::Checkpoint;
use uvf_faults::FaultModel;
use uvf_fpga::seedmix::mix;
use uvf_fpga::{Millivolts, PlatformKind, Rail};
use uvf_serve::{
    CampaignServer, Endpoint, Message, ServerConfig, ServerHandle, Subscription, Supervisor,
};
use uvf_trace::Event;

const WORKER_BIN: &str = env!("CARGO_BIN_EXE_uvf-serve-worker");

/// Six jobs: the paper's four boards plus two extra VC707 dies, so the
/// queue is deeper than the worker fleet and kills always land while
/// work remains.
fn campaign_jobs() -> Vec<CampaignJob> {
    let mut jobs = Vec::new();
    for kind in PlatformKind::ALL {
        jobs.push(CampaignJob::new(kind, quick_cfg(kind)));
    }
    for seed in [77, 78] {
        let mut job = CampaignJob::new(PlatformKind::Vc707, quick_cfg(PlatformKind::Vc707));
        job.chip_seed = Some(seed);
        jobs.push(job);
    }
    jobs
}

fn quick_cfg(kind: PlatformKind) -> SweepConfig {
    SweepConfig::builder(Rail::Vccbram)
        .runs(2)
        .start(Millivolts(kind.descriptor().vccbram.vmin.0 + 20))
        .build()
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("uvf-serve-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The single-process answer every distributed run must reproduce.
fn baseline(jobs: &[CampaignJob], checkpoint_dir: &Path) -> Vec<CampaignEntry> {
    let mut campaign = Campaign::new(RecoveryPolicy::default()).with_checkpoint_dir(checkpoint_dir);
    for job in jobs {
        campaign.push(*job);
    }
    campaign.run_sequential().unwrap()
}

fn wait_until(
    handle: &ServerHandle,
    deadline: Duration,
    mut cond: impl FnMut() -> bool,
    what: &str,
) {
    let start = Instant::now();
    while !cond() {
        assert!(
            start.elapsed() < deadline,
            "timed out waiting for {what}; snapshot: {:?}",
            handle.snapshot()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn assert_entries_match(label: &str, expected: &[CampaignEntry], got: &[CampaignEntry]) {
    assert_eq!(expected.len(), got.len(), "{label}: entry count");
    for (e, g) in expected.iter().zip(got) {
        assert_eq!(
            e.record.to_json_string(),
            g.record.to_json_string(),
            "{label}: {:?} record bytes",
            e.job.kind
        );
        assert_eq!(e.record.fingerprint(), g.record.fingerprint());
        assert_eq!(
            e.sim_ms, g.sim_ms,
            "{label}: {:?} simulated time",
            e.job.kind
        );
        assert_eq!(e.outcome, g.outcome);
    }
}

/// One `GET /metrics` scrape against the server's std-only endpoint.
fn http_get_metrics(addr: std::net::SocketAddr) -> String {
    use std::io::{Read as _, Write as _};
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    write!(stream, "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    let (head, body) = response.split_once("\r\n\r\n").expect("http response head");
    assert!(head.starts_with("HTTP/1.1 200"), "metrics scrape: {head}");
    body.to_string()
}

/// Find `name` with field `job == want_job` at/after `from`; returns the
/// position after the match.
fn find_event(events: &[Event], from: usize, name: &str, want_job: u64) -> Option<usize> {
    events[from..]
        .iter()
        .position(|e| {
            e.name == name && e.field("job").and_then(uvf_trace::Value::as_u64) == Some(want_job)
        })
        .map(|p| from + p + 1)
}

#[test]
fn distributed_campaign_matches_in_process_bytes() {
    let jobs = campaign_jobs();
    let base_dir = scratch_dir("base-clean");
    let expected = baseline(&jobs, &base_dir);
    let manifest_expected = CampaignManifest::from_entries(&expected).to_json_string();

    for (tag, endpoint) in [
        (
            "unix",
            Endpoint::Unix(
                std::env::temp_dir().join(format!("uvf-clean-{}.sock", std::process::id())),
            ),
        ),
        ("tcp", Endpoint::Tcp("127.0.0.1:0".into())),
    ] {
        let dir = scratch_dir(&format!("dist-clean-{tag}"));
        let mut config = ServerConfig::new(jobs.clone(), RecoveryPolicy::default(), endpoint);
        config.checkpoint_dir = Some(dir.clone());
        config.lease_ms = 30_000;
        config.metrics_addr = Some("127.0.0.1:0".into());
        let handle = CampaignServer::start(config).unwrap();
        // A deliberately starved subscriber: a 2-event queue against
        // multi-event publication blocks guarantees overflow. It must lag
        // visibly (accounted drops) and perturb nothing.
        let lagging = Subscription::open(handle.endpoint(), 0, 2).unwrap();
        let mut fleet = Supervisor::new(
            WORKER_BIN,
            vec!["--endpoint".into(), handle.endpoint().to_string()],
        );
        fleet.spawn(2).unwrap();
        wait_until(
            &handle,
            Duration::from_secs(120),
            || handle.snapshot().jobs_done == jobs.len(),
            "clean 2-worker campaign",
        );
        // Scrape the fleet exposition after the last completion: strictly
        // valid text format, and the server-level counters reflect the
        // whole campaign.
        let metrics = http_get_metrics(handle.metrics_addr().unwrap());
        uvf_trace::parse_exposition(&metrics).expect("fleet exposition parses strictly");
        assert!(
            metrics.contains(&format!("uvf_jobs_done_total {}\n", jobs.len())),
            "{tag}: every job counted done:\n{metrics}"
        );
        assert!(
            metrics.contains("uvf_worker_liveness{worker="),
            "{tag}: per-worker liveness gauges present"
        );
        assert!(
            metrics.contains("uvf_subscriber_lagged_total"),
            "{tag}: lag accounting series present"
        );
        let result = handle.join().unwrap();
        fleet.shutdown();
        let (lag_lines, lag_dropped) = lagging.drain().unwrap();
        assert!(lag_dropped > 0, "{tag}: starved subscriber lags visibly");
        assert_eq!(
            lag_lines.len() as u64 + lag_dropped,
            result.events.len() as u64,
            "{tag}: every published event was delivered or accounted dropped"
        );
        assert_entries_match(tag, &expected, &result.entries);
        assert_eq!(
            result.manifest.to_json_string(),
            manifest_expected,
            "{tag}: manifest bytes"
        );
        assert!(
            result.events.iter().any(|e| e.name == "job_done"),
            "{tag}: lifecycle events present"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
    std::fs::remove_dir_all(&base_dir).ok();
}

#[test]
fn sigkilled_and_hung_workers_recover_to_identical_bytes() {
    let jobs = campaign_jobs();
    let base_dir = scratch_dir("base-chaos");
    let expected = baseline(&jobs, &base_dir);
    let manifest_expected = CampaignManifest::from_entries(&expected).to_json_string();

    let dist_dir = scratch_dir("dist-chaos");
    // Pre-seed job 0 with a *partial* checkpoint, as if an earlier worker
    // died three runs in: the job's eventual owner must visibly resume
    // from it (`checkpoint_loaded`) and still match the from-scratch
    // baseline bytes.
    {
        let job0 = jobs[0];
        let mut h = Harness::new(job0.board(), job0.cfg, RecoveryPolicy::default())
            .unwrap()
            .with_checkpoint_path(dist_dir.join(job0.checkpoint_name()))
            .unwrap();
        h.run_budgeted(3).unwrap();
    }

    let sock = std::env::temp_dir().join(format!("uvf-chaos-{}.sock", std::process::id()));
    let mut config = ServerConfig::new(
        jobs.clone(),
        RecoveryPolicy::default(),
        Endpoint::Unix(sock),
    );
    config.checkpoint_dir = Some(dist_dir.clone());
    // Short lease so the hung worker's job is reassigned quickly; live
    // workers renew via the event heartbeat, so a short lease never
    // expires a *working* job.
    config.lease_ms = 1_200;
    let handle = CampaignServer::start(config).unwrap();
    let endpoint_arg = handle.endpoint().to_string();

    // A keeping-up subscriber tails the whole campaign through every
    // SIGKILL, hang and reassignment; what it records must be
    // byte-identical to the post-run merged event log.
    let tail_endpoint = handle.endpoint().clone();
    let tail = std::thread::spawn(move || {
        Subscription::open(&tail_endpoint, 0, 0)
            .unwrap()
            .drain()
            .unwrap()
    });

    // A worker that claims a job and hangs forever — the lease-expiry
    // path (its socket stays open, so only the deadline can free job 0).
    let mut hung = Supervisor::new(
        WORKER_BIN,
        vec!["--endpoint".into(), endpoint_arg.clone(), "--hang".into()],
    );
    hung.spawn(1).unwrap();
    wait_until(
        &handle,
        Duration::from_secs(60),
        || handle.snapshot().assignments.first() == Some(&1),
        "hung worker to claim job 0",
    );

    // Two real workers, throttled so jobs are slow and kills land inside
    // them; every chunk pause writes a checkpoint for the successor.
    let mut fleet = Supervisor::new(
        WORKER_BIN,
        vec![
            "--endpoint".into(),
            endpoint_arg,
            "--throttle-ms".into(),
            "50".into(),
            "--chunk-runs".into(),
            "2".into(),
        ],
    );
    fleet.spawn(2).unwrap();

    // Kill #1 at a job boundary: the moment a completion is observed.
    wait_until(
        &handle,
        Duration::from_secs(120),
        || {
            let s = handle.snapshot();
            s.jobs_done >= 1 && s.jobs_leased >= 2
        },
        "first completion with live leases",
    );
    fleet.kill(0).unwrap();
    fleet.restart_dead().unwrap();

    // Kill #2 mid-job: wait for progress, then a jittered delay into the
    // victim's current job (jobs take ~500 ms under this throttle).
    wait_until(
        &handle,
        Duration::from_secs(120),
        || {
            let s = handle.snapshot();
            s.jobs_done >= 2 && s.jobs_leased >= 2
        },
        "second completion with live leases",
    );
    let jitter_ms = 60 + mix(&[u64::from(std::process::id())]) % 100;
    std::thread::sleep(Duration::from_millis(jitter_ms));
    fleet.kill(1).unwrap();
    fleet.restart_dead().unwrap();

    wait_until(
        &handle,
        Duration::from_secs(120),
        || handle.snapshot().jobs_done == jobs.len(),
        "chaos campaign to finish",
    );
    let final_snapshot = handle.snapshot();
    let result = handle.join().unwrap();
    hung.shutdown();
    fleet.shutdown();

    // 1. Bytes: records, fingerprints, simulated time, manifest — all
    //    identical to the single-process baseline.
    assert_entries_match("chaos", &expected, &result.entries);
    assert_eq!(
        result.manifest.to_json_string(),
        manifest_expected,
        "chaos manifest bytes"
    );

    // 2. Checkpoints: both directories hold equivalent finished state per
    //    job (same fingerprint, same record bytes), however many hands
    //    each file passed through.
    for job in &jobs {
        let a = Checkpoint::load(&base_dir.join(job.checkpoint_name())).unwrap();
        let b = Checkpoint::load(&dist_dir.join(job.checkpoint_name())).unwrap();
        assert_eq!(a.record.fingerprint(), b.record.fingerprint());
        assert_eq!(
            a.record.to_json_string(),
            b.record.to_json_string(),
            "{:?} checkpoint bytes",
            job.kind
        );
    }

    // 3. The recovery machinery demonstrably ran.
    assert!(
        final_snapshot.assignments.iter().any(|&a| a >= 2),
        "at least one job was reassigned: {final_snapshot:?}"
    );
    assert!(
        final_snapshot.workers_seen >= 4,
        "hung + 2 killed + replacements"
    );
    assert!(final_snapshot.failed.is_empty());

    // 4. Recovery as *ordered* events. The merged log is grouped by job,
    //    so job 0's region runs from the start to job 1's first event.
    //    Job 0 (hung worker, pre-seeded checkpoint) must read: claimed →
    //    lease expired → reassigned → checkpoint loaded → done.
    let events = &result.events;
    let job0_end = events
        .iter()
        .position(|e| e.field("job").and_then(uvf_trace::Value::as_u64) == Some(1))
        .unwrap_or(events.len());
    let job0 = &events[..job0_end];
    let mut cursor = 0;
    for name in [
        "job_claimed",
        "lease_expired",
        "job_reassigned",
        "checkpoint_loaded",
        "job_done",
    ] {
        cursor = job0[cursor..]
            .iter()
            .position(|e| e.name == name)
            .map(|p| cursor + p + 1)
            .unwrap_or_else(|| {
                panic!(
                    "job 0 recovery sequence missing {name:?}; got {:?}",
                    job0.iter().map(|e| e.name.as_ref()).collect::<Vec<_>>()
                )
            });
    }

    // A SIGKILLed worker shows up as a connection drop: worker lost →
    // same job reassigned, in order.
    let lost = events
        .iter()
        .enumerate()
        .filter_map(|(i, e)| {
            (e.name == "worker_lost")
                .then(|| {
                    e.field("job")
                        .and_then(uvf_trace::Value::as_u64)
                        .map(|j| (i, j))
                })
                .flatten()
        })
        .collect::<Vec<_>>();
    assert!(!lost.is_empty(), "SIGKILL visible as worker_lost");
    assert!(
        lost.iter()
            .any(|&(i, j)| find_event(events, i + 1, "job_reassigned", j).is_some()),
        "a lost worker's job was reassigned after the loss"
    );

    // 5. The live subscriber recorded the merged log, byte for byte —
    //    kills and reassignment included — without lagging.
    let (streamed, dropped) = tail.join().unwrap();
    assert_eq!(dropped, 0, "default queue bound keeps up with this fleet");
    let merged: Vec<String> = events.iter().map(Event::to_jsonl).collect();
    assert_eq!(
        streamed, merged,
        "subscriber stream is byte-identical to the merged event log"
    );

    // 6. Dead workers left flight-recorder tails for post-mortem: bounded
    //    JSONL of their last streamed events.
    let tails: Vec<PathBuf> = std::fs::read_dir(&dist_dir)
        .unwrap()
        .filter_map(|e| {
            let path = e.unwrap().path();
            path.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("crash_tail_worker") && n.ends_with(".jsonl"))
                .then_some(path)
        })
        .collect();
    assert!(!tails.is_empty(), "SIGKILLed workers leave crash tails");
    for tail_path in &tails {
        let text = std::fs::read_to_string(tail_path).unwrap();
        assert!(!text.is_empty());
        for line in text.lines() {
            Event::parse_jsonl(line).unwrap_or_else(|e| {
                panic!("crash tail {} line unparseable: {e}", tail_path.display())
            });
        }
    }

    std::fs::remove_dir_all(&base_dir).ok();
    std::fs::remove_dir_all(&dist_dir).ok();
}

/// The ladder level plan and the FVM cache are pure perf machinery: every
/// run of an in-process baseline equals a per-run [`Probe::sample`] scan,
/// a distributed campaign (models served from the process-wide cache)
/// merges to the baseline's manifest bytes, and census queries answered
/// mid-campaign match a from-scratch capture byte-for-byte.
#[test]
fn ladder_engine_and_fvm_cache_preserve_merged_manifest_bytes() {
    let jobs = campaign_jobs();
    let base_dir = scratch_dir("base-ladder");
    let mut campaign = Campaign::new(RecoveryPolicy::default()).with_checkpoint_dir(&base_dir);
    for job in &jobs {
        campaign.push(*job);
    }
    let expected = campaign.run_sequential().unwrap();
    for CampaignEntry { job, record, .. } in &expected {
        let model = FaultModel::with_chip_seed(job.kind.descriptor(), job.seed());
        let mut board = job.board();
        Probe::Bram.arm(&mut board, job.cfg.pattern).unwrap();
        for (level, r) in record
            .levels
            .iter()
            .flat_map(|l| l.runs.iter().map(move |r| (l, r)))
        {
            let v = Millivolts(level.v_mv);
            let oracle = Probe::Bram.sample(&board, &model, &job.cfg, v, r.run);
            assert_eq!(Ok(r.faults), oracle, "{job:?} at {v} run {}", r.run);
        }
    }
    let manifest_expected = CampaignManifest::from_entries(&expected).to_json_string();

    let dir = scratch_dir("dist-ladder");
    let sock = std::env::temp_dir().join(format!("uvf-ladder-{}.sock", std::process::id()));
    let mut config = ServerConfig::new(
        jobs.clone(),
        RecoveryPolicy::default(),
        Endpoint::Unix(sock),
    );
    config.checkpoint_dir = Some(dir.clone());
    let handle = CampaignServer::start(config).unwrap();

    // Query the server-side cache while the campaign is live: twice per
    // die, so the second answer is a guaranteed map-cache hit — and both
    // answers must equal an independent from-scratch census. The baseline
    // above already holds every campaign die in the global cache, so no
    // thread in this binary can miss between the two rounds: the repeat
    // query must add a hit and no miss, which a map LRU that never hits
    // (a map miss answered from the cached die) would fail.
    let mut conn = handle.endpoint().connect().unwrap();
    for job in &jobs[..2] {
        let p = job.kind.descriptor();
        let chip_seed = job.chip_seed.unwrap_or(p.default_chip_seed);
        let query = Message::GetFvm {
            platform: job.kind,
            chip_seed,
            temp_mc: 25_000,
            v_ref_mv: p.vccbram.vcrash.0,
        };
        let fresh = uvf_characterize::record::FvmRecord::capture(
            &FvmCache::new(1, 1).model(p, chip_seed),
            p.vccbram.vcrash,
        )
        .to_json()
        .to_string();
        let mut counts = (0, 0);
        for round in 0..2 {
            if round == 1 {
                counts = (FvmCache::global().hits(), FvmCache::global().misses());
            }
            query.write_to(&mut conn.writer).unwrap();
            match Message::read_from(&mut conn.reader).unwrap() {
                Some(Message::Fvm { record }) => {
                    assert_eq!(record, fresh, "{:?} round {round}: served census", job.kind);
                }
                other => panic!("expected Fvm reply, got {other:?}"),
            }
        }
        assert!(
            FvmCache::global().hits() > counts.0,
            "{:?}: a repeat census query must hit the server cache",
            job.kind
        );
        assert_eq!(
            FvmCache::global().misses(),
            counts.1,
            "{:?}: a repeat census query must not miss",
            job.kind
        );
    }
    drop(conn);

    let mut fleet = Supervisor::new(
        WORKER_BIN,
        vec!["--endpoint".into(), handle.endpoint().to_string()],
    );
    fleet.spawn(2).unwrap();
    wait_until(
        &handle,
        Duration::from_secs(120),
        || handle.snapshot().jobs_done == jobs.len(),
        "ladder campaign",
    );
    let result = handle.join().unwrap();
    fleet.shutdown();

    assert_entries_match("ladder", &expected, &result.entries);
    assert_eq!(
        result.manifest.to_json_string(),
        manifest_expected,
        "ladder-engine merged manifest bytes"
    );
    std::fs::remove_dir_all(&base_dir).ok();
    std::fs::remove_dir_all(&dir).ok();
}
