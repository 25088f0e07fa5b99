//! The server believes a job frame only from a peer entitled to send it.
//! A frame naming a job past the campaign drops the peer (and nothing
//! else: the campaign still completes), and a worker whose lease lapsed
//! has its `JobDone` and `JobFailed` ignored, like its events. The peers
//! here are driven by hand over a raw connection.

use std::time::{Duration, Instant};
use uvf_characterize::prelude::*;
use uvf_fpga::{Millivolts, PlatformKind, Rail};
use uvf_serve::{
    run_worker, CampaignServer, Conn, Endpoint, Message, ServerConfig, ServerHandle, ServerResult,
    WorkerOptions,
};

/// Long enough for a hand-driven exchange, short enough to wait out.
const LEASE_MS: u64 = 300;

fn job() -> CampaignJob {
    let kind = PlatformKind::Zc702;
    let cfg = SweepConfig::builder(Rail::Vccbram)
        .runs(2)
        .start(Millivolts(kind.descriptor().vccbram.vmin.0 + 20))
        .build();
    CampaignJob::new(kind, cfg)
}

/// The in-process answer for [`job`].
fn expected() -> CampaignEntry {
    let mut campaign = Campaign::new(RecoveryPolicy::default());
    campaign.push(job());
    campaign.run_sequential().unwrap().remove(0)
}

fn start(name: &str, lease_ms: u64) -> ServerHandle {
    let sock = std::env::temp_dir().join(format!("uvf-{name}-{}.sock", std::process::id()));
    let mut config =
        ServerConfig::new(vec![job()], RecoveryPolicy::default(), Endpoint::Unix(sock));
    config.lease_ms = lease_ms;
    CampaignServer::start(config).unwrap()
}

fn wait_for(what: &str, mut cond: impl FnMut() -> bool) {
    let start = Instant::now();
    while !cond() {
        assert!(
            start.elapsed() < Duration::from_secs(30),
            "timed out waiting for {what}"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// A peer speaking the protocol frame by frame.
struct Peer(Conn);

impl Peer {
    fn connect(handle: &ServerHandle) -> Peer {
        Peer(handle.endpoint().connect().unwrap())
    }

    fn send(&mut self, msg: &Message) {
        msg.write_to(&mut self.0.writer).unwrap();
    }

    /// The next frame, or `None` once the server closed the connection.
    fn recv(&mut self) -> Option<Message> {
        Message::read_from(&mut self.0.reader).ok().flatten()
    }

    /// Claim the next job as `worker`; the server must assign job 0.
    fn claim(&mut self, worker: u64) {
        self.send(&Message::Hello { worker });
        self.send(&Message::JobRequest { worker });
        assert!(matches!(
            self.recv(),
            Some(Message::JobAssign { job: 0, .. })
        ));
    }

    /// Return once the server has handled every frame sent so far: a
    /// census query is answered in order with the frames before it.
    fn sync(&mut self) {
        let platform = PlatformKind::Zc702;
        self.send(&Message::GetFvm {
            platform,
            chip_seed: platform.descriptor().default_chip_seed,
            temp_mc: 25_000,
            v_ref_mv: platform.descriptor().vccbram.vcrash.0,
        });
        assert!(matches!(self.recv(), Some(Message::Fvm { .. })));
    }
}

/// Finish the campaign with a real worker and check it against the
/// in-process run.
fn finish(handle: ServerHandle, expected: &CampaignEntry) -> ServerResult {
    run_worker(&WorkerOptions::new(handle.endpoint().clone())).unwrap();
    let result = handle.join().unwrap();
    assert_eq!(
        result.entries[0].record.to_json_string(),
        expected.record.to_json_string(),
        "record bytes"
    );
    assert_eq!(result.entries[0].sim_ms, expected.sim_ms);
    result
}

fn names(result: &ServerResult) -> Vec<&str> {
    result.events.iter().map(|e| e.name.as_ref()).collect()
}

#[test]
fn out_of_range_job_frames_drop_the_peer_not_the_server() {
    let expected = expected();
    let handle = start("peer-range", 30_000);
    let mut peer = Peer::connect(&handle);
    peer.send(&Message::Hello { worker: 7 });
    peer.send(&Message::Event {
        job: 1,
        line: r#"{"seq":0,"kind":"instant","name":"x"}"#.into(),
    });
    peer.send(&Message::JobDone {
        job: usize::MAX,
        record: expected.record.to_json_string(),
        sim_ms: 0,
    });
    assert_eq!(peer.recv(), None, "the server drops the peer");
    let result = finish(handle, &expected);
    assert_eq!(names(&result)[0], "job_claimed");
}

#[test]
fn a_lapsed_workers_job_done_is_dropped() {
    let expected = expected();
    let handle = start("peer-done", LEASE_MS);
    let mut zombie = Peer::connect(&handle);
    zombie.claim(1);
    wait_for("the lease to lapse", || handle.snapshot().jobs_leased == 0);
    zombie.send(&Message::JobDone {
        job: 0,
        record: expected.record.to_json_string(),
        sim_ms: expected.sim_ms,
    });
    zombie.sync();
    assert_eq!(
        handle.snapshot().jobs_done,
        0,
        "a JobDone from a worker that no longer holds the lease"
    );
    drop(zombie);
    let result = finish(handle, &expected);
    // The job was finished by the worker that held it, so its own sweep
    // events sit between its claim and its completion.
    let names = names(&result);
    let claimed = names.iter().position(|n| *n == "job_reassigned").unwrap();
    let done = names.iter().position(|n| *n == "job_done").unwrap();
    assert!(done > claimed + 1, "{names:?}");
}

#[test]
fn a_lapsed_workers_job_failed_keeps_the_new_holders_lease() {
    let expected = expected();
    let handle = start("peer-failed", LEASE_MS);
    let mut zombie = Peer::connect(&handle);
    zombie.claim(1);
    wait_for("the lease to lapse", || handle.snapshot().jobs_leased == 0);
    let mut holder = Peer::connect(&handle);
    holder.claim(2);
    zombie.send(&Message::JobFailed {
        job: 0,
        error: "a zombie's failure".into(),
    });
    zombie.sync();
    // The holder finishes the job it still holds.
    holder.send(&Message::JobDone {
        job: 0,
        record: expected.record.to_json_string(),
        sim_ms: expected.sim_ms,
    });
    holder.sync();
    assert_eq!(handle.snapshot().assignments, vec![2]);
    drop((zombie, holder));
    let result = handle.join().unwrap();
    assert_eq!(result.entries[0].record, expected.record);
    let names = names(&result);
    assert!(
        !names.contains(&"job_attempt_failed"),
        "a lapsed worker's JobFailed counted: {names:?}"
    );
    assert_eq!(
        names.iter().filter(|n| **n == "lease_expired").count(),
        1,
        "{names:?}"
    );
}
