//! A worker coalesces its event frames, yet a slow job still holds a short
//! lease: the worker flushes its buffer at every throttle pause (and
//! whenever an event comes 50 ms or more after the last flush, which the
//! worker's unit tests pin), and each flushed event renews the lease. The
//! job here runs several lease lengths; it must be assigned once, never
//! expire, deliver a chunk's events before the pause that follows it,
//! and stream a log the subscriber records byte for byte.

use std::sync::Arc;
use std::time::{Duration, Instant};
use uvf_characterize::prelude::*;
use uvf_fpga::{Millivolts, PlatformKind, Rail};
use uvf_serve::{
    run_worker, CampaignServer, Endpoint, ServerConfig, ServerHandle, Subscription, WorkerOptions,
};
use uvf_trace::{Event, EventKind, MemorySink, Tracer};

/// Two and a half throttle pauses: a worker heard from only after each
/// pause still keeps it, one heard from less often does not.
const LEASE_MS: u64 = 300;
const THROTTLE_MS: u64 = 120;

fn wait_for(what: &str, mut cond: impl FnMut() -> bool) -> Instant {
    let start = Instant::now();
    while !cond() {
        assert!(
            start.elapsed() < Duration::from_secs(30),
            "timed out waiting for {what}"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    Instant::now()
}

/// Event frames the server has taken from the lease holder.
fn renewals(handle: &ServerHandle) -> u64 {
    let counters = handle.observatory().metrics().counters();
    counters.get("lease_renewals").copied().unwrap_or(0)
}

#[test]
fn throttled_worker_keeps_a_short_lease_through_coalesced_events() {
    let kind = PlatformKind::Zc702;
    let cfg = SweepConfig::builder(Rail::Vccbram)
        .runs(2)
        .start(Millivolts(kind.descriptor().vccbram.vmin.0 + 20))
        .build();
    let job = CampaignJob::new(kind, cfg);
    // The in-process answer. Running it also caches the die, so the
    // worker's first chunk starts at once.
    let mut campaign = Campaign::new(RecoveryPolicy::default());
    campaign.push(job);
    let expected = campaign.run_sequential().unwrap();
    let runs: usize = expected[0].record.levels.iter().map(|l| l.runs.len()).sum();
    assert!(
        runs as u64 * THROTTLE_MS > 3 * LEASE_MS,
        "the job must outlast the lease several times over ({runs} runs)"
    );
    // The events the worker emits before its first pause: the same
    // harness, traced, run for one one-run chunk.
    let first_chunk = {
        let ring = Arc::new(MemorySink::new(1 << 12));
        let tracer = Tracer::builder().sink(ring.clone()).build();
        let mut harness = Harness::new(job.board(), cfg, RecoveryPolicy::default())
            .unwrap()
            .with_tracer(tracer);
        harness.run_budgeted(1).unwrap();
        let events = ring.events();
        events
            .iter()
            .filter(|e| !matches!(e.kind, EventKind::Timing { .. }))
            .count() as u64
    };
    assert!(first_chunk > 0);

    let sock = std::env::temp_dir().join(format!("uvf-heartbeat-{}.sock", std::process::id()));
    let mut config = ServerConfig::new(vec![job], RecoveryPolicy::default(), Endpoint::Unix(sock));
    config.lease_ms = LEASE_MS;
    let handle = CampaignServer::start(config).unwrap();
    let endpoint = handle.endpoint().clone();
    let tail = {
        let endpoint = endpoint.clone();
        std::thread::spawn(move || {
            Subscription::open(&endpoint, 0, 0)
                .unwrap()
                .drain()
                .unwrap()
        })
    };
    wait_for("the subscriber", || handle.subscriber_count() == 1);

    let mut opts = WorkerOptions::new(endpoint);
    opts.throttle_ms = THROTTLE_MS;
    opts.chunk_runs = 1;
    let started = Instant::now();
    let worker = std::thread::spawn(move || run_worker(&opts));
    // The first chunk's events arrive together at its pause, and nothing
    // more until the pause is over.
    let arrived = wait_for("the first chunk", || renewals(&handle) >= first_chunk);
    assert_eq!(
        renewals(&handle),
        first_chunk,
        "the pause flush delivers exactly the first chunk's events"
    );
    let next = wait_for("the second chunk", || renewals(&handle) > first_chunk);
    assert!(
        next - arrived >= Duration::from_millis(THROTTLE_MS / 2),
        "the first chunk's events arrived {:?} before the next one's, not a pause earlier",
        next - arrived
    );
    worker.join().unwrap().unwrap();
    let elapsed = started.elapsed();
    let snapshot = handle.snapshot();
    let result = handle.join().unwrap();
    let (streamed, dropped) = tail.join().unwrap();

    assert!(
        elapsed > Duration::from_millis(3 * LEASE_MS),
        "the job ran {elapsed:?}, not several leases"
    );
    assert_eq!(snapshot.assignments, vec![1], "assigned exactly once");
    let names: Vec<&str> = result.events.iter().map(|e| e.name.as_ref()).collect();
    assert!(
        !names.contains(&"lease_expired"),
        "a flushing worker never loses its lease: {names:?}"
    );
    assert_eq!(
        result.entries[0].record.to_json_string(),
        expected[0].record.to_json_string(),
        "record bytes"
    );
    assert_eq!(dropped, 0);
    let merged: Vec<String> = result.events.iter().map(Event::to_jsonl).collect();
    assert_eq!(
        streamed, merged,
        "subscriber stream is byte-identical to the merged event log"
    );
}
