//! The campaign server: owns the job queue and checkpoint store, hands
//! leases to workers, survives their deaths, and merges their results
//! into the in-process [`Campaign`](uvf_characterize::Campaign)'s exact
//! bytes.
//!
//! ## Crash model
//!
//! A worker can fail three ways, and each maps to one recovery path:
//!
//! * **It dies** (SIGKILL, OOM, panic) — its socket closes; the
//!   connection thread releases every lease it held *immediately* and
//!   the jobs go back to pending.
//! * **It hangs** while its socket stays open — the supervision tick
//!   expires its lease at the deadline; the job goes back to pending.
//! * **It reports failure** ([`Message::JobFailed`]) — the job is
//!   retried on another worker, up to `max_assignments` total tries,
//!   after which the failure is permanent and surfaces in
//!   [`ServerHandle::join`].
//!
//! In every case the replacement worker resumes from the checkpoint the
//! predecessor left in the shared [`CheckpointStore`] — the identical
//! mechanism PR 1's harness uses for board crashes, lifted one level up.
//! When a worker dies holding a lease, the server also dumps that
//! worker's flight-recorder tail (its last K events) to a
//! `crash_tail_worker<id>.jsonl` for post-mortem. Workers coalesce their
//! event frames (see the lease heartbeat below), so a SIGKILLed worker's
//! tail may miss at most the events of its last 50 ms before the kill.
//!
//! ## The lease heartbeat
//!
//! Every event frame from the lease holder renews its lease. A worker
//! buffers its event frames and flushes them with each control frame
//! (`Hello`, `JobRequest`, `JobDone`, `JobFailed`), at every throttle
//! pause, and whenever an event is written 50 ms or more after the last
//! flush. So a job's events always precede its `JobDone`, and a sweep
//! that keeps emitting events is heard from about every 50 ms.
//!
//! ## Determinism
//!
//! Only the current lease holder's frames about a job count: a zombie
//! whose lease lapsed has its events, `JobDone` and `JobFailed` dropped,
//! so a finished job's log segment holds the finishing worker's own
//! events, and a zombie's failure cannot free the new holder's lease. A
//! frame naming a job past the campaign drops the peer, like a torn
//! frame. Completed records are deterministic per job (position-keyed
//! draws), so *which* holder finishes a job cannot change its bytes; the
//! server still verifies every incoming record's fingerprint against the
//! job's expected configuration before accepting it. Results are merged
//! in job order, making the final [`CampaignManifest`] byte-identical to
//! a single-process run's.
//!
//! ## The published log and subscribers
//!
//! Subscribers ([`Message::Subscribe`]) tail the server's *published*
//! merged event log: whenever the prefix of jobs `0..k` are all
//! terminal, their segments are renumbered with the exact rule
//! [`merge_event_streams`] applies post-run and appended to the log. A
//! job's segment list is immutable once the job is terminal (leases are
//! gone and zombie events are suppressed), so the published stream is
//! always a verbatim prefix of — and finally equal to — the post-run
//! merged log, even across SIGKILL-driven reassignment. The price is
//! that the live view trails the slowest unfinished *lead* job; the
//! payoff is that what a subscriber records is the manifest's log, byte
//! for byte. Each subscriber drains its own bounded queue from its own
//! writer thread — a slow observer loses old events (counted in
//! `uvf_subscriber_lagged_total`) and never stalls the job queue.

use crate::metrics_http::spawn_metrics_server;
use crate::observatory::{Flags, Observatory, Subscriber};
use crate::protocol::{BoundListener, Conn, Endpoint, Message};
use std::collections::HashSet;
use std::io::{self, Write};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use uvf_characterize::guardband::GuardbandReport;
use uvf_characterize::prelude::{
    CampaignEntry, CampaignJob, CampaignManifest, CheckpointStore, JobQueue, RecoveryPolicy,
    SweepRecord,
};
use uvf_characterize::record::RecordError;
use uvf_characterize::FvmCache;
use uvf_fpga::PlatformKind;
use uvf_trace::merge::{merge_event_streams, offset_event};
use uvf_trace::{Event, EventKind, Value};

/// Everything a campaign server needs to start.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    pub jobs: Vec<CampaignJob>,
    pub policy: RecoveryPolicy,
    /// Checkpoint directory shared with the workers (same host or shared
    /// filesystem); `None` disables checkpointing (kills then lose
    /// partial progress, but results stay correct).
    pub checkpoint_dir: Option<PathBuf>,
    pub endpoint: Endpoint,
    /// Per-job lease: a worker silent for this long loses the job.
    pub lease_ms: u64,
    /// Total assignment attempts per job before its failure is permanent.
    pub max_assignments: u32,
    /// Serve `GET /metrics` (fleet + server exposition) on this TCP
    /// address (`host:0` binds ephemerally; [`ServerHandle::metrics_addr`]
    /// reports the real port). `None` disables the endpoint.
    pub metrics_addr: Option<String>,
    /// Where dead workers' `crash_tail_worker<id>.jsonl` dumps land.
    /// Defaults to `checkpoint_dir`; `None` on both disables dumping.
    pub crash_dir: Option<PathBuf>,
    /// Default per-subscriber queue bound, in events. Generous by
    /// default so a keeping-up subscriber records the complete log.
    pub subscriber_queue_cap: usize,
    /// Per-worker flight-recorder ring size, in events.
    pub flight_recorder_cap: usize,
}

impl ServerConfig {
    #[must_use]
    pub fn new(jobs: Vec<CampaignJob>, policy: RecoveryPolicy, endpoint: Endpoint) -> ServerConfig {
        ServerConfig {
            jobs,
            policy,
            checkpoint_dir: None,
            endpoint,
            lease_ms: 30_000,
            max_assignments: 5,
            metrics_addr: None,
            crash_dir: None,
            subscriber_queue_cap: 1 << 16,
            flight_recorder_cap: 256,
        }
    }
}

/// Point-in-time progress view (for chaos harnesses and progress UIs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    pub jobs_total: usize,
    /// Jobs with an accepted record.
    pub jobs_done: usize,
    /// Per-job assignment counts (≥ 2 means the job was reassigned).
    pub assignments: Vec<u32>,
    /// Jobs currently out on a live lease.
    pub jobs_leased: usize,
    pub workers_seen: usize,
    /// Jobs whose failure is permanent, with the last error.
    pub failed: Vec<(usize, String)>,
}

/// What a finished campaign hands back.
#[derive(Debug, Clone)]
pub struct ServerResult {
    /// Per-job results in job order — same shape, same bytes as
    /// [`Campaign::run_sequential`](uvf_characterize::Campaign::run_sequential).
    pub entries: Vec<CampaignEntry>,
    /// The deterministic summary ([`CampaignManifest`]), byte-comparable
    /// against the in-process baseline.
    pub manifest: CampaignManifest,
    /// All trace events: per-job worker streams plus the server's
    /// lifecycle injections (lease expiry, reassignment), merged in job
    /// order with collision-free renumbering.
    pub events: Vec<Event>,
}

/// Server-side failure.
#[derive(Debug)]
pub enum ServeError {
    Io(io::Error),
    /// One or more jobs exhausted `max_assignments`.
    JobsFailed(Vec<(usize, String)>),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "server I/O: {e}"),
            ServeError::JobsFailed(jobs) => {
                write!(f, "{} job(s) failed permanently: ", jobs.len())?;
                for (idx, err) in jobs {
                    write!(f, "[job {idx}: {err}] ")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for ServeError {}

impl From<io::Error> for ServeError {
    fn from(e: io::Error) -> ServeError {
        ServeError::Io(e)
    }
}

/// Shared mutable server state: the queue plus per-job event segments.
///
/// Events are kept as *segments* — one per assignment, plus one-off
/// lifecycle injections — because each worker tracer numbers its stream
/// from zero. Merging segment-by-segment (in creation order, job by job)
/// renumbers everything into one gapless, collision-free log.
struct State {
    queue: JobQueue,
    /// `segments[job]` in creation order.
    segments: Vec<Vec<Vec<Event>>>,
    /// Accepted `(record, sim_ms)` per job.
    results: Vec<Option<(SweepRecord, u64)>>,
    /// Last error per permanently-failed job.
    permanent: Vec<Option<String>>,
    workers_seen: HashSet<u64>,
    max_assignments: u32,
    /// Metrics + crash-tail rings (internally locked; safe to poke while
    /// holding the state lock, never the other way around).
    obs: Arc<Observatory>,
    /// The live merged log: jobs `0..published_jobs` renumbered exactly
    /// as [`merge_event_streams`] will renumber them post-run.
    published: Vec<Event>,
    published_jobs: usize,
    /// Accumulated renumbering offset over the published segments.
    publish_offset: u64,
    subscribers: Vec<Arc<Subscriber>>,
    flags: Arc<Flags>,
    /// When each job last became claimable (campaign start, or its last
    /// release/expiry) — the queue-wait histogram's zero point.
    ready_ms: Vec<u64>,
    /// When the current assignment of each job was claimed.
    claim_ms: Vec<u64>,
}

impl State {
    /// Inject a server lifecycle event as its own single-event segment.
    fn inject(&mut self, job: usize, name: &'static str, fields: Vec<(&'static str, Value)>) {
        self.segments[job].push(vec![Event {
            seq: 0,
            kind: EventKind::Instant,
            name: name.into(),
            span: None,
            parent: None,
            sim_ms: None,
            wall_ns: None,
            fields: fields.into_iter().map(|(k, v)| (k.into(), v)).collect(),
        }]);
    }

    /// All jobs terminal (done or permanently failed)?
    fn finished(&self) -> bool {
        (0..self.queue.len()).all(|i| {
            self.results[i].is_some()
                || self.permanent[i].is_some()
                || self.queue.state(i) == uvf_characterize::store::LeaseState::Done
        })
    }

    fn release_worker(&mut self, worker: u64, now_ms: u64) {
        let released = self.queue.release_worker(worker);
        if released.is_empty() {
            // Clean exit (campaign over, nothing held): just the gauge.
            self.obs
                .metrics()
                .set_worker_gauge("worker_liveness", worker, 0);
        } else {
            // Died holding work: dump the flight tail for post-mortem.
            self.obs.worker_dead(worker);
        }
        for job in released {
            self.ready_ms[job] = now_ms;
            self.inject(
                job,
                "worker_lost",
                vec![("worker", worker.into()), ("job", job.into())],
            );
        }
    }

    fn expire_leases(&mut self, now_ms: u64) {
        for (job, worker) in self.queue.expire(now_ms) {
            self.ready_ms[job] = now_ms;
            self.obs.worker_dead(worker);
            self.inject(
                job,
                "lease_expired",
                vec![("worker", worker.into()), ("job", job.into())],
            );
        }
    }

    /// Publish every newly-terminal prefix job's segments to the live
    /// log and all subscriber queues, applying the identical offset rule
    /// as [`merge_event_streams`]. Called whenever a job turns terminal;
    /// segments of a terminal job are immutable, so each published block
    /// is final.
    fn publish_ready(&mut self) {
        self.subscribers.retain(|sub| !sub.is_closed());
        while self.published_jobs < self.queue.len() {
            let job = self.published_jobs;
            if self.results[job].is_none() && self.permanent[job].is_none() {
                break;
            }
            let mut block = Vec::new();
            for segment in &self.segments[job] {
                let Some(max_seq) = segment.iter().map(|e| e.seq).max() else {
                    continue; // empty segments add no id gap
                };
                block.extend(segment.iter().map(|e| offset_event(e, self.publish_offset)));
                self.publish_offset += max_seq + 1;
            }
            self.published_jobs += 1;
            if block.is_empty() {
                continue;
            }
            let mut lagged = 0u64;
            for sub in &self.subscribers {
                lagged += sub.push_block(&block);
            }
            if lagged > 0 {
                self.obs.metrics().add("subscriber_lagged", lagged);
            }
            self.published.extend(block);
        }
        self.finish_if_done();
    }

    /// Once every job is terminal, flip `finished` and wake the subscriber
    /// writers. Runs in the critical section that made the last job
    /// terminal, after its publication, so a writer that reads `finished`
    /// and then pops an empty queue has delivered the complete log.
    fn finish_if_done(&self) {
        if self.finished() {
            self.flags.finish();
            for sub in &self.subscribers {
                sub.wake();
            }
        }
    }
}

/// Starts and owns a campaign server; see the module docs.
pub struct CampaignServer;

impl CampaignServer {
    /// Bind the endpoint, sanitize the checkpoint store, and start the
    /// accept/supervision loop. Returns immediately; drive progress via
    /// the returned [`ServerHandle`].
    pub fn start(config: ServerConfig) -> Result<ServerHandle, ServeError> {
        let mut config = config;
        let n = config.jobs.len();
        if let Some(dir) = &config.checkpoint_dir {
            let store = CheckpointStore::open(dir).map_err(record_io)?;
            store.sanitize(&config.jobs).map_err(record_io)?;
        }
        if config.crash_dir.is_none() {
            config.crash_dir = config.checkpoint_dir.clone();
        }
        let listener = config.endpoint.listen()?;
        let endpoint = listener.endpoint().clone();
        let obs = Arc::new(Observatory::new(
            config.flight_recorder_cap,
            config.crash_dir.clone(),
        ));
        // Touch every server-level counter so the families exist in the
        // very first scrape, not only after the first increment.
        let metrics = obs.metrics();
        metrics.add("jobs_queued", n as u64);
        for name in [
            "jobs_leased",
            "jobs_done",
            "jobs_failed",
            "lease_renewals",
            "subscriber_lagged",
        ] {
            metrics.add(name, 0);
        }
        let flags = Flags::new();
        let metrics_addr = match &config.metrics_addr {
            None => None,
            Some(addr) => {
                let obs = Arc::clone(&obs);
                let render: Arc<dyn Fn() -> String + Send + Sync> = Arc::new(move || {
                    // Absolute occupancy of the process-wide FVM cache:
                    // gauges from direct getters, so the delta-publishing
                    // path (`FvmCache::publish`) keeps sole ownership of
                    // the hit/miss counters.
                    let cache = FvmCache::global();
                    let (models, maps) = cache.sizes();
                    let (model_cap, map_cap) = cache.capacities();
                    obs.metrics()
                        .set_gauge("fvm_cache_size", (models + maps) as u64);
                    obs.metrics()
                        .set_gauge("fvm_cache_capacity", (model_cap + map_cap) as u64);
                    obs.render()
                });
                // The metrics thread outlives `join` on purpose (a scrape
                // right after campaign completion must still answer); it
                // exits when `stop` is set or the process ends.
                let (bound, _thread) = spawn_metrics_server(addr, render, Arc::clone(&flags))?;
                Some(bound)
            }
        };
        let state = Arc::new(Mutex::new(State {
            queue: JobQueue::new(config.jobs.clone(), config.lease_ms),
            segments: vec![Vec::new(); n],
            results: vec![None; n],
            permanent: vec![None; n],
            workers_seen: HashSet::new(),
            max_assignments: config.max_assignments,
            obs: Arc::clone(&obs),
            published: Vec::new(),
            published_jobs: 0,
            publish_offset: 0,
            subscribers: Vec::new(),
            flags: Arc::clone(&flags),
            ready_ms: vec![0; n],
            claim_ms: vec![0; n],
        }));
        let main = {
            let state = Arc::clone(&state);
            let flags = Arc::clone(&flags);
            let config = config.clone();
            std::thread::spawn(move || serve_loop(&listener, &config, &state, &flags))
        };
        Ok(ServerHandle {
            endpoint,
            jobs: config.jobs,
            state,
            flags,
            obs,
            metrics_addr,
            main: Some(main),
        })
    }
}

/// Running server handle: inspect progress, then [`ServerHandle::join`].
pub struct ServerHandle {
    endpoint: Endpoint,
    jobs: Vec<CampaignJob>,
    state: Arc<Mutex<State>>,
    flags: Arc<Flags>,
    obs: Arc<Observatory>,
    metrics_addr: Option<SocketAddr>,
    main: Option<JoinHandle<io::Result<()>>>,
}

impl ServerHandle {
    /// The endpoint workers should connect to (real port for ephemeral
    /// TCP binds).
    #[must_use]
    pub fn endpoint(&self) -> &Endpoint {
        &self.endpoint
    }

    /// Where `GET /metrics` answers, when configured (real port for
    /// ephemeral binds).
    #[must_use]
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics_addr
    }

    /// The server's metrics plane (fleet aggregation, crash-tail rings).
    #[must_use]
    pub fn observatory(&self) -> &Observatory {
        &self.obs
    }

    /// Live subscriber count (closed subscriptions are pruned). Drivers
    /// can gate campaign start on this so a dashboard attached before
    /// `fleet.spawn` records the log from event zero.
    pub fn subscriber_count(&self) -> usize {
        let mut state = self.state.lock().expect("server state poisoned");
        state.subscribers.retain(|sub| !sub.is_closed());
        state.subscribers.len()
    }

    /// Current progress.
    pub fn snapshot(&self) -> Snapshot {
        let state = self.state.lock().expect("server state poisoned");
        Snapshot {
            jobs_total: state.queue.len(),
            jobs_done: state.results.iter().filter(|r| r.is_some()).count(),
            assignments: (0..state.queue.len())
                .map(|i| state.queue.assignments(i))
                .collect(),
            jobs_leased: (0..state.queue.len())
                .filter(|i| {
                    matches!(
                        state.queue.state(*i),
                        uvf_characterize::store::LeaseState::Leased { .. }
                    )
                })
                .count(),
            workers_seen: state.workers_seen.len(),
            failed: state
                .permanent
                .iter()
                .enumerate()
                .filter_map(|(i, e)| e.as_ref().map(|msg| (i, msg.clone())))
                .collect(),
        }
    }

    /// Ask the server to stop accepting and wind down (jobs in flight
    /// are abandoned, subscribers and the metrics endpoint shut down).
    /// [`ServerHandle::join`] still collects whatever finished.
    pub fn stop(&self) {
        self.flags.stop.store(true, Ordering::SeqCst);
        let state = self.state.lock().expect("server state poisoned");
        for sub in &state.subscribers {
            sub.wake();
        }
    }

    /// Wait for the campaign to finish and merge the results.
    pub fn join(mut self) -> Result<ServerResult, ServeError> {
        if let Some(main) = self.main.take() {
            main.join()
                .map_err(|_| io::Error::other("server thread panicked"))??;
        }
        let state = self.state.lock().expect("server state poisoned");
        let failed: Vec<(usize, String)> = state
            .permanent
            .iter()
            .enumerate()
            .filter_map(|(i, e)| e.as_ref().map(|msg| (i, msg.clone())))
            .collect();
        if !failed.is_empty() {
            return Err(ServeError::JobsFailed(failed));
        }
        let mut entries = Vec::with_capacity(self.jobs.len());
        for (idx, job) in self.jobs.iter().enumerate() {
            let (record, sim_ms) = state.results[idx]
                .clone()
                .ok_or_else(|| io::Error::other(format!("job {idx} never completed")))?;
            entries.push(CampaignEntry {
                job: *job,
                outcome: record.outcome,
                report: GuardbandReport::from_record(&record),
                sim_ms,
                record,
            });
        }
        let streams: Vec<Vec<Event>> = state
            .segments
            .iter()
            .flat_map(|job_segments| job_segments.iter().cloned())
            .collect();
        let manifest = CampaignManifest::from_entries(&entries);
        let events = merge_event_streams(&streams);
        debug_assert_eq!(
            state.published, events,
            "published log must equal the post-run merge"
        );
        Ok(ServerResult {
            entries,
            manifest,
            events,
        })
    }
}

fn record_io(e: RecordError) -> ServeError {
    ServeError::Io(io::Error::other(e.to_string()))
}

/// Accept + supervision loop of the main server thread. Exits when every
/// job is terminal (workers still connected get `NoJob { done: true }`
/// from their own connection threads) or on [`ServerHandle::stop`].
fn serve_loop(
    listener: &BoundListener,
    config: &ServerConfig,
    state: &Arc<Mutex<State>>,
    flags: &Arc<Flags>,
) -> io::Result<()> {
    let started = Instant::now();
    loop {
        if flags.stop.load(Ordering::SeqCst) {
            return Ok(());
        }
        while let Some(conn) = listener.accept()? {
            let state = Arc::clone(state);
            let config = config.clone();
            let flags = Arc::clone(flags);
            std::thread::spawn(move || handle_conn(conn, &config, &state, &flags, started));
        }
        {
            let mut state = state.lock().expect("server state poisoned");
            state.expire_leases(now_ms(started));
            if state.finished() {
                // Already flagged by the last terminal transition; this
                // call covers a campaign with no jobs at all.
                state.finish_if_done();
                return Ok(());
            }
        }
        flags.nap(Duration::from_millis(2));
    }
}

fn now_ms(started: Instant) -> u64 {
    u64::try_from(started.elapsed().as_millis()).unwrap_or(u64::MAX)
}

/// One worker (or subscriber) connection, driven until it closes. A
/// close — clean exit or SIGKILL mid-frame alike — releases every lease
/// the worker holds and tears down its subscription.
fn handle_conn(
    mut conn: Conn,
    config: &ServerConfig,
    state: &Arc<Mutex<State>>,
    flags: &Arc<Flags>,
    started: Instant,
) {
    let mut worker_id: Option<u64> = None;
    let mut subscription: Option<Arc<Subscriber>> = None;
    // Clean close or torn frame (`Ok(None)` / `Err`): the peer is gone.
    while let Ok(Some(msg)) = Message::read_from(&mut conn.reader) {
        // Census queries never touch the queue: answered off-lock so a
        // cache miss (die generation) cannot stall lease supervision.
        let response = match &msg {
            Message::GetFvm {
                platform,
                chip_seed,
                temp_mc,
                v_ref_mv,
            } => Some(answer_fvm(*platform, *chip_seed, *temp_mc, *v_ref_mv)),
            Message::Subscribe {
                from_seq,
                queue_cap,
            } => {
                if subscription.is_none() {
                    let sub = register_subscriber(state, config, *from_seq, *queue_cap);
                    // The writer half moves into the subscriber's own
                    // drain thread; this loop keeps reading for
                    // Unsubscribe / EOF. A slow drain blocks only that
                    // thread, never the job queue.
                    let writer = std::mem::replace(&mut conn.writer, Box::new(io::sink()));
                    subscription = Some(Arc::clone(&sub));
                    let flags = Arc::clone(flags);
                    std::thread::spawn(move || run_subscriber_writer(writer, &sub, &flags));
                }
                None
            }
            Message::Unsubscribe => {
                if let Some(sub) = &subscription {
                    sub.close();
                }
                None
            }
            _ => {
                let mut state = state.lock().expect("server state poisoned");
                match handle_message(&msg, &mut state, &mut worker_id, config, started) {
                    Ok(response) => response,
                    // A frame naming a job past the campaign: a corrupt
                    // peer, dropped like one that tore a frame.
                    Err(OutOfRange) => break,
                }
            }
        };
        if let Some(response) = response {
            if response.write_to(&mut conn.writer).is_err() {
                break;
            }
        }
    }
    if let Some(sub) = &subscription {
        sub.close();
    }
    if let Some(worker) = worker_id {
        let mut state = state.lock().expect("server state poisoned");
        state.release_worker(worker, now_ms(started));
    }
    let _ = conn.writer.flush();
}

/// Register a new subscriber under the state lock: its queue is seeded
/// with the published backlog from `from_seq` in the same critical
/// section that appends new publications, so the stream has no gap and
/// no duplicate between catch-up and live tailing.
fn register_subscriber(
    state: &Arc<Mutex<State>>,
    config: &ServerConfig,
    from_seq: u64,
    queue_cap: u64,
) -> Arc<Subscriber> {
    let cap = match queue_cap {
        0 => config.subscriber_queue_cap,
        cap => usize::try_from(cap).unwrap_or(usize::MAX),
    };
    let mut state = state.lock().expect("server state poisoned");
    let sub = Arc::new(Subscriber::new(cap));
    let backlog: Vec<Event> = state
        .published
        .iter()
        .filter(|e| e.seq >= from_seq)
        .cloned()
        .collect();
    let lagged = sub.push_block(&backlog);
    if lagged > 0 {
        state.obs.metrics().add("subscriber_lagged", lagged);
    }
    state.subscribers.push(Arc::clone(&sub));
    sub
}

/// Drain one subscriber's queue onto its connection. Runs in its own
/// thread; write stalls and slow readers are invisible to the server.
fn run_subscriber_writer(mut writer: Box<dyn Write + Send>, sub: &Arc<Subscriber>, flags: &Flags) {
    const BATCH_EVENTS: usize = 256;
    loop {
        if sub.is_closed() || flags.stop.load(Ordering::SeqCst) {
            return;
        }
        // Read `finished` *before* popping: every publication precedes
        // the flag flip, so finished + empty pop ⇒ the log was fully
        // delivered (no push can land in between).
        let finished = flags.finished.load(Ordering::SeqCst);
        let (events, dropped) = sub.pop_batch(BATCH_EVENTS);
        if events.is_empty() {
            if finished {
                let _ = Message::EventBatch {
                    first_seq: 0,
                    lines: Vec::new(),
                    dropped,
                    done: true,
                }
                .write_to(&mut writer);
                sub.close();
                return;
            }
            sub.wait(|| flags.finished.load(Ordering::SeqCst) || flags.stop.load(Ordering::SeqCst));
            continue;
        }
        let batch = Message::EventBatch {
            first_seq: events[0].seq,
            lines: events.iter().map(Event::to_jsonl).collect(),
            dropped,
            done: false,
        };
        if batch.write_to(&mut writer).is_err() {
            sub.close();
            return;
        }
    }
}

/// A job index no job of the campaign has.
struct OutOfRange;

/// Dispatch one message under the state lock; the response (if any) is
/// written outside. A frame naming a job past the campaign is an `Err`.
fn handle_message(
    msg: &Message,
    state: &mut State,
    worker_id: &mut Option<u64>,
    config: &ServerConfig,
    started: Instant,
) -> Result<Option<Message>, OutOfRange> {
    if let Message::Event { job, .. }
    | Message::JobDone { job, .. }
    | Message::JobFailed { job, .. } = msg
    {
        if *job >= config.jobs.len() {
            return Err(OutOfRange);
        }
    }
    if let Message::Hello { worker } | Message::JobRequest { worker } = msg {
        *worker_id = Some(*worker);
        state.workers_seen.insert(*worker);
        state.obs.worker_alive(*worker);
    }
    // Only the lease holder's frames about a job count (module docs); a
    // holder's frame renews its lease.
    let holds_lease = |state: &mut State, job: usize| {
        worker_id.is_some_and(|worker| state.queue.renew(job, worker, now_ms(started)))
    };
    Ok(match msg {
        Message::Hello { .. } => None,
        Message::JobRequest { worker } => {
            let now = now_ms(started);
            state.expire_leases(now);
            if state.finished() {
                return Ok(Some(Message::NoJob { done: true }));
            }
            match state.queue.claim(*worker, now) {
                None => Some(Message::NoJob { done: false }),
                Some((job, spec)) => {
                    let metrics = state.obs.metrics();
                    metrics.add("jobs_leased", 1);
                    metrics.observe_ns(
                        "queue_wait",
                        now.saturating_sub(state.ready_ms[job])
                            .saturating_mul(1_000_000),
                    );
                    state.claim_ms[job] = now;
                    let assignment = state.queue.assignments(job);
                    let name: &'static str = if assignment > 1 {
                        "job_reassigned"
                    } else {
                        "job_claimed"
                    };
                    state.inject(
                        job,
                        name,
                        vec![
                            ("job", job.into()),
                            ("worker", (*worker).into()),
                            ("assignment", assignment.into()),
                            ("platform", spec.kind.to_string().into()),
                        ],
                    );
                    // The segment the worker's own events will land in.
                    state.segments[job].push(Vec::new());
                    Some(Message::JobAssign {
                        job,
                        spec,
                        policy: config.policy,
                        checkpoint_dir: config
                            .checkpoint_dir
                            .as_ref()
                            .map(|d| d.display().to_string()),
                    })
                }
            }
        }
        Message::Event { job, line } => {
            let parsed = Event::parse_jsonl(line).ok();
            if let (Some(worker), Some(event)) = (*worker_id, &parsed) {
                // Fleet metrics and the flight recorder see everything
                // the worker says, zombie or not — forensics wants the
                // last words, and fleet counters tolerate double counts
                // from at most one lapsed-lease straggler.
                state.obs.worker_event(worker, event);
            }
            // Zombie suppression: only the lease holder's events enter
            // the job's segment. Each renews the lease (progress
            // heartbeat, module docs): a worker flushes its buffered
            // events at least every 50 ms while it emits and at every
            // throttle pause, so a sweep keeps its lease however long it
            // takes; only silence (a hang) lets the deadline lapse.
            if holds_lease(state, *job) {
                state.obs.metrics().add("lease_renewals", 1);
                if let Some(event) = parsed {
                    if let Some(segment) = state.segments[*job].last_mut() {
                        segment.push(event);
                    }
                }
            }
            None
        }
        Message::JobDone {
            job,
            record,
            sim_ms,
        } => {
            // Determinism makes every completion identical, but the
            // fingerprint check still guards against a worker running the
            // wrong configuration.
            if holds_lease(state, *job) {
                match verify_record(&config.jobs[*job], record) {
                    Ok(parsed) => {
                        let now = now_ms(started);
                        state.results[*job] = Some((parsed, *sim_ms));
                        state.queue.complete(*job);
                        let metrics = state.obs.metrics();
                        metrics.add("jobs_done", 1);
                        metrics.observe_ns(
                            "job_duration",
                            now.saturating_sub(state.claim_ms[*job])
                                .saturating_mul(1_000_000),
                        );
                        state.inject(
                            *job,
                            "job_done",
                            vec![("job", (*job).into()), ("sim_ms", (*sim_ms).into())],
                        );
                        state.publish_ready();
                    }
                    Err(err) => fail_job(state, *job, &err, now_ms(started)),
                }
            }
            None
        }
        Message::JobFailed { job, error } => {
            if holds_lease(state, *job) {
                fail_job(state, *job, error, now_ms(started));
            }
            None
        }
        // GetFvm, Subscribe and Unsubscribe are routed off-lock in
        // `handle_conn`; the rest are messages server-bound connections
        // never receive.
        Message::GetFvm { .. }
        | Message::Subscribe { .. }
        | Message::Unsubscribe
        | Message::EventBatch { .. }
        | Message::JobAssign { .. }
        | Message::NoJob { .. }
        | Message::Fvm { .. } => None,
    })
}

/// Answer a census query from the process-wide [`FvmCache`]: repeat
/// clients across millions of chip seeds hit memoized maps instead of
/// regenerating dies. Purity of the map makes the reply byte-identical
/// whether it was a hit or a miss; the cache's hit/miss/eviction counters
/// are published by the driving binary at its reporting boundary.
fn answer_fvm(platform: PlatformKind, chip_seed: u64, temp_mc: i64, v_ref_mv: u32) -> Message {
    use uvf_characterize::record::FvmRecord;
    use uvf_fpga::Millivolts;
    let map = FvmCache::global().variation_map(
        platform.descriptor(),
        chip_seed,
        temp_mc as f64 / 1000.0,
        Millivolts(v_ref_mv),
    );
    Message::Fvm {
        record: FvmRecord::from_map(&map).to_json().to_string(),
    }
}

/// A failed attempt: release the lease for retry, or — once the
/// assignment budget is spent — record the permanent failure and
/// mark the job terminal.
fn fail_job(state: &mut State, job: usize, error: &str, now_ms: u64) {
    state.inject(
        job,
        "job_attempt_failed",
        vec![("job", job.into()), ("error", error.into())],
    );
    let attempts = state.queue.assignments(job);
    if attempts >= state.max_assignments {
        state.permanent[job] = Some(error.to_string());
        state.queue.complete(job);
        state.obs.metrics().add("jobs_failed", 1);
        state.inject(
            job,
            "job_failed",
            vec![("job", job.into()), ("attempts", attempts.into())],
        );
        state.publish_ready();
    } else {
        // Back to pending for the next claimant.
        state.queue.release(job);
        state.ready_ms[job] = now_ms;
    }
}

/// Parse and verify a worker's record against the job it was assigned:
/// same configuration fingerprint, same die. The die is named by its
/// platform and seed alone; no board is built.
fn verify_record(job: &CampaignJob, record_text: &str) -> Result<SweepRecord, String> {
    let parsed = uvf_characterize::prelude::Json::parse(record_text)
        .map_err(|e| format!("record JSON: {e}"))
        .and_then(|v| SweepRecord::from_json(&v).map_err(|e| format!("record schema: {e}")))?;
    let expected = job.cfg.empty_record(job.kind, job.seed()).fingerprint();
    let found = parsed.fingerprint();
    if found != expected {
        return Err(format!(
            "record fingerprint {found:#x} does not match assigned job {expected:#x}"
        ));
    }
    Ok(parsed)
}
