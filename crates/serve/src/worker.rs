//! The worker side of the campaign protocol: connect, pull jobs, sweep,
//! stream trace events back, repeat until the server says the campaign
//! is over.
//!
//! A worker is deliberately stateless between jobs — every sweep runs on
//! a fresh [`Harness`] with a fresh per-job [`Tracer`], and all durable
//! state lives in the server's shared checkpoint directory. That is what
//! makes workers disposable: a SIGKILLed worker leaves at most a torn
//! checkpoint (discarded by the successor) and a torn socket frame
//! (detected by the server's framing), and its replacement resumes the
//! job from the last complete checkpoint to the exact same record bytes.
//!
//! The chaos knobs ([`WorkerOptions::throttle_ms`],
//! [`WorkerOptions::hang`]) exist for the kill-tolerance tests: a
//! throttled worker sweeps in budgeted chunks with sleeps between them —
//! widening the window in which a SIGKILL lands mid-job — and a hung
//! worker claims a job and never finishes it, exercising the server's
//! lease-expiry path rather than the connection-drop path.

use crate::protocol::{Conn, Endpoint, Message};
use std::io::{self, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Duration;
use uvf_characterize::prelude::{
    Backoff, CampaignJob, CheckpointStore, Harness, HarnessStatus, RecoveryPolicy,
};
use uvf_trace::{Event, EventKind, Sink, Tracer};

/// How a worker process runs; see the module docs for the chaos knobs.
#[derive(Debug, Clone)]
pub struct WorkerOptions {
    pub endpoint: Endpoint,
    /// Stable worker identity in the server's lease table; defaults to
    /// the process id, so every respawn is a distinct worker.
    pub worker_id: u64,
    /// Chaos knob: sweep in [`WorkerOptions::chunk_runs`]-sized budgets
    /// with this sleep between them (0 = sweep straight through). Each
    /// pause checkpoints, so a kill inside the window resumes cleanly.
    pub throttle_ms: u64,
    /// Runs per budgeted chunk when throttling.
    pub chunk_runs: u64,
    /// Chaos knob: claim one job and hold it forever without finishing —
    /// the server must expire the lease to make progress.
    pub hang: bool,
    /// Base delay between job requests while every job is leased.
    pub idle_poll_ms: u64,
    /// Connection attempts before giving up on the server.
    pub connect_attempts: u32,
}

impl WorkerOptions {
    #[must_use]
    pub fn new(endpoint: Endpoint) -> WorkerOptions {
        WorkerOptions {
            endpoint,
            worker_id: u64::from(std::process::id()),
            throttle_ms: 0,
            chunk_runs: 8,
            hang: false,
            idle_poll_ms: 20,
            connect_attempts: 10,
        }
    }

    /// Parse a worker command line (program name already stripped):
    /// `--endpoint <unix:PATH|tcp:HOST:PORT> [--worker-id N]
    /// [--throttle-ms N] [--chunk-runs N] [--hang]`. The one parser behind
    /// both the `uvf-serve-worker` binary and `repro work`.
    pub fn from_args(args: &[String]) -> Result<WorkerOptions, String> {
        let mut endpoint = None;
        let mut worker_id = None;
        let mut throttle_ms = None;
        let mut chunk_runs = None;
        let mut hang = false;
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let mut value = |name: &str| {
                it.next()
                    .ok_or_else(|| format!("{name} needs a value"))
                    .map(String::as_str)
            };
            let number =
                |name: &str, text: &str| text.parse::<u64>().map_err(|e| format!("{name}: {e}"));
            match arg.as_str() {
                name @ "--endpoint" => endpoint = Some(Endpoint::parse(value(name)?)?),
                name @ "--worker-id" => worker_id = Some(number(name, value(name)?)?),
                name @ "--throttle-ms" => throttle_ms = Some(number(name, value(name)?)?),
                name @ "--chunk-runs" => chunk_runs = Some(number(name, value(name)?)?),
                "--hang" => hang = true,
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        let mut opts = WorkerOptions::new(endpoint.ok_or("--endpoint is required")?);
        opts.worker_id = worker_id.unwrap_or(opts.worker_id);
        opts.throttle_ms = throttle_ms.unwrap_or(opts.throttle_ms);
        opts.chunk_runs = chunk_runs.unwrap_or(opts.chunk_runs);
        opts.hang = hang;
        Ok(opts)
    }
}

/// The socket's write half, shared between the worker's control loop and
/// its event-forwarding sink.
type SharedWriter = Arc<Mutex<Box<dyn Write + Send>>>;

fn send(writer: &SharedWriter, msg: &Message) -> io::Result<()> {
    let mut w = writer.lock().expect("worker writer poisoned");
    msg.write_to(&mut *w)
}

/// A [`Sink`] that frames every deterministic-core event onto the campaign
/// socket as it is emitted, tagged with the job it belongs to. [`Timing`]
/// samples are dropped — their wall-clock payload is nondeterministic and
/// the JSONL form excludes them anyway.
///
/// [`Timing`]: EventKind::Timing
struct ForwardSink {
    job: usize,
    writer: SharedWriter,
}

impl Sink for ForwardSink {
    fn record(&self, event: &Event) {
        if matches!(event.kind, EventKind::Timing { .. }) {
            return;
        }
        // A send failure means the server is gone; the harness error path
        // will surface it, so the sink itself stays quiet.
        let _ = send(
            &self.writer,
            &Message::Event {
                job: self.job,
                line: event.to_jsonl(),
            },
        );
    }
}

/// Connect, then serve jobs until the campaign is over (clean `Ok`) or
/// the server becomes unreachable (`Err`).
pub fn run_worker(opts: &WorkerOptions) -> io::Result<()> {
    let conn = connect_with_backoff(opts)?;
    let Conn { mut reader, writer } = conn;
    let writer: SharedWriter = Arc::new(Mutex::new(writer));
    send(
        &writer,
        &Message::Hello {
            worker: opts.worker_id,
        },
    )?;
    // Idle polling backs off exponentially (jittered per worker id) so a
    // big fleet waiting on a few long leases does not hammer the server.
    let idle = Backoff::new(opts.idle_poll_ms.max(1), 500);
    let mut idle_attempt: u32 = 0;
    loop {
        send(
            &writer,
            &Message::JobRequest {
                worker: opts.worker_id,
            },
        )?;
        match Message::read_from(&mut reader)? {
            // Server closed the socket: treat like campaign over.
            None | Some(Message::NoJob { done: true }) => return Ok(()),
            Some(Message::NoJob { done: false }) => {
                let delay = idle.delay_ms(idle_attempt.min(8), opts.worker_id);
                idle_attempt = idle_attempt.saturating_add(1);
                std::thread::sleep(Duration::from_millis(delay));
            }
            Some(Message::JobAssign {
                job,
                spec,
                policy,
                checkpoint_dir,
            }) => {
                idle_attempt = 0;
                if opts.hang {
                    // Chaos: hold the lease without progress; only the
                    // server's deadline (or our own death) frees the job.
                    loop {
                        std::thread::sleep(Duration::from_secs(3600));
                    }
                }
                let done =
                    match execute_job(&spec, policy, checkpoint_dir.as_deref(), opts, job, &writer)
                    {
                        Ok((record, sim_ms)) => Message::JobDone {
                            job,
                            record,
                            sim_ms,
                        },
                        Err(error) => Message::JobFailed { job, error },
                    };
                send(&writer, &done)?;
            }
            // The server never sends worker-bound messages of other kinds.
            Some(_) => {}
        }
    }
}

/// Run one assigned sweep to completion, streaming its events. Returns
/// the finished record's canonical JSON and the simulated duration.
fn execute_job(
    spec: &CampaignJob,
    policy: RecoveryPolicy,
    checkpoint_dir: Option<&str>,
    opts: &WorkerOptions,
    job: usize,
    writer: &SharedWriter,
) -> Result<(String, u64), String> {
    let tracer = Tracer::builder()
        .sink(Arc::new(ForwardSink {
            job,
            writer: Arc::clone(writer),
        }))
        .build();
    let mut harness = Harness::new(spec.board(), spec.cfg, policy)
        .map_err(|e| e.to_string())?
        .with_tracer(tracer);
    if let Some(dir) = checkpoint_dir {
        let path = Path::new(dir).join(spec.checkpoint_name());
        // A predecessor SIGKILLed mid-write leaves a torn file; discard
        // it and resweep rather than fail the job.
        CheckpointStore::discard_if_corrupt(&path).map_err(|e| e.to_string())?;
        harness = harness
            .with_checkpoint_path(path)
            .map_err(|e| e.to_string())?;
    }
    if opts.throttle_ms == 0 {
        harness.run().map_err(|e| e.to_string())?;
    } else {
        loop {
            match harness
                .run_budgeted(opts.chunk_runs.max(1))
                .map_err(|e| e.to_string())?
            {
                HarnessStatus::Finished(_) => break,
                HarnessStatus::Paused { .. } => {
                    std::thread::sleep(Duration::from_millis(opts.throttle_ms));
                }
            }
        }
    }
    Ok((harness.record().to_json_string(), harness.clock_ms()))
}

/// Jittered-exponential connect retry: workers often start before the
/// server's socket exists (supervisor races, respawns).
fn connect_with_backoff(opts: &WorkerOptions) -> io::Result<Conn> {
    let backoff = Backoff::default();
    let mut last = None;
    for attempt in 0..opts.connect_attempts.max(1) {
        match opts.endpoint.connect() {
            Ok(conn) => return Ok(conn),
            Err(e) => {
                last = Some(e);
                std::thread::sleep(Duration::from_millis(
                    backoff.delay_ms(attempt, opts.worker_id),
                ));
            }
        }
    }
    Err(last.unwrap_or_else(|| io::Error::other("no connection attempts made")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<WorkerOptions, String> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        WorkerOptions::from_args(&args)
    }

    #[test]
    fn from_args_reads_every_option_and_keeps_defaults() {
        let opts = parse(
            "--endpoint unix:/tmp/w.sock --worker-id 7 --throttle-ms 5 --chunk-runs 3 --hang",
        )
        .unwrap();
        assert_eq!(opts.endpoint.to_string(), "unix:/tmp/w.sock");
        let read = (opts.worker_id, opts.throttle_ms, opts.chunk_runs, opts.hang);
        assert_eq!(read, (7, 5, 3, true));
        let opts = parse("--endpoint tcp:127.0.0.1:9").unwrap();
        assert_eq!(
            (opts.throttle_ms, opts.chunk_runs, opts.hang),
            (0, 8, false)
        );
    }

    #[test]
    fn from_args_rejects_bad_command_lines() {
        for (line, want) in [
            ("", "--endpoint is required"),
            ("--endpoint", "--endpoint needs a value"),
            ("--endpoint unix:/s --worker-id x", "--worker-id:"),
            (
                "--endpoint unix:/s --chunk-runs",
                "--chunk-runs needs a value",
            ),
            ("--endpoint unix:/s --bogus 2", "unknown argument"),
        ] {
            let err = parse(line).unwrap_err();
            assert!(err.contains(want), "{line:?}: {err}");
        }
    }
}
