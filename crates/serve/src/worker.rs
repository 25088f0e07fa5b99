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
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
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

/// An event frame waits in the worker's buffer at most until the next
/// event written this long after the last flush (or the next control
/// frame, or throttle pause). It bounds both how stale the server's view
/// of a busy job gets and what a SIGKILL can cost the crash tail.
const EVENT_FLUSH_INTERVAL: Duration = Duration::from_millis(50);

/// The socket's buffered write half, shared between the worker's control
/// loop and its event-forwarding sink. Event frames accumulate in the
/// buffer; control frames go through the same buffer and flush it, so a
/// job's events always reach the server before its `JobDone`.
struct Wire {
    out: BufWriter<Box<dyn Write + Send>>,
    last_flush: Instant,
}

impl Wire {
    fn flush(&mut self) -> io::Result<()> {
        self.out.flush()?;
        self.last_flush = Instant::now();
        Ok(())
    }
}

type SharedWriter = Arc<Mutex<Wire>>;

fn lock(writer: &SharedWriter) -> std::sync::MutexGuard<'_, Wire> {
    writer.lock().expect("worker writer poisoned")
}

/// Send a control frame, flushing every event frame buffered before it.
fn send(writer: &SharedWriter, msg: &Message) -> io::Result<()> {
    let mut wire = lock(writer);
    msg.append_to(&mut wire.out)?;
    wire.flush()
}

/// A [`Sink`] that frames every deterministic-core event onto the campaign
/// socket's buffer, tagged with the job it belongs to, and flushes when
/// [`EVENT_FLUSH_INTERVAL`] has passed since the last flush. The flushes
/// are the lease heartbeat: a sweep that keeps emitting events keeps its
/// lease. [`Timing`] samples are dropped — their wall-clock payload is
/// nondeterministic and the JSONL form excludes them anyway.
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
        let msg = Message::Event {
            job: self.job,
            line: event.to_jsonl(),
        };
        // A send failure means the server is gone; the harness error path
        // will surface it, so the sink itself stays quiet.
        let mut wire = lock(&self.writer);
        if msg.append_to(&mut wire.out).is_ok() && wire.last_flush.elapsed() >= EVENT_FLUSH_INTERVAL
        {
            let _ = wire.flush();
        }
    }
}

/// Connect, then serve jobs until the campaign is over (clean `Ok`) or
/// the server becomes unreachable (`Err`).
pub fn run_worker(opts: &WorkerOptions) -> io::Result<()> {
    let conn = connect_with_backoff(opts)?;
    let Conn { mut reader, writer } = conn;
    let writer: SharedWriter = Arc::new(Mutex::new(Wire {
        out: BufWriter::new(writer),
        last_flush: Instant::now(),
    }));
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
                    // Flush before sleeping: the server hears the chunk's
                    // events (and renews the lease) before the pause.
                    lock(writer).flush().map_err(|e| e.to_string())?;
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

    /// A socket stand-in that keeps every byte written through to it.
    #[derive(Clone, Default)]
    struct Socket(Arc<Mutex<Vec<u8>>>);

    impl Write for Socket {
        fn write(&mut self, bytes: &[u8]) -> io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(bytes);
            Ok(bytes.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    impl Socket {
        /// The frames that reached the socket, decoded.
        fn frames(&self) -> Vec<Message> {
            let bytes = self.0.lock().unwrap().clone();
            let mut reader = bytes.as_slice();
            std::iter::from_fn(|| Message::read_from(&mut reader).unwrap()).collect()
        }
    }

    #[test]
    fn events_wait_for_the_flush_interval_and_precede_control_frames() {
        let socket = Socket::default();
        let writer: SharedWriter = Arc::new(Mutex::new(Wire {
            out: BufWriter::new(Box::new(socket.clone())),
            last_flush: Instant::now(),
        }));
        let sink = ForwardSink {
            job: 3,
            writer: Arc::clone(&writer),
        };
        let event = |seq| Event {
            seq,
            kind: EventKind::Instant,
            name: "level_done".into(),
            span: None,
            parent: None,
            sim_ms: Some(seq),
            wall_ns: None,
            fields: Vec::new(),
        };
        let seqs = |frames: &[Message]| -> Vec<Option<u64>> {
            frames
                .iter()
                .map(|m| match m {
                    Message::Event { job: 3, line } => Some(Event::parse_jsonl(line).unwrap().seq),
                    _ => None,
                })
                .collect()
        };
        sink.record(&event(0));
        assert!(
            socket.frames().is_empty(),
            "a fresh event waits in the buffer"
        );
        // An event written once the interval has passed flushes everything
        // buffered, itself included.
        let past = Instant::now().checked_sub(EVENT_FLUSH_INTERVAL).unwrap();
        lock(&writer).last_flush = past;
        sink.record(&event(1));
        assert_eq!(seqs(&socket.frames()), [Some(0), Some(1)]);
        sink.record(&event(2));
        assert_eq!(socket.frames().len(), 2, "the flush restarted the interval");
        // A control frame flushes the buffered event ahead of itself.
        let done = Message::JobDone {
            job: 3,
            record: "{}".into(),
            sim_ms: 2,
        };
        send(&writer, &done).unwrap();
        let frames = socket.frames();
        assert_eq!(seqs(&frames), [Some(0), Some(1), Some(2), None]);
        assert_eq!(frames[3], done);
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
