//! `repro` — the paper-reproduction harness the README promises: one
//! subcommand per table/figure, each a row of
//! [`uvf_bench::registry::REGISTRY`] run through
//! [`uvf_bench::registry::run_command`], which writes the `.jsonl` event
//! log, `.prom` exposition and `_manifest.json` triple under `--out`.
//!
//! The CLI is generated from the registry — `repro list` prints it, `all`
//! expands to its `in_all` members, and `--check` validates every
//! experiment the same way: the artifact triple parses/round-trips, extra
//! artifacts exist, and the experiment's own landmark gate passes on the
//! metrics the run reported. Besides the experiments, `repro` has three
//! modes of its own: `work` (a campaign worker process, what `serve`
//! spawns), `watch` (a live dashboard over a campaign server's event
//! stream) and `promcheck` (a strict exposition validator).
//!
//! Usage: `repro [--quick] [--check] [--out DIR] <cmd>...`
//! where `<cmd>` is an experiment name from `repro list`, `all`, or
//! `serve`.

#![deny(deprecated)]

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use uvf_bench::registry::{experiment, f_str, f_u64, progress_line, run_command, Ctx, REGISTRY};
use uvf_serve::{run_worker, Endpoint, Subscription, WorkerOptions};
use uvf_trace::{parse_exposition, Event, EventKind};

struct Args {
    ctx: Ctx,
    linger_ms: u64,
    commands: Vec<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut ctx = Ctx::new(false, false, PathBuf::from("repro-out"));
    let mut linger_ms = 0;
    let mut commands = Vec::new();
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => ctx.quick = true,
            "--check" => ctx.check = true,
            "--kill" => ctx.kill = true,
            "--workers" => {
                let v = it.next().ok_or("--workers needs a value")?;
                ctx.workers = v.parse().map_err(|_| format!("bad worker count {v}"))?;
            }
            "--out" => ctx.out = PathBuf::from(it.next().ok_or("--out needs a path")?),
            "--endpoint" => ctx.endpoint = Some(it.next().ok_or("--endpoint needs a value")?),
            "--metrics-addr" => {
                ctx.metrics_addr = Some(it.next().ok_or("--metrics-addr needs a value")?);
            }
            "--linger-ms" => {
                let v = it.next().ok_or("--linger-ms needs a value")?;
                linger_ms = v.parse().map_err(|_| format!("bad linger value {v}"))?;
            }
            "--await-subscribers" => {
                let v = it.next().ok_or("--await-subscribers needs a value")?;
                ctx.await_subscribers =
                    v.parse().map_err(|_| format!("bad subscriber count {v}"))?;
            }
            "--help" | "-h" => return Err(usage()),
            "list" => commands.push("list".to_string()),
            "all" => commands.extend(
                REGISTRY
                    .iter()
                    .filter(|e| e.in_all)
                    .map(|e| e.name.to_string()),
            ),
            cmd if experiment(cmd).is_some() => commands.push(cmd.to_string()),
            other => return Err(format!("unknown argument {other}\n{}", usage())),
        }
    }
    if commands.is_empty() {
        return Err(usage());
    }
    commands.dedup();
    Ok(Args {
        ctx,
        linger_ms,
        commands,
    })
}

fn usage() -> String {
    format!(
        "usage: repro [--quick] [--check] [--out DIR] <cmd>...\n\
         commands: {} | list | all\n\
         `repro list` describes every experiment; `all` runs each except serve.\n\
         serve options: [--workers N] [--kill] [--endpoint E] [--metrics-addr A]\n\
         [--await-subscribers N] [--linger-ms N]  (distributed campaign over\n\
         worker processes; --await-subscribers delays campaign start until N\n\
         watchers attached, --linger-ms keeps the process and its /metrics\n\
         endpoint alive after the last command)\n\
         worker mode: repro work --endpoint <unix:PATH|tcp:HOST:PORT> [--worker-id N]\n\
         [--throttle-ms N] [--chunk-runs N] [--hang]  (uvf-serve-worker's options)\n\
         watch mode:  repro watch --endpoint E [--from SEQ] [--once]\n\
         promcheck:   repro promcheck <exposition.prom>...",
        REGISTRY
            .iter()
            .map(|e| e.name)
            .collect::<Vec<_>>()
            .join(" | ")
    )
}

/// `repro list`: print the registry, one experiment per line.
fn print_registry() {
    println!("experiments ('all' runs every row marked ●):");
    for e in REGISTRY {
        let marker = if e.in_all { "●" } else { " " };
        println!("  {marker} {:<8} {}", e.name, e.description);
        if !e.extra_artifacts.is_empty() {
            println!(
                "             extra artifacts: {}",
                e.extra_artifacts.join(", ")
            );
        }
    }
}

/// `repro work --endpoint E [..]`: run this process as a campaign worker,
/// with `uvf-serve-worker`'s command line.
/// This is the command line the `serve` experiment's supervisor spawns, so a
/// distributed campaign needs no binary besides `repro` itself.
fn run_work_mode() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(2).collect();
    let opts = match WorkerOptions::from_args(&args) {
        Ok(opts) => opts,
        Err(msg) => {
            eprintln!("repro work: {msg}\n{}", usage());
            return ExitCode::FAILURE;
        }
    };
    match run_worker(&opts) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("repro work: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `repro watch --endpoint E [--from SEQ] [--once]`: subscribe to a live
/// campaign server and render its published merged event log as a
/// terminal dashboard — per-worker job/level/ETA lines, fleet fault-rate
/// counters, recovery events highlighted. Exits when the campaign's log
/// completes. Without `--once` a dropped connection resubscribes from the
/// last rendered sequence number (the stream is resumable by design);
/// `--once` treats any early end of stream as a failure instead.
fn run_watch_mode() -> ExitCode {
    let mut endpoint_text = None;
    let mut from = 0u64;
    let mut once = false;
    let mut it = std::env::args().skip(2);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--endpoint" => endpoint_text = it.next(),
            "--once" => once = true,
            "--from" => {
                let Some(v) = it.next().and_then(|v| v.parse().ok()) else {
                    eprintln!("repro watch: --from needs a sequence number");
                    return ExitCode::FAILURE;
                };
                from = v;
            }
            other => {
                eprintln!("repro watch: unknown argument {other}\n{}", usage());
                return ExitCode::FAILURE;
            }
        }
    }
    let Some(text) = endpoint_text else {
        eprintln!("repro watch: --endpoint is required\n{}", usage());
        return ExitCode::FAILURE;
    };
    let endpoint = match Endpoint::parse(&text) {
        Ok(ep) => ep,
        Err(msg) => {
            eprintln!("repro watch: {msg}");
            return ExitCode::FAILURE;
        }
    };
    match watch_campaign(&endpoint, from, once) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("repro watch: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Subscribe with connection retries: the watcher is routinely started
/// before (or racing) the server it wants to observe.
fn connect_subscription(endpoint: &Endpoint, from: u64) -> Result<Subscription, String> {
    let deadline = Instant::now() + std::time::Duration::from_secs(30);
    loop {
        match Subscription::open(endpoint, from, 0) {
            Ok(sub) => return Ok(sub),
            Err(e) if Instant::now() >= deadline => {
                return Err(format!("subscribe to {endpoint}: {e}"));
            }
            Err(_) => std::thread::sleep(std::time::Duration::from_millis(200)),
        }
    }
}

fn watch_campaign(endpoint: &Endpoint, mut from: u64, once: bool) -> Result<(), String> {
    println!("watch — tailing {endpoint} from seq {from}");
    let mut board = WatchBoard::new();
    loop {
        let mut sub = connect_subscription(endpoint, from)?;
        let mut completed = false;
        loop {
            match sub.next_batch() {
                Ok(Some(batch)) => {
                    board.lagged(batch.dropped);
                    for line in &batch.lines {
                        let event = Event::parse_jsonl(line)
                            .map_err(|e| format!("stream line unparseable: {e}"))?;
                        from = event.seq + 1;
                        board.observe(&event);
                    }
                    if batch.done {
                        completed = true;
                        break;
                    }
                }
                Ok(None) => break,
                Err(e) => {
                    eprintln!("[watch] stream error: {e}");
                    break;
                }
            }
        }
        if completed {
            board.summary();
            return Ok(());
        }
        if once {
            return Err("stream ended before the campaign completed".into());
        }
        println!("[watch] stream interrupted — resubscribing from seq {from}");
    }
}

/// Per-job context the dashboard attributes worker events to. The
/// published log arrives grouped by job, so the most recent
/// `job_claimed`/`job_reassigned` names the job and worker every
/// subsequent sweep event belongs to.
struct JobLine {
    platform: String,
    worker: u64,
}

/// The `repro watch` dashboard state: renders one line per interesting
/// event and keeps fleet-wide counters for the closing summary.
struct WatchBoard {
    jobs: std::collections::BTreeMap<u64, JobLine>,
    current: Option<u64>,
    jobs_done: u64,
    jobs_failed: u64,
    faults: u64,
    crashes: u64,
    recoveries: u64,
    events: u64,
    dropped: u64,
}

impl WatchBoard {
    fn new() -> WatchBoard {
        WatchBoard {
            jobs: std::collections::BTreeMap::new(),
            current: None,
            jobs_done: 0,
            jobs_failed: 0,
            faults: 0,
            crashes: 0,
            recoveries: 0,
            events: 0,
            dropped: 0,
        }
    }

    fn lagged(&mut self, cumulative: u64) {
        if cumulative > self.dropped {
            println!(
                "[watch] !! lagging: {} events dropped by the server-side queue",
                cumulative - self.dropped
            );
            self.dropped = cumulative;
        }
    }

    /// `"w3 job1 pynq-z1"` — the prefix tying a sweep line to its worker.
    fn context(&self) -> String {
        match self
            .current
            .and_then(|job| self.jobs.get(&job).map(|j| (job, j)))
        {
            Some((job, line)) => format!("w{} job{} {}", line.worker, job, line.platform),
            None => "job ?".to_string(),
        }
    }

    fn observe(&mut self, e: &Event) {
        self.events += 1;
        if !matches!(e.kind, EventKind::Instant) {
            return;
        }
        match e.name.as_ref() {
            "job_claimed" | "job_reassigned" => {
                let job = f_u64(e, "job");
                let worker = f_u64(e, "worker");
                let platform = f_str(e, "platform").to_string();
                self.jobs.insert(job, JobLine { platform, worker });
                self.current = Some(job);
                if e.name.as_ref() == "job_reassigned" {
                    self.recoveries += 1;
                    println!(
                        "[watch] !! {} | reassigned to worker {worker} (attempt {})",
                        self.context(),
                        f_u64(e, "assignment"),
                    );
                } else {
                    self.progress(e);
                }
            }
            "worker_lost" | "lease_expired" => {
                self.recoveries += 1;
                println!(
                    "[watch] !! {} job {} (worker {})",
                    e.name,
                    f_u64(e, "job"),
                    f_u64(e, "worker"),
                );
            }
            "checkpoint_loaded" => {
                self.recoveries += 1;
                println!("[watch] !! {} resumed from checkpoint", self.context());
            }
            _ => self.progress(e),
        }
    }

    /// A [`progress_line`] event: the worker/job prefix, `!!` on crashes
    /// and failures, and the fleet counters the event moves.
    fn progress(&mut self, e: &Event) {
        let Some(line) = progress_line(e) else {
            return;
        };
        let (alert, fleet) = match e.name.as_ref() {
            "level_done" => {
                self.faults += f_u64(e, "faults");
                ("", format!(" | fleet {} faults", self.faults))
            }
            "crash" => {
                self.crashes += 1;
                ("!! ", format!(" | fleet crashes: {}", self.crashes))
            }
            "job_done" => {
                self.jobs_done += 1;
                let fleet = format!(
                    " | fleet: {} done, {} faults, {} crashes",
                    self.jobs_done, self.faults, self.crashes
                );
                ("", fleet)
            }
            "job_failed" => {
                self.jobs_failed += 1;
                ("!! ", String::new())
            }
            _ => ("", String::new()),
        };
        println!("[watch] {alert}{} | {line}{fleet}", self.context());
    }

    fn summary(&self) {
        println!(
            "[watch] campaign complete: {} done / {} failed — {} events, {} faults, \
             {} crashes, {} recovery events, {} dropped",
            self.jobs_done,
            self.jobs_failed,
            self.events,
            self.faults,
            self.crashes,
            self.recoveries,
            self.dropped,
        );
    }
}

/// `repro promcheck <file>...`: strict-parse Prometheus expositions with
/// [`uvf_trace::parse_exposition`] — CI's assertion that the fleet
/// exposition the server scraped is valid text format.
fn run_promcheck_mode() -> ExitCode {
    let files: Vec<String> = std::env::args().skip(2).collect();
    if files.is_empty() {
        eprintln!(
            "repro promcheck: at least one exposition file required\n{}",
            usage()
        );
        return ExitCode::FAILURE;
    }
    for file in &files {
        let text = match std::fs::read_to_string(file) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("repro promcheck: read {file}: {e}");
                return ExitCode::FAILURE;
            }
        };
        match parse_exposition(&text) {
            Ok(samples) => println!("promcheck ok: {file} ({samples} samples)"),
            Err(e) => {
                eprintln!("repro promcheck: {file}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    match std::env::args().nth(1).as_deref() {
        Some("work") => return run_work_mode(),
        Some("watch") => return run_watch_mode(),
        Some("promcheck") => return run_promcheck_mode(),
        _ => {}
    }
    let Args {
        mut ctx,
        linger_ms,
        commands,
    } = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "repro: {} mode, {} commands, out = {}\n",
        if ctx.quick { "quick" } else { "paper-scale" },
        commands.len(),
        ctx.out.display(),
    );
    for cmd in &commands {
        if cmd == "list" {
            print_registry();
            println!();
            continue;
        }
        if let Err(msg) = run_command(cmd, &mut ctx) {
            eprintln!("repro {cmd}: {msg}");
            return ExitCode::FAILURE;
        }
        println!();
    }
    if linger_ms > 0 {
        // Scrapers (CI's curl, a late Prometheus pull) get this window to
        // read /metrics after the campaign itself is done.
        println!("lingering {linger_ms} ms before exit (metrics endpoint stays up)");
        std::thread::sleep(std::time::Duration::from_millis(linger_ms));
    }
    ExitCode::SUCCESS
}
