//! Campaign worker process: connects to a `uvf-serve` campaign server,
//! pulls sweep jobs, streams trace events back, and exits when the
//! campaign is over. Spawned by [`uvf_serve::Supervisor`] or by hand:
//!
//! ```text
//! uvf-serve-worker --endpoint unix:/tmp/campaign.sock [--worker-id N]
//!                  [--throttle-ms N] [--chunk-runs N] [--hang]
//! ```
//!
//! `--throttle-ms` / `--hang` are chaos knobs for the kill-tolerance
//! tests; see [`uvf_serve::WorkerOptions`]. `repro work` takes the same
//! arguments through the same [`WorkerOptions::from_args`].

use std::process::ExitCode;
use uvf_serve::worker::{run_worker, WorkerOptions};

const USAGE: &str = "usage: uvf-serve-worker --endpoint <unix:PATH|tcp:HOST:PORT> \
[--worker-id N] [--throttle-ms N] [--chunk-runs N] [--hang]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match WorkerOptions::from_args(&args) {
        Ok(opts) => opts,
        Err(msg) => {
            eprintln!("uvf-serve-worker: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run_worker(&opts) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("uvf-serve-worker: {e}");
            ExitCode::FAILURE
        }
    }
}
