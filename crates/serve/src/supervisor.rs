//! Worker-process supervision: spawn a fleet, reap the dead, respawn
//! replacements with the same jittered-exponential [`Backoff`] the
//! harness watchdog uses.
//!
//! The supervisor is intentionally dumb: it knows nothing about jobs or
//! leases. Recovery semantics live entirely in the server (lease expiry,
//! reassignment) and the checkpoint store (resume); the supervisor's only
//! duty is keeping the configured number of worker processes alive — and,
//! in chaos tests, killing them on purpose via [`Supervisor::kill`]
//! (SIGKILL: the worker gets no chance to clean up, which is the point).

use std::io;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::Duration;
use uvf_characterize::prelude::Backoff;

/// One supervised slot: the process currently filling it (if alive) and
/// how many times it has been restarted.
struct Slot {
    child: Option<Child>,
    restarts: u32,
}

/// Spawns and restarts worker processes running `program args…`.
pub struct Supervisor {
    program: PathBuf,
    args: Vec<String>,
    backoff: Backoff,
    slots: Vec<Slot>,
}

impl Supervisor {
    /// A supervisor for `program` invoked with `args` (every slot runs
    /// the identical command line; worker identity comes from the pid).
    #[must_use]
    pub fn new(program: impl Into<PathBuf>, args: Vec<String>) -> Supervisor {
        Supervisor {
            program: program.into(),
            args,
            backoff: Backoff::new(50, 2_000),
            slots: Vec::new(),
        }
    }

    fn launch(&self) -> io::Result<Child> {
        Command::new(&self.program)
            .args(&self.args)
            .stdin(Stdio::null())
            .spawn()
    }

    /// Add `n` freshly spawned workers.
    pub fn spawn(&mut self, n: usize) -> io::Result<()> {
        for _ in 0..n {
            let child = self.launch()?;
            self.slots.push(Slot {
                child: Some(child),
                restarts: 0,
            });
        }
        Ok(())
    }

    /// SIGKILL slot `i` and reap it (chaos injection: the worker dies
    /// mid-whatever-it-was-doing, exactly like an OOM kill).
    pub fn kill(&mut self, i: usize) -> io::Result<()> {
        if let Some(child) = &mut self.slots[i].child {
            child.kill()?;
            child.wait()?;
            self.slots[i].child = None;
        }
        Ok(())
    }

    /// Reap every dead slot and respawn it after a jittered-exponential
    /// delay (per-slot attempt count, so one crash-looping slot backs off
    /// without slowing the others). Returns the respawned slot indices.
    pub fn restart_dead(&mut self) -> io::Result<Vec<usize>> {
        let mut restarted = Vec::new();
        for i in 0..self.slots.len() {
            let dead = match &mut self.slots[i].child {
                None => true,
                Some(child) => child.try_wait()?.is_some(),
            };
            if dead {
                let attempt = self.slots[i].restarts;
                std::thread::sleep(Duration::from_millis(
                    self.backoff.delay_ms(attempt, i as u64),
                ));
                self.slots[i].child = Some(self.launch()?);
                self.slots[i].restarts += 1;
                restarted.push(i);
            }
        }
        Ok(restarted)
    }

    /// Kill and reap every worker (campaign over or test teardown).
    pub fn shutdown(&mut self) {
        for slot in &mut self.slots {
            if let Some(child) = &mut slot.child {
                let _ = child.kill();
                let _ = child.wait();
            }
            slot.child = None;
        }
    }
}

impl Drop for Supervisor {
    fn drop(&mut self) {
        self.shutdown();
    }
}
