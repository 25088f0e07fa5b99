//! # uvf-serve
//!
//! Cross-process campaign execution: PR 1–2 made a *single process*
//! crash-resilient (watchdog, retry/backoff, checkpointed resume); this
//! crate extends the same guarantees across *worker processes* that can
//! be SIGKILLed, hang, or never start.
//!
//! ## Architecture
//!
//! ```text
//!   CampaignServer ── owns ──▶ JobQueue (leases) + CheckpointStore
//!        ▲  ▲  ▲
//!        │  │  │   length-prefixed JSON frames (unix:/tcp:)
//!   worker worker worker        ◀── Supervisor spawns / respawns
//! ```
//!
//! * [`protocol`] — the length-prefixed wire format and [`Endpoint`]s;
//! * [`server`] — the job-leasing, event-merging campaign server;
//! * [`worker`] — the pull-loop a worker process runs;
//! * [`supervisor`] — process fleet keeper (spawn, reap, respawn, and
//!   deliberate SIGKILL for chaos tests);
//! * [`observatory`] — the server's passive metrics plane: fleet-wide
//!   aggregation, per-worker crash-tail rings,
//!   and bounded per-subscriber event queues;
//! * [`subscribe`] — the client side of live event-log tailing
//!   ([`Subscription`]), plus the std-only `GET /metrics` endpoint the
//!   server exposes when [`ServerConfig::metrics_addr`] is set.
//!
//! ## The invariant
//!
//! However many workers run, die, or hang, a finished campaign's records,
//! checkpoint fingerprints and [`CampaignManifest`] are **byte-identical**
//! to the in-process [`Campaign`] running the same jobs sequentially.
//! Determinism does the heavy lifting: every sweep draw is keyed by
//! position, so *who* computes a job cannot change its bytes — the server
//! only has to make sure every job is eventually computed by someone, and
//! recovery (lease expiry → reassignment → checkpointed resume) is
//! visible as ordered trace events rather than as different results.
//!
//! [`Campaign`]: uvf_characterize::Campaign
//! [`CampaignManifest`]: uvf_characterize::CampaignManifest

#![deny(deprecated)]

mod metrics_http;
pub mod observatory;
pub mod protocol;
pub mod server;
pub mod subscribe;
pub mod supervisor;
pub mod worker;

pub use observatory::Observatory;
pub use protocol::{BoundListener, Conn, Endpoint, Message, MAX_FRAME_BYTES};
pub use server::{CampaignServer, ServeError, ServerConfig, ServerHandle, ServerResult, Snapshot};
pub use subscribe::{Batch, Subscription};
pub use supervisor::Supervisor;
pub use worker::{run_worker, WorkerOptions};
