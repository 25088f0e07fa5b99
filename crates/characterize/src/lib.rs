//! `uvf-characterize`: the paper's Listing-1 characterization campaign,
//! made crash-resilient.
//!
//! Layering:
//!
//! * [`json`] — dependency-free JSON with byte-stable serialization (now
//!   owned by `uvf-trace`, re-exported here for compatibility),
//! * [`record`] — sweep records, crash telemetry and atomic checkpoints,
//! * [`sweep`] — Listing-1 configuration and the BRAM/logic probes,
//! * [`parallel`] — deterministic scoped-thread fan-out of the per-BRAM
//!   probe scan (bit-identical to the sequential baseline),
//! * [`harness`] — watchdog + retry/backoff + power-cycle recovery +
//!   checkpointed resume (the crash-resilience core),
//! * [`campaign`] — multi-board runner: one harness per die on a
//!   work-stealing queue with a shared checkpoint directory,
//! * [`guardband`] — `Vmin`/`Vcrash` discovery reports over the harness,
//! * [`stats`] — the Fig. 5–8 statistical analyses (location χ², k-means
//!   vulnerability clusters, thermal regression) over `uvf-stats`,
//! * [`search`] — `Vmin` binary search: O(log levels) single-level
//!   harness probes that bracket the exhaustive sweep's boundary.
//!
//! The central invariant: a sweep interrupted anywhere — board hang, run
//! budget, process death — resumes from its checkpoint and produces a
//! record *bit-identical* to an uninterrupted sweep, because every
//! stochastic draw is keyed by position (level, run, attempt), never by
//! wall-clock or call count.

#![deny(deprecated)]

pub mod backoff;
pub mod campaign;
pub mod guardband;
pub mod harness;
pub mod parallel;
pub mod record;
pub mod search;
pub mod stats;
pub mod store;
pub mod sweep;

/// Byte-stable JSON (de)serialization. The module moved to [`uvf_trace`]
/// so the event log and run manifests share it; this re-export keeps
/// every existing `uvf_characterize::json::…` path working.
pub use uvf_trace::json;

pub use backoff::Backoff;
pub use campaign::{Campaign, CampaignEntry, CampaignJob, CampaignManifest, ManifestEntry};
pub use guardband::{discover, discover_all, GuardbandReport};
pub use harness::{
    Harness, HarnessError, HarnessStatus, RecoveryPolicy, ScanEngine, SimClock, MS_PER_RUN,
};
pub use json::{Json, JsonError};
pub use parallel::{available_threads, platform_level_counts};
pub use record::{
    Checkpoint, CrashEvent, FvmRecord, LevelRecord, RecordError, RunRecord, SweepOutcome,
    SweepRecord, RECORD_VERSION,
};
pub use search::{VminProbe, VminSearch, VminSearchReport};
pub use stats::{
    bram_rates_per_mbit, cluster_brams, BramClusters, LocationStats, ThermalCampaign, ThermalPoint,
    ThermalReport, LOCATION_ALPHA,
};
pub use store::{CheckpointStore, JobQueue, LeaseState};
pub use sweep::{Probe, SweepConfig, SweepConfigBuilder};
/// The die cache lives in [`uvf_faults`], where `FaultModel::with_chip_seed`
/// shares it; re-exported for the sweep-side callers that import it here.
pub use uvf_faults::FvmCache;
pub use uvf_trace::{Tracer, TracerBuilder};

/// The one-stop import for downstream crates (`uvf-accel`, `uvf-bench`,
/// examples): everything needed to configure, run and persist a
/// characterization campaign, without deep-importing `sweep::`/`harness::`
/// module paths.
///
/// ```
/// use uvf_characterize::prelude::*;
///
/// let cfg = SweepConfig::builder(uvf_fpga::Rail::Vccbram).runs(2).build();
/// assert!(cfg.validate().is_ok());
/// ```
pub mod prelude {
    pub use crate::backoff::Backoff;
    pub use crate::campaign::{
        Campaign, CampaignEntry, CampaignJob, CampaignManifest, ManifestEntry,
    };
    pub use crate::guardband::{discover, discover_all, GuardbandReport};
    pub use crate::harness::{Harness, HarnessError, HarnessStatus, RecoveryPolicy, ScanEngine};
    pub use crate::json::Json;
    pub use crate::parallel::available_threads;
    pub use crate::record::{Checkpoint, FvmRecord, LevelRecord, SweepOutcome, SweepRecord};
    pub use crate::search::{VminProbe, VminSearch, VminSearchReport};
    pub use crate::stats::{
        bram_rates_per_mbit, cluster_brams, BramClusters, LocationStats, ThermalCampaign,
        ThermalPoint, ThermalReport, LOCATION_ALPHA,
    };
    pub use crate::store::{CheckpointStore, JobQueue, LeaseState};
    pub use crate::sweep::{Probe, SweepConfig, SweepConfigBuilder};
    pub use uvf_faults::FvmCache;
    pub use uvf_trace::{Tracer, TracerBuilder};
}
