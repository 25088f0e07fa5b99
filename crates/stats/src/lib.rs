//! `uvf-stats` — the statistical estimators behind the paper's Fig. 5–8
//! analyses, implemented from first principles because the build
//! environment is offline (no `statrs`/`linfa`; see the workspace
//! manifest).
//!
//! The crate is *near-leaf*: pure math over slices, no I/O. Its only
//! workspace dependency is `uvf_fpga::seedmix` for the shared SplitMix64
//! stream (one PRNG implementation to audit, pinned bit-identical to the
//! private copy this crate used to carry). `uvf-characterize` wires these
//! estimators to fault-model data (per-BRAM fault rates, die-location
//! histograms, temperature campaigns) and `uvf-trace` events.
//!
//! Every estimator honors the workspace determinism contract: given the
//! same inputs (and, for k-means, the same seed) the result is
//! bit-identical across calls, processes and thread counts — nothing in
//! here reads a clock or ambient randomness.
//!
//! * [`kmeans`] — seeded 1-D k-means++ with Lloyd iterations and
//!   silhouette-based `k` selection (Fig. 5's vulnerability clusters),
//! * [`chi2`] — Pearson χ² goodness-of-fit with a real p-value via the
//!   regularized incomplete gamma function (Figs. 6–7 location
//!   non-uniformity),
//! * [`regression`] — ordinary least squares over `(x, y)` pairs (Fig. 8's
//!   inverse thermal slope),
//! * [`describe`] — the shared scalar summaries (mean, median).

#![deny(deprecated)]

pub mod chi2;
pub mod describe;
pub mod kmeans;
pub mod regression;

pub use chi2::{chi2_gof, chi2_uniform, gamma_q, ln_gamma, Chi2};
pub use describe::{mean, median};
pub use kmeans::{kmeans_1d, select_k, silhouette_1d, KMeans, KSelection};
pub use regression::{linear_fit, LinFit};
