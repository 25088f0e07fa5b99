//! The three workloads. Each stresses different layers, so an optimization
//! of one layer moves one workload and leaves another unchanged.

pub mod accelerator;
pub mod characterize;
pub mod serve;

pub use accelerator::Accelerator;
pub use characterize::Characterize;
pub use serve::Serve;
