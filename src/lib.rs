//! Umbrella crate for the PiPoMonitor reproduction workspace.
//!
//! Re-exports the member crates so the examples and integration tests under
//! the repository root can use one coherent namespace. Library users should
//! depend on the member crates directly.

#![forbid(unsafe_code)]

pub use auto_cuckoo;
pub use cache_sim;
pub use pipo_attacks;
pub use pipo_workloads;
pub use pipomonitor;
