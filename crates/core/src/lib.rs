//! PiPoMonitor: a stateful, detection-based defense against cross-core
//! last-level-cache side-channel attacks.
//!
//! PiPoMonitor sits in the memory controller and watches LLC↔memory traffic
//! through the [`cache_sim::TrafficObserver`] hook. Every demand fetch is
//! recorded in a pluggable [`auto_cuckoo::PatternStore`] (by default the
//! paper's Auto-Cuckoo filter, [`auto_cuckoo::CuckooFilter::auto`]); when a
//! line's re-access (`Security`) counter reaches `secThr` it is captured as a
//! **Ping-Pong line** — the temporal signature of an attacker repeatedly
//! evicting a victim line and the victim re-fetching it. Captured lines are
//! tagged in the LLC; when a tagged-and-accessed line is evicted, the
//! monitor prefetches it back after a short delay, so the attacker's probes
//! always observe a resident line and learn nothing.
//!
//! The hardware cost (§VII-D) is read from the store itself:
//! [`OverheadReport::for_store`] prices a built store's
//! [`memory_bytes`](auto_cuckoo::PatternStore::memory_bytes) against the
//! LLC it protects, and [`area_estimate_mm2`] scales those bytes to silicon
//! area from the paper's CACTI data point.
//!
//! The monitor participates in the simulator's allocation-free hot path: its
//! [`PrefetchQueue`] deduplicates pending lines through an O(1) membership
//! set, exposes the earliest release time via [`PrefetchQueue::next_due`] so
//! the system only drains when a prefetch is actually due, and drains into a
//! caller-owned reusable buffer ([`PrefetchQueue::drain_due_into`]) instead
//! of allocating a `Vec` per call.
//!
//! # Examples
//!
//! Running a workload on a monitored system:
//!
//! ```
//! use cache_sim::{Access, Addr, CoreId, System, SystemConfig};
//! use pipomonitor::{MonitorConfig, PiPoMonitor};
//!
//! # fn main() -> Result<(), pipomonitor::BuildMonitorError> {
//! let monitor = PiPoMonitor::new(MonitorConfig::paper_default())?;
//! let mut system = System::new(SystemConfig::small_test(), monitor);
//! let mut i = 0u64;
//! system.set_source(CoreId(0), Box::new(move || {
//!     i += 1;
//!     Some(Access::read(Addr((i % 128) * 64)).after(5))
//! }));
//! let report = system.run(10_000);
//! let stats = system.observer().stats();
//! assert_eq!(stats.fetches_observed, report.stats.total_memory_fetches());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod monitor;
pub mod overhead;
pub mod prefetch;

pub use config::{BuildMonitorError, MonitorConfig};
pub use monitor::{MonitorStats, PiPoMonitor};
pub use overhead::{area_estimate_mm2, OverheadReport};
pub use prefetch::PrefetchQueue;
