//! A deterministic, trace-driven multi-core cache-hierarchy simulator.
//!
//! This crate is the substrate for the PiPoMonitor reproduction — it stands in
//! for the Gem5 setup of the paper's evaluation (§VII-A, Table II). It models:
//!
//! * private, inclusive L1 and L2 caches per core;
//! * a shared, inclusive L3 (LLC) with a directory-style sharer bitmap,
//!   back-invalidation on eviction (the signal cross-core attackers exploit),
//!   and MESI-flavoured write invalidations;
//! * a fixed-latency DRAM behind a memory controller;
//! * a [`TrafficObserver`] hook at the memory controller where PiPoMonitor
//!   (or any other defense) watches LLC↔memory traffic and injects
//!   prefetches.
//!
//! Every level holds [`LINE_SIZE`]-byte lines. The line size is a constant
//! of the modelled machine (64 bytes, Table II), not a [`SystemConfig`]
//! field: the caches, the observer hook and PiPoMonitor's filter all work
//! on [`LineAddr`]s, and every workload, attack and harness maps bytes to
//! lines through the same constant ([`Addr::line`]). The machine's timing
//! is fixed beside it, from the same table: [`L1_LATENCY`],
//! [`L2_LATENCY`] and [`LLC_LATENCY`] per hit (2, 18 and 35 cycles) and
//! [`DRAM_LATENCY`] per memory access (200 cycles). A [`SystemConfig`]
//! sets only the core count, each level's sets and ways, and the
//! replacement policy.
//!
//! Everything is deterministic: replacement randomness comes from seeded
//! generators, so every experiment is exactly reproducible.
//!
//! The simulation hot path is engineered to be allocation-free in steady
//! state. [`System::run`] runs each core's private L1 hits ahead of the
//! schedule, recording them in a fixed per-core array and redoing the rare
//! one another core's access disturbs. Only the remaining shared-state
//! steps (misses, write upgrades, refills and prefetch drains) are ordered,
//! through a stack-allocated winner tree of packed `(clock, core)` keys.
//! Prefetch draining is event-driven through
//! [`TrafficObserver::next_prefetch_due`] and the buffer-reusing
//! [`TrafficObserver::drain_due_prefetches`] sink API, and [`Cache`] packs
//! one-byte tag fingerprints eight to a word, so a probe compares a whole
//! 8-way set in one word operation before it reads any full tag.
//! A machine built right after one of the same configuration was dropped
//! reuses its cache arrays instead of allocating them again (see
//! [`Hierarchy::new`]).
//! `tests/scheduler_regression.rs` pins the engine's results bit-exactly
//! and checks the scheduler against a naive reference, and
//! `tests/no_alloc_hot_path.rs` counts allocations to keep these properties
//! honest.
//!
//! One simulation always runs on one host thread. Parallelism lives a level
//! up: a [`System`] is `Send` and shares nothing with other systems, so
//! harnesses fan independent simulations across threads (see the
//! `pipo_bench` sweep engine and `ARCHITECTURE.md` at the repository root).
//!
//! # Examples
//!
//! ```
//! use cache_sim::{Hierarchy, NullObserver, SystemConfig, AccessKind, Addr, CoreId};
//!
//! let mut hierarchy = Hierarchy::new(SystemConfig::paper_default());
//! let mut observer = NullObserver;
//! // First access goes to memory; the second hits in L1.
//! let miss = hierarchy.access(CoreId(0), Addr(0x1000), AccessKind::Read, 0, &mut observer);
//! let hit = hierarchy.access(CoreId(0), Addr(0x1000), AccessKind::Read, 100, &mut observer);
//! assert!(miss.latency > hit.latency);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod config;
pub mod core;
pub mod dram;
pub mod hierarchy;
pub mod line;
pub mod observer;
pub mod replacement;
pub mod stats;
pub mod system;
pub mod types;

pub use cache::{Cache, EvictedLine};
pub use config::{CacheGeometry, SystemConfig};
pub use core::{Access, AccessSource, Core};
pub use dram::Dram;
pub use hierarchy::Hierarchy;
pub use line::{LineMeta, SharerSet};
pub use observer::{NullObserver, RecordingObserver, TrafficObserver};
pub use replacement::Replacement;
pub use stats::{CoreStats, HierarchyStats, LevelStats};
pub use system::{SimReport, System};
pub use types::{
    AccessKind, AccessResult, Addr, CoreId, Cycle, Level, LineAddr, DRAM_LATENCY, L1_LATENCY,
    L2_LATENCY, LINE_SIZE, LLC_LATENCY,
};
