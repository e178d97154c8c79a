//! The multi-core system: cores + hierarchy + memory-controller observer.
//!
//! # Scheduling
//!
//! [`System::run`] steps cores in global `(local clock, core index)` order.
//! Each live core's next event is one packed key, `(clock << idx_bits) |
//! core`, in a winner tree: a complete binary tree whose leaves are the
//! cores and whose every inner node holds the smaller of its two children,
//! so the root is the earliest core. The earliest core keeps stepping while
//! its key stays below the runner-up (the smallest sibling on its
//! leaf-to-root path) — the common case, because cores drift apart in time —
//! and only at the end of such a streak does the tree replay that one path.
//! Prefetch draining is likewise event-driven: the observer's earliest
//! pending release time is cached and re-read only after an LLC eviction
//! (the only event that schedules a prefetch) or a drain.
//!
//! The schedule is identical to a linear min-scan over `(clock, index)`
//! before every step, which `tests/scheduler_regression.rs` checks against
//! a naive reference scheduler at 1 to 64 cores.

use crate::core::{AccessSource, Core};
use crate::hierarchy::Hierarchy;
use crate::observer::TrafficObserver;
use crate::stats::HierarchyStats;
use crate::types::{CoreId, Cycle};

/// Result of a simulation run.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Per-core completion time (local clock when the core finished its
    /// instruction quota or exhausted its source).
    pub completion_cycles: Vec<Cycle>,
    /// Per-core instructions retired.
    pub instructions: Vec<u64>,
    /// Hierarchy statistics at the end of the run.
    pub stats: HierarchyStats,
    /// Total DRAM demand reads.
    pub dram_reads: u64,
    /// Total DRAM prefetch reads.
    pub dram_prefetch_reads: u64,
    /// Total DRAM writebacks.
    pub dram_writes: u64,
}

impl SimReport {
    /// Overall execution time: the slowest core's completion time.
    #[must_use]
    pub fn makespan(&self) -> Cycle {
        self.completion_cycles.iter().copied().max().unwrap_or(0)
    }

    /// Instructions per cycle of one core.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    #[must_use]
    pub fn ipc(&self, core: CoreId) -> f64 {
        let cycles = self.completion_cycles[core.0];
        if cycles == 0 {
            0.0
        } else {
            self.instructions[core.0] as f64 / cycles as f64
        }
    }

    /// Total instructions retired across all cores.
    #[must_use]
    pub fn total_instructions(&self) -> u64 {
        self.instructions.iter().sum()
    }
}

/// A complete simulated machine.
///
/// Generic over the observer so callers keep typed access to their monitor
/// (e.g. PiPoMonitor statistics) after the run.
///
/// # Examples
///
/// ```
/// use cache_sim::{Access, Addr, NullObserver, System, SystemConfig};
///
/// let mut addr = 0u64;
/// let stream = move || {
///     addr += 64;
///     Some(Access::read(Addr(addr)).after(3))
/// };
/// let mut system = System::new(SystemConfig::small_test(), NullObserver);
/// system.set_source(cache_sim::CoreId(0), Box::new(stream));
/// let report = system.run(10_000);
/// assert!(report.makespan() > 0);
/// ```
#[derive(Debug)]
pub struct System<O: TrafficObserver> {
    hierarchy: Hierarchy,
    cores: Vec<Core>,
    observer: O,
}

/// Leaves of the largest winner tree: the sharer bitmap's 64-core limit,
/// which [`Hierarchy::new`] enforces.
const MAX_CORES: usize = 64;

/// A source that immediately reports exhaustion (default for cores without
/// an assigned workload).
struct EmptySource;

impl AccessSource for EmptySource {
    fn next_access(&mut self) -> Option<crate::core::Access> {
        None
    }
}

impl<O: TrafficObserver> System<O> {
    /// Builds a system with idle cores; assign workloads with
    /// [`set_source`](Self::set_source).
    #[must_use]
    pub fn new(config: crate::config::SystemConfig, observer: O) -> Self {
        Self {
            cores: (0..config.cores)
                .map(|i| Core::new(CoreId(i), Box::new(EmptySource)))
                .collect(),
            hierarchy: Hierarchy::new(config),
            observer,
        }
    }

    /// Assigns a workload to a core.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn set_source(&mut self, core: CoreId, source: Box<dyn AccessSource + Send>) {
        self.cores[core.0] = Core::new(core, source);
    }

    /// The underlying hierarchy.
    #[must_use]
    pub fn hierarchy(&self) -> &Hierarchy {
        &self.hierarchy
    }

    /// The memory-controller observer (e.g. the PiPoMonitor instance).
    #[must_use]
    pub fn observer(&self) -> &O {
        &self.observer
    }

    /// Mutable access to the observer.
    pub fn observer_mut(&mut self) -> &mut O {
        &mut self.observer
    }

    /// Runs until every core has retired `instructions_per_core` instructions
    /// (or exhausted its source). Cores interleave in local-time order, which
    /// approximates concurrent execution on a shared hierarchy.
    ///
    /// Steady state performs no heap allocation per simulated access: the
    /// winner tree lives on the stack, and the observer's prefetch queue and
    /// the drain buffer are reused across steps.
    ///
    /// # Panics
    ///
    /// Panics if a core enters the run with a clock of `u64::MAX >> idx_bits`
    /// cycles or later, where `idx_bits` (at most 6) is the width of a core
    /// index: its packed schedule key would overflow.
    pub fn run(&mut self, instructions_per_core: u64) -> SimReport {
        let leaves = self.cores.len().next_power_of_two();
        let idx_bits = leaves.trailing_zeros();
        assert!(
            self.cores.iter().all(|c| c.now() < Cycle::MAX >> idx_bits),
            "core clock exceeds the packed schedule key's {} bits",
            64 - idx_bits
        );
        // Node `n` has children `2n` and `2n + 1`; core `i` is leaf
        // `leaves + i` and node 1 is the root. Parked leaves (retired cores
        // and the padding past the last core) hold `u64::MAX`, which loses
        // every match; live keys stay below it and are unique, because their
        // low bits hold the core index.
        let mut tree = [u64::MAX; 2 * MAX_CORES];
        for (idx, core) in self.cores.iter().enumerate() {
            if !core.is_exhausted() && core.retired() < instructions_per_core {
                tree[leaves + idx] = (core.now() << idx_bits) | idx as u64;
            }
        }
        for node in (1..leaves).rev() {
            tree[node] = tree[2 * node].min(tree[2 * node + 1]);
        }
        let mut due = self.observer.next_prefetch_due();
        let mut evictions_seen = self.hierarchy.stats().llc_evictions;
        loop {
            let min = tree[1];
            if min == u64::MAX {
                break;
            }
            let idx = (min & (leaves as u64 - 1)) as usize;
            let leaf = leaves + idx;
            // Runner-up: the smallest sibling on the winner's path to the root.
            let mut second = u64::MAX;
            let mut node = leaf;
            while node > 1 {
                second = second.min(tree[node ^ 1]);
                node >>= 1;
            }
            // Borrow the streaking core once (field-level split with
            // `hierarchy`/`observer`), and recover its clock from the key.
            let core = &mut self.cores[idx];
            let mut now = min >> idx_bits;
            tree[leaf] = loop {
                // The observer's earliest due time only moves when an LLC
                // eviction schedules a prefetch or a drain consumes one, so
                // the cached value is refreshed on those events instead of
                // re-queried every step (`llc_evictions` advances exactly
                // once per eviction notification).
                if due.is_some_and(|d| d <= now) {
                    self.hierarchy.drain_prefetches(now, &mut self.observer);
                    due = self.observer.next_prefetch_due();
                    evictions_seen = self.hierarchy.stats().llc_evictions;
                }
                if !core.step(&mut self.hierarchy, &mut self.observer) {
                    break u64::MAX;
                }
                let evictions = self.hierarchy.stats().llc_evictions;
                if evictions != evictions_seen {
                    evictions_seen = evictions;
                    due = self.observer.next_prefetch_due();
                }
                if core.retired() >= instructions_per_core {
                    break u64::MAX;
                }
                now = core.now();
                let key = (now << idx_bits) | idx as u64;
                if key >= second {
                    break key;
                }
            };
            // Replay the winner's path with its new key.
            let mut node = leaf;
            while node > 1 {
                node >>= 1;
                tree[node] = tree[2 * node].min(tree[2 * node + 1]);
            }
        }
        self.finish_run()
    }

    /// Flushes pending prefetches and assembles the report.
    fn finish_run(&mut self) -> SimReport {
        let end = self.cores.iter().map(Core::now).max().unwrap_or(0);
        self.hierarchy.drain_prefetches(end, &mut self.observer);
        SimReport {
            completion_cycles: self.cores.iter().map(Core::now).collect(),
            instructions: self.cores.iter().map(Core::retired).collect(),
            stats: self.hierarchy.stats().clone(),
            dram_reads: self.hierarchy.dram().reads(),
            dram_prefetch_reads: self.hierarchy.dram().prefetch_reads(),
            dram_writes: self.hierarchy.dram().writes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;
    use crate::core::Access;
    use crate::observer::NullObserver;
    use crate::types::{Addr, CoreId};

    fn stride_source(start: u64, stride: u64, think: Cycle) -> Box<dyn AccessSource + Send> {
        let mut addr = start;
        Box::new(move || {
            addr += stride;
            Some(Access::read(Addr(addr)).after(think))
        })
    }

    #[test]
    fn run_retires_requested_instructions() {
        let mut sys = System::new(SystemConfig::small_test(), NullObserver);
        sys.set_source(CoreId(0), stride_source(0, 64, 9));
        sys.set_source(CoreId(1), stride_source(1 << 30, 64, 9));
        let report = sys.run(1_000);
        for &i in &report.instructions {
            assert!(i >= 1_000, "retired {i}");
        }
        assert!(report.makespan() >= 1_000);
        assert!(report.ipc(CoreId(0)) > 0.0);
    }

    #[test]
    fn idle_core_finishes_immediately() {
        let mut sys = System::new(SystemConfig::small_test(), NullObserver);
        sys.set_source(CoreId(0), stride_source(0, 64, 1));
        // Core 1 keeps the default empty source.
        let report = sys.run(100);
        assert_eq!(report.instructions[1], 0);
        assert_eq!(report.completion_cycles[1], 0);
        assert!(report.instructions[0] >= 100);
    }

    #[test]
    fn hot_loop_is_faster_than_streaming() {
        // A tiny working set (all L1 hits) must finish sooner than a stream
        // of cold misses.
        let hot = {
            let mut i = 0u64;
            move || {
                i += 1;
                Some(Access::read(Addr((i % 4) * 64)).after(1))
            }
        };
        let mut sys_hot = System::new(SystemConfig::small_test(), NullObserver);
        sys_hot.set_source(CoreId(0), Box::new(hot));
        let hot_time = sys_hot.run(2_000).completion_cycles[0];

        let mut sys_cold = System::new(SystemConfig::small_test(), NullObserver);
        sys_cold.set_source(CoreId(0), stride_source(0, 1 << 20, 1));
        let cold_time = sys_cold.run(2_000).completion_cycles[0];

        assert!(
            hot_time * 10 < cold_time,
            "hot {hot_time} vs cold {cold_time}"
        );
    }

    #[test]
    fn deterministic_reruns() {
        let run = || {
            let mut sys = System::new(SystemConfig::small_test(), NullObserver);
            sys.set_source(CoreId(0), stride_source(0, 4096, 3));
            sys.set_source(CoreId(1), stride_source(1 << 28, 8192, 5));
            let r = sys.run(5_000);
            (r.completion_cycles.clone(), r.stats.llc_evictions)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn report_totals() {
        let mut sys = System::new(SystemConfig::small_test(), NullObserver);
        sys.set_source(CoreId(0), stride_source(0, 64, 0));
        let r = sys.run(50);
        assert_eq!(r.total_instructions(), r.instructions.iter().sum::<u64>());
        assert!(r.dram_reads > 0);
    }
}
