//! The multi-core system: cores + hierarchy + memory-controller observer.
//!
//! # Scheduling
//!
//! [`System::run`] gives the result of stepping cores one access at a time
//! in global `(local clock, core index)` order, draining due prefetches
//! before each step. It orders only the steps that touch shared state.
//!
//! **Run-ahead.** Most accesses are *private hits*: an L1 read hit, or an
//! L1 write hit on a copy in MESI's modified state. A private hit touches
//! only its core's L1 replacement state and counters. So each core first
//! runs the private hits at the head of its current batch of accesses ahead
//! of the schedule. It only probes its L1 and records each hit's start
//! clock, retired count, set and way in a fixed array. It stops before its
//! next other access, at the end of the batch, at its quota, or before a
//! step that would start at or after the observer's next prefetch due time.
//! The recorded replacement touches and L1 hit and stall counts are applied
//! in program order just before the core's next in-order step, and before
//! `run` returns.
//!
//! **Ordering shared events.** Each core's next unexecuted step is one
//! packed key, `(clock << idx_bits) | core`, in a winner tree: a complete
//! binary tree whose leaves are the cores and whose every inner node holds
//! the smaller of its two children, so the root is the earliest core. Its
//! step — a miss, a write upgrade, a batch refill, or a hit the run-ahead
//! stopped before — runs in order through [`Core::step`], after a drain
//! when a prefetch is due. The core then runs ahead again, and keeps the
//! schedule while its key stays below the runner-up (the smallest sibling
//! on its leaf-to-root path); only then does the tree replay that one path.
//! The observer's earliest pending release time is cached and re-read only
//! after an LLC eviction (the only event that schedules a prefetch) or a
//! drain.
//!
//! **Redoing disturbed hits.** An in-order step can disturb the hits other
//! cores ran past it, those whose own key is larger. It can remove their L1
//! line or clear its modified flag: the hierarchy reports, in one mask, the
//! cores it did that to, and only those re-probe the hits they ran past the
//! step. Each drops the first hit that no longer hits and everything after
//! it, and resumes at that hit's start. An LLC eviction can also move the
//! prefetch due time earlier; then every core drops the hits past the step
//! that start at or after the new due time, so the drain comes first. This
//! is optimistic execution in the sense of Time Warp (Jefferson, TOPLAS
//! 1985), kept on one thread and limited to private hits. Drains need no
//! such check: no hit runs ahead to a due time.
//!
//! The schedule is identical to a linear min-scan over `(clock, index)`
//! before every step, which `tests/scheduler_regression.rs` checks against
//! a naive reference scheduler at 1 to 64 cores, on lines that cores share
//! and write, and under LRU, Tree-PLRU and random replacement.

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
    /// The result is that of stepping cores one access at a time in global
    /// `(clock, core index)` order, draining due prefetches before each step
    /// (see the module docs for how the schedule gets there). Every hit run
    /// ahead is committed before the call returns, so a resumed `run`
    /// starts with nothing pending.
    ///
    /// Steady state performs no heap allocation per simulated access: the
    /// winner tree lives on the stack, each core records its run-ahead hits
    /// in a fixed array, and the observer's prefetch queue and the drain
    /// buffer are reused across steps.
    ///
    /// # Panics
    ///
    /// Panics if a core enters the run with a clock of `u64::MAX >> idx_bits`
    /// cycles or later, where `idx_bits` (at most 6) is the width of a core
    /// index: its packed schedule key would overflow.
    pub fn run(&mut self, instructions_per_core: u64) -> SimReport {
        let quota = instructions_per_core;
        let leaves = self.cores.len().next_power_of_two();
        let idx_bits = leaves.trailing_zeros();
        assert!(
            self.cores.iter().all(|c| c.now() < Cycle::MAX >> idx_bits),
            "core clock exceeds the packed schedule key's {} bits",
            64 - idx_bits
        );
        // A core's schedule key: the clock and index of its next unexecuted
        // step. Retired cores hold `u64::MAX`, which loses every match; live
        // keys stay below it and are unique, because their low bits hold
        // the core index.
        let key = |core: &Core, idx: usize| {
            if core.is_exhausted() || core.retired() >= quota {
                u64::MAX
            } else {
                (core.now() << idx_bits) | idx as u64
            }
        };
        // The observer's earliest due time only moves when an LLC eviction
        // schedules a prefetch or a drain consumes one, so the cached value
        // is refreshed on those events instead of re-queried every step
        // (`llc_evictions` advances exactly once per eviction notification).
        let next_due = |observer: &O| observer.next_prefetch_due().unwrap_or(Cycle::MAX);
        let mut due = next_due(&self.observer);
        let mut evictions_seen = self.hierarchy.stats().llc_evictions;
        // Node `n` has children `2n` and `2n + 1`; core `i` is leaf
        // `leaves + i` and node 1 is the root. The padding leaves past the
        // last core stay parked.
        let mut tree = [u64::MAX; 2 * MAX_CORES];
        for (idx, core) in self.cores.iter_mut().enumerate() {
            core.run_ahead(&self.hierarchy, due, quota);
            tree[leaves + idx] = key(core, idx);
        }
        for node in (1..leaves).rev() {
            tree[node] = tree[2 * node].min(tree[2 * node + 1]);
        }
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
            let mut event = min;
            tree[leaf] = loop {
                let now = event >> idx_bits;
                if due <= now {
                    self.hierarchy.drain_prefetches(now, &mut self.observer);
                    due = next_due(&self.observer);
                    evictions_seen = self.hierarchy.stats().llc_evictions;
                }
                self.cores[idx].step(&mut self.hierarchy, &mut self.observer);
                // The step is a shared event at key `event`. Other cores may
                // have run hits past it that it disturbed: they lost the
                // line or its modified flag, or a prefetch became due before
                // them.
                let lost = self.hierarchy.take_l1_losses() & !(1 << idx);
                let mut cutoff = Cycle::MAX;
                let evictions = self.hierarchy.stats().llc_evictions;
                if evictions != evictions_seen {
                    evictions_seen = evictions;
                    let next = next_due(&self.observer);
                    if next < due {
                        cutoff = next;
                    }
                    due = next;
                }
                let mut dropped = 0;
                if lost != 0 || cutoff != Cycle::MAX {
                    dropped = self.drop_disturbed_hits(event, idx_bits, lost, cutoff);
                    for other in bits(dropped) {
                        tree[leaves + other] = key(&self.cores[other], other);
                        replay(&mut tree, leaves + other);
                    }
                }
                let core = &mut self.cores[idx];
                core.run_ahead(&self.hierarchy, due, quota);
                event = key(core, idx);
                // The core keeps the schedule while it stays the earliest;
                // a drop may have moved another core ahead of it.
                if event >= second || dropped != 0 {
                    break event;
                }
            };
            replay(&mut tree, leaf);
        }
        self.finish_run()
    }

    /// Drops the run-ahead hits that the shared event at schedule key
    /// `event` disturbed, and returns the cores that dropped any, one bit
    /// each. Only hits whose own key comes after `event` can be disturbed.
    /// The cores in `lost` re-probe theirs and drop the first that no
    /// longer hits, with everything after it. When `cutoff` is a prefetch
    /// due time the event moved earlier, every core drops its hits that
    /// start at or after it, so the drain happens before them.
    #[inline(never)]
    fn drop_disturbed_hits(&mut self, event: u64, idx_bits: u32, lost: u64, cutoff: Cycle) -> u64 {
        let now = event >> idx_bits;
        let idx = (event & ((1 << idx_bits) - 1)) as usize;
        // A hit at the event's clock comes after it only on a higher core
        // index.
        let from = |other: usize| now + u64::from(other < idx);
        let mut dropped = 0;
        if cutoff != Cycle::MAX {
            for (other, core) in self.cores.iter_mut().enumerate() {
                let from = from(other).max(cutoff);
                if core.drop_hits_from(from) {
                    dropped |= 1 << other;
                }
            }
        }
        for other in bits(lost) {
            let from = from(other);
            if self.cores[other].recheck_hits_from(&self.hierarchy, from) {
                dropped |= 1 << other;
            }
        }
        dropped
    }

    /// Commits the hits run ahead, flushes pending prefetches and assembles
    /// the report.
    fn finish_run(&mut self) -> SimReport {
        for core in &mut self.cores {
            core.commit_hits(&mut self.hierarchy);
        }
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

/// The indices of the set bits of `mask`, lowest first.
fn bits(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let bit = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            bit
        })
    })
}

/// Recomputes the winner tree's nodes on the path from `leaf` to the root.
#[inline]
fn replay(tree: &mut [u64; 2 * MAX_CORES], leaf: usize) {
    let mut node = leaf;
    while node > 1 {
        node >>= 1;
        tree[node] = tree[2 * node].min(tree[2 * node + 1]);
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
