//! The multi-core system: cores + hierarchy + memory-controller observer.
//!
//! # Scheduling
//!
//! [`System::run`] is event-driven: live cores sit in a binary min-heap keyed
//! by `(local clock, core index)`, and the earliest core is popped and
//! stepped. While the popped core remains strictly earliest it keeps
//! stepping without touching the heap (the common case — cores drift apart
//! in time), so scheduler cost is amortized far below one heap operation per
//! access. Prefetch draining is likewise event-driven: the observer is asked
//! for its earliest pending release time (a static call on the concrete
//! observer type) and drained only when that time has arrived, instead of
//! being polled before every step.
//!
//! The schedule this produces is identical to the previous linear min-scan
//! (ties broken toward the lowest core index), which
//! `tests/scheduler_regression.rs` pins bit-exactly.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

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
    /// Reusable scheduler heap of `(next event time, core index)`; kept
    /// across runs so repeated [`run`](Self::run) calls do not reallocate.
    schedule: BinaryHeap<Reverse<(Cycle, usize)>>,
}

/// Core-count ceiling for the linear-scan scheduler; larger machines use
/// the binary heap ([`System::run_heap`]).
const SCAN_CORES: usize = 8;

/// Low bits of a packed scan key holding the core index (supports
/// [`SCAN_CORES`] ≤ 16). The time component occupies the remaining 60 bits;
/// the scan path is only entered while every core clock fits them (2^60
/// cycles — decades of simulated time), so the packing never wraps.
const KEY_IDX_BITS: u32 = 4;

/// Smallest and second-smallest of the two keys, branchlessly.
#[inline]
fn sort2(a: u64, b: u64) -> (u64, u64) {
    (a.min(b), a.max(b))
}

/// Smallest and second-smallest of the four keys, branchlessly: the runner-up
/// is the smaller of "larger pair-minimum" and "smaller pair-maximum".
#[inline]
fn min2_of4(k: &[u64]) -> (u64, u64) {
    let (a, b) = sort2(k[0], k[1]);
    let (c, d) = sort2(k[2], k[3]);
    (a.min(c), a.max(c).min(b.min(d)))
}

/// Smallest and second-smallest of the eight packed scan keys as a tournament
/// of `min`/`max` pairs (conditional moves, no data-dependent branches).
/// Parked slots hold `u64::MAX` and lose every match; live keys are unique
/// (the low bits carry the core index), so ties only occur among sentinels.
#[inline]
fn min_and_runner_up(keys: &[u64; SCAN_CORES]) -> (u64, u64) {
    let (ma, sa) = min2_of4(&keys[..4]);
    let (mb, sb) = min2_of4(&keys[4..]);
    let min = ma.min(mb);
    let second = if ma < mb { sa.min(mb) } else { sb.min(ma) };
    (min, second)
}

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
        let cores: Vec<Core> = (0..config.cores)
            .map(|i| Core::new(CoreId(i), Box::new(EmptySource)))
            .collect();
        let schedule = BinaryHeap::with_capacity(cores.len());
        Self {
            hierarchy: Hierarchy::new(config),
            cores,
            observer,
            schedule,
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
    /// scheduler heap, the observer's prefetch queue, and the drain buffer
    /// are all reused across steps.
    pub fn run(&mut self, instructions_per_core: u64) -> SimReport {
        // Small machines (the paper's 4-core configuration and most tests)
        // schedule through a branch-light linear scan over packed keys
        // instead of the binary heap: finding the minimum of ≤ 8 integers
        // is a handful of conditional moves, where every heap pop/push is a
        // chain of data-dependent compares and swaps that the branch
        // predictor loses on. Both paths produce the identical
        // `(time, core index)` step order.
        if self.cores.len() <= SCAN_CORES
            && self
                .cores
                .iter()
                .all(|c| c.now() < Cycle::MAX >> KEY_IDX_BITS)
        {
            self.run_scan(instructions_per_core);
        } else {
            self.run_heap(instructions_per_core);
        }
        self.finish_run()
    }

    /// Linear-scan scheduler for ≤ [`SCAN_CORES`] cores. Each live core's
    /// next event is packed as `(time << KEY_IDX_BITS) | index` — an
    /// order-preserving encoding of the `(time, index)` schedule key — and
    /// retired cores park at `u64::MAX`. One pass computes the minimum and
    /// the runner-up; the minimum core then streaks until its key passes
    /// the runner-up, exactly like the heap path.
    fn run_scan(&mut self, instructions_per_core: u64) {
        let mut keys = [u64::MAX; SCAN_CORES];
        for (idx, core) in self.cores.iter().enumerate() {
            if !core.is_exhausted() && core.retired() < instructions_per_core {
                keys[idx] = (core.now() << KEY_IDX_BITS) | idx as u64;
            }
        }
        let small = self.cores.len() <= 4;
        let mut due = self.observer.next_prefetch_due();
        let mut evictions_seen = self.hierarchy.stats().llc_evictions;
        loop {
            // Tournament min + runner-up over the fixed key array (parked
            // slots are `u64::MAX` and lose every match). A tree of
            // `min`/`max` pairs compiles to conditional moves with ~3 levels
            // of dependency — the interleaved step order makes the "is this
            // key the new minimum?" branch inherently unpredictable, and a
            // branchy scan pays a misprediction on most iterations. Machines
            // of ≤ 4 cores (the paper configuration) run the half-width
            // network; the `small` branch itself is loop-invariant and
            // perfectly predicted.
            let (min, second) = if small {
                min2_of4(&keys[..4])
            } else {
                min_and_runner_up(&keys)
            };
            if min == u64::MAX {
                return;
            }
            let idx = (min & ((1 << KEY_IDX_BITS) - 1)) as usize;
            // Borrow the streaking core once (field-level split with
            // `hierarchy`/`observer`): the streak loop then runs without
            // re-indexing `self.cores` on every step. The first iteration's
            // clock is recovered from the packed key instead of reloaded.
            let core = &mut self.cores[idx];
            let mut now = min >> KEY_IDX_BITS;
            loop {
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
                    keys[idx] = u64::MAX;
                    break;
                }
                let evictions = self.hierarchy.stats().llc_evictions;
                if evictions != evictions_seen {
                    evictions_seen = evictions;
                    due = self.observer.next_prefetch_due();
                }
                if core.retired() >= instructions_per_core {
                    keys[idx] = u64::MAX;
                    break;
                }
                now = core.now();
                let key = (now << KEY_IDX_BITS) | idx as u64;
                if key >= second {
                    keys[idx] = key;
                    break;
                }
            }
        }
    }

    /// Binary-heap scheduler (any core count).
    fn run_heap(&mut self, instructions_per_core: u64) {
        self.schedule.clear();
        for (idx, core) in self.cores.iter().enumerate() {
            if !core.is_exhausted() && core.retired() < instructions_per_core {
                self.schedule.push(Reverse((core.now(), idx)));
            }
        }
        while let Some(Reverse((_, idx))) = self.schedule.pop() {
            // Warm the host cache for the set the popped core is about to
            // probe (read-only hint; cores pre-draw accesses in batches, so
            // the next address is usually already known). Issued once per
            // heap pop, not per step — the hint pays for the cold resume
            // after other cores ran, while consecutive steps of one core
            // keep the host cache warm on their own.
            if let Some(addr) = self.cores[idx].peek_addr() {
                self.hierarchy.prefetch_hint(CoreId(idx), addr);
            }
            // Step the popped core for as long as it stays the globally
            // earliest `(time, index)` event, draining due prefetches at the
            // core's clock before each step (exactly the schedule the linear
            // min-scan produced, minus the per-step scan).
            loop {
                let now = self.cores[idx].now();
                if self
                    .observer
                    .next_prefetch_due()
                    .is_some_and(|due| due <= now)
                {
                    self.hierarchy.drain_prefetches(now, &mut self.observer);
                }
                if !self.cores[idx].step(&mut self.hierarchy, &mut self.observer) {
                    break; // Source exhausted; the core leaves the schedule.
                }
                if self.cores[idx].retired() >= instructions_per_core {
                    break; // Quota reached.
                }
                let after = self.cores[idx].now();
                if let Some(&Reverse(next)) = self.schedule.peek() {
                    if (after, idx) >= next {
                        self.schedule.push(Reverse((after, idx)));
                        break;
                    }
                }
            }
        }
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
