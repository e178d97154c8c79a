//! Hit/miss and coherence-event accounting.

use crate::types::{CoreId, Cycle, Level};

/// Hits and misses at one cache level.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LevelStats {
    /// Accesses served at this level.
    pub hits: u64,
    /// Accesses that had to descend further.
    pub misses: u64,
}

impl LevelStats {
    /// Total lookups.
    #[must_use]
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Miss ratio in `0.0..=1.0`; `0.0` when no accesses occurred.
    #[must_use]
    pub fn miss_ratio(&self) -> f64 {
        let total = self.accesses();
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }
}

/// Per-core access statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoreStats {
    /// L1 hits/misses.
    pub l1: LevelStats,
    /// L2 hits/misses.
    pub l2: LevelStats,
    /// L3 hits/misses.
    pub l3: LevelStats,
    /// Demand fetches that went to memory.
    pub memory_fetches: u64,
    /// Cycles this core spent stalled on memory accesses.
    pub stall_cycles: Cycle,
}

/// Whole-hierarchy statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HierarchyStats {
    /// Per-core counters, indexed by core id.
    pub per_core: Vec<CoreStats>,
    /// LLC evictions (capacity/conflict, all causes).
    pub llc_evictions: u64,
    /// Private-cache lines invalidated because their LLC copy was evicted
    /// (the inclusive back-invalidation attackers exploit).
    pub back_invalidations: u64,
    /// Private-cache lines invalidated by another core's write (coherence).
    pub coherence_invalidations: u64,
    /// Dirty lines written back to memory.
    pub writebacks: u64,
    /// Lines inserted into the LLC by the monitor's prefetch path.
    pub prefetch_fills: u64,
    /// Demand accesses that hit a prefetched, not-yet-touched LLC line
    /// (the prefetch saved a memory round trip).
    pub prefetch_hits: u64,
}

impl HierarchyStats {
    /// Creates zeroed statistics for `cores` cores.
    #[must_use]
    pub fn new(cores: usize) -> Self {
        Self {
            per_core: vec![CoreStats::default(); cores],
            ..Self::default()
        }
    }

    /// Mutable per-core counters for `core`.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn core_mut(&mut self, core: CoreId) -> &mut CoreStats {
        &mut self.per_core[core.0]
    }

    /// Per-core counters for `core`.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    #[must_use]
    pub fn core(&self, core: CoreId) -> &CoreStats {
        &self.per_core[core.0]
    }

    /// Records a hit at `level` for `core`, marking misses at the levels
    /// above it.
    pub fn record_access(&mut self, core: CoreId, served_by: Level) {
        self.record_served(core, served_by, 0);
    }

    /// Like [`record_access`](Self::record_access) but also charges the
    /// access latency to the core's stall cycles, all through one per-core
    /// lookup — the form the hierarchy's hot path uses.
    #[inline]
    pub fn record_served(&mut self, core: CoreId, served_by: Level, latency: Cycle) {
        let c = self.core_mut(core);
        c.stall_cycles += latency;
        match served_by {
            Level::L1 => {
                c.l1.hits += 1;
            }
            Level::L2 => {
                c.l1.misses += 1;
                c.l2.hits += 1;
            }
            Level::L3 => {
                c.l1.misses += 1;
                c.l2.misses += 1;
                c.l3.hits += 1;
            }
            Level::Memory => {
                c.l1.misses += 1;
                c.l2.misses += 1;
                c.l3.misses += 1;
                c.memory_fetches += 1;
            }
        }
    }

    /// Total demand memory fetches across cores.
    #[must_use]
    pub fn total_memory_fetches(&self) -> u64 {
        self.per_core.iter().map(|c| c.memory_fetches).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_stats_ratios() {
        let s = LevelStats { hits: 3, misses: 1 };
        assert_eq!(s.accesses(), 4);
        assert!((s.miss_ratio() - 0.25).abs() < 1e-12);
        assert_eq!(LevelStats::default().miss_ratio(), 0.0);
    }

    #[test]
    fn record_access_marks_upper_levels_missed() {
        let mut h = HierarchyStats::new(2);
        h.record_access(CoreId(1), Level::L3);
        let c = h.core(CoreId(1));
        assert_eq!(c.l1.misses, 1);
        assert_eq!(c.l2.misses, 1);
        assert_eq!(c.l3.hits, 1);
        assert_eq!(c.memory_fetches, 0);
        // Core 0 untouched.
        assert_eq!(h.core(CoreId(0)).l1.accesses(), 0);
    }

    #[test]
    fn record_memory_access_counts_fetch() {
        let mut h = HierarchyStats::new(1);
        h.record_access(CoreId(0), Level::Memory);
        let c = h.core(CoreId(0));
        assert_eq!(c.l3.misses, 1);
        assert_eq!(c.memory_fetches, 1);
        assert_eq!(h.total_memory_fetches(), 1);
    }

    #[test]
    fn record_l1_hit_touches_only_l1() {
        let mut h = HierarchyStats::new(1);
        h.record_access(CoreId(0), Level::L1);
        let c = h.core(CoreId(0));
        assert_eq!(c.l1.hits, 1);
        assert_eq!(c.l2.accesses(), 0);
    }
}
