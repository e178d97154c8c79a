//! The three-level inclusive cache hierarchy with a directory-tracking LLC.
//!
//! Modelled behaviours that matter for the PiPoMonitor evaluation:
//!
//! * **Inclusivity.** L1 ⊆ L2 ⊆ L3. Evicting a line from the LLC
//!   *back-invalidates* every private copy — the cross-core eviction signal
//!   Prime+Probe relies on.
//! * **Coherence.** The LLC keeps a sharer bitmap per line; writes invalidate
//!   other cores' private copies (MESI's `M` acquisition, directory style).
//!   The writer's L1 copy then records the modified state, so its next
//!   writes skip the directory until another core shares the line.
//! * **Memory-controller hooks.** Every LLC→memory demand fetch and every
//!   LLC eviction is reported to a [`TrafficObserver`]; observers may tag
//!   incoming lines as protected and inject prefetches.
//!
//! A dropped hierarchy leaves its caches to the next one of the same
//! configuration (see [`Hierarchy::new`]).

use std::sync::{Mutex, PoisonError};

use crate::cache::Cache;
use crate::config::SystemConfig;
use crate::dram::Dram;
use crate::line::{LineMeta, SharerSet};
use crate::observer::TrafficObserver;
use crate::stats::HierarchyStats;
use crate::types::{
    AccessKind, AccessResult, Addr, CoreId, Cycle, Level, LineAddr, L1_LATENCY, L2_LATENCY,
    LLC_LATENCY,
};

/// The simulated memory system: per-core L1/L2, shared L3, DRAM.
///
/// # Examples
///
/// ```
/// use cache_sim::{AccessKind, Addr, CoreId, Hierarchy, NullObserver, SystemConfig};
///
/// let mut h = Hierarchy::new(SystemConfig::small_test());
/// let mut obs = NullObserver;
/// let r = h.access(CoreId(0), Addr(0x40), AccessKind::Read, 0, &mut obs);
/// assert_eq!(r.served_by, cache_sim::Level::Memory);
/// let r = h.access(CoreId(0), Addr(0x40), AccessKind::Read, 10, &mut obs);
/// assert_eq!(r.served_by, cache_sim::Level::L1);
/// ```
#[derive(Debug)]
pub struct Hierarchy {
    config: SystemConfig,
    l1: Vec<Cache>,
    l2: Vec<Cache>,
    l3: Cache,
    dram: Dram,
    stats: HierarchyStats,
    /// Reusable buffer for observer prefetch draining; drained lines are
    /// staged here so steady-state draining allocates nothing.
    prefetch_scratch: Vec<LineAddr>,
    /// One bit per core that lost an L1 line or a modified flag since the
    /// last [`take_l1_losses`](Self::take_l1_losses).
    l1_losses: u64,
}

/// The caches of a dropped [`Hierarchy`], kept for the next hierarchy of
/// the same configuration. It has no `Drop` of its own, so a newer spare
/// that replaces it simply frees its arrays.
#[derive(Debug)]
struct Spare {
    config: SystemConfig,
    l1: Vec<Cache>,
    l2: Vec<Cache>,
    l3: Cache,
}

/// The caches of the last hierarchy dropped in the process, on any thread.
///
/// One slot for the process rather than one per thread. A thread that
/// exits would free its spare into its own malloc arena, below what it
/// allocated later and that outlives it, and glibc returns an arena's
/// memory only from the top of its heap: perfbench's `fig8_grid` kept
/// 1.5 to 3 MiB resident that way after its reference pass on a worker
/// thread. A worker that drops a machine builds its next one at once, so
/// it nearly always takes back its own spare.
///
/// Every update takes or replaces the whole spare, so a lock poisoned by a
/// panicking thread still guards a valid slot and is used as it is.
static SPARE: Mutex<Option<Spare>> = Mutex::new(None);

impl Hierarchy {
    /// Builds an empty hierarchy from a configuration.
    ///
    /// When the last hierarchy dropped had an equal configuration, its
    /// caches are emptied and reused instead of allocated again: the paper
    /// configuration's arrays take 2.75 MB, and a sweep builds many
    /// machines of one configuration in turn. The result does not depend
    /// on it (`tests/hierarchy_golden.rs` checks).
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid; call
    /// [`SystemConfig::validate`] first to handle errors gracefully.
    #[must_use]
    pub fn new(config: SystemConfig) -> Self {
        config.validate().expect("invalid system configuration");
        let spare = SPARE
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take_if(|spare| spare.config == config);
        let (l1, l2, l3) = match spare {
            Some(Spare {
                mut l1,
                mut l2,
                mut l3,
                ..
            }) => {
                for cache in l1.iter_mut().chain(&mut l2).chain([&mut l3]) {
                    cache.clear();
                }
                (l1, l2, l3)
            }
            None => (
                (0..config.cores)
                    .map(|_| Cache::new(config.l1, config.replacement))
                    .collect(),
                (0..config.cores)
                    .map(|_| Cache::new(config.l2, config.replacement))
                    .collect(),
                Cache::new(config.l3, config.replacement),
            ),
        };
        let stats = HierarchyStats::new(config.cores);
        Self {
            config,
            l1,
            l2,
            l3,
            dram: Dram::default(),
            stats,
            prefetch_scratch: Vec::new(),
            l1_losses: 0,
        }
    }

    /// The system configuration.
    #[must_use]
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> &HierarchyStats {
        &self.stats
    }

    /// DRAM counters.
    #[must_use]
    pub fn dram(&self) -> &Dram {
        &self.dram
    }

    /// LLC set index of an address (the mapping attackers use to build
    /// eviction sets).
    #[must_use]
    pub fn llc_set_of(&self, addr: Addr) -> usize {
        self.l3.set_of(addr.line())
    }

    /// LLC associativity.
    #[must_use]
    pub fn llc_ways(&self) -> usize {
        self.config.l3.ways
    }

    /// Number of LLC sets.
    #[must_use]
    pub fn llc_sets(&self) -> usize {
        self.config.l3.sets
    }

    /// Whether a line is currently resident in the LLC.
    #[must_use]
    pub fn llc_contains(&self, addr: Addr) -> bool {
        self.l3.contains(addr.line())
    }

    /// Whether a line is resident in `core`'s L1.
    #[must_use]
    pub fn l1_contains(&self, core: CoreId, addr: Addr) -> bool {
        self.l1[core.0].contains(addr.line())
    }

    /// LLC metadata of a line, if resident (testing/diagnostics).
    #[must_use]
    pub fn llc_meta(&self, addr: Addr) -> Option<&LineMeta> {
        self.l3.peek(addr.line())
    }

    /// Performs one memory access by `core` at time `now`.
    ///
    /// Returns the latency and serving level. The observer is consulted on
    /// LLC→memory fetches (to tag protected lines) and notified of LLC
    /// evictions.
    ///
    /// A *private hit* — the common case — is compiled into the caller: a
    /// read hit, or a write hit on a copy in MESI's modified state (its core
    /// is the sole sharer of a dirty LLC copy). It costs one fingerprint
    /// probe of the core's L1 set, its replacement update and the core's L1
    /// counters. Everything else, write upgrades included, is the
    /// out-of-line shared path.
    #[inline]
    pub fn access<O: TrafficObserver + ?Sized>(
        &mut self,
        core: CoreId,
        addr: Addr,
        kind: AccessKind,
        now: Cycle,
        observer: &mut O,
    ) -> AccessResult {
        if let Some((set, way)) = self.private_hit(core, addr, kind) {
            self.l1[core.0].touch_way(set, way);
            self.stats.record_served(core, Level::L1, L1_LATENCY);
            return AccessResult {
                latency: L1_LATENCY,
                served_by: Level::L1,
                prefetch_hit: false,
            };
        }
        let line = addr.line();
        self.access_shared(core, line, kind.is_write(), now, observer)
    }

    /// Where `core`'s L1 holds the line of `addr`, as `(set, way)`, when an
    /// access of `kind` there is a private hit (see [`access`](Self::access)),
    /// whose fast path is this check. A private hit touches only that L1's
    /// replacement state and the core's L1 counters, so
    /// [`System::run`](crate::System::run) runs it ahead of the schedule.
    ///
    /// The test evaluates both operands (`|`, not `||`). Writes are a
    /// random 15–40% of a profile's accesses, so a branch on the access's
    /// write flag mispredicts; the copy's modified flag, one load from the
    /// way just matched, is nearly always set on a hot line.
    #[inline(always)]
    pub(crate) fn private_hit(
        &self,
        core: CoreId,
        addr: Addr,
        kind: AccessKind,
    ) -> Option<(usize, usize)> {
        let l1 = &self.l1[core.0];
        let (set, way) = l1.find(addr.line())?;
        (!kind.is_write() | l1.meta_at(set, way).modified()).then_some((set, way))
    }

    /// Applies private hits of `core` that ran ahead of the schedule, as
    /// [`access`](Self::access) would have: each `(set, way)` touch of its
    /// L1, in program order, then the hits' L1 counts and stall cycles.
    pub(crate) fn commit_private_hits(
        &mut self,
        core: CoreId,
        hits: impl ExactSizeIterator<Item = (usize, usize)>,
    ) {
        let count = hits.len() as u64;
        let l1 = &mut self.l1[core.0];
        for (set, way) in hits {
            l1.touch_way(set, way);
        }
        let stats = self.stats.core_mut(core);
        stats.l1.hits += count;
        stats.stall_cycles += count * L1_LATENCY;
    }

    /// Returns and clears the cores, one bit each, that lost an L1 line or
    /// a modified flag since the last call: to an LLC back-invalidation
    /// (an access's or a drain's LLC fill), a coherence invalidation, or
    /// another core joining the sharers of a modified line. Apart from a
    /// core's own fills, these are the only ways an L1 copy goes away or
    /// stops being modified, so they are the only events that can turn
    /// another core's private hit into a different access.
    pub(crate) fn take_l1_losses(&mut self) -> u64 {
        std::mem::take(&mut self.l1_losses)
    }

    /// [`access`](Self::access) for an access known not to be a private hit,
    /// kept out of line: write upgrades and L2/L3/memory handling (fills,
    /// coherence, observer events) are an order of magnitude rarer than a
    /// private hit, and inlining them would bloat the per-access fast path
    /// in every instantiation of the run loop.
    ///
    /// Each level is probed once with a `touch` lookup: on a hit it returns
    /// the metadata and updates replacement state in one way scan, on a miss
    /// it is exactly the residency check for the next level. Every fill
    /// below is of a line those probes just missed, so the fills skip the
    /// residency probe ([`Cache::fill_absent`]).
    #[inline(never)]
    fn access_shared<O: TrafficObserver + ?Sized>(
        &mut self,
        core: CoreId,
        line: LineAddr,
        is_write: bool,
        now: Cycle,
        observer: &mut O,
    ) -> AccessResult {
        // ---- L1 write hit on a copy that is not modified ----
        // (An L1 read hit is a private hit, so a read misses L1 here.)
        if is_write {
            if let Some(meta) = self.l1[core.0].touch(line) {
                // The directory upgrade invalidates the other cores' copies
                // and leaves `core` the sole sharer of a dirty LLC copy,
                // which is what the modified flag records.
                meta.set_dirty(true);
                meta.set_modified(true);
                let latency = L1_LATENCY + self.write_upgrade(core, line);
                self.stats.record_served(core, Level::L1, latency);
                return AccessResult {
                    latency,
                    served_by: Level::L1,
                    prefetch_hit: false,
                };
            }
        }

        // ---- L2 hit ----
        if self.l2[core.0].touch(line).is_some() {
            self.fill_l1(core, line, is_write);
            let mut latency = L2_LATENCY;
            if is_write {
                latency += self.write_upgrade(core, line);
            }
            self.stats.record_served(core, Level::L2, latency);
            return AccessResult {
                latency,
                served_by: Level::L2,
                prefetch_hit: false,
            };
        }

        // ---- L3 hit ----
        if let Some(meta) = self.l3.touch(line) {
            let prefetch_hit = meta.prefetched() && !meta.accessed();
            meta.set_accessed(true);
            meta.set_prefetched(false);
            let others = meta.sharers;
            meta.sharers.insert(core);
            meta.or_dirty(is_write);
            if prefetch_hit {
                self.stats.prefetch_hits += 1;
            }
            let mut latency = LLC_LATENCY;
            if is_write {
                latency += self.invalidate_other_sharers(core, line);
            } else {
                // `core` joined the sharers, so no other copy is exclusive
                // any more (a write invalidates those copies instead).
                for other in others.iter().filter(|&other| other != core) {
                    if let Some(m) = self.l1[other.0].peek_mut(line) {
                        if m.modified() {
                            m.set_modified(false);
                            self.l1_losses |= 1 << other.0;
                        }
                    }
                }
            }
            self.fill_l2(core, line);
            self.fill_l1(core, line, is_write);
            self.stats.record_served(core, Level::L3, latency);
            return AccessResult {
                latency,
                served_by: Level::L3,
                prefetch_hit,
            };
        }

        // ---- Memory ----
        let protect = observer.on_memory_fetch(line, now);
        let latency = LLC_LATENCY + self.dram.read();
        let meta = LineMeta::demand_fill(core, is_write, protect);
        self.fill_l3(line, meta, now, observer);
        self.fill_l2(core, line);
        self.fill_l1(core, line, is_write);
        self.stats.record_served(core, Level::Memory, latency);
        AccessResult {
            latency,
            served_by: Level::Memory,
            prefetch_hit: false,
        }
    }

    /// Inserts a monitor prefetch into the LLC (the paper's Prefetch step).
    ///
    /// If the line is already resident its protection tag is refreshed;
    /// otherwise a DRAM prefetch read fills it with
    /// [`LineMeta::prefetch_fill`] metadata (protected, not yet accessed).
    pub fn insert_prefetch<O: TrafficObserver + ?Sized>(
        &mut self,
        line: LineAddr,
        now: Cycle,
        observer: &mut O,
    ) {
        if let Some(meta) = self.l3.peek_mut(line) {
            meta.set_protected(true);
            return;
        }
        self.dram.prefetch_read();
        self.fill_l3(line, LineMeta::prefetch_fill(), now, observer);
        self.stats.prefetch_fills += 1;
    }

    /// Drains an observer's due prefetches into the LLC.
    ///
    /// A no-op unless the observer's earliest pending prefetch is due. Due
    /// lines are staged in a reusable buffer (snapshot semantics: prefetches
    /// scheduled *during* insertion — e.g. by eviction notifications the
    /// inserts trigger — wait for the next drain), so steady-state draining
    /// performs no heap allocation.
    pub fn drain_prefetches<O: TrafficObserver + ?Sized>(&mut self, now: Cycle, observer: &mut O) {
        match observer.next_prefetch_due() {
            Some(due) if due <= now => {}
            _ => return,
        }
        let mut buf = std::mem::take(&mut self.prefetch_scratch);
        buf.clear();
        observer.drain_due_prefetches(now, &mut buf);
        for &line in &buf {
            self.insert_prefetch(line, now, observer);
        }
        self.prefetch_scratch = buf;
    }

    /// Fills an absent line into the LLC, handling eviction of a victim:
    /// inclusive back-invalidation of private copies, dirty writeback, and
    /// the pEvict notification to the observer.
    fn fill_l3<O: TrafficObserver + ?Sized>(
        &mut self,
        line: LineAddr,
        meta: LineMeta,
        now: Cycle,
        observer: &mut O,
    ) {
        if let Some(evicted) = self.l3.fill_absent(line, meta) {
            self.stats.llc_evictions += 1;
            let mut dirty = evicted.meta.dirty();
            // Private copies can only live in cores recorded as sharers
            // (inclusivity keeps the directory a superset of the private
            // holders), so iterate the sharer bitmap instead of all cores.
            for c in evicted.meta.sharers.iter() {
                if let Some(m) = self.l1[c.0].invalidate(evicted.line) {
                    self.stats.back_invalidations += 1;
                    self.l1_losses |= 1 << c.0;
                    dirty |= m.dirty();
                }
                if let Some(m) = self.l2[c.0].invalidate(evicted.line) {
                    self.stats.back_invalidations += 1;
                    dirty |= m.dirty();
                }
            }
            if dirty {
                self.dram.write();
                self.stats.writebacks += 1;
            }
            observer.on_llc_eviction(
                evicted.line,
                evicted.meta.protected(),
                evicted.meta.accessed(),
                now,
            );
        }
    }

    /// Fills an absent line into `core`'s L2, maintaining L1 ⊆ L2 by back-
    /// invalidating the L1 copy of any victim and propagating dirtiness down.
    fn fill_l2(&mut self, core: CoreId, line: LineAddr) {
        if let Some(evicted) = self.l2[core.0].fill_absent(line, LineMeta::default()) {
            let mut dirty = evicted.meta.dirty();
            if let Some(m) = self.l1[core.0].invalidate(evicted.line) {
                self.stats.back_invalidations += 1;
                dirty |= m.dirty();
            }
            self.demote_private_copy(core, evicted.line, dirty);
        }
    }

    /// Fills an absent line into `core`'s L1 (modified after a write, see
    /// [`LineMeta::l1_fill`]), propagating a dirty victim into L2.
    fn fill_l1(&mut self, core: CoreId, line: LineAddr, is_write: bool) {
        if let Some(evicted) = self.l1[core.0].fill_absent(line, LineMeta::l1_fill(is_write)) {
            if evicted.meta.dirty() {
                if let Some(m) = self.l2[core.0].peek_mut(evicted.line) {
                    m.set_dirty(true);
                } else {
                    // L2 copy vanished (back-invalidated between fills):
                    // fold the dirtiness into the LLC copy or write back.
                    self.demote_private_copy(core, evicted.line, true);
                }
            }
        }
    }

    /// A private copy of `line` left `core`'s caches; update the directory
    /// and propagate dirtiness to the LLC (or memory if the LLC copy is
    /// already gone).
    fn demote_private_copy(&mut self, core: CoreId, line: LineAddr, dirty: bool) {
        if let Some(m) = self.l3.peek_mut(line) {
            m.sharers.remove(core);
            m.or_dirty(dirty);
        } else if dirty {
            self.dram.write();
            self.stats.writebacks += 1;
        }
    }

    /// A write by `core` must invalidate every other core's private copy
    /// (directory-based MESI upgrade). Returns the extra latency (one LLC
    /// round trip when an upgrade was needed, 0 otherwise).
    ///
    /// Afterwards `core` is the LLC line's sole sharer and the LLC copy is
    /// dirty, so the writer's L1 copy is marked modified (MESI's `M`). That
    /// state lasts until another core joins the sharers on an LLC hit, which
    /// clears the flag, or the copy leaves the L1. A write hit on a
    /// modified copy skips this upgrade: it would re-dirty a dirty LLC copy
    /// and invalidate nothing, so skipping it changes no statistic.
    fn write_upgrade(&mut self, core: CoreId, line: LineAddr) -> Cycle {
        if let Some(meta) = self.l3.peek_mut(line) {
            meta.set_dirty(true);
            if !meta.sharers.is_sole(core) && !meta.sharers.is_empty() {
                return self.invalidate_other_sharers(core, line);
            }
            meta.sharers.insert(core);
        }
        0
    }

    /// Checks the inclusive-hierarchy invariants, returning a description of
    /// the first violation found (test/diagnostic hook):
    ///
    /// * every line in a core's L1 is also in that core's L2;
    /// * every line in a core's L2 is also in the L3;
    /// * every core recorded as a sharer of an L3 line is consistent with
    ///   the directory (private copies imply sharer bits);
    /// * every modified L1 copy belongs to the L3 line's sole sharer, and
    ///   that L3 copy is dirty.
    #[must_use]
    pub fn check_inclusion(&self) -> Option<String> {
        for core in 0..self.config.cores {
            for (line, meta) in self.l1[core].resident_lines() {
                if !self.l2[core].contains(line) {
                    return Some(format!("core{core} L1 holds {line} but L2 does not"));
                }
                let exclusive = |m: &LineMeta| m.sharers.is_sole(CoreId(core)) && m.dirty();
                if meta.modified() && !self.l3.peek(line).is_some_and(exclusive) {
                    return Some(format!(
                        "core{core} holds {line} modified but is not the sole sharer of a dirty L3 copy"
                    ));
                }
            }
            for (line, _) in self.l2[core].resident_lines() {
                if !self.l3.contains(line) {
                    return Some(format!("core{core} L2 holds {line} but L3 does not"));
                }
                let meta = self.l3.peek(line).expect("checked above");
                if !meta.sharers.contains(crate::types::CoreId(core)) {
                    return Some(format!(
                        "core{core} holds {line} privately but is not a directory sharer"
                    ));
                }
            }
        }
        None
    }

    /// Invalidates other cores' private copies of `line`; returns the extra
    /// latency cost (one LLC access when any invalidation was sent).
    fn invalidate_other_sharers(&mut self, core: CoreId, line: LineAddr) -> Cycle {
        // The sharer set is `Copy`, so snapshot it and walk the bits
        // directly — no allocation on this coherence path.
        let Some(meta) = self.l3.peek(line) else {
            return 0;
        };
        let sharers = meta.sharers;
        let mut any_other = false;
        for other in sharers.iter() {
            if other == core {
                continue;
            }
            any_other = true;
            if self.l1[other.0].invalidate(line).is_some() {
                self.stats.coherence_invalidations += 1;
                self.l1_losses |= 1 << other.0;
            }
            if self.l2[other.0].invalidate(line).is_some() {
                self.stats.coherence_invalidations += 1;
            }
        }
        if !any_other {
            return 0;
        }
        if let Some(meta) = self.l3.peek_mut(line) {
            meta.sharers = SharerSet::only(core);
        }
        LLC_LATENCY
    }
}

impl Drop for Hierarchy {
    /// Leaves the caches to the next hierarchy of the same configuration,
    /// replacing (and so freeing) the previous spare.
    fn drop(&mut self) {
        let spare = Spare {
            config: self.config.clone(),
            l1: std::mem::take(&mut self.l1),
            l2: std::mem::take(&mut self.l2),
            l3: std::mem::replace(&mut self.l3, Cache::unallocated()),
        };
        // The previous spare is freed after the lock is released.
        let _previous = SPARE
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .replace(spare);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observer::{NullObserver, RecordingObserver};
    use crate::types::LINE_SIZE;

    fn hierarchy() -> Hierarchy {
        Hierarchy::new(SystemConfig::small_test())
    }

    #[test]
    fn cold_miss_goes_to_memory_then_l1_hits() {
        let mut h = hierarchy();
        let mut obs = NullObserver;
        let r = h.access(CoreId(0), Addr(0x1000), AccessKind::Read, 0, &mut obs);
        assert_eq!(r.served_by, Level::Memory);
        assert_eq!(r.latency, 35 + 200);
        let r = h.access(CoreId(0), Addr(0x1000), AccessKind::Read, 10, &mut obs);
        assert_eq!(r.served_by, Level::L1);
        assert_eq!(r.latency, 2);
    }

    #[test]
    fn same_line_different_byte_hits() {
        let mut h = hierarchy();
        let mut obs = NullObserver;
        h.access(CoreId(0), Addr(0x1000), AccessKind::Read, 0, &mut obs);
        let r = h.access(CoreId(0), Addr(0x103f), AccessKind::Read, 1, &mut obs);
        assert_eq!(r.served_by, Level::L1);
    }

    #[test]
    fn cross_core_read_hits_llc() {
        let mut h = hierarchy();
        let mut obs = NullObserver;
        h.access(CoreId(0), Addr(0x2000), AccessKind::Read, 0, &mut obs);
        let r = h.access(CoreId(1), Addr(0x2000), AccessKind::Read, 5, &mut obs);
        assert_eq!(r.served_by, Level::L3);
        assert_eq!(r.latency, 35);
        // Both cores are now sharers.
        let meta = h.llc_meta(Addr(0x2000)).expect("resident");
        assert!(meta.sharers.contains(CoreId(0)));
        assert!(meta.sharers.contains(CoreId(1)));
    }

    #[test]
    fn write_invalidates_other_sharers() {
        let mut h = hierarchy();
        let mut obs = NullObserver;
        h.access(CoreId(0), Addr(0x2000), AccessKind::Read, 0, &mut obs);
        h.access(CoreId(1), Addr(0x2000), AccessKind::Read, 1, &mut obs);
        assert!(h.l1_contains(CoreId(0), Addr(0x2000)));
        // Core 1 writes: core 0's private copies must be invalidated.
        h.access(CoreId(1), Addr(0x2000), AccessKind::Write, 2, &mut obs);
        assert!(!h.l1_contains(CoreId(0), Addr(0x2000)));
        assert!(h.stats().coherence_invalidations > 0);
        let meta = h.llc_meta(Addr(0x2000)).expect("resident");
        assert!(meta.sharers.is_sole(CoreId(1)));
        assert!(meta.dirty());
    }

    #[test]
    fn modified_copy_skips_upgrade_until_another_core_shares_it() {
        let mut h = hierarchy();
        let mut obs = NullObserver;
        let addr = Addr(0x2000);
        let line = addr.line();
        let modified = |h: &Hierarchy, core: usize| h.l1[core].peek(line).map(LineMeta::modified);
        let r = h.access(CoreId(0), addr, AccessKind::Write, 0, &mut obs);
        assert_eq!(r.served_by, Level::Memory);
        assert_eq!(modified(&h, 0), Some(true));
        for now in 1..=2 {
            let r = h.access(CoreId(0), addr, AccessKind::Write, now, &mut obs);
            assert_eq!((r.served_by, r.latency), (Level::L1, 2));
        }
        // Core 1 joins the sharers: core 0's copy is no longer exclusive.
        let r = h.access(CoreId(1), addr, AccessKind::Read, 3, &mut obs);
        assert_eq!((r.served_by, r.latency), (Level::L3, 35));
        assert_eq!(modified(&h, 0), Some(false));
        let before = h.stats().coherence_invalidations;
        let r = h.access(CoreId(0), addr, AccessKind::Write, 4, &mut obs);
        assert_eq!((r.served_by, r.latency), (Level::L1, 2 + 35));
        assert_eq!(h.stats().coherence_invalidations, before + 2);
        assert!(!h.l1_contains(CoreId(1), addr));
        assert_eq!(modified(&h, 0), Some(true));
        let meta = h.llc_meta(addr).expect("resident");
        assert!(meta.sharers.is_sole(CoreId(0)) && meta.dirty());
    }

    #[test]
    fn private_hit_is_a_read_hit_or_a_write_hit_on_a_modified_copy() {
        let mut h = hierarchy();
        let mut obs = NullObserver;
        let (read, written, absent) = (Addr(0x1000), Addr(0x2000), Addr(0x3000));
        h.access(CoreId(0), read, AccessKind::Read, 0, &mut obs);
        h.access(CoreId(0), written, AccessKind::Write, 1, &mut obs);
        let slot = |h: &Hierarchy, addr: Addr| h.l1[0].find(addr.line());
        let hit = |h: &Hierarchy, addr: Addr, kind| h.private_hit(CoreId(0), addr, kind);
        assert!(slot(&h, read).is_some() && slot(&h, written).is_some());
        assert_eq!(hit(&h, read, AccessKind::Read), slot(&h, read));
        assert_eq!(hit(&h, written, AccessKind::Read), slot(&h, written));
        assert_eq!(hit(&h, written, AccessKind::Write), slot(&h, written));
        // A write hit on a copy that is not modified needs an upgrade.
        assert_eq!(hit(&h, read, AccessKind::Write), None);
        for kind in [AccessKind::Read, AccessKind::Write] {
            assert_eq!(hit(&h, absent, kind), None);
            assert_eq!(h.private_hit(CoreId(1), read, kind), None);
        }
    }

    #[test]
    fn llc_eviction_back_invalidates_private_copies() {
        let mut h = hierarchy();
        let mut obs = RecordingObserver::default();
        let ways = h.llc_ways();
        let sets = h.llc_sets() as u64;
        // Core 0 owns the target; core 1 thrashes the target's LLC set. The
        // conflict lines alias only in core 1's private caches, so core 0's
        // L1 copy survives until the LLC eviction back-invalidates it.
        let target = Addr(0);
        h.access(CoreId(0), target, AccessKind::Read, 0, &mut obs);
        assert!(h.l1_contains(CoreId(0), target));
        for i in 1..=(ways as u64) {
            let addr = Addr(i * sets * LINE_SIZE); // same LLC set, different tag
            h.access(CoreId(1), addr, AccessKind::Read, i, &mut obs);
        }
        // The target must have been evicted from the LLC and, by
        // inclusivity, from core 0's L1 as well.
        assert!(!h.llc_contains(target));
        assert!(
            !h.l1_contains(CoreId(0), target),
            "back-invalidation failed"
        );
        assert!(h.stats().back_invalidations > 0);
        assert!(h.stats().llc_evictions >= 1);
        assert!(!obs.evictions.is_empty());
    }

    #[test]
    fn observer_tag_marks_line_protected() {
        let mut h = hierarchy();
        let mut obs = RecordingObserver::default();
        let line = Addr(0x4000).line();
        obs.tag_lines.push(line);
        h.access(CoreId(0), Addr(0x4000), AccessKind::Read, 0, &mut obs);
        let meta = h.llc_meta(Addr(0x4000)).expect("resident");
        assert!(meta.protected());
        assert!(meta.accessed(), "demand fill counts as accessed");
    }

    #[test]
    fn prefetch_fill_is_protected_and_unaccessed() {
        let mut h = hierarchy();
        let mut obs = NullObserver;
        let line = Addr(0x8000).line();
        h.insert_prefetch(line, 0, &mut obs);
        let meta = h.llc_meta(Addr(0x8000)).expect("resident");
        assert!(meta.protected());
        assert!(!meta.accessed());
        assert!(meta.prefetched());
        assert_eq!(h.stats().prefetch_fills, 1);
        assert_eq!(h.dram().prefetch_reads(), 1);
    }

    #[test]
    fn demand_hit_on_prefetched_line_counts_prefetch_hit() {
        let mut h = hierarchy();
        let mut obs = NullObserver;
        let addr = Addr(0x8000);
        h.insert_prefetch(addr.line(), 0, &mut obs);
        let r = h.access(CoreId(0), addr, AccessKind::Read, 5, &mut obs);
        assert_eq!(r.served_by, Level::L3);
        assert!(r.prefetch_hit);
        assert_eq!(h.stats().prefetch_hits, 1);
        // Second access is an L1 hit, no more prefetch credit.
        let r = h.access(CoreId(0), addr, AccessKind::Read, 6, &mut obs);
        assert!(!r.prefetch_hit);
    }

    #[test]
    fn prefetch_of_resident_line_just_refreshes_tag() {
        let mut h = hierarchy();
        let mut obs = NullObserver;
        h.access(CoreId(0), Addr(0x1000), AccessKind::Read, 0, &mut obs);
        h.insert_prefetch(Addr(0x1000).line(), 1, &mut obs);
        assert_eq!(h.stats().prefetch_fills, 0);
        assert!(h.llc_meta(Addr(0x1000)).expect("resident").protected());
    }

    #[test]
    fn dirty_llc_eviction_writes_back() {
        let mut h = hierarchy();
        let mut obs = NullObserver;
        let ways = h.llc_ways();
        let sets = h.llc_sets() as u64;
        h.access(CoreId(0), Addr(0), AccessKind::Write, 0, &mut obs);
        for i in 1..=(ways as u64) {
            h.access(
                CoreId(0),
                Addr(i * sets * LINE_SIZE),
                AccessKind::Read,
                i,
                &mut obs,
            );
        }
        assert!(!h.llc_contains(Addr(0)));
        assert!(h.stats().writebacks >= 1);
        assert!(h.dram().writes() >= 1);
    }

    #[test]
    fn eviction_notification_carries_tag_bits() {
        let mut h = hierarchy();
        let mut obs = RecordingObserver::default();
        let target_line = Addr(0).line();
        obs.tag_lines.push(target_line);
        h.access(CoreId(0), Addr(0), AccessKind::Read, 0, &mut obs);
        let ways = h.llc_ways();
        let sets = h.llc_sets() as u64;
        for i in 1..=(ways as u64) {
            h.access(
                CoreId(0),
                Addr(i * sets * LINE_SIZE),
                AccessKind::Read,
                i,
                &mut obs,
            );
        }
        let evict = obs
            .evictions
            .iter()
            .find(|(l, _, _, _)| *l == target_line)
            .expect("target must have been evicted");
        assert!(evict.1, "protected bit must survive to eviction");
        assert!(evict.2, "accessed bit must survive to eviction");
    }

    #[test]
    fn memory_fetch_reported_to_observer_once_per_miss() {
        let mut h = hierarchy();
        let mut obs = RecordingObserver::default();
        h.access(CoreId(0), Addr(0x40), AccessKind::Read, 0, &mut obs);
        h.access(CoreId(0), Addr(0x40), AccessKind::Read, 1, &mut obs);
        h.access(CoreId(1), Addr(0x40), AccessKind::Read, 2, &mut obs);
        assert_eq!(obs.fetches.len(), 1, "only the cold miss reaches memory");
    }

    #[test]
    fn stats_levels_are_consistent() {
        let mut h = hierarchy();
        let mut obs = NullObserver;
        for i in 0..100u64 {
            h.access(CoreId(0), Addr(i * 64), AccessKind::Read, i, &mut obs);
        }
        for i in 0..100u64 {
            h.access(CoreId(0), Addr(i * 64), AccessKind::Read, 100 + i, &mut obs);
        }
        let c = h.stats().core(CoreId(0));
        assert_eq!(c.l1.accesses(), 200);
        assert_eq!(c.memory_fetches, 100);
    }

    #[test]
    fn l2_hit_after_l1_eviction() {
        let mut h = hierarchy();
        let mut obs = NullObserver;
        // small_test L1: 2KB, 2-way, 64B lines -> 16 sets. Fill set 0 of L1
        // beyond its 2 ways but within L2 capacity.
        let l1_sets = 16u64;
        for i in 0..3u64 {
            h.access(
                CoreId(0),
                Addr(i * l1_sets * 64),
                AccessKind::Read,
                i,
                &mut obs,
            );
        }
        // First line fell out of L1 but stays in L2.
        let r = h.access(CoreId(0), Addr(0), AccessKind::Read, 10, &mut obs);
        assert_eq!(r.served_by, Level::L2);
    }
}
