//! LLC eviction-set construction and the prime/probe primitives.

use cache_sim::{AccessKind, Addr, CoreId, Cycle, Hierarchy, TrafficObserver, LINE_SIZE};

/// Latency above which a probe access is classified as an LLC miss.
/// An L3 hit costs [`LLC_LATENCY`](cache_sim::LLC_LATENCY) (35 cycles); a
/// memory fetch adds [`DRAM_LATENCY`](cache_sim::DRAM_LATENCY) (235 in
/// all). Anything above 100 must have left the chip.
pub const MISS_THRESHOLD: Cycle = 100;

/// A set of attacker-controlled addresses that all map to one LLC set.
///
/// Priming the set fills every way of the target's LLC set with attacker
/// lines; a subsequent victim fetch into that set must evict one of them,
/// which the probe detects as a long-latency re-access (Liu et al., S&P
/// 2015).
///
/// # Examples
///
/// ```
/// use cache_sim::{Addr, Hierarchy, SystemConfig};
/// use pipo_attacks::EvictionSet;
///
/// let h = Hierarchy::new(SystemConfig::paper_default());
/// let target = Addr(0x10_0000_0000);
/// let set = EvictionSet::for_target(&h, target, 0x66_0000_0000);
/// assert_eq!(set.len(), h.llc_ways());
/// for &addr in set.addrs() {
///     assert_eq!(h.llc_set_of(addr), h.llc_set_of(target));
/// }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvictionSet {
    addrs: Vec<Addr>,
    target_set: usize,
}

impl EvictionSet {
    /// Builds an eviction set for `target` from the attacker's address
    /// region starting at `attacker_base` (must not overlap the victim's
    /// memory). One address per LLC way.
    ///
    /// The construction assumes knowledge of the address→set mapping, the
    /// standard starting point for LLC Prime+Probe.
    #[must_use]
    pub fn for_target(hierarchy: &Hierarchy, target: Addr, attacker_base: u64) -> Self {
        Self::with_ways(hierarchy, target, attacker_base, hierarchy.llc_ways())
    }

    /// Builds an eviction set with an explicit number of lines.
    #[must_use]
    pub fn with_ways(hierarchy: &Hierarchy, target: Addr, attacker_base: u64, ways: usize) -> Self {
        let sets = hierarchy.llc_sets() as u64;
        let target_set = hierarchy.llc_set_of(target) as u64;
        // Align the attacker base to a set-0 line, then offset into the
        // target set; consecutive entries differ by one full LLC period.
        let base_line = (attacker_base / LINE_SIZE / sets) * sets;
        let addrs = (1..=ways as u64)
            .map(|i| Addr((base_line + i * sets + target_set) * LINE_SIZE))
            .collect();
        Self {
            addrs,
            target_set: target_set as usize,
        }
    }

    /// The addresses of the set.
    #[must_use]
    pub fn addrs(&self) -> &[Addr] {
        &self.addrs
    }

    /// Number of lines in the set.
    #[must_use]
    pub fn len(&self) -> usize {
        self.addrs.len()
    }

    /// Whether the set is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.addrs.is_empty()
    }

    /// The LLC set index this eviction set targets.
    #[must_use]
    pub fn target_set(&self) -> usize {
        self.target_set
    }

    /// Primes the LLC set: accesses every line, filling the set with
    /// attacker data. Returns the cycle after the last access completes.
    pub fn prime(
        &self,
        hierarchy: &mut Hierarchy,
        core: CoreId,
        mut now: Cycle,
        observer: &mut dyn TrafficObserver,
    ) -> Cycle {
        for &addr in &self.addrs {
            let r = hierarchy.access(core, addr, AccessKind::Read, now, observer);
            now += r.latency;
        }
        now
    }

    /// Probes the set: re-accesses every line, counting LLC misses. Returns
    /// `(end_cycle, misses)`. A nonzero miss count means some other line
    /// displaced attacker data from the set since the prime.
    pub fn probe(
        &self,
        hierarchy: &mut Hierarchy,
        core: CoreId,
        mut now: Cycle,
        observer: &mut dyn TrafficObserver,
    ) -> (Cycle, usize) {
        let mut misses = 0;
        for &addr in &self.addrs {
            let r = hierarchy.access(core, addr, AccessKind::Read, now, observer);
            if r.latency >= MISS_THRESHOLD {
                misses += 1;
            }
            now += r.latency;
        }
        (now, misses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cache_sim::{NullObserver, SystemConfig};

    fn hierarchy() -> Hierarchy {
        Hierarchy::new(SystemConfig::paper_default())
    }

    #[test]
    fn all_lines_map_to_target_set() {
        let h = hierarchy();
        let target = Addr(0x10_0000_1234);
        let set = EvictionSet::for_target(&h, target, 0x77_0000_0000);
        assert_eq!(set.len(), 16);
        for &a in set.addrs() {
            assert_eq!(h.llc_set_of(a), h.llc_set_of(target));
        }
    }

    #[test]
    fn lines_are_distinct_and_disjoint_from_target() {
        let h = hierarchy();
        let target = Addr(0x10_0000_0000);
        let set = EvictionSet::for_target(&h, target, 0x77_0000_0000);
        let mut lines: Vec<u64> = set.addrs().iter().map(|a| a.0 / 64).collect();
        lines.sort_unstable();
        lines.dedup();
        assert_eq!(lines.len(), set.len());
        assert!(!lines.contains(&(target.0 / 64)));
    }

    #[test]
    fn prime_then_victim_access_then_probe_detects() {
        let mut h = hierarchy();
        let mut obs = NullObserver;
        let target = Addr(0x10_0000_0000);
        let set = EvictionSet::for_target(&h, target, 0x77_0000_0000);

        // Prime fills the set.
        let t = set.prime(&mut h, CoreId(1), 0, &mut obs);
        // Victim touches its line: one attacker way must be evicted.
        h.access(CoreId(0), target, AccessKind::Read, t + 10, &mut obs);
        let (_, misses) = set.probe(&mut h, CoreId(1), t + 1000, &mut obs);
        assert!(misses >= 1, "victim access must be visible");
    }

    #[test]
    fn probe_without_victim_sees_no_misses() {
        let mut h = hierarchy();
        let mut obs = NullObserver;
        let target = Addr(0x10_0000_0000);
        let set = EvictionSet::for_target(&h, target, 0x77_0000_0000);
        let t = set.prime(&mut h, CoreId(1), 0, &mut obs);
        let (_, misses) = set.probe(&mut h, CoreId(1), t + 1000, &mut obs);
        assert_eq!(misses, 0, "quiet set must probe clean");
    }

    #[test]
    fn repeated_prime_probe_cycles_stay_clean_without_victim() {
        let mut h = hierarchy();
        let mut obs = NullObserver;
        let set = EvictionSet::for_target(&h, Addr(0x10_0000_0000), 0x77_0000_0000);
        let mut t = set.prime(&mut h, CoreId(1), 0, &mut obs);
        for _ in 0..5 {
            let (end, misses) = set.probe(&mut h, CoreId(1), t + 5000, &mut obs);
            assert_eq!(misses, 0);
            t = end;
        }
    }
}
