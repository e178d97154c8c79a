//! Occupancy-channel attacker: a cache-occupancy side channel probe.
//!
//! Unlike Prime+Probe (which targets the *sets* of specific victim lines),
//! an occupancy channel measures how much of the LLC the victim displaces:
//! the attacker keeps a working set resident and times how much of it
//! survives. From the cache's point of view the signature is a tight,
//! repeating sweep over more same-set lines than the associativity can
//! hold — every probe access conflict-misses and re-fetches a recently
//! evicted line, exactly the Ping-Pong pattern PiPoMonitor captures.
//!
//! [`OccupancyChannelSource`] models the probe loop: `probe_sets`
//! consecutive LLC sets, each loaded with `ways + 1` colliding lines
//! (spaced by the set count so they index the same set), visited way-major
//! so each set's lines cycle through in LRU-pathological order. It is fully
//! deterministic (no RNG).

use cache_sim::{Access, AccessSource, Addr, LINE_SIZE};

/// Deterministic occupancy-probe access stream (see module docs).
///
/// # Examples
///
/// ```
/// use cache_sim::AccessSource;
/// use pipo_attacks::OccupancyChannelSource;
///
/// // 4096-set, 16-way LLC: probe 8 sets with 17 colliding lines each.
/// let mut probe = OccupancyChannelSource::new(1 << 30, 4096, 16, 8, 2);
/// let period = probe.sweep_len();
/// assert_eq!(period, 8 * 17);
/// let first = probe.next_access().expect("infinite");
/// for _ in 1..period {
///     probe.next_access();
/// }
/// // The sweep is periodic: after one full pass the stream repeats.
/// assert_eq!(probe.next_access(), Some(first));
/// ```
#[derive(Debug, Clone)]
pub struct OccupancyChannelSource {
    base_line: u64,
    llc_sets: u64,
    probe_sets: u64,
    lines_per_set: u64,
    think: u64,
    /// Way index of the next access (`0..lines_per_set`), outer loop.
    way: u64,
    /// Set index of the next access (`0..probe_sets`), inner loop.
    set: u64,
}

impl OccupancyChannelSource {
    /// Probe over `probe_sets` sets of an `llc_sets`-set, `llc_ways`-way
    /// LLC, starting at line `base_line` (make it a multiple of `llc_sets`
    /// so probed sets start at set index `base_line % llc_sets`), with
    /// `think` compute cycles between probes.
    ///
    /// # Panics
    ///
    /// Panics if `llc_sets`, `llc_ways`, or `probe_sets` is zero, or if
    /// `probe_sets > llc_sets`.
    #[must_use]
    pub fn new(base_line: u64, llc_sets: u64, llc_ways: u64, probe_sets: u64, think: u64) -> Self {
        assert!(
            llc_sets > 0 && llc_ways > 0,
            "cache geometry must be nonzero"
        );
        assert!(
            probe_sets > 0 && probe_sets <= llc_sets,
            "probe_sets must be in 1..={llc_sets}"
        );
        Self {
            base_line,
            llc_sets,
            probe_sets,
            // One more colliding line than the associativity: under LRU
            // every probe access misses and re-fetches.
            lines_per_set: llc_ways + 1,
            think,
            way: 0,
            set: 0,
        }
    }

    /// Accesses in one full sweep (the stream's period).
    #[must_use]
    pub fn sweep_len(&self) -> u64 {
        self.probe_sets * self.lines_per_set
    }

    /// The line address of the current `(way, set)` cursor.
    #[inline]
    fn cursor_line(&self) -> u64 {
        self.base_line + self.set + self.way * self.llc_sets
    }

    /// Advances the way-major cursor: sets fast, ways slow.
    #[inline]
    fn advance(&mut self) {
        self.set += 1;
        if self.set == self.probe_sets {
            self.set = 0;
            self.way += 1;
            if self.way == self.lines_per_set {
                self.way = 0;
            }
        }
    }
}

impl AccessSource for OccupancyChannelSource {
    fn next_access(&mut self) -> Option<Access> {
        let line = self.cursor_line();
        self.advance();
        Some(Access::read(Addr(line * LINE_SIZE)).after(self.think))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn probes_exactly_ways_plus_one_lines_per_set() {
        let mut src = OccupancyChannelSource::new(0, 1024, 8, 4, 0);
        let mut per_set: std::collections::HashMap<u64, HashSet<u64>> =
            std::collections::HashMap::new();
        for _ in 0..src.sweep_len() {
            let a = src.next_access().expect("infinite");
            let line = a.addr.0 / LINE_SIZE;
            per_set.entry(line % 1024).or_default().insert(line);
        }
        assert_eq!(per_set.len(), 4, "probes exactly probe_sets sets");
        for (set, lines) in per_set {
            assert_eq!(lines.len(), 9, "set {set} must hold ways+1 lines");
        }
    }

    #[test]
    fn stream_is_periodic_and_deterministic() {
        let mut a = OccupancyChannelSource::new(512, 256, 4, 16, 3);
        let mut b = OccupancyChannelSource::new(512, 256, 4, 16, 3);
        let period = a.sweep_len() as usize;
        let first: Vec<_> = (0..period).map(|_| a.next_access()).collect();
        let again: Vec<_> = (0..period).map(|_| a.next_access()).collect();
        assert_eq!(first, again, "sweep must repeat exactly");
        let fresh: Vec<_> = (0..period).map(|_| b.next_access()).collect();
        assert_eq!(first, fresh, "reconstruction must reproduce the stream");
    }

    #[test]
    fn refill_matches_next_access() {
        let mut scalar = OccupancyChannelSource::new(4096, 4096, 16, 64, 1);
        let mut batched = OccupancyChannelSource::new(4096, 4096, 16, 64, 1);
        let mut buf = Vec::new();
        for round in 0..40usize {
            let max = 1 + (round * 7) % 64;
            buf.clear();
            batched.refill(&mut buf, max);
            assert_eq!(buf.len(), max, "infinite stream must fill the batch");
            for &access in &buf {
                assert_eq!(Some(access), scalar.next_access());
            }
            assert_eq!(batched.next_access(), scalar.next_access());
        }
    }

    #[test]
    #[should_panic(expected = "probe_sets")]
    fn rejects_probing_more_sets_than_the_cache_has() {
        let _ = OccupancyChannelSource::new(0, 64, 8, 65, 0);
    }
}
