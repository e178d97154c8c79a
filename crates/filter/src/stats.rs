//! Operation statistics and the fingerprint-collision census used by the
//! paper's Fig. 3 (occupancy) and Fig. 4 (collision ratio) experiments.

use crate::entry::Entry;

/// Cumulative counters over a filter's lifetime.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FilterStats {
    /// Total [`query`](crate::PatternStore::query) calls.
    pub queries: u64,
    /// Queries that found an existing matching record.
    pub merges: u64,
    /// Queries that inserted a fresh record. A classic cuckoo filter's
    /// refused insertions count in neither `merges` nor `inserts`, so
    /// `queries − merges − inserts` is its refusal count.
    pub inserts: u64,
    /// Total relocations performed across all insertions.
    pub kicks: u64,
    /// Insertions that dropped a resident record: the Auto-Cuckoo filter's
    /// autonomic deletion, or the directory table's LRU eviction.
    pub autonomic_deletions: u64,
    /// Queries whose response reached `secThr` (Ping-Pong captures).
    pub captures: u64,
}

impl FilterStats {
    /// Average relocations per insertion; `0.0` when nothing was inserted.
    #[must_use]
    pub fn kicks_per_insert(&self) -> f64 {
        if self.inserts == 0 {
            0.0
        } else {
            self.kicks as f64 / self.inserts as f64
        }
    }
}

/// Census of fingerprint collisions across a filter's valid entries (Fig. 4).
///
/// `counts[k]` is the number of valid entries into which exactly `k + 1`
/// distinct addresses have coalesced: `counts[0]` are collision-free entries,
/// `counts[1]` entries hold two collided addresses, and so on. The final
/// bucket aggregates everything at or beyond the census width.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CollisionCensus {
    counts: Vec<u64>,
    total: u64,
}

/// Number of distinct tally classes tracked before aggregation (1 address,
/// 2 addresses, 3 addresses, ≥4 addresses).
const CENSUS_WIDTH: usize = 4;

impl CollisionCensus {
    /// Builds a census from an iterator of valid entries.
    pub fn from_entries<'a, I>(entries: I) -> Self
    where
        I: IntoIterator<Item = &'a Entry>,
    {
        let mut counts = vec![0u64; CENSUS_WIDTH];
        let mut total = 0u64;
        for entry in entries {
            debug_assert!(entry.is_valid());
            let tally = entry.addr_tally().max(1) as usize;
            let class = (tally - 1).min(CENSUS_WIDTH - 1);
            counts[class] += 1;
            total += 1;
        }
        Self { counts, total }
    }

    /// Total valid entries examined.
    #[must_use]
    pub fn total_entries(&self) -> u64 {
        self.total
    }

    /// Number of entries holding exactly `addresses` collided addresses
    /// (`addresses >= 1`); the last class aggregates `>= CENSUS_WIDTH`.
    ///
    /// # Panics
    ///
    /// Panics if `addresses == 0`.
    #[must_use]
    pub fn entries_with(&self, addresses: usize) -> u64 {
        assert!(addresses >= 1, "an entry holds at least one address");
        let class = (addresses - 1).min(CENSUS_WIDTH - 1);
        self.counts[class]
    }

    /// Fraction of entries with at least one fingerprint collision
    /// (i.e. holding two or more addresses). This is the y-axis of Fig. 4.
    #[must_use]
    pub fn collision_ratio(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let collided: u64 = self.counts[1..].iter().sum();
        collided as f64 / self.total as f64
    }

    /// Fraction of entries holding strictly more than two addresses (the
    /// paper observes this approaches zero at f = 12).
    #[must_use]
    pub fn heavy_collision_ratio(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let heavy: u64 = self.counts[2..].iter().sum();
        heavy as f64 / self.total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::Entry;

    fn entry_with_tally(tally: u32) -> Entry {
        let mut e = Entry::occupied(1);
        for _ in 1..tally {
            e.note_collision();
        }
        e
    }

    #[test]
    fn stats_derived_rates() {
        let s = FilterStats {
            queries: 10,
            merges: 4,
            inserts: 6,
            kicks: 12,
            autonomic_deletions: 1,
            captures: 2,
        };
        assert!((s.kicks_per_insert() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn stats_rates_are_zero_when_empty() {
        let s = FilterStats::default();
        assert_eq!(s.kicks_per_insert(), 0.0);
    }

    #[test]
    fn census_classifies_by_tally() {
        let entries = [
            entry_with_tally(1),
            entry_with_tally(1),
            entry_with_tally(2),
            entry_with_tally(3),
            entry_with_tally(9),
        ];
        let census = CollisionCensus::from_entries(entries.iter());
        assert_eq!(census.total_entries(), 5);
        assert_eq!(census.entries_with(1), 2);
        assert_eq!(census.entries_with(2), 1);
        assert_eq!(census.entries_with(3), 1);
        assert_eq!(census.entries_with(4), 1); // aggregated >= 4
        assert!((census.collision_ratio() - 0.6).abs() < 1e-12);
        assert!((census.heavy_collision_ratio() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn census_of_empty_iterator() {
        let census = CollisionCensus::from_entries(std::iter::empty());
        assert_eq!(census.total_entries(), 0);
        assert_eq!(census.collision_ratio(), 0.0);
        assert_eq!(census.heavy_collision_ratio(), 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one address")]
    fn census_rejects_zero_addresses() {
        let census = CollisionCensus::from_entries(std::iter::empty());
        let _ = census.entries_with(0);
    }
}
