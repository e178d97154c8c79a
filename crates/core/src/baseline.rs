//! The prior-work stateful baseline: a directory-style recording table.
//!
//! Previous stateful detectors (Wang et al., DATE 2020 / CF 2019 — the
//! paper's references \[5\], \[6\]) record Ping-Pong candidates in a
//! *set-associative tag table* indexed by line address. The paper's related-
//! work section levels two criticisms at this design, both of which this
//! module makes measurable:
//!
//! 1. **Storage** — the table stores full line tags, costing several times
//!    the Auto-Cuckoo filter's fingerprints for the same entry count (and an
//!    order of magnitude more when sized as a directory extension covering
//!    the whole LLC).
//! 2. **Determinism** — the table's set-indexed LRU layout lets an adversary
//!    construct a *small, deterministic* eviction set for the victim's
//!    record: `ways` fresh addresses that map to the same table set evict it
//!    reliably, every attack iteration, defeating detection. The Auto-Cuckoo
//!    filter's autonomic deletion removes that handle.
//!
//! [`DirectoryMonitor`] implements the same capture/tag/prefetch pipeline as
//! [`PiPoMonitor`](crate::PiPoMonitor) but records in the tag table, so the
//! two defenses are directly comparable under identical attacks (see the
//! `baseline_stateful` harness and `tests/baseline_bypass.rs`).

use auto_cuckoo::hash::mix64;
use cache_sim::{Cycle, LineAddr, TrafficObserver};

use crate::prefetch::PrefetchQueue;

/// Configuration of the directory-table baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DirectoryMonitorConfig {
    /// Number of table sets (power of two).
    pub sets: usize,
    /// Table associativity.
    pub ways: usize,
    /// Security saturation threshold (same meaning as `secThr`).
    pub threshold: u8,
    /// pEvict→prefetch delay in cycles.
    pub prefetch_delay: Cycle,
}

impl DirectoryMonitorConfig {
    /// A table with the same entry count (8192) and policy as the paper's
    /// Auto-Cuckoo configuration, for apples-to-apples comparison.
    #[must_use]
    pub fn paper_comparable() -> Self {
        Self {
            sets: 1024,
            ways: 8,
            threshold: 3,
            prefetch_delay: 50,
        }
    }

    /// Total entries.
    #[must_use]
    pub fn entries(&self) -> usize {
        self.sets * self.ways
    }

    /// Storage bits per entry: 1 valid + full line tag + 2-bit counter.
    /// The tag must distinguish every line mapping to a set: with
    /// `line_addr_bits`-bit line numbers, that is `line_addr_bits −
    /// log2(sets)` bits.
    #[must_use]
    pub fn bits_per_entry(&self, line_addr_bits: u32) -> u64 {
        let index_bits = self.sets.trailing_zeros();
        1 + u64::from(line_addr_bits.saturating_sub(index_bits)) + 2
    }

    /// Total storage bits.
    #[must_use]
    pub fn storage_bits(&self, line_addr_bits: u32) -> u64 {
        self.bits_per_entry(line_addr_bits) * self.entries() as u64
    }
}

impl Default for DirectoryMonitorConfig {
    fn default() -> Self {
        Self::paper_comparable()
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct DirEntry {
    valid: bool,
    line: LineAddr,
    security: u8,
    stamp: u64,
}

/// Statistics of the baseline monitor.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DirectoryMonitorStats {
    /// Demand fetches observed.
    pub fetches_observed: u64,
    /// Captures (Security reached the threshold).
    pub captures: u64,
    /// Records evicted from the table by conflicting insertions — each one
    /// is a deterministic-eviction opportunity for a defense-aware attacker.
    pub record_evictions: u64,
    /// Prefetches scheduled.
    pub prefetches_scheduled: u64,
}

/// The directory-table stateful detector (prior-work baseline).
///
/// # Examples
///
/// Captures a Ping-Pong line just like PiPoMonitor:
///
/// ```
/// use cache_sim::{LineAddr, TrafficObserver};
/// use pipomonitor::baseline::{DirectoryMonitor, DirectoryMonitorConfig};
///
/// let mut m = DirectoryMonitor::new(DirectoryMonitorConfig::paper_comparable());
/// let line = LineAddr(0x42);
/// assert!(!m.on_memory_fetch(line, 0));
/// m.on_memory_fetch(line, 1);
/// m.on_memory_fetch(line, 2);
/// assert!(m.on_memory_fetch(line, 3)); // secThr = 3 reached
/// ```
#[derive(Debug)]
pub struct DirectoryMonitor {
    config: DirectoryMonitorConfig,
    table: Vec<DirEntry>,
    clock: u64,
    queue: PrefetchQueue,
    stats: DirectoryMonitorStats,
}

impl DirectoryMonitor {
    /// Builds the baseline monitor.
    ///
    /// # Panics
    ///
    /// Panics if `sets` is not a power of two or `ways` is zero.
    #[must_use]
    pub fn new(config: DirectoryMonitorConfig) -> Self {
        assert!(
            config.sets.is_power_of_two() && config.sets > 0,
            "table sets must be a power of two"
        );
        assert!(config.ways > 0, "table needs at least one way");
        Self {
            table: vec![DirEntry::default(); config.entries()],
            clock: 0,
            queue: PrefetchQueue::new(config.prefetch_delay),
            config,
            stats: DirectoryMonitorStats::default(),
        }
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &DirectoryMonitorConfig {
        &self.config
    }

    /// Statistics.
    #[must_use]
    pub fn stats(&self) -> &DirectoryMonitorStats {
        &self.stats
    }

    /// The table set a line maps to. The index is hashed (so it does not
    /// alias with LLC set indexing), but the hash is *publicly computable* —
    /// which is precisely the weakness: an adversary searches for
    /// conflicting addresses and evicts any record deterministically.
    #[must_use]
    pub fn table_set_of(&self, line: LineAddr) -> usize {
        Self::set_for(line, self.config.sets)
    }

    /// Static version of [`table_set_of`](Self::table_set_of) (used by the
    /// attack tooling, which knows the indexing function).
    #[must_use]
    pub fn set_for(line: LineAddr, sets: usize) -> usize {
        (mix64(line.0 ^ 0xd1e_7ab1e) as usize) & (sets - 1)
    }

    /// Whether a record for `line` is currently present.
    #[must_use]
    pub fn contains(&self, line: LineAddr) -> bool {
        let set = self.table_set_of(line);
        let base = set * self.config.ways;
        self.table[base..base + self.config.ways]
            .iter()
            .any(|e| e.valid && e.line == line)
    }

    /// Current Security of a line's record, if present.
    #[must_use]
    pub fn security_of(&self, line: LineAddr) -> Option<u8> {
        let set = self.table_set_of(line);
        let base = set * self.config.ways;
        self.table[base..base + self.config.ways]
            .iter()
            .find(|e| e.valid && e.line == line)
            .map(|e| e.security)
    }
}

impl TrafficObserver for DirectoryMonitor {
    fn on_memory_fetch(&mut self, line: LineAddr, _now: Cycle) -> bool {
        self.stats.fetches_observed += 1;
        self.clock += 1;
        let ways = self.config.ways;
        let set = self.table_set_of(line);
        let base = set * ways;

        // Hit: bump Security (saturating at the threshold).
        for entry in &mut self.table[base..base + ways] {
            if entry.valid && entry.line == line {
                if entry.security < self.config.threshold {
                    entry.security += 1;
                }
                entry.stamp = self.clock;
                let captured = entry.security >= self.config.threshold;
                if captured {
                    self.stats.captures += 1;
                }
                return captured;
            }
        }

        // Miss: insert; LRU-evict deterministically when the set is full.
        let mut victim = base;
        let mut oldest = u64::MAX;
        for idx in base..base + ways {
            if !self.table[idx].valid {
                victim = idx;
                break;
            }
            if self.table[idx].stamp < oldest {
                oldest = self.table[idx].stamp;
                victim = idx;
            }
        }
        if self.table[victim].valid {
            self.stats.record_evictions += 1;
        }
        self.table[victim] = DirEntry {
            valid: true,
            line,
            security: 0,
            stamp: self.clock,
        };
        false
    }

    fn on_llc_eviction(&mut self, line: LineAddr, protected: bool, accessed: bool, now: Cycle) {
        if protected && accessed {
            self.queue.schedule(line, now);
            self.stats.prefetches_scheduled += 1;
        }
    }

    fn next_prefetch_due(&self) -> Option<Cycle> {
        self.queue.next_due()
    }

    fn drain_due_prefetches(&mut self, now: Cycle, out: &mut Vec<LineAddr>) {
        self.queue.drain_due_into(now, out);
    }
}

/// Fresh line addresses that all map to `target`'s table set — a
/// deterministic record-eviction set for the directory baseline, found by
/// searching the (public) index hash. The `cursor` advances across calls so
/// every round yields fresh, LLC-cold addresses.
#[must_use]
pub fn table_flush_lines(
    config: &DirectoryMonitorConfig,
    target: LineAddr,
    cursor: &mut u64,
    attacker_base_line: u64,
) -> Vec<LineAddr> {
    let target_set = DirectoryMonitor::set_for(target, config.sets);
    let mut out = Vec::with_capacity(config.ways);
    while out.len() < config.ways {
        *cursor += 1;
        let line = LineAddr(attacker_base_line + *cursor);
        if DirectoryMonitor::set_for(line, config.sets) == target_set {
            out.push(line);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> DirectoryMonitorConfig {
        DirectoryMonitorConfig {
            sets: 16,
            ways: 4,
            threshold: 3,
            prefetch_delay: 10,
        }
    }

    #[test]
    fn captures_after_threshold() {
        let mut m = DirectoryMonitor::new(small());
        let line = LineAddr(5);
        assert!(!m.on_memory_fetch(line, 0));
        assert!(!m.on_memory_fetch(line, 1));
        assert!(!m.on_memory_fetch(line, 2));
        assert!(m.on_memory_fetch(line, 3));
        assert_eq!(m.stats().captures, 1);
        assert_eq!(m.security_of(line), Some(3));
    }

    #[test]
    fn deterministic_eviction_with_ways_conflicts() {
        let cfg = small();
        let mut m = DirectoryMonitor::new(cfg);
        let target = LineAddr(5);
        m.on_memory_fetch(target, 0);
        assert!(m.contains(target));
        // Exactly `ways` fresh conflicting lines evict the record, always.
        let mut cursor = 0;
        for line in table_flush_lines(&cfg, target, &mut cursor, 1 << 20) {
            assert_eq!(m.table_set_of(line), m.table_set_of(target));
            m.on_memory_fetch(line, 1);
        }
        assert!(
            !m.contains(target),
            "directory record must be deterministically evicted"
        );
        assert!(m.stats().record_evictions >= 1);
    }

    #[test]
    fn flush_lines_are_fresh_across_rounds() {
        let cfg = small();
        let mut cursor = 0;
        let a = table_flush_lines(&cfg, LineAddr(5), &mut cursor, 1 << 20);
        let b = table_flush_lines(&cfg, LineAddr(5), &mut cursor, 1 << 20);
        for line in &b {
            assert!(!a.contains(line), "rounds must not reuse lines");
        }
    }

    #[test]
    fn lru_keeps_recently_touched_records() {
        let cfg = small();
        let mut m = DirectoryMonitor::new(cfg);
        let target = LineAddr(5);
        m.on_memory_fetch(target, 0);
        // Touch the target between conflicting fills: it stays resident
        // until `ways` *consecutive* fills displace it.
        let mut cursor = 0;
        for (i, line) in table_flush_lines(&cfg, target, &mut cursor, 1 << 20)
            .into_iter()
            .take(cfg.ways - 1)
            .enumerate()
        {
            m.on_memory_fetch(line, i as u64);
            m.on_memory_fetch(target, i as u64); // refresh LRU + security
        }
        assert!(m.contains(target));
    }

    #[test]
    fn pevict_schedules_prefetch_like_pipomonitor() {
        let mut m = DirectoryMonitor::new(small());
        m.on_llc_eviction(LineAddr(9), true, true, 100);
        assert_eq!(m.next_prefetch_due(), Some(110));
        let mut out = Vec::new();
        m.drain_due_prefetches(109, &mut out);
        assert_eq!(out, Vec::new());
        m.drain_due_prefetches(110, &mut out);
        assert_eq!(out, vec![LineAddr(9)]);
        // Unaccessed tagged eviction: suppressed.
        m.on_llc_eviction(LineAddr(9), true, false, 200);
        out.clear();
        m.drain_due_prefetches(1_000, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn storage_dwarfs_the_filter() {
        // Same entry count in the Auto-Cuckoo filter: 15 bits per entry.
        let filter_bits = 8192 * 15;

        // A same-capacity tag table with 34-bit line numbers (40-bit
        // physical addresses, 64-byte lines) already costs ~1.8x.
        let cfg = DirectoryMonitorConfig::paper_comparable();
        let dir_bits = cfg.storage_bits(34);
        assert!(
            dir_bits as f64 > filter_bits as f64 * 1.5,
            "directory table {dir_bits} must cost well above filter {filter_bits}"
        );

        // Prior stateful work extends the directory across the whole 4 MB
        // LLC (65536 lines): an order of magnitude above the filter, the
        // paper's related-work claim.
        let full_extension = DirectoryMonitorConfig {
            sets: 65536,
            ways: 1,
            threshold: 3,
            prefetch_delay: 50,
        };
        let full_bits = full_extension.storage_bits(34);
        assert!(
            full_bits > filter_bits * 10,
            "directory extension {full_bits} must be an order of magnitude above {filter_bits}"
        );
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_bad_set_count() {
        let cfg = DirectoryMonitorConfig {
            sets: 12,
            ..small()
        };
        let _ = DirectoryMonitor::new(cfg);
    }
}
