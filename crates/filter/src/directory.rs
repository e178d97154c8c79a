//! The prior-work recording structure: a full-tag, set-associative table.
//!
//! Previous stateful detectors (Wang et al., DATE 2020 / CF 2019 — the
//! paper's references \[5\], \[6\]) record Ping-Pong candidates in a
//! *set-associative tag table* indexed by line address. The paper's
//! related-work section levels two criticisms at this design, both of which
//! this module makes measurable:
//!
//! 1. **Storage** — the table stores full line tags, costing several times
//!    the Auto-Cuckoo filter's fingerprints for the same entry count (and an
//!    order of magnitude more when sized as a directory extension covering
//!    the whole LLC).
//! 2. **Determinism** — the table's set-indexed LRU layout lets an adversary
//!    construct a *small, deterministic* eviction set for the victim's
//!    record: `b` fresh lines that map to the record's set evict it
//!    reliably, every attack iteration, defeating detection. The Auto-Cuckoo
//!    filter's autonomic deletion removes that handle.
//!
//! [`DirectoryPatternStore`] implements the [`PatternStore`] contract over
//! that table, so PiPoMonitor's capture/tag/prefetch pipeline runs on it
//! unchanged and the two recording structures meet identical attacks (see
//! the `baseline_stateful` harness and `tests/baseline_bypass.rs`). Its tag,
//! [`FilterBackend::Directory`], is not in [`FilterBackend::ALL`] and is not
//! a `--filter` value: it is the comparison target, not a PiPoMonitor
//! design.

use std::ops::Range;

use crate::hash::mix64;
use crate::params::{FilterParams, ParamsError};
use crate::stats::FilterStats;
use crate::store::{FilterBackend, PatternStore, Promotion, QueryOutcome};

/// Width of a physical line number: 40-bit physical addresses, 64-byte
/// lines. A record's tag is this minus the set-index bits.
const LINE_ADDR_BITS: u32 = 34;

#[derive(Debug, Clone, Copy, Default)]
struct Record {
    valid: bool,
    line: u64,
    security: u8,
    stamp: u64,
}

/// The directory-style tag table: `l` sets of `b` ways, LRU within a set.
///
/// The geometry comes from [`FilterParams`]: `l` = `buckets`, `b` =
/// `entries_per_bucket`, and `secThr`. The fingerprint width, MNK and seed
/// are unused: records hold full tags and never relocate.
///
/// # Examples
///
/// Captures a Ping-Pong line like every other backend, and `b` fresh lines
/// of its set evict the record deterministically:
///
/// ```
/// use auto_cuckoo::{DirectoryPatternStore, FilterParams, PatternStore};
///
/// # fn main() -> Result<(), auto_cuckoo::ParamsError> {
/// let params = FilterParams::builder().buckets(16).entries_per_bucket(4).build()?;
/// let mut table = DirectoryPatternStore::new(params)?;
/// let line = 0x42;
/// assert!(!table.query(line).captured);
/// table.query(line);
/// table.query(line);
/// assert!(table.query(line).captured); // secThr = 3 reached
///
/// let set = DirectoryPatternStore::set_of(line, &params);
/// let conflicts = (1u64 << 20..)
///     .filter(|&l| DirectoryPatternStore::set_of(l, &params) == set)
///     .take(params.entries_per_bucket());
/// for conflict in conflicts {
///     table.query(conflict);
/// }
/// assert!(!table.contains(line));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct DirectoryPatternStore {
    params: FilterParams,
    table: Vec<Record>,
    /// One tick per query; a record's `stamp` is its last tick.
    clock: u64,
    len: usize,
    promotion: Promotion,
}

impl DirectoryPatternStore {
    /// Creates an empty table of `params.capacity()` records.
    ///
    /// # Errors
    ///
    /// Returns [`ParamsError`] if `params` fails validation.
    pub fn new(params: FilterParams) -> Result<Self, ParamsError> {
        params.validate()?;
        Ok(Self {
            table: vec![Record::default(); params.capacity()],
            clock: 0,
            len: 0,
            promotion: Promotion::new(&params),
            params,
        })
    }

    /// The table set `item` maps to. The index is hashed (so it does not
    /// alias with LLC set indexing), but the hash is *publicly computable*,
    /// which is precisely the weakness: an adversary searches for
    /// conflicting lines and evicts any record deterministically.
    #[must_use]
    pub fn set_of(item: u64, params: &FilterParams) -> usize {
        (mix64(item ^ 0xd1e_7ab1e) & params.bucket_mask()) as usize
    }

    /// The table slots of `item`'s set.
    fn set_slots(&self, item: u64) -> Range<usize> {
        let ways = self.params.entries_per_bucket();
        let base = Self::set_of(item, &self.params) * ways;
        base..base + ways
    }
}

impl PatternStore for DirectoryPatternStore {
    /// A hit promotes the record (saturating at `secThr`) and refreshes its
    /// LRU stamp. A miss fills the set's first empty way, or else evicts its
    /// least recently used record (the first in way order on a tie).
    fn query(&mut self, item: u64) -> QueryOutcome {
        self.clock += 1;
        let thr = self.params.security_threshold();
        let slots = self.set_slots(item);
        let set = &mut self.table[slots];

        if let Some(record) = set.iter_mut().find(|r| r.valid && r.line == item) {
            record.security = (record.security + 1).min(thr);
            record.stamp = self.clock;
            return self.promotion.merge(record.security);
        }

        let way = set.iter().position(|r| !r.valid).unwrap_or_else(|| {
            (0..set.len())
                .min_by_key(|&w| set[w].stamp)
                .expect("a set has at least one way")
        });
        if set[way].valid {
            self.promotion.count_eviction();
        } else {
            self.len += 1;
        }
        set[way] = Record {
            valid: true,
            line: item,
            security: 0,
            stamp: self.clock,
        };
        self.promotion.insert(0, None)
    }

    /// Exact: the table holds full tags, so there are no false merges.
    fn contains(&self, item: u64) -> bool {
        self.table[self.set_slots(item)]
            .iter()
            .any(|r| r.valid && r.line == item)
    }

    fn security_of(&self, item: u64) -> Option<u8> {
        self.table[self.set_slots(item)]
            .iter()
            .find(|r| r.valid && r.line == item)
            .map(|r| r.security)
    }

    fn len(&self) -> usize {
        self.len
    }

    fn occupancy(&self) -> f64 {
        self.len as f64 / self.table.len() as f64
    }

    /// `l·b·(37 − log2 l)` bits: per record 1 valid bit, a tag of the 34-bit
    /// line number minus the set-index bits, and a 2-bit `Security` counter.
    fn memory_bytes(&self) -> usize {
        let index_bits = self.params.buckets().trailing_zeros();
        let record_bits = 1 + LINE_ADDR_BITS.saturating_sub(index_bits) as usize + 2;
        (self.table.len() * record_bits).div_ceil(8)
    }

    fn stats_snapshot(&self) -> FilterStats {
        self.promotion.stats()
    }

    fn clear(&mut self) {
        self.table.fill(Record::default());
        self.clock = 0;
        self.len = 0;
        self.promotion.reset();
    }

    fn backend(&self) -> FilterBackend {
        FilterBackend::Directory
    }

    fn params(&self) -> &FilterParams {
        &self.params
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CuckooFilter;

    fn small() -> FilterParams {
        FilterParams::builder()
            .buckets(16)
            .entries_per_bucket(4)
            .build()
            .expect("valid")
    }

    /// `n` fresh lines mapping to `target`'s set.
    fn conflicts(params: &FilterParams, target: u64, n: usize) -> Vec<u64> {
        let set = DirectoryPatternStore::set_of(target, params);
        (1u64 << 20..)
            .filter(|&line| DirectoryPatternStore::set_of(line, params) == set)
            .take(n)
            .collect()
    }

    #[test]
    fn captures_after_threshold() {
        let mut table = DirectoryPatternStore::new(small()).expect("valid");
        assert!(!table.query(5).captured);
        assert!(!table.query(5).captured);
        assert!(!table.query(5).captured);
        assert!(table.query(5).captured);
        assert_eq!(table.stats_snapshot().captures, 1);
        assert_eq!(table.security_of(5), Some(3));
    }

    #[test]
    fn deterministic_eviction_with_ways_conflicts() {
        let params = small();
        let mut table = DirectoryPatternStore::new(params).expect("valid");
        table.query(5);
        assert!(table.contains(5));
        // Exactly `b` fresh conflicting lines evict the record, always.
        for line in conflicts(&params, 5, params.entries_per_bucket()) {
            let out = table.query(line);
            assert!(out.inserted && out.autonomic_deletion.is_none());
        }
        assert!(
            !table.contains(5),
            "directory record must be deterministically evicted"
        );
        assert_eq!(table.stats_snapshot().autonomic_deletions, 1);
    }

    #[test]
    fn lru_keeps_recently_touched_records() {
        let params = small();
        let mut table = DirectoryPatternStore::new(params).expect("valid");
        table.query(5);
        // Touch the target between conflicting fills: it stays resident
        // until `b` *consecutive* fills displace it.
        for line in conflicts(&params, 5, 3 * params.entries_per_bucket()) {
            table.query(line);
            table.query(5); // refresh LRU + security
        }
        assert!(table.contains(5));
        assert_eq!(table.security_of(5), Some(3));
    }

    #[test]
    fn storage_dwarfs_the_filter() {
        // Same entry count in the Auto-Cuckoo filter: 15 bits per entry.
        let paper = FilterParams::paper_default();
        let filter = CuckooFilter::auto(paper).expect("valid").memory_bytes();
        assert_eq!(filter, 8192 * 15 / 8);

        // A same-capacity tag table already costs ~1.8x.
        let table = DirectoryPatternStore::new(paper)
            .expect("valid")
            .memory_bytes();
        assert_eq!(table, 8192 * (37 - 10) / 8);
        assert!(
            table as f64 > filter as f64 * 1.5,
            "directory table {table} must cost well above filter {filter}"
        );

        // Prior stateful work extends the directory across the whole 4 MB
        // LLC (65536 lines): an order of magnitude above the filter, the
        // paper's related-work claim.
        let per_llc_line = FilterParams::builder()
            .buckets(65_536)
            .entries_per_bucket(1)
            .build()
            .expect("valid");
        let extension = DirectoryPatternStore::new(per_llc_line)
            .expect("valid")
            .memory_bytes();
        assert!(
            extension > filter * 10,
            "directory extension {extension} must be an order of magnitude above {filter}"
        );
    }
}
