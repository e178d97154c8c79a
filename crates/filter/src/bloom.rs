//! Blocked spectral Bloom pattern store.
//!
//! A cache-conscious Bloom-filter variant of the monitor's pattern store:
//! instead of storing fingerprints in relocatable cuckoo entries, the store
//! keeps a flat array of 4-bit saturating counters grouped into 64-byte
//! *blocks* (one hardware cache line / SRAM row each). An item hashes to one
//! block and to `K = 4` counter slots inside it, so every query touches a
//! single line — the classic blocked-bloom trade: slightly worse
//! false-positive behaviour than an unblocked filter for strictly better
//! locality and constant probe cost.
//!
//! Promotion uses the *conservative update* rule of spectral Bloom filters:
//! an item's `Security` level is the minimum of its `K` counters, and a query
//! increments only the counters equal to that minimum. False positives are
//! therefore *inflationary only*: counter sharing can make a line look hotter
//! than it is (raising false alarms), never colder — the store has no
//! deletions of any kind, so a real Ping-Pong pattern is never missed.
//!
//! Geometry derives from the shared [`FilterParams`]: a store sized for
//! `l × b` tracked lines uses `4 × l × b` counters (rounded up to a power of
//! two), i.e. 2 bytes per tracked line — comparable to the cuckoo table's
//! `(1 + f + 2)`-bit entries at `f = 12`.

use std::fmt;

use crate::hash::mix64;
use crate::params::{FilterParams, ParamsError};
use crate::stats::FilterStats;
use crate::store::{FilterBackend, PatternStore, Promotion, QueryOutcome};

/// Counters per item (the `K` probes of a query).
const K: usize = 4;
/// Counters per 64-byte block (4-bit counters).
const BLOCK_COUNTERS: usize = 128;
/// Counter slots allocated per tracked item of the nominal capacity.
const COUNTERS_PER_ITEM: usize = 4;
/// Saturation value of a 4-bit counter.
const COUNTER_MAX: u8 = 15;
/// Domain separation for the block hash.
const BLOOM_SALT: u64 = 0xb10c_b100_f11e_ca5e;

/// The blocked spectral Bloom pattern store.
///
/// # Examples
///
/// ```
/// use auto_cuckoo::{BloomPatternStore, FilterParams, PatternStore};
///
/// # fn main() -> Result<(), auto_cuckoo::ParamsError> {
/// let mut store = BloomPatternStore::new(FilterParams::paper_default())?;
/// assert!(store.query(0x40).inserted); // Security = 0
/// store.query(0x40);                   // Security = 1
/// store.query(0x40);                   // Security = 2
/// assert!(store.query(0x40).captured); // Security = 3 == secThr
/// # Ok(())
/// # }
/// ```
#[derive(Clone)]
pub struct BloomPatternStore {
    params: FilterParams,
    /// Nibble-packed 4-bit counters, two per byte.
    data: Vec<u8>,
    /// Total counter slots (power of two, multiple of [`BLOCK_COUNTERS`]).
    counters: usize,
    /// Block count (power of two); block index mask is `blocks - 1`.
    blocks: usize,
    /// Counters currently nonzero (for occupancy).
    set_counters: usize,
    /// Distinct inserts observed (queries that found minimum 0).
    inserted_items: usize,
    promotion: Promotion,
}

impl fmt::Debug for BloomPatternStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BloomPatternStore")
            .field("params", &self.params)
            .field("counters", &self.counters)
            .field("blocks", &self.blocks)
            .field("set_counters", &self.set_counters)
            .field("inserted_items", &self.inserted_items)
            .field("promotion", &self.promotion)
            .finish_non_exhaustive()
    }
}

impl BloomPatternStore {
    /// Creates an empty store sized for `params.capacity()` tracked lines.
    ///
    /// # Errors
    ///
    /// Returns [`ParamsError`] if `params` fails validation.
    pub fn new(params: FilterParams) -> Result<Self, ParamsError> {
        params.validate()?;
        let counters = (params.capacity() * COUNTERS_PER_ITEM)
            .next_power_of_two()
            .max(BLOCK_COUNTERS);
        Ok(Self {
            data: vec![0u8; counters / 2],
            counters,
            blocks: counters / BLOCK_COUNTERS,
            set_counters: 0,
            inserted_items: 0,
            promotion: Promotion::new(&params),
            params,
        })
    }

    /// The `K` counter indices of an item (all within one block).
    #[inline]
    fn probes(&self, item: u64) -> [usize; K] {
        let h = mix64(item ^ BLOOM_SALT);
        let base = (h as usize & (self.blocks - 1)) * BLOCK_COUNTERS;
        // 4 × 7 bits of in-block slot index from an independent mix.
        let g = mix64(h);
        let mut probes = [0usize; K];
        for (i, probe) in probes.iter_mut().enumerate() {
            *probe = base + ((g >> (7 * i)) as usize & (BLOCK_COUNTERS - 1));
        }
        probes
    }

    #[inline]
    fn counter(&self, idx: usize) -> u8 {
        let byte = self.data[idx / 2];
        if idx & 1 == 0 {
            byte & 0x0f
        } else {
            byte >> 4
        }
    }

    #[inline]
    fn set_counter(&mut self, idx: usize, value: u8) {
        debug_assert!(value <= COUNTER_MAX);
        let byte = &mut self.data[idx / 2];
        if idx & 1 == 0 {
            *byte = (*byte & 0xf0) | value;
        } else {
            *byte = (*byte & 0x0f) | (value << 4);
        }
    }
}

impl PatternStore for BloomPatternStore {
    /// The query-with-promotion operation: reads the item's counter minimum,
    /// conservatively increments it, and reports the resulting `Security`.
    fn query(&mut self, item: u64) -> QueryOutcome {
        let probes = self.probes(item);
        let mut min = COUNTER_MAX;
        for &p in &probes {
            min = min.min(self.counter(p));
        }
        // Conservative update: only counters at the minimum move, so shared
        // counters are inflated as little as possible.
        if min < COUNTER_MAX {
            for &p in &probes {
                if self.counter(p) == min {
                    if min == 0 {
                        self.set_counters += 1;
                    }
                    self.set_counter(p, min + 1);
                }
            }
        }
        if min == 0 {
            self.inserted_items += 1;
            return self.promotion.insert(0, None);
        }
        self.promotion
            .merge(min.min(self.params.security_threshold()))
    }

    /// Whether the item's counter minimum is nonzero. Subject to
    /// counter-sharing false positives.
    fn contains(&self, item: u64) -> bool {
        self.probes(item).iter().all(|&p| self.counter(p) > 0)
    }

    /// Current `Security` of the item, if its counter minimum is nonzero.
    /// A counter minimum of `m` means the line was seen `m` times
    /// (saturating), i.e. `Security = min(m - 1, secThr)`.
    fn security_of(&self, item: u64) -> Option<u8> {
        let thr = self.params.security_threshold();
        let min = self
            .probes(item)
            .iter()
            .map(|&p| self.counter(p))
            .min()
            .expect("K > 0");
        (min > 0).then(|| (min - 1).min(thr))
    }

    /// Distinct inserts observed (queries whose counter minimum was zero).
    /// Counter sharing can merge distinct lines, so this undercounts the
    /// lines that contributed traffic, never overcounts.
    fn len(&self) -> usize {
        self.inserted_items
    }

    /// Fraction of counter slots currently nonzero.
    fn occupancy(&self) -> f64 {
        self.set_counters as f64 / self.counters as f64
    }

    /// Bytes of counter storage.
    fn memory_bytes(&self) -> usize {
        self.data.len()
    }

    fn stats_snapshot(&self) -> FilterStats {
        self.promotion.stats()
    }

    /// Zeroes every counter and resets statistics.
    fn clear(&mut self) {
        self.data.fill(0);
        self.set_counters = 0;
        self.inserted_items = 0;
        self.promotion.reset();
    }

    fn backend(&self) -> FilterBackend {
        FilterBackend::Bloom
    }

    fn params(&self) -> &FilterParams {
        &self.params
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> BloomPatternStore {
        BloomPatternStore::new(FilterParams::paper_default()).expect("valid")
    }

    #[test]
    fn fresh_store_is_empty() {
        let s = store();
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        assert_eq!(s.occupancy(), 0.0);
        assert!(!s.contains(0x40));
        assert_eq!(s.security_of(0x40), None);
        // 4 counters × 8192 capacity × 4 bits = 16 KiB.
        assert_eq!(s.memory_bytes(), 16 * 1024);
    }

    #[test]
    fn promotion_matches_cuckoo_latency() {
        let mut s = store();
        let out = s.query(0x40);
        assert!(out.inserted && !out.merged && out.security == 0);
        assert_eq!(s.security_of(0x40), Some(0));
        assert_eq!(s.query(0x40).security, 1);
        assert_eq!(s.query(0x40).security, 2);
        let out = s.query(0x40);
        assert_eq!(out.security, 3);
        assert!(out.captured);
        // Saturation: stays captured at the threshold.
        let out = s.query(0x40);
        assert_eq!(out.security, 3);
        assert!(out.captured);
        assert_eq!(s.security_of(0x40), Some(3));
    }

    #[test]
    fn distinct_lines_rarely_capture_below_load() {
        let mut s = store();
        let mut captures = 0u32;
        for i in 0..4000u64 {
            if s.query(mix64(i) | 1).captured {
                captures += 1;
            }
        }
        // Single-visit lines at <50% counter load: capture needs a 4-way
        // counter pileup; a handful at most.
        assert!(captures < 5, "unexpected capture storm: {captures}");
        assert_eq!(s.stats_snapshot().queries, 4000);
    }

    #[test]
    fn false_positives_only_inflate() {
        let mut s = store();
        // Saturate the store with traffic, then a fresh line's security can
        // be inflated but a seen line's can never be reduced.
        for i in 0..100_000u64 {
            s.query(mix64(i));
        }
        s.query(0xdead_beef);
        let first = s.security_of(0xdead_beef).expect("just inserted");
        s.query(0xdead_beef);
        let second = s.security_of(0xdead_beef).expect("still present");
        assert!(
            second >= first,
            "promotion must be monotone: {first}->{second}"
        );
    }

    #[test]
    fn clear_resets_everything() {
        let mut s = store();
        for i in 0..100u64 {
            s.query(i * 64);
        }
        assert!(!s.is_empty());
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.stats_snapshot().queries, 0);
        assert!(!s.contains(0));
        assert_eq!(s.occupancy(), 0.0);
    }

    #[test]
    fn occupancy_counts_nonzero_counters() {
        let mut s = store();
        s.query(0x40);
        let occ = s.occupancy();
        assert!(occ > 0.0 && occ <= K as f64 / s.counters as f64);
        // Re-querying the same item sets no new counters.
        s.query(0x40);
        assert_eq!(s.occupancy(), occ);
    }
}
