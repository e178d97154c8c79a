//! The cuckoo table behind both of the paper's filters.
//!
//! One `l × b` table of [`Entry`]s serves two overflow policies. They differ
//! only in what a relocation walk does when it reaches the maximal number of
//! kicks (MNK):
//!
//! * **Auto-Cuckoo** ([`CuckooFilter::auto`], paper §V-A) makes that
//!   displacement and drops the displaced record: an *autonomic deletion*.
//!   The new record always lands. Kick victims are random and every
//!   fingerprint has its own alternate bucket, so the deleted record is hard
//!   to predict, which defeats reverse-engineering attacks (§VI-B). So an
//!   insertion never lowers occupancy: once the table is full it stays
//!   full, and a full table has no vacancy to look for, so a walk skips the
//!   bucket scans and kicks straight through to MNK.
//! * **Classic** ([`CuckooFilter::classic`], Fan et al., CoNEXT 2014) stops
//!   before the next displacement and refuses the insertion, dropping the
//!   homeless record. With no kicks that is the new record itself. After
//!   `k > 0` kicks the new record is stored and one resident is lost, so
//!   occupancy is unchanged. Software deployments use MNK in the hundreds
//!   for this reason.
//!
//! Both tables also offer a manual [`delete`](CuckooFilter::delete). It sits
//! outside the [`PatternStore`] trait, so the monitor cannot reach it: the
//! paper's hardware omits it because fingerprint collisions turn it into a
//! false-deletion primitive (§V-A).

use crate::entry::Entry;
use crate::hash::{alternate_bucket, candidate_buckets, fingerprint_of, DetRng, IndexPair};
use crate::params::{FilterParams, ParamsError};
use crate::stats::{CollisionCensus, FilterStats};
use crate::store::{FilterBackend, PatternStore, Promotion, QueryOutcome};

/// Result of a [`CuckooFilter::delete`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeleteOutcome {
    /// A matching record was removed.
    Removed,
    /// No record matched the item's fingerprint in its candidate buckets.
    NotFound,
}

/// A cuckoo filter with a per-entry `Security` counter (paper Fig. 5).
///
/// The filter is addressed with 64-bit items; PiPoMonitor feeds it cache-line
/// addresses. All randomness (victim selection, initial bucket choice) comes
/// from a deterministic seeded generator so experiments are reproducible.
///
/// # Examples
///
/// ```
/// use auto_cuckoo::{CuckooFilter, FilterParams, PatternStore};
///
/// # fn main() -> Result<(), auto_cuckoo::ParamsError> {
/// let mut filter = CuckooFilter::auto(FilterParams::paper_default())?;
/// let outcome = filter.query(0x40);
/// assert!(outcome.inserted);
/// assert_eq!(outcome.security, 0);
/// assert!(filter.contains(0x40));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct CuckooFilter {
    params: FilterParams,
    table: Vec<Entry>,
    rng: DetRng,
    promotion: Promotion,
    occupied: usize,
    /// Whether a walk that reaches MNK deletes a record (Auto-Cuckoo) rather
    /// than refusing the insertion (classic).
    autonomic: bool,
}

impl CuckooFilter {
    /// An empty Auto-Cuckoo filter, whose insertions never fail.
    ///
    /// # Errors
    ///
    /// Returns [`ParamsError`] if `params` fails validation.
    pub fn auto(params: FilterParams) -> Result<Self, ParamsError> {
        Self::with_policy(params, true)
    }

    /// An empty classic cuckoo filter, whose insertions fail once a
    /// relocation walk reaches MNK.
    ///
    /// # Errors
    ///
    /// Returns [`ParamsError`] if `params` fails validation.
    pub fn classic(params: FilterParams) -> Result<Self, ParamsError> {
        Self::with_policy(params, false)
    }

    fn with_policy(params: FilterParams, autonomic: bool) -> Result<Self, ParamsError> {
        params.validate()?;
        Ok(Self {
            table: vec![Entry::vacant(); params.capacity()],
            rng: DetRng::new(params.seed()),
            promotion: Promotion::new(&params),
            occupied: 0,
            autonomic,
            params,
        })
    }

    /// Builds a census of fingerprint collisions over the currently valid
    /// entries (Fig. 4). The per-entry address tallies assume the inserted
    /// items were distinct, which holds w.h.p. for random sampling from a
    /// large address space.
    #[must_use]
    pub fn census(&self) -> CollisionCensus {
        CollisionCensus::from_entries(self.entries())
    }

    /// Iterates over the valid entries (bucket-major order).
    pub fn entries(&self) -> impl Iterator<Item = &Entry> {
        self.table.iter().filter(|e| e.is_valid())
    }

    /// Removes one record matching the item's fingerprint, if any.
    ///
    /// Any record with the same fingerprint in the same candidate buckets
    /// matches, so an adversary holding a colliding address can delete a
    /// victim's record: the false-deletion attack of paper §V-A.
    ///
    /// # Examples
    ///
    /// ```
    /// use auto_cuckoo::{CuckooFilter, DeleteOutcome, FilterParams, PatternStore};
    ///
    /// # fn main() -> Result<(), auto_cuckoo::ParamsError> {
    /// let params = FilterParams::builder().max_kicks(500).build()?;
    /// let mut filter = CuckooFilter::classic(params)?;
    /// assert!(filter.query(0x40).inserted);
    /// assert_eq!(filter.delete(0x40), DeleteOutcome::Removed);
    /// assert!(!filter.contains(0x40));
    /// # Ok(())
    /// # }
    /// ```
    pub fn delete(&mut self, item: u64) -> DeleteOutcome {
        match self.slot_of(item) {
            Some(slot) => {
                self.table[slot].evict();
                self.occupied -= 1;
                DeleteOutcome::Removed
            }
            None => DeleteOutcome::NotFound,
        }
    }

    fn bucket_range(&self, bucket: usize) -> std::ops::Range<usize> {
        let b = self.params.entries_per_bucket();
        let start = bucket * b;
        start..start + b
    }

    /// The slot holding a record that matches `item`, if any.
    fn slot_of(&self, item: u64) -> Option<usize> {
        let fp = fingerprint_of(item, &self.params);
        self.find_match(candidate_buckets(item, &self.params), fp)
    }

    fn find_match(&self, pair: IndexPair, fp: u16) -> Option<usize> {
        for bucket in [pair.primary, pair.alternate] {
            for slot in self.bucket_range(bucket) {
                if self.table[slot].matches(fp) {
                    return Some(slot);
                }
            }
            if pair.primary == pair.alternate {
                break;
            }
        }
        None
    }

    /// An invalid slot of `bucket`, if any. A full table has no vacancy, so
    /// it answers `None` without scanning: an Auto-Cuckoo table stays full
    /// once it fills (see the [module docs](crate::cuckoo)), and every kick
    /// of its walks asks this.
    fn vacant_slot(&self, bucket: usize) -> Option<usize> {
        if self.occupied == self.table.len() {
            return None;
        }
        self.bucket_range(bucket)
            .find(|&slot| !self.table[slot].is_valid())
    }

    /// Places a fresh record. Returns the kicks made and the fingerprint of
    /// the record left homeless when the walk reached MNK.
    fn insert_new(&mut self, pair: IndexPair, fp: u16) -> (u32, Option<u16>) {
        // Fast path: a vacancy in either candidate bucket.
        for bucket in [pair.primary, pair.alternate] {
            if let Some(slot) = self.vacant_slot(bucket) {
                self.table[slot] = Entry::occupied(fp);
                self.occupied += 1;
                return (0, None);
            }
        }

        // Both candidate buckets full: displace a random victim, then walk
        // the relocation chain.
        let b = self.params.entries_per_bucket();
        let mnk = self.params.max_kicks();
        let mut bucket = if self.rng.coin() {
            pair.primary
        } else {
            pair.alternate
        };
        let mut homeless = Entry::occupied(fp);
        let mut kicks = 0u32;
        loop {
            // Classic gives up before the next displacement.
            if kicks == mnk && !self.autonomic {
                return (kicks, Some(homeless.fingerprint()));
            }
            let victim = bucket * b + self.rng.below(b);
            std::mem::swap(&mut homeless, &mut self.table[victim]);
            // Auto-Cuckoo drops the record it just displaced.
            if kicks == mnk {
                return (kicks, Some(homeless.fingerprint()));
            }
            kicks += 1;
            bucket = alternate_bucket(bucket, homeless.fingerprint(), &self.params);
            if let Some(slot) = self.vacant_slot(bucket) {
                self.table[slot] = homeless;
                self.occupied += 1;
                return (kicks, None);
            }
        }
    }
}

impl PatternStore for CuckooFilter {
    /// The paper's combined lookup/insert/count operation (§IV, "Capturing
    /// Ping-Pong lines").
    ///
    /// * If a valid entry with the item's fingerprint exists in either
    ///   candidate bucket, its `Security` counter is incremented (saturating
    ///   at `secThr`) and returned.
    /// * Otherwise a fresh record with `Security = 0` is inserted, relocating
    ///   records by random kicks when both candidate buckets are full. A walk
    ///   that reaches MNK ends as the overflow policy dictates (see the
    ///   [module docs](crate::cuckoo)). A classic refusal reports neither
    ///   `inserted` nor `merged`; the resident it lost, if any, is reported
    ///   in `autonomic_deletion`.
    fn query(&mut self, item: u64) -> QueryOutcome {
        let fp = fingerprint_of(item, &self.params);
        let pair = candidate_buckets(item, &self.params);

        if let Some(slot) = self.find_match(pair, fp) {
            let entry = &mut self.table[slot];
            entry.note_collision();
            return self
                .promotion
                .merge(entry.bump_security(self.params.security_threshold()));
        }

        let (kicks, homeless) = self.insert_new(pair, fp);
        if self.autonomic || homeless.is_none() {
            return self.promotion.insert(kicks, homeless);
        }
        // A refusal without kicks dropped only the new record.
        self.promotion.refuse(kicks, homeless.filter(|_| kicks > 0))
    }

    fn contains(&self, item: u64) -> bool {
        self.slot_of(item).is_some()
    }

    fn security_of(&self, item: u64) -> Option<u8> {
        self.slot_of(item).map(|slot| self.table[slot].security())
    }

    fn len(&self) -> usize {
        self.occupied
    }

    fn occupancy(&self) -> f64 {
        self.occupied as f64 / self.params.capacity() as f64
    }

    /// `l × b` entries of [`FilterParams::entry_bits`] each.
    fn memory_bytes(&self) -> usize {
        (self.params.capacity() * self.params.entry_bits() as usize).div_ceil(8)
    }

    fn stats_snapshot(&self) -> FilterStats {
        self.promotion.stats()
    }

    fn clear(&mut self) {
        self.table.fill(Entry::vacant());
        self.occupied = 0;
        self.promotion.reset();
    }

    fn backend(&self) -> FilterBackend {
        if self.autonomic {
            FilterBackend::Auto
        } else {
            FilterBackend::Classic
        }
    }

    fn params(&self) -> &FilterParams {
        &self.params
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::mix64;

    fn small_params() -> FilterParams {
        FilterParams::builder()
            .buckets(16)
            .entries_per_bucket(4)
            .fingerprint_bits(12)
            .max_kicks(4)
            .build()
            .expect("valid")
    }

    /// One filter of each policy.
    fn both(params: FilterParams) -> [CuckooFilter; 2] {
        [
            CuckooFilter::auto(params).expect("valid"),
            CuckooFilter::classic(params).expect("valid"),
        ]
    }

    #[test]
    fn fresh_filter_is_empty() {
        for f in both(small_params()) {
            assert!(f.is_empty());
            assert_eq!(f.len(), 0);
            assert_eq!(f.occupancy(), 0.0);
        }
    }

    #[test]
    fn first_query_inserts_with_zero_security() {
        for mut f in both(small_params()) {
            let out = f.query(0x1000);
            assert!(out.inserted);
            assert!(!out.merged);
            assert!(!out.captured);
            assert_eq!(out.security, 0);
            assert_eq!(f.len(), 1);
            assert!(f.contains(0x1000));
            assert!(!f.contains(0x999_0000));
        }
    }

    #[test]
    fn reaccesses_count_up_to_threshold_and_capture() {
        for mut f in both(small_params()) {
            f.query(0x40);
            assert_eq!(f.query(0x40).security, 1);
            assert_eq!(f.query(0x40).security, 2);
            let out = f.query(0x40);
            assert_eq!(out.security, 3);
            assert!(out.captured);
            // Saturation: stays at threshold and keeps reporting captured.
            let out = f.query(0x40);
            assert_eq!(out.security, 3);
            assert!(out.captured);
            assert_eq!(f.len(), 1);
        }
    }

    #[test]
    fn security_of_tracks_counter() {
        for mut f in both(small_params()) {
            assert_eq!(f.security_of(0x40), None);
            f.query(0x40);
            assert_eq!(f.security_of(0x40), Some(0));
            f.query(0x40);
            assert_eq!(f.security_of(0x40), Some(1));
        }
    }

    #[test]
    fn insertion_never_fails_even_when_overfull() {
        let mut f = CuckooFilter::auto(small_params()).expect("valid");
        let capacity = f.params().capacity();
        // Insert 10x capacity distinct items; every query must succeed.
        for i in 0..(capacity as u64 * 10) {
            let out = f.query(i * 64 + 7);
            assert!(out.inserted || out.merged);
        }
        assert!(f.len() <= capacity);
        // After massive over-insertion the filter should be essentially full.
        assert!(f.occupancy() > 0.95, "occupancy {}", f.occupancy());
    }

    #[test]
    fn delete_on_a_full_classic_table_frees_the_slot_for_the_next_insert() {
        let params = FilterParams::builder()
            .buckets(16)
            .entries_per_bucket(4)
            .max_kicks(500)
            .build()
            .expect("valid");
        let mut f = CuckooFilter::classic(params).expect("valid");
        let capacity = params.capacity();
        let mut resident = Vec::new();
        for item in (0u64..10_000).map(mix64) {
            if f.len() == capacity {
                break;
            }
            if f.query(item).inserted {
                resident.push(item);
            }
        }
        assert_eq!(f.len(), capacity);
        // A record that still sits in the table: its candidate buckets hold
        // the slot the delete frees.
        let victim = *resident
            .iter()
            .rev()
            .find(|&&item| f.contains(item))
            .expect("a resident");
        let slot = f.slot_of(victim).expect("resident");
        assert_eq!(f.delete(victim), DeleteOutcome::Removed);
        assert_eq!(f.len(), capacity - 1);
        let out = f.query(victim);
        assert!(out.inserted, "{out:?}");
        assert_eq!(out.kicks, 0);
        assert!(f.table[slot].is_valid());
        assert_eq!(f.len(), capacity);
    }

    #[test]
    fn insert_eventually_fails_when_overfull() {
        let params = FilterParams::builder()
            .buckets(16)
            .entries_per_bucket(4)
            .max_kicks(8)
            .build()
            .expect("valid");
        let mut f = CuckooFilter::classic(params).expect("valid");
        let mut refusals = 0u64;
        for i in 0..10_000u64 {
            let out = f.query(mix64(i));
            if !out.inserted && !out.merged {
                refusals += 1;
            }
        }
        assert!(refusals > 0, "classic filter must eventually refuse");
        let s = f.stats_snapshot();
        assert_eq!(s.queries - s.merges - s.inserts, refusals);
        assert_eq!(s.autonomic_deletions, 0);
        assert!(f.occupancy() <= 1.0);
    }

    #[test]
    fn classic_refusal_keeps_occupancy() {
        for mnk in [0, 4] {
            let p = FilterParams::builder()
                .buckets(16)
                .entries_per_bucket(4)
                .max_kicks(mnk)
                .build()
                .expect("valid");
            let mut f = CuckooFilter::classic(p).expect("valid");
            let mut refusals = 0u32;
            for i in 0..10_000u64 {
                let before = f.len();
                let out = f.query(mix64(i));
                if !out.inserted && !out.merged {
                    // With kicks the new record took a slot and one resident
                    // was lost; without, the new record itself was dropped.
                    assert_eq!(f.len(), before);
                    assert_eq!(out.kicks, mnk);
                    assert_eq!(out.autonomic_deletion.is_some(), mnk > 0);
                    refusals += 1;
                }
            }
            assert!(refusals > 0, "MNK={mnk} never refused");
        }
    }

    #[test]
    fn large_mnk_reaches_high_occupancy_before_failing() {
        let p = FilterParams::builder()
            .buckets(64)
            .entries_per_bucket(4)
            .max_kicks(500)
            .build()
            .expect("valid");
        let mut f = CuckooFilter::classic(p).expect("valid");
        let mut inserted = 0u32;
        for i in 0..(f.params().capacity() as u64 * 2) {
            if f.query(mix64(i)).inserted {
                inserted += 1;
            }
        }
        // Fan et al. report ~95% load factors for b=4 with large MNK.
        assert!(
            f.occupancy() > 0.90,
            "classic filter with MNK=500 should pack >90%, got {}",
            f.occupancy()
        );
        assert!(inserted > 0);
    }

    #[test]
    fn occupancy_reaches_one_for_paper_config() {
        let params = FilterParams::paper_default();
        let mut f = CuckooFilter::auto(params).expect("valid");
        for i in 0..20_000u64 {
            // Before and after the table fills, every insertion lands
            // within MNK kicks.
            let out = f.query(mix64(i) | 1);
            assert!(out.inserted || out.merged);
            assert!(out.kicks <= params.max_kicks());
        }
        assert_eq!(f.len(), params.capacity(), "expected full filter");
    }

    #[test]
    fn autonomic_deletion_reported_when_chain_exhausts() {
        let mut f = CuckooFilter::auto(small_params()).expect("valid");
        let mut saw_deletion = false;
        for i in 0..10_000u64 {
            if f.query(i * 64).autonomic_deletion.is_some() {
                saw_deletion = true;
            }
        }
        assert!(
            saw_deletion,
            "over-insertion must trigger autonomic deletion"
        );
        assert!(f.stats_snapshot().autonomic_deletions > 0);
    }

    #[test]
    fn mnk_zero_still_inserts_new_record() {
        let p = FilterParams::builder()
            .buckets(4)
            .entries_per_bucket(2)
            .max_kicks(0)
            .build()
            .expect("valid");
        let mut f = CuckooFilter::auto(p).expect("valid");
        for i in 0..1000u64 {
            let item = i * 64;
            let out = f.query(item);
            if out.inserted {
                assert!(
                    f.contains(item),
                    "newly inserted item {item:#x} must be resident"
                );
            }
        }
    }

    #[test]
    fn occupancy_monotone_nondecreasing_during_fill() {
        for mut f in both(small_params()) {
            let mut last = 0.0;
            for i in 0..5_000u64 {
                f.query(mix64(i));
                let occ = f.occupancy();
                assert!(occ + 1e-12 >= last, "occupancy dropped: {last} -> {occ}");
                last = occ;
            }
        }
    }

    #[test]
    fn clear_resets_everything() {
        for mut f in both(small_params()) {
            for i in 0..100u64 {
                f.query(i * 64);
            }
            f.clear();
            assert!(f.is_empty());
            assert_eq!(f.stats_snapshot().queries, 0);
            assert!(!f.contains(0));
        }
    }

    #[test]
    fn stats_account_queries_inserts_merges() {
        for mut f in both(small_params()) {
            f.query(0x40);
            f.query(0x40);
            f.query(0x80);
            let s = f.stats_snapshot();
            assert_eq!(s.queries, 3);
            assert_eq!(s.inserts, 2);
            assert_eq!(s.merges, 1);
        }
    }

    #[test]
    fn same_seed_same_behaviour() {
        for build in [CuckooFilter::auto, CuckooFilter::classic] {
            let run = || {
                let mut f = build(small_params()).expect("valid");
                for i in 0..5_000u64 {
                    f.query(mix64(i));
                }
                (f.len(), f.stats_snapshot())
            };
            assert_eq!(run(), run());
        }
    }

    #[test]
    fn entries_iterator_counts_match_len() {
        for mut f in both(small_params()) {
            for i in 0..40u64 {
                f.query(i * 64);
            }
            assert_eq!(f.entries().count(), f.len());
        }
    }

    #[test]
    fn delete_removes_record() {
        for mut f in both(small_params()) {
            f.query(0x40);
            assert_eq!(f.delete(0x40), DeleteOutcome::Removed);
            assert!(!f.contains(0x40));
            assert_eq!(f.delete(0x40), DeleteOutcome::NotFound);
            assert!(f.is_empty());
        }
    }

    #[test]
    fn false_deletion_via_colliding_address() {
        // Find two distinct items with identical fingerprint and candidate
        // buckets; deleting one removes the other's record.
        let p = FilterParams::builder()
            .buckets(8)
            .entries_per_bucket(4)
            .fingerprint_bits(4)
            .max_kicks(8)
            .build()
            .expect("valid");
        let mut f = CuckooFilter::classic(p).expect("valid");
        let target = 0x40u64;
        let t_fp = fingerprint_of(target, &p);
        let t_pair = candidate_buckets(target, &p).canonical();
        let collider = (1..1_000_000u64)
            .map(|i| target + i * 64)
            .find(|&c| {
                fingerprint_of(c, &p) == t_fp && candidate_buckets(c, &p).canonical() == t_pair
            })
            .expect("a 4-bit fingerprint collides quickly");
        assert!(f.query(target).inserted);
        assert!(f.contains(target));
        // The adversary deletes via its own colliding address...
        assert_eq!(f.delete(collider), DeleteOutcome::Removed);
        // ...and the victim's record is gone: the false-deletion attack.
        assert!(!f.contains(target));
    }
}
