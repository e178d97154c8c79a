//! Property-based tests for the filter crate's core invariants.

use auto_cuckoo::hash::{alternate_bucket, candidate_buckets};
use auto_cuckoo::{
    fingerprint_of, CuckooFilter, DeleteOutcome, FilterBackend, FilterParams, ParamsError,
    PatternStore,
};
use proptest::prelude::*;

/// A cuckoo-table constructor: one per overflow policy.
type Build = fn(FilterParams) -> Result<CuckooFilter, ParamsError>;

/// Either overflow policy, so every policy-agnostic property runs on both.
fn arb_policy() -> impl Strategy<Value = Build> {
    prop_oneof![
        Just(CuckooFilter::auto as Build),
        Just(CuckooFilter::classic as Build)
    ]
}

fn arb_params() -> impl Strategy<Value = FilterParams> {
    (
        (2u32..=11),  // log2(l): 4..=2048 buckets
        (1usize..=8), // b
        (4u32..=16),  // f
        (0u32..=6),   // MNK
        (1u8..=3),    // secThr
        any::<u64>(), // seed
    )
        .prop_map(|(log_l, b, f, mnk, thr, seed)| {
            FilterParams::builder()
                .buckets(1 << log_l)
                .entries_per_bucket(b)
                .fingerprint_bits(f)
                .max_kicks(mnk)
                .security_threshold(thr)
                .seed(seed)
                .build()
                .expect("generated parameters are valid")
        })
}

proptest! {
    /// The partial-key identity must be an involution for every parameter set
    /// and every item: applying the alternate-bucket map twice returns the
    /// original bucket, and it maps the pair onto itself.
    #[test]
    fn xor_relocation_is_involution(params in arb_params(), item in any::<u64>()) {
        let pair = candidate_buckets(item, &params);
        let fp = fingerprint_of(item, &params);
        prop_assert!(pair.primary < params.buckets());
        prop_assert!(pair.alternate < params.buckets());
        prop_assert_eq!(alternate_bucket(pair.primary, fp, &params), pair.alternate);
        prop_assert_eq!(alternate_bucket(pair.alternate, fp, &params), pair.primary);
    }

    /// Insertions never exceed capacity, and an outcome never claims both an
    /// insert and a merge. Auto-Cuckoo insertions never fail either.
    #[test]
    fn filter_never_overflows(params in arb_params(), items in prop::collection::vec(any::<u64>(), 1..400), build in arb_policy()) {
        let mut filter = build(params).expect("valid params");
        let auto = filter.backend() == FilterBackend::Auto;
        for &item in &items {
            let out = filter.query(item);
            prop_assert!(!(out.inserted && out.merged), "at most one of inserted/merged");
            prop_assert!(out.inserted || out.merged || !auto, "auto insertions never fail");
            prop_assert!(out.security <= params.security_threshold());
            prop_assert!(filter.len() <= params.capacity());
        }
    }

    /// Occupancy never decreases under queries: autonomic deletion replaces a
    /// record one-for-one, and a classic refusal either drops the new record
    /// or stores it in place of the resident it loses.
    #[test]
    fn filter_occupancy_monotone(params in arb_params(), items in prop::collection::vec(any::<u64>(), 1..400), build in arb_policy()) {
        let mut filter = build(params).expect("valid params");
        let mut last = 0usize;
        for &item in &items {
            filter.query(item);
            prop_assert!(filter.len() >= last);
            last = filter.len();
        }
    }

    /// Immediately after a query that inserted or merged, the item is
    /// present unless the relocation walk happened to displace and
    /// autonomically delete the item's own record (possible when the random
    /// walk revisits its bucket). In that case the reported deleted
    /// fingerprint must be the item's.
    #[test]
    fn queried_item_resident_unless_self_evicted(params in arb_params(), items in prop::collection::vec(any::<u64>(), 1..200), build in arb_policy()) {
        let mut filter = build(params).expect("valid params");
        for &item in &items {
            let out = filter.query(item);
            let fp = fingerprint_of(item, &params);
            if (out.inserted || out.merged) && out.autonomic_deletion != Some(fp) {
                prop_assert!(filter.contains(item), "item {item:#x} missing right after query");
            }
        }
    }

    /// Re-querying the same item `secThr` times after insertion must capture
    /// it, regardless of configuration or interleaved state.
    #[test]
    fn repeated_queries_capture(params in arb_params(), item in any::<u64>(), build in arb_policy()) {
        let mut filter = build(params).expect("valid params");
        filter.query(item);
        let mut captured = false;
        for _ in 0..params.security_threshold() {
            captured = filter.query(item).captured;
        }
        prop_assert!(captured);
    }

    /// The classic filter's delete is exact-on-fingerprint: after inserting
    /// and deleting the same item (with no other residents), contains is false.
    #[test]
    fn classic_insert_delete_roundtrip(params in arb_params(), item in any::<u64>()) {
        let mut filter = CuckooFilter::classic(params).expect("valid params");
        prop_assert!(filter.query(item).inserted, "an empty filter always has room");
        prop_assert!(filter.contains(item));
        prop_assert_eq!(filter.delete(item), DeleteOutcome::Removed);
        prop_assert!(!filter.contains(item));
        prop_assert!(filter.is_empty());
    }

    /// Filter statistics are internally consistent: every query is an
    /// insert, a merge or (classic only) a refusal.
    #[test]
    fn stats_are_consistent(params in arb_params(), items in prop::collection::vec(any::<u64>(), 1..300), build in arb_policy()) {
        let mut filter = build(params).expect("valid params");
        let mut refusals = 0u64;
        for &item in &items {
            let out = filter.query(item);
            refusals += u64::from(!out.inserted && !out.merged);
        }
        let s = filter.stats_snapshot();
        prop_assert_eq!(s.queries, items.len() as u64);
        prop_assert_eq!(s.inserts + s.merges + refusals, s.queries);
        if filter.backend() == FilterBackend::Auto {
            prop_assert_eq!(refusals, 0);
        }
        prop_assert!(s.autonomic_deletions <= s.inserts);
        prop_assert!(filter.len() as u64 <= s.inserts);
    }

    /// Determinism: the same parameter set (including seed) and item sequence
    /// produce identical filters.
    #[test]
    fn behaviour_is_deterministic(params in arb_params(), items in prop::collection::vec(any::<u64>(), 1..200), build in arb_policy()) {
        let run = || {
            let mut filter = build(params).expect("valid params");
            let outs: Vec<_> = items.iter().map(|&i| filter.query(i)).collect();
            (outs, filter.len(), filter.stats_snapshot())
        };
        prop_assert_eq!(run(), run());
    }
}
