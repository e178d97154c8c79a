//! Differential tests: every [`PatternStore`] backend against a scalar
//! reference oracle.
//!
//! The oracle is the *exact* query-with-promotion semantics: a map from line
//! to times-seen, `Security = min(times_seen − 1, secThr)`, captured when
//! `Security` reaches `secThr`. Each backend approximates this under its own
//! failure mode — fingerprint collisions and relocation (cuckoo), counter
//! sharing (bloom), generational forgetting (xor) — so the properties are
//! tiered:
//!
//! * exact agreement where the backend is exact (single items everywhere;
//!   xor below its rebuild point; cuckoo with collision-free item sets),
//! * one-sided bounds where it is not (bloom only ever *inflates*),
//! * structural invariants that hold unconditionally (clear, clone).

use std::collections::{HashMap, HashSet};

use auto_cuckoo::hash::candidate_buckets;
use auto_cuckoo::{
    build_store, fingerprint_of, BloomPatternStore, CuckooFilter, FilterBackend, FilterParams,
    PatternStore, QueryOutcome, XorPatternStore,
};
use proptest::prelude::*;

/// The scalar reference: exact per-line counts, paper promotion rule.
struct ScalarOracle {
    counts: HashMap<u64, u32>,
    thr: u8,
}

struct OracleOutcome {
    inserted: bool,
    security: u8,
    captured: bool,
}

impl ScalarOracle {
    fn new(thr: u8) -> Self {
        Self {
            counts: HashMap::new(),
            thr,
        }
    }

    fn query(&mut self, item: u64) -> OracleOutcome {
        let count = self.counts.entry(item).or_insert(0);
        *count += 1;
        let seen = *count;
        let security = u8::try_from((seen - 1).min(u32::from(self.thr))).expect("capped at thr");
        OracleOutcome {
            inserted: seen == 1,
            security,
            captured: seen > 1 && security >= self.thr,
        }
    }

    fn security_of(&self, item: u64) -> Option<u8> {
        let seen = *self.counts.get(&item)?;
        Some(u8::try_from((seen - 1).min(u32::from(self.thr))).expect("capped at thr"))
    }
}

/// Warms `original` with `warm`, clones it, then feeds `probe` to both:
/// returns the backend and, for original then clone, the length after
/// warming and every probe outcome.
fn original_and_clone<S: PatternStore + Clone>(
    mut original: S,
    warm: &[u64],
    probe: &[u64],
) -> (FilterBackend, [(usize, Vec<QueryOutcome>); 2]) {
    for &item in warm {
        original.query(item);
    }
    let mut cloned = original.clone();
    let replay = |store: &mut S| {
        let len = store.len();
        (len, probe.iter().map(|&item| store.query(item)).collect())
    };
    (
        original.backend(),
        [replay(&mut original), replay(&mut cloned)],
    )
}

/// Parameters roomy enough that load effects stay controllable: at least
/// 512 entries of capacity with 4-wide buckets.
fn roomy_params() -> impl Strategy<Value = FilterParams> {
    (
        (7u32..=10),  // log2(l): 128..=1024 buckets
        (4usize..=8), // b
        (8u32..=14),  // f
        (2u32..=6),   // MNK
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
    /// A single line promoted in isolation behaves identically to the oracle
    /// on every backend: same insert/merge split, same security staircase,
    /// same capture point. No backend has an excuse on one item.
    #[test]
    fn single_item_promotion_matches_oracle_everywhere(
        params in roomy_params(),
        item in any::<u64>(),
        repeats in 1usize..12,
    ) {
        for backend in FilterBackend::ALL.into_iter().chain([FilterBackend::Directory]) {
            let mut store = build_store(backend, params).expect("valid params");
            let mut oracle = ScalarOracle::new(params.security_threshold());
            for round in 0..repeats {
                let got = store.query(item);
                let want = oracle.query(item);
                prop_assert_eq!(got.inserted, want.inserted, "{backend} round {round}");
                prop_assert_eq!(got.merged, !want.inserted, "{backend} round {round}");
                prop_assert_eq!(got.security, want.security, "{backend} round {round}");
                prop_assert_eq!(got.captured, want.captured, "{backend} round {round}");
                prop_assert!(store.contains(item), "{backend} lost the item");
                prop_assert_eq!(
                    store.security_of(item), oracle.security_of(item),
                    "{backend} security_of diverged at round {round}"
                );
            }
        }
    }

    /// The xor store's live window is an exact table: below the rebuild
    /// point (fresh store, fewer distinct lines than 7/8 of the window) it
    /// must agree with the oracle on *arbitrary* streams, query by query.
    #[test]
    fn xor_matches_oracle_exactly_below_rebuild(
        params in roomy_params(),
        items in prop::collection::vec(any::<u64>(), 1..300),
    ) {
        let mut store = build_store(FilterBackend::Xor, params).expect("valid params");
        let mut oracle = ScalarOracle::new(params.security_threshold());
        // 300 distinct lines < 7/8 of the ≥512-slot window: no rebuild.
        for (i, &item) in items.iter().enumerate() {
            let got = store.query(item);
            let want = oracle.query(item);
            prop_assert_eq!(got.inserted, want.inserted, "query {i}");
            prop_assert_eq!(got.security, want.security, "query {i}");
            prop_assert_eq!(got.captured, want.captured, "query {i}");
        }
        for &item in &items {
            prop_assert_eq!(store.security_of(item), oracle.security_of(item));
            prop_assert!(store.contains(item));
        }
    }

    /// The bloom store's counter sharing is inflationary only: on arbitrary
    /// streams it may report a line hotter than it is, never colder. So it
    /// never misses an oracle capture, never under-reports security, and
    /// never claims an insert for a line the oracle has seen.
    #[test]
    fn bloom_only_ever_inflates(
        params in roomy_params(),
        items in prop::collection::vec(any::<u64>(), 1..400),
    ) {
        let mut store = build_store(FilterBackend::Bloom, params).expect("valid params");
        let mut oracle = ScalarOracle::new(params.security_threshold());
        for (i, &item) in items.iter().enumerate() {
            let got = store.query(item);
            let want = oracle.query(item);
            prop_assert!(got.security >= want.security, "under-reported at query {i}");
            prop_assert!(got.captured || !want.captured, "missed a capture at query {i}");
            prop_assert!(!got.inserted || want.inserted, "re-inserted a seen line at query {i}");
            prop_assert!(store.contains(item), "seen line must test present");
        }
    }

    /// With a collision-free item set (pairwise-distinct fingerprint/bucket
    /// pairs) at ≤50% load, both cuckoo backends are exact: they agree with
    /// the oracle query by query. The check stops early in the rare case a
    /// relocation walk overflows (autonomic deletion / failed insert), which
    /// is the one effect collision-freedom cannot rule out.
    #[test]
    fn cuckoo_backends_match_oracle_without_collisions(
        params in roomy_params(),
        raw in prop::collection::vec(any::<u64>(), 1..200),
        repeats in 1usize..5,
    ) {
        // Deduplicate by the identity the filters actually store.
        let mut seen = HashSet::new();
        let items: Vec<u64> = raw
            .into_iter()
            .filter(|&item| {
                let key = (
                    fingerprint_of(item, &params),
                    candidate_buckets(item, &params).canonical(),
                );
                seen.insert(key)
            })
            .take(params.capacity() / 2)
            .collect();

        for backend in [FilterBackend::Auto, FilterBackend::Classic] {
            let mut store = build_store(backend, params).expect("valid params");
            let mut oracle = ScalarOracle::new(params.security_threshold());
            'stream: for _ in 0..repeats {
                for &item in &items {
                    let got = store.query(item);
                    if got.autonomic_deletion.is_some() || (!got.inserted && !got.merged) {
                        // Overflow: a record was lost (auto) or refused
                        // (classic); exactness no longer applies.
                        break 'stream;
                    }
                    let want = oracle.query(item);
                    prop_assert_eq!(got.inserted, want.inserted, "{backend}");
                    prop_assert_eq!(got.security, want.security, "{backend}");
                    prop_assert_eq!(got.captured, want.captured, "{backend}");
                }
            }
        }
    }

    /// `clear` returns every backend to the empty state: nothing contained,
    /// statistics zeroed, and a fresh stream then behaves like a fresh store.
    #[test]
    fn clear_is_a_full_reset_on_every_backend(
        params in roomy_params(),
        items in prop::collection::vec(any::<u64>(), 1..100),
    ) {
        for backend in FilterBackend::ALL {
            let mut store = build_store(backend, params).expect("valid params");
            for &item in &items {
                store.query(item);
            }
            store.clear();
            prop_assert!(store.is_empty(), "{backend} not empty after clear");
            prop_assert_eq!(store.len(), 0, "{backend} len after clear");
            prop_assert_eq!(store.stats_snapshot().queries, 0, "{backend} stats after clear");
            for &item in &items {
                prop_assert!(!store.contains(item), "{backend} still contains {item:#x}");
                prop_assert_eq!(store.security_of(item), None, "{backend} security after clear");
            }
            // Post-clear, the store answers like a fresh one.
            let first = store.query(items[0]);
            prop_assert!(first.inserted, "{backend} first query after clear must insert");
        }
    }

    /// A cloned store is observably identical to its original on every
    /// backend: same length, and the same follow-up stream yields the same
    /// outcomes.
    #[test]
    fn clones_are_observably_identical(
        params in roomy_params(),
        warm in prop::collection::vec(any::<u64>(), 1..150),
        probe in prop::collection::vec(any::<u64>(), 1..30),
    ) {
        let runs = [
            original_and_clone(CuckooFilter::auto(params).expect("valid params"), &warm, &probe),
            original_and_clone(CuckooFilter::classic(params).expect("valid params"), &warm, &probe),
            original_and_clone(BloomPatternStore::new(params).expect("valid params"), &warm, &probe),
            original_and_clone(XorPatternStore::new(params).expect("valid params"), &warm, &probe),
        ];
        let backends: Vec<FilterBackend> = runs.iter().map(|(backend, _)| *backend).collect();
        prop_assert_eq!(backends, FilterBackend::ALL, "every backend is cloned");
        for (backend, [original, cloned]) in runs {
            prop_assert_eq!(cloned, original, "{backend} clone diverged");
        }
    }
}
