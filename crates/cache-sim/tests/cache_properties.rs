//! Property-based tests of the set-associative cache and replacement
//! policies.

use cache_sim::{Cache, CacheGeometry, LineAddr, LineMeta, Replacement};
use proptest::prelude::*;

fn arb_geometry() -> impl Strategy<Value = CacheGeometry> {
    ((0u32..=6), (1usize..=8)).prop_map(|(log_sets, ways)| CacheGeometry {
        sets: 1 << log_sets,
        ways,
    })
}

fn arb_replacement() -> impl Strategy<Value = Replacement> {
    prop_oneof![
        Just(Replacement::Lru),
        any::<u64>().prop_map(|seed| Replacement::Random { seed }),
    ]
}

#[derive(Debug, Clone)]
enum Op {
    Fill(u64),
    Touch(u64),
    Invalidate(u64),
}

fn arb_ops(max: usize) -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        (0u8..3, 0u64..512).prop_map(|(kind, line)| match kind {
            0 => Op::Fill(line),
            1 => Op::Touch(line),
            _ => Op::Invalidate(line),
        }),
        1..max,
    )
}

proptest! {
    /// The cache never holds more lines than its capacity, never holds the
    /// same line twice, and every resident line maps to its correct set.
    #[test]
    fn capacity_and_placement_invariants(
        geometry in arb_geometry(),
        replacement in arb_replacement(),
        ops in arb_ops(300),
    ) {
        let mut cache = Cache::new(geometry, replacement);
        for op in &ops {
            match *op {
                Op::Fill(line) => {
                    cache.fill(LineAddr(line), LineMeta::default());
                }
                Op::Touch(line) => {
                    cache.touch(LineAddr(line));
                }
                Op::Invalidate(line) => {
                    cache.invalidate(LineAddr(line));
                }
            }
            prop_assert!(cache.len() <= geometry.lines());
            let mut seen = std::collections::HashSet::new();
            for (line, _) in cache.resident_lines() {
                prop_assert!(seen.insert(line), "duplicate resident line {line}");
                prop_assert_eq!(
                    cache.set_of(line),
                    (line.0 as usize) & (geometry.sets - 1)
                );
            }
        }
    }

    /// A fill either evicts nothing (line already present or a vacancy
    /// existed) or exactly one line from the same set; afterwards the new
    /// line is always resident.
    #[test]
    fn fill_semantics(
        geometry in arb_geometry(),
        replacement in arb_replacement(),
        lines in prop::collection::vec(0u64..512, 1..200),
    ) {
        let mut cache = Cache::new(geometry, replacement);
        for &raw in &lines {
            let line = LineAddr(raw);
            let before = cache.len();
            let was_resident = cache.contains(line);
            let evicted = cache.fill(line, LineMeta::default());
            prop_assert!(cache.contains(line));
            match evicted {
                Some(victim) => {
                    prop_assert_eq!(cache.set_of(victim.line), cache.set_of(line));
                    prop_assert!(!cache.contains(victim.line));
                    prop_assert_eq!(cache.len(), before);
                    prop_assert!(!was_resident);
                }
                None => {
                    let expected = before + usize::from(!was_resident);
                    prop_assert_eq!(cache.len(), expected);
                }
            }
        }
    }

    /// Under LRU, repeatedly touching a line protects it from eviction as
    /// long as other ways absorb the fills.
    #[test]
    fn lru_protects_touched_lines(ways in 2usize..8, fills in 1u64..100) {
        let geometry = CacheGeometry { sets: 1, ways };
        let mut cache = Cache::new(geometry, Replacement::Lru);
        let protected = LineAddr(1000);
        cache.fill(protected, LineMeta::default());
        for i in 0..fills {
            cache.touch(protected);
            cache.fill(LineAddr(i), LineMeta::default());
            prop_assert!(
                cache.contains(protected),
                "touched line evicted after fill {i}"
            );
        }
    }

    /// Invalidate followed by contains is always false, and re-filling
    /// restores residency.
    #[test]
    fn invalidate_roundtrip(
        geometry in arb_geometry(),
        line in 0u64..512,
    ) {
        let mut cache = Cache::new(geometry, Replacement::Lru);
        cache.fill(LineAddr(line), LineMeta::default());
        prop_assert!(cache.contains(LineAddr(line)));
        cache.invalidate(LineAddr(line));
        prop_assert!(!cache.contains(LineAddr(line)));
        cache.fill(LineAddr(line), LineMeta::default());
        prop_assert!(cache.contains(LineAddr(line)));
    }

    /// Metadata written at fill time is returned intact on eviction.
    #[test]
    fn metadata_round_trips_through_eviction(ways in 1usize..4, dirty in any::<bool>()) {
        let geometry = CacheGeometry { sets: 1, ways };
        let mut cache = Cache::new(geometry, Replacement::Lru);
        let meta = LineMeta::default().with_dirty(dirty).with_protected(true);
        cache.fill(LineAddr(0), meta);
        // Fill the set until line 0 is evicted.
        let mut evicted_meta = None;
        for i in 1..=ways as u64 {
            if let Some(e) = cache.fill(LineAddr(i * 64), LineMeta::default()) {
                if e.line == LineAddr(0) {
                    evicted_meta = Some(e.meta);
                }
            }
        }
        let got = evicted_meta.expect("line 0 must eventually be evicted");
        prop_assert_eq!(got.dirty(), dirty);
        prop_assert!(got.protected());
    }
}
