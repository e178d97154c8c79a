//! Differential suite for the branchless fingerprint probe kernel.
//!
//! The SWAR probe (`Cache::probe_way`) scans a packed fingerprint array with
//! whole-word compare masks and confirms candidates against full tags; the
//! retained scalar reference (`Cache::probe_way_scalar`) is a plain linear
//! scan over validity and tags. Every reachable cache state must resolve
//! every probe to the *same way* under both — including fingerprint aliases
//! (the 7-bit hash collides freely across a 64-bit tag space), partially
//! valid sets, full sets, pad lanes of non-multiple-of-8 way counts, and
//! every replacement policy.

use cache_sim::{Cache, CacheGeometry, LineAddr, LineMeta, Replacement};
use proptest::prelude::*;

/// Joint geometry/policy strategy. Way counts straddle the SWAR word
/// width — 1..=8 exercises the single (possibly partial) word, 9..=20 the
/// multi-word path with a tail mask — except under tree-PLRU, which
/// requires power-of-two ways.
fn arb_config() -> impl Strategy<Value = (CacheGeometry, Replacement)> {
    let policy = prop_oneof![
        Just(Replacement::Lru),
        Just(Replacement::TreePlru),
        any::<u64>().prop_map(|seed| Replacement::Random { seed }),
    ];
    ((0u32..=5), (1usize..=20), policy).prop_map(|(log_sets, ways, replacement)| {
        let ways = if matches!(replacement, Replacement::TreePlru) {
            1 << (ways.ilog2().min(4))
        } else {
            ways
        };
        (
            CacheGeometry {
                sets: 1 << log_sets,
                ways,
            },
            replacement,
        )
    })
}

#[derive(Debug, Clone)]
enum Op {
    Fill(u64),
    Touch(u64),
    Invalidate(u64),
}

/// Ops over a small line space on a small cache: sets alias heavily, so
/// every set cycles through empty → partial → full → holes (invalidate
/// leaves mid-set gaps), and the 7-bit fingerprints collide between
/// resident tags as well as against probed-but-absent ones.
fn arb_ops(max: usize) -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        (0u8..3, 0u64..4096).prop_map(|(kind, line)| match kind {
            0 => Op::Fill(line),
            1 => Op::Touch(line),
            _ => Op::Invalidate(line),
        }),
        1..max,
    )
}

proptest! {
    /// After every mutation, the SWAR kernel and the scalar reference agree
    /// on the resolved way for the mutated line, for a sweep of absent
    /// lines (fingerprint false positives must be rejected by the full-tag
    /// confirm), and for every resident line.
    #[test]
    fn kernel_matches_scalar_reference(
        config in arb_config(),
        ops in arb_ops(250),
    ) {
        let (geometry, replacement) = config;
        let mut cache = Cache::new(geometry, replacement);
        for (i, op) in ops.iter().enumerate() {
            let target = match *op {
                Op::Fill(line) => {
                    cache.fill(LineAddr(line), LineMeta::default());
                    line
                }
                Op::Touch(line) => {
                    cache.touch(LineAddr(line));
                    line
                }
                Op::Invalidate(line) => {
                    cache.invalidate(LineAddr(line));
                    line
                }
            };
            // The mutated line and a deterministic sweep of mostly-absent
            // lines sharing its set (same set ⇒ the probe scans the same
            // fingerprint word, so aliases land where they hurt).
            for probe in 0..16u64 {
                let line = LineAddr(target.wrapping_add(probe * geometry.sets as u64));
                prop_assert_eq!(
                    cache.probe_way(line),
                    cache.probe_way_scalar(line),
                    "op {} probe {:?}", i, line
                );
            }
        }
        // Exhaustive final check: every resident line resolves identically,
        // and the kernel agrees with residency itself.
        let resident: Vec<LineAddr> = cache.resident_lines().map(|(l, _)| l).collect();
        for line in resident {
            let way = cache.probe_way(line);
            prop_assert_eq!(way, cache.probe_way_scalar(line));
            prop_assert!(way.is_some(), "resident line {:?} not found", line);
        }
    }

    /// A cloned cache probes identically to the original under both
    /// lookups — `Clone` must copy every kernel array (fingerprints, tags,
    /// stamps) coherently.
    #[test]
    fn clone_preserves_probe_results(
        config in arb_config(),
        lines in prop::collection::vec(0u64..4096, 1..120),
    ) {
        let (geometry, replacement) = config;
        let mut cache = Cache::new(geometry, replacement);
        for &line in &lines {
            cache.fill(LineAddr(line), LineMeta::default());
        }
        let cloned = cache.clone();
        for &line in &lines {
            let l = LineAddr(line);
            prop_assert_eq!(cloned.probe_way(l), cache.probe_way(l));
            prop_assert_eq!(cloned.probe_way_scalar(l), cache.probe_way_scalar(l));
        }
    }
}

/// Directed aliasing case: lines that differ only above the set-index bits
/// map to one set; with more tags probed than fingerprint values exist, the
/// kernel must reject false-positive lanes via the full-tag confirm on
/// every one of them. (2048 distinct tags over a 7-bit fingerprint space
/// guarantees hundreds of aliases by pigeonhole.)
#[test]
fn aliasing_tags_resolve_by_full_tag_confirm() {
    let geometry = CacheGeometry { sets: 4, ways: 12 };
    let mut cache = Cache::new(geometry, Replacement::Lru);
    let stride = geometry.sets as u64;
    // Fill one set to capacity with distinct tags.
    for i in 0..geometry.ways as u64 {
        cache.fill(LineAddr(1 + i * stride), LineMeta::default());
    }
    // Probe a large same-set tag universe: residents must be found, absent
    // tags (many sharing a fingerprint with a resident) must miss.
    for i in 0..2048u64 {
        let line = LineAddr(1 + i * stride);
        let kernel = cache.probe_way(line);
        assert_eq!(kernel, cache.probe_way_scalar(line), "tag {i}");
        assert_eq!(kernel.is_some(), i < geometry.ways as u64, "tag {i}");
    }
}
