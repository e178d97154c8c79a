//! Bit-identity golden for the cuckoo table under both overflow policies,
//! and for the bloom and xor pattern stores.
//!
//! Each geometry replays a fixed query stream of 4× its capacity, drawn from
//! a universe of 2× its capacity lines, so merges, captures, autonomic
//! deletions (auto), refused insertions (classic) and rebuilds (xor) all
//! fire. Every `QueryOutcome` field, the final `FilterStats` and the final
//! `len` are folded into one FNV-1a digest per backend. Each store is
//! reached only through `build_store` and the `PatternStore` trait, so the
//! digests pin behaviour independently of how the store is implemented.
//!
//! Run with `GOLDEN_PRINT=1 cargo test -q -p auto_cuckoo --test cuckoo_golden -- --nocapture`
//! to print the current digests when intentionally re-baselining.

use auto_cuckoo::hash::mix64;
use auto_cuckoo::{build_store, FilterBackend, FilterParams, FilterStats, QueryOutcome};

/// `(name, l, b, f, MNK, secThr)`.
type Geometry = (&'static str, usize, usize, u32, u32, u8);

const GEOMETRIES: [Geometry; 7] = [
    ("l1_b1_mnk0", 1, 1, 12, 0, 3),
    ("l1_b8_mnk2_t1", 1, 8, 12, 2, 1),
    ("l64_b4_f4_mnk0", 64, 4, 4, 0, 3),
    ("l256_b2_f8_mnk1_t1", 256, 2, 8, 1, 1),
    ("paper_default", 1024, 8, 12, 4, 3),
    ("l64_b4_mnk500", 64, 4, 12, 500, 3),
    ("l128_f16_mnk8_t2", 128, 4, 16, 8, 2),
];

/// `(name, auto digest, classic digest)`, captured from the two-filter
/// implementation that predates the merged table.
const GOLDEN: [(&str, u64, u64); 7] = [
    ("l1_b1_mnk0", 0x0b7875d326a78b08, 0x0c5aa3c577d61a41),
    ("l1_b8_mnk2_t1", 0x02b8aa9649f8c02b, 0x303a0f6cbf5aae5f),
    ("l64_b4_f4_mnk0", 0xc1def7179ec06bb9, 0xd86a10ffd6d4afd7),
    ("l256_b2_f8_mnk1_t1", 0xd5693935903f9c5d, 0xedddaff9f125e685),
    ("paper_default", 0x3f13a995640844a2, 0x28bae4d230589930),
    ("l64_b4_mnk500", 0xec98a28550b4e484, 0xe37b2ddfc0de8165),
    ("l128_f16_mnk8_t2", 0x6db1b2278ce94873, 0x80ce8b8be2dba488),
];

/// `(name, bloom digest, xor digest)`, captured before the stores shared one
/// promotion step. Neither store reads the fingerprint width or MNK, so
/// geometries that differ only there share a digest.
const BLOOM_XOR_GOLDEN: [(&str, u64, u64); 7] = [
    ("l1_b1_mnk0", 0x18a0bd2f3a0ac240, 0x18a0bd2f3a0ac240),
    ("l1_b8_mnk2_t1", 0xc54c0005411d5a65, 0xc54c0005411d5a65),
    ("l64_b4_f4_mnk0", 0x340ec59fa48290c8, 0x69bb560a4bdba6b2),
    ("l256_b2_f8_mnk1_t1", 0xe13f95002a900311, 0xf7f68e418b493fdb),
    ("paper_default", 0xcf19252b2c78bdcf, 0xda011dfced9ef777),
    ("l64_b4_mnk500", 0x340ec59fa48290c8, 0x69bb560a4bdba6b2),
    ("l128_f16_mnk8_t2", 0x502601a517277b15, 0xc6de15f95f5fe6af),
];

/// FNV-1a over little-endian 64-bit words.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Self(0xcbf29ce484222325)
    }

    fn word(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn outcome(&mut self, out: &QueryOutcome) {
        self.word(u64::from(out.security));
        self.word(u64::from(out.inserted));
        self.word(u64::from(out.merged));
        self.word(u64::from(out.captured));
        self.word(u64::from(out.kicks));
        self.word(out.autonomic_deletion.map_or(u64::MAX, u64::from));
    }

    fn stats(&mut self, stats: &FilterStats) {
        self.word(stats.queries);
        self.word(stats.merges);
        self.word(stats.inserts);
        self.word(stats.kicks);
        self.word(stats.autonomic_deletions);
        self.word(stats.captures);
    }
}

/// Replays the geometry's stream on one backend: returns the digest and the
/// final statistics.
fn replay(backend: FilterBackend, geometry: &Geometry) -> (u64, FilterStats) {
    let &(_, l, b, f, mnk, thr) = geometry;
    let params = FilterParams::builder()
        .buckets(l)
        .entries_per_bucket(b)
        .fingerprint_bits(f)
        .max_kicks(mnk)
        .security_threshold(thr)
        .build()
        .expect("golden geometries are valid");
    let mut store = build_store(backend, params).expect("valid params");
    let capacity = params.capacity() as u64;
    let mut digest = Digest::new();
    for i in 0..4 * capacity {
        let line = mix64(i ^ 0x0090_1de4) % (2 * capacity);
        digest.outcome(&store.query(mix64(line) | 1));
    }
    let stats = store.stats_snapshot();
    digest.stats(&stats);
    digest.word(store.len() as u64);
    (digest.0, stats)
}

#[test]
fn both_policies_match_the_golden_digests() {
    let mut got = Vec::new();
    let mut totals = [FilterStats::default(), FilterStats::default()];
    for geometry in &GEOMETRIES {
        let (auto, auto_stats) = replay(FilterBackend::Auto, geometry);
        let (classic, classic_stats) = replay(FilterBackend::Classic, geometry);
        for (total, stats) in totals.iter_mut().zip([auto_stats, classic_stats]) {
            total.queries += stats.queries;
            total.merges += stats.merges;
            total.inserts += stats.inserts;
            total.kicks += stats.kicks;
            total.autonomic_deletions += stats.autonomic_deletions;
            total.captures += stats.captures;
        }
        got.push((geometry.0, auto, classic));
    }
    if std::env::var("GOLDEN_PRINT").is_ok() {
        for (name, auto, classic) in &got {
            println!("    (\"{name}\", {auto:#018x}, {classic:#018x}),");
        }
        println!("GOLDEN totals (auto, classic): {totals:#?}");
    }

    // The streams must exercise every path the digests are meant to pin.
    let [auto, classic] = &totals;
    for total in [auto, classic] {
        assert!(total.merges > 0 && total.captures > 0, "{total:?}");
    }
    assert!(auto.autonomic_deletions > 0, "auto must delete: {auto:?}");
    assert_eq!(
        auto.inserts + auto.merges,
        auto.queries,
        "auto never refuses"
    );
    assert!(
        classic.inserts + classic.merges < classic.queries,
        "classic must refuse: {classic:?}"
    );

    assert_eq!(got, GOLDEN);
}

#[test]
fn bloom_and_xor_match_the_golden_digests() {
    let mut got = Vec::new();
    let mut totals = [FilterStats::default(), FilterStats::default()];
    for geometry in &GEOMETRIES {
        let (bloom, bloom_stats) = replay(FilterBackend::Bloom, geometry);
        let (xor, xor_stats) = replay(FilterBackend::Xor, geometry);
        for (total, stats) in totals.iter_mut().zip([bloom_stats, xor_stats]) {
            total.queries += stats.queries;
            total.merges += stats.merges;
            total.inserts += stats.inserts;
            total.captures += stats.captures;
        }
        got.push((geometry.0, bloom, xor));
    }
    if std::env::var("GOLDEN_PRINT").is_ok() {
        for (name, bloom, xor) in &got {
            println!("    (\"{name}\", {bloom:#018x}, {xor:#018x}),");
        }
        println!("GOLDEN totals (bloom, xor): {totals:#?}");
    }

    // Both stores merge and capture, and neither refuses an insertion.
    for total in &totals {
        assert!(total.merges > 0 && total.captures > 0, "{total:?}");
        assert_eq!(total.inserts + total.merges, total.queries, "{total:?}");
    }

    assert_eq!(got, BLOOM_XOR_GOLDEN);
}
