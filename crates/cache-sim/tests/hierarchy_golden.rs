//! Bit-identity golden for the hierarchy's access, fill and coherence paths.
//!
//! Each configuration replays a seeded op stream over a small line pool.
//! Most of the pool aliases into three LLC sets (a few more lines than the
//! LLC has ways per set), so L1, L2 and LLC evictions, back-invalidations
//! and dirty writebacks all fire; the rest are lines that stay resident in
//! the private caches. Every core reads and writes the same lines, so
//! writes regularly hit lines that other cores hold, and some ops insert
//! monitor prefetches instead of accessing. The observer tags every fifth
//! pool line as protected on its memory fetch.
//!
//! Every `AccessResult`, every `RecordingObserver` event in order, the final
//! `HierarchyStats` and the DRAM counters are folded into one FNV-1a digest
//! per configuration. The hierarchy is reached only through its public API,
//! so the digests pin behaviour however the caches are implemented. A
//! hierarchy built right after one of the same configuration ran a
//! different stream and was dropped must give the same digests.
//!
//! Run with `GOLDEN_PRINT=1 cargo test -q -p cache_sim --test hierarchy_golden -- --nocapture`
//! to print the current digests when intentionally re-baselining.

use cache_sim::{
    AccessKind, AccessResult, Addr, CacheGeometry, CoreId, Hierarchy, HierarchyStats, Level,
    LineAddr, RecordingObserver, Replacement, SystemConfig, LINE_SIZE,
};

/// Ops replayed per configuration.
const OPS: u64 = 60_000;

/// Seed of every configuration's op stream.
const SEED: u64 = 0x601d_e115;

/// Seed of the stream a hierarchy runs before it is dropped.
const OTHER_SEED: u64 = 0xd1ff_5eed;

/// `(name, digest)`. The first three were captured before the
/// modified-state fast path.
const GOLDEN: [(&str, u64); 5] = [
    ("small_test", 0x01c799af6112f300),
    ("paper_default", 0x907f2bbb3e187f0d),
    ("tree_plru_3c", 0xad009ef39a8d8316),
    ("random_2c", 0xac86c946ebc4a155),
    ("lru_llc12", 0xb9eb0c25694e10ba),
];

/// The golden configurations. Besides the two shipped ones: three cores
/// under Tree-PLRU, random replacement, and a 12-way LLC, whose sets span
/// one full fingerprint word and half of a second.
fn configs() -> [(&'static str, SystemConfig); 5] {
    let mut tree = SystemConfig::small_test();
    tree.cores = 3;
    tree.replacement = Replacement::TreePlru;
    let mut random = SystemConfig::small_test();
    random.replacement = Replacement::Random { seed: 0x5eed };
    let mut llc12 = SystemConfig::small_test();
    llc12.l3 = CacheGeometry::from_capacity(96 << 10, 12);
    [
        ("small_test", SystemConfig::small_test()),
        ("paper_default", SystemConfig::paper_default()),
        ("tree_plru_3c", tree),
        ("random_2c", random),
        ("lru_llc12", llc12),
    ]
}

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

    fn result(&mut self, r: &AccessResult) {
        self.word(r.latency);
        self.word(match r.served_by {
            Level::L1 => 1,
            Level::L2 => 2,
            Level::L3 => 3,
            Level::Memory => 4,
        });
        self.word(u64::from(r.prefetch_hit));
    }

    /// Folds the observer's events since the last call, then forgets them.
    fn events(&mut self, obs: &mut RecordingObserver) {
        for &(line, now) in &obs.fetches {
            self.word(line.0);
            self.word(now);
        }
        for &(line, protected, accessed, now) in &obs.evictions {
            self.word(line.0);
            self.word(u64::from(protected));
            self.word(u64::from(accessed));
            self.word(now);
        }
        obs.fetches.clear();
        obs.evictions.clear();
    }

    fn stats(&mut self, stats: &HierarchyStats) {
        for c in &stats.per_core {
            for level in [c.l1, c.l2, c.l3] {
                self.word(level.hits);
                self.word(level.misses);
            }
            self.word(c.memory_fetches);
            self.word(c.stall_cycles);
        }
        self.word(stats.llc_evictions);
        self.word(stats.back_invalidations);
        self.word(stats.coherence_invalidations);
        self.word(stats.writebacks);
        self.word(stats.prefetch_fills);
        self.word(stats.prefetch_hits);
    }
}

/// SplitMix64: a self-contained seeded op-stream generator.
struct Stream(u64);

impl Stream {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// The line pool: `(aliased, resident)`. The aliased lines fill three LLC
/// sets past their associativity; the resident lines sit alone in their
/// sets at every level.
fn pool(config: &SystemConfig) -> (Vec<LineAddr>, Vec<LineAddr>) {
    let sets = config.l3.sets as u64;
    let mut aliased = Vec::new();
    for set in [0, 1, sets / 2 + 3] {
        for tag in 0..config.l3.ways as u64 + 3 {
            aliased.push(LineAddr(set + tag * sets));
        }
    }
    let resident = (0..6).map(|i| LineAddr(7 + i)).collect();
    (aliased, resident)
}

/// Replays the op stream of `seed` on a new hierarchy of `config`: returns
/// the digest and the final statistics.
fn replay(config: SystemConfig, seed: u64) -> (u64, HierarchyStats) {
    let cores = config.cores as u64;
    let (aliased, resident) = pool(&config);
    let mut h = Hierarchy::new(config);
    let mut obs = RecordingObserver {
        tag_lines: aliased
            .iter()
            .chain(&resident)
            .copied()
            .step_by(5)
            .collect(),
        ..RecordingObserver::default()
    };
    let mut ops = Stream(seed);
    let mut digest = Digest::new();
    for now in 0..OPS {
        let roll = ops.below(100);
        let line = if roll < 40 {
            resident[ops.below(resident.len() as u64) as usize]
        } else {
            aliased[ops.below(aliased.len() as u64) as usize]
        };
        if roll % 33 == 7 {
            // Three ops in a hundred: a monitor prefetch, of a resident or
            // an absent line.
            h.insert_prefetch(line, now, &mut obs);
        } else {
            let core = CoreId(ops.below(cores) as usize);
            let kind = if ops.below(100) < 35 {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            let addr = Addr(line.0 * LINE_SIZE + ops.below(LINE_SIZE));
            digest.result(&h.access(core, addr, kind, now, &mut obs));
        }
        digest.events(&mut obs);
        if now % 4096 == 0 {
            assert_eq!(h.check_inclusion(), None, "op {now}");
        }
    }
    assert_eq!(h.check_inclusion(), None);
    let stats = h.stats().clone();
    digest.stats(&stats);
    digest.word(h.dram().reads());
    digest.word(h.dram().prefetch_reads());
    digest.word(h.dram().writes());
    (digest.0, stats)
}

/// One test, not two, so that no other test thread builds a hierarchy in
/// between: each configuration first runs on a new hierarchy, then on one
/// built right after a hierarchy of the same configuration ran another
/// stream and was dropped. Both must give the golden digest.
#[test]
fn every_config_matches_the_golden_digest() {
    let mut got = Vec::new();
    for (name, config) in configs() {
        let (digest, stats) = replay(config, SEED);
        if std::env::var("GOLDEN_PRINT").is_ok() {
            println!("GOLDEN {name} stats: {stats:?}");
        }
        // The stream must exercise every path the digest is meant to pin.
        for c in &stats.per_core {
            assert!(
                c.l1.hits > 0 && c.l2.hits > 0 && c.l3.hits > 0,
                "{name}: {c:?}"
            );
        }
        assert!(stats.llc_evictions > 0, "{name}: {stats:?}");
        assert!(stats.back_invalidations > 0, "{name}: {stats:?}");
        assert!(stats.coherence_invalidations > 0, "{name}: {stats:?}");
        assert!(stats.writebacks > 0, "{name}: {stats:?}");
        assert!(stats.prefetch_fills > 0, "{name}: {stats:?}");
        assert!(stats.prefetch_hits > 0, "{name}: {stats:?}");
        got.push((name, digest));
    }
    if std::env::var("GOLDEN_PRINT").is_ok() {
        for (name, digest) in &got {
            println!("    (\"{name}\", {digest:#018x}),");
        }
    }
    assert_eq!(got, GOLDEN);

    let mut after_drop = Vec::new();
    for (name, config) in configs() {
        let (other, _) = replay(config.clone(), OTHER_SEED);
        let (digest, _) = replay(config, SEED);
        assert_ne!(other, digest, "{name}: the streams must differ");
        after_drop.push((name, digest));
    }
    assert_eq!(after_drop, GOLDEN, "built after a dropped hierarchy");
}
