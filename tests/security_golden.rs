//! Bit-identity golden for the directory-table defense and the attack loops.
//!
//! `tests/baseline_bypass.rs` and `tests/evict_reload_defense.rs` assert
//! thresholds only, so on their own they would let either path drift. This
//! file folds three things into FNV-1a digests:
//!
//! * **(a) The directory table** on seeded fetch streams over a 1024×8 and a
//!   16×4 table. Each stream promotes lines to capture, floods one set past
//!   its ways, re-touches a record between conflicts, then mixes a hot set
//!   into a random stream. Every fetch's capture flag and `security_of`, and
//!   the final record-eviction count, are folded.
//! * **(b) Monitored mixes**: mix1 and mix7 at 100 k instructions per core
//!   under the directory-table defense. The `tests/common` fingerprint plus
//!   captures, prefetches scheduled and record evictions are folded.
//! * **(c) The attack loops**: `baseline_bypass`'s table-flush Prime+Probe
//!   attack, the same-budget random flood against PiPoMonitor, and
//!   Evict+Reload at 1 and 4 key bits per window, baseline and defended.
//!   Observations, truth and the end cycle are folded.
//!
//! The table's set index is recomputed here from its public formula, so a
//! change to the indexing moves the flood out of the target's set and
//! changes digest (a).
//!
//! Run with `GOLDEN_PRINT=1 cargo test -q --test security_golden -- --nocapture`
//! to print the current digests when intentionally re-baselining.

mod common;

use auto_cuckoo::hash::mix64;
use auto_cuckoo::{FilterBackend, FilterParams};
use cache_sim::{
    CoreId, Cycle, Hierarchy, LineAddr, NullObserver, System, SystemConfig, TrafficObserver,
};
use common::fingerprint;
use pipo_attacks::{
    AttackConfig, EvictReloadAttack, PrimeProbeAttack, ProbeTrace, SquareAndMultiply, TableFlusher,
    VictimLayout,
};
use pipo_workloads::{mixes::mix_by_name, ProfileSource};
use pipomonitor::{MonitorConfig, PiPoMonitor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

// --- The directory-table defense: the only lines tied to its API ---

/// The directory-table defense over an `sets × ways` table, `secThr = 3`.
fn directory(sets: usize, ways: usize) -> PiPoMonitor {
    let table = FilterParams::builder()
        .buckets(sets)
        .entries_per_bucket(ways)
        .build()
        .expect("valid table geometry");
    let config = MonitorConfig::paper_default()
        .with_filter(table)
        .with_backend(FilterBackend::Directory);
    PiPoMonitor::new(config).expect("valid config")
}

fn security_of(monitor: &PiPoMonitor, line: u64) -> Option<u8> {
    monitor.pattern_store().security_of(line)
}

/// `(captures, prefetches scheduled, record evictions)`.
fn counts(monitor: &PiPoMonitor) -> [u64; 3] {
    let stats = monitor.stats();
    [
        stats.captures,
        stats.prefetches_scheduled,
        monitor.pattern_store().stats_snapshot().autonomic_deletions,
    ]
}

/// A record flusher for `target` against the paper-capacity table.
fn table_flusher(target: LineAddr, attacker_base: u64) -> TableFlusher {
    TableFlusher::new(&FilterParams::paper_default(), target, attacker_base)
}

// --- Digests ---

const TABLE_GOLDEN: [(&str, u64); 2] =
    [("1024x8", 0x808841761d3aa1bd), ("16x4", 0xc606cf7c20b4aaea)];
const MIX_GOLDEN: [(&str, u64); 2] = [("mix1", 0xabf1527a04903370), ("mix7", 0x33712552ca9add4e)];
const ATTACK_GOLDEN: [(&str, u64); 6] = [
    ("table_flush_directory", 0x6a83fa474c98cd72),
    ("random_flood_pipomonitor", 0x0bf27b982137653a),
    ("evict_reload_1bit_baseline", 0x0870efb10c78f5d9),
    ("evict_reload_1bit_defended", 0xf048f4f2abe52074),
    ("evict_reload_4bit_baseline", 0xaaf946d16b242104),
    ("evict_reload_4bit_defended", 0x619f9688a9217ad4),
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

    fn words(&mut self, words: &[u64]) {
        self.word(words.len() as u64);
        for &word in words {
            self.word(word);
        }
    }

    fn outcome(&mut self, trace: &ProbeTrace, end_cycle: Cycle) {
        self.word(trace.len() as u64);
        for (obs, &truth) in trace.observations().iter().zip(trace.truth()) {
            self.word(u64::from(obs.square));
            self.word(u64::from(obs.multiply));
            self.word(u64::from(truth));
        }
        self.word(end_cycle);
    }
}

fn report(kind: &str, got: &[(&str, u64)]) {
    if std::env::var("GOLDEN_PRINT").is_ok() {
        println!("{kind}:");
        for (name, digest) in got {
            println!("    (\"{name}\", {digest:#018x}),");
        }
    }
}

// --- (a) The table on seeded fetch streams ---

/// The table's public set index: `mix64(line ^ 0xd1e_7ab1e) & (sets − 1)`.
fn set_of(line: u64, sets: usize) -> usize {
    (mix64(line ^ 0xd1e_7ab1e) as usize) & (sets - 1)
}

/// A seeded fetch stream of line numbers in four phases.
fn fetch_stream(sets: usize, ways: usize, seed: u64) -> Vec<u64> {
    let mut state = seed;
    let mut fresh = move || {
        state = mix64(state.wrapping_add(0x9e37_79b9_7f4a_7c15));
        state >> 24
    };
    let mut stream = Vec::new();

    // 1. Promote: eight lines fetched five times each, interleaved, so each
    // captures on its fourth fetch and stays saturated on its fifth.
    let hot: Vec<u64> = (0..8).map(|_| fresh()).collect();
    for _ in 0..5 {
        stream.extend(&hot);
    }

    // 2. Flood the first hot line's set with `ways + 2` fresh conflicting
    // lines, then fetch the (evicted) line again.
    let target = hot[0];
    let mut conflicts = Vec::new();
    while conflicts.len() < 3 * ways + 2 {
        let line = fresh();
        if set_of(line, sets) == set_of(target, sets) {
            conflicts.push(line);
        }
    }
    stream.extend(&conflicts[..ways + 2]);
    stream.push(target);

    // 3. Re-touch: the target between every further conflict survives.
    for &line in &conflicts[ways + 2..] {
        stream.push(line);
        stream.push(target);
    }

    // 4. Mixed: four capacities of fetches over a universe of two
    // capacities, every fourth fetch from a hot set of 64 lines.
    let capacity = (sets * ways) as u64;
    let base = fresh() << 20;
    for i in 0..4 * capacity {
        let draw = mix64(i ^ seed);
        stream.push(if i % 4 == 0 {
            base | (draw % 64)
        } else {
            base | (64 + draw % (2 * capacity))
        });
    }
    stream
}

fn table_digest(sets: usize, ways: usize) -> u64 {
    let mut monitor = directory(sets, ways);
    let mut digest = Digest::new();
    for (now, line) in fetch_stream(sets, ways, 0x7ab1e + sets as u64)
        .into_iter()
        .enumerate()
    {
        digest.word(u64::from(
            monitor.on_memory_fetch(LineAddr(line), now as u64),
        ));
        digest.word(security_of(&monitor, line).map_or(u64::MAX, u64::from));
    }
    let [_, _, record_evictions] = counts(&monitor);
    assert!(record_evictions > 0, "the stream must evict records");
    digest.word(record_evictions);
    digest.0
}

#[test]
fn directory_table_matches_the_golden_digests() {
    let got: Vec<(&str, u64)> = vec![
        ("1024x8", table_digest(1024, 8)),
        ("16x4", table_digest(16, 4)),
    ];
    report("TABLE_GOLDEN", &got);
    assert_eq!(got, TABLE_GOLDEN);
}

// --- (b) Monitored mixes ---

fn mix_digest(name: &str) -> u64 {
    let mix = mix_by_name(name).expect("mix exists");
    let mut system = System::new(SystemConfig::paper_default(), directory(1024, 8));
    for (core, bench) in mix.benchmarks.iter().enumerate() {
        system.set_source(CoreId(core), Box::new(ProfileSource::new(bench, core, 42)));
    }
    let fp = fingerprint(&system.run(100_000));
    let counts = counts(system.observer());
    assert!(
        counts[0] > 0,
        "{name} must capture under the table: {counts:?}"
    );
    let mut digest = Digest::new();
    digest.words(&fp.completion_cycles);
    digest.words(&fp.instructions);
    digest.words(&[
        fp.llc_evictions,
        fp.back_invalidations,
        fp.coherence_invalidations,
        fp.writebacks,
        fp.prefetch_fills,
        fp.prefetch_hits,
    ]);
    digest.words(&fp.memory_fetches);
    digest.words(&fp.l1_hits);
    digest.words(&fp.l2_hits);
    digest.words(&fp.l3_hits);
    digest.words(&fp.stall_cycles);
    digest.words(&[fp.dram_reads, fp.dram_prefetch_reads, fp.dram_writes]);
    digest.words(&counts);
    digest.0
}

#[test]
fn monitored_mixes_match_the_golden_digests() {
    let got: Vec<(&str, u64)> = MIX_GOLDEN
        .iter()
        .map(|&(name, _)| (name, mix_digest(name)))
        .collect();
    report("MIX_GOLDEN", &got);
    assert_eq!(got, MIX_GOLDEN);
}

// --- (c) The attack loops ---

const FLUSH_WINDOWS: usize = 120;

fn flush_victim() -> SquareAndMultiply {
    SquareAndMultiply::with_random_key(
        VictimLayout::default_layout(),
        FLUSH_WINDOWS * AttackConfig::paper_default().bits_per_window,
        77,
    )
}

fn flush_config() -> AttackConfig {
    AttackConfig {
        iterations: FLUSH_WINDOWS,
        ..AttackConfig::paper_default()
    }
}

/// `baseline_bypass`'s deterministic table flush: `ways` fresh lines of
/// each leaky line's table set per window.
fn table_flush_attack() -> u64 {
    let mut hierarchy = Hierarchy::new(SystemConfig::paper_default());
    let victim = flush_victim();
    let layout = *victim.layout();
    let mut monitor = directory(1024, 8);
    let square_llc = hierarchy.llc_set_of(layout.square);
    let multiply_llc = hierarchy.llc_set_of(layout.multiply);
    let llc_sets = hierarchy.llc_sets() as u64;
    let mut flush_sq = table_flusher(layout.square.line(64), 0x60_0000_0000);
    let mut flush_mu = table_flusher(layout.multiply.line(64), 0x68_0000_0000);
    let avoid = move |l: LineAddr| {
        let set = (l.0 % llc_sets) as usize;
        set == square_llc || set == multiply_llc
    };
    let outcome = PrimeProbeAttack::new(flush_config()).run_with_flusher(
        &mut hierarchy,
        victim,
        &mut monitor,
        &mut |_| {
            let mut v = flush_sq.next_round(avoid);
            v.extend(flush_mu.next_round(avoid));
            v
        },
    );
    let mut digest = Digest::new();
    digest.outcome(&outcome.trace, outcome.end_cycle);
    digest.words(&counts(&monitor));
    digest.0
}

/// The same budget as a random flood against PiPoMonitor.
fn random_flood_attack() -> u64 {
    let mut hierarchy = Hierarchy::new(SystemConfig::paper_default());
    let victim = flush_victim();
    let layout = *victim.layout();
    let mut monitor = PiPoMonitor::new(MonitorConfig::paper_default()).expect("valid");
    let llc_sets = hierarchy.llc_sets() as u64;
    let square_llc = hierarchy.llc_set_of(layout.square);
    let multiply_llc = hierarchy.llc_set_of(layout.multiply);
    let mut rng = StdRng::seed_from_u64(13);
    let outcome = PrimeProbeAttack::new(flush_config()).run_with_flusher(
        &mut hierarchy,
        victim,
        &mut monitor,
        &mut |_| {
            let mut v = Vec::with_capacity(16);
            while v.len() < 16 {
                let line = (rng.gen::<u64>() >> 8) | (1 << 40);
                let set = (line % llc_sets) as usize;
                if set != square_llc && set != multiply_llc {
                    v.push(cache_sim::Addr(line * 64));
                }
            }
            v
        },
    );
    let mut digest = Digest::new();
    digest.outcome(&outcome.trace, outcome.end_cycle);
    let stats = monitor.stats();
    digest.words(&[stats.captures, stats.prefetches_scheduled]);
    digest.0
}

/// `evict_reload_defense`'s setup (200 windows, seed 31) at
/// `bits_per_window` key bits per window.
fn evict_reload_attack(bits_per_window: usize, defended: bool) -> u64 {
    let config = AttackConfig {
        iterations: 200,
        bits_per_window,
        ..AttackConfig::paper_default()
    };
    let victim = SquareAndMultiply::with_random_key(
        VictimLayout::default_layout(),
        200 * bits_per_window,
        31,
    );
    let mut hierarchy = Hierarchy::new(SystemConfig::paper_default());
    let attack = EvictReloadAttack::new(config);
    let outcome = if defended {
        let mut monitor = PiPoMonitor::new(MonitorConfig::paper_default()).expect("valid");
        attack.run(&mut hierarchy, victim, &mut monitor)
    } else {
        attack.run(&mut hierarchy, victim, &mut NullObserver)
    };
    let mut digest = Digest::new();
    digest.outcome(&outcome.trace, outcome.end_cycle);
    digest.0
}

#[test]
fn attack_loops_match_the_golden_digests() {
    let got = vec![
        ("table_flush_directory", table_flush_attack()),
        ("random_flood_pipomonitor", random_flood_attack()),
        ("evict_reload_1bit_baseline", evict_reload_attack(1, false)),
        ("evict_reload_1bit_defended", evict_reload_attack(1, true)),
        ("evict_reload_4bit_baseline", evict_reload_attack(4, false)),
        ("evict_reload_4bit_defended", evict_reload_attack(4, true)),
    ];
    report("ATTACK_GOLDEN", &got);
    assert_eq!(got, ATTACK_GOLDEN);
}
