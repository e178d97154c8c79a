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
//! * **(d) Plain Prime+Probe**, the attack `fig6_attack`, `ablation_delay`,
//!   `ablation_replacement` and `attack_demo` run: 100 windows at the paper
//!   window (4 key bits) and lockstep (1 bit), baseline and defended, key
//!   seed 2021; defended with a 6000-cycle prefetch delay; and defended on
//!   a random-replacement machine with key seed 99. The trace and end cycle
//!   are folded, and for a defended run the monitor's counts too.
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
use cache_sim::{CoreId, Cycle, LineAddr, Replacement, System, SystemConfig, TrafficObserver};
use common::fingerprint;
use pipo_attacks::{Attack, AttackCell, AttackConfig, AttackRun, Flush, ProbeTrace};
use pipo_workloads::{mixes::mix_by_name, ProfileSource};
use pipomonitor::{MonitorConfig, PiPoMonitor};

// --- The directory-table defense: the only lines tied to its API ---

/// The directory-table defense over an `sets × ways` table, `secThr = 3`.
fn directory(sets: usize, ways: usize) -> MonitorConfig {
    let table = FilterParams::builder()
        .buckets(sets)
        .entries_per_bucket(ways)
        .build()
        .expect("valid table geometry");
    MonitorConfig::paper_default()
        .with_filter(table)
        .with_backend(FilterBackend::Directory)
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
const PRIME_PROBE_GOLDEN: [(&str, u64); 6] = [
    ("paper_window_baseline", 0xc0154934ffd30e1b),
    ("paper_window_defended", 0xb6595b40b3b5a3e8),
    ("lockstep_baseline", 0xcf38118ecd874e4e),
    ("lockstep_defended", 0x1162adadfb3cf2f1),
    ("delay_6000_defended", 0x7c71a3cc18ca1533),
    ("random_replacement_defended", 0x182b38be62096b1d),
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
    let mut monitor = PiPoMonitor::new(directory(sets, ways)).expect("valid config");
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
    let monitor = PiPoMonitor::new(directory(1024, 8)).expect("valid config");
    let mut system = System::new(SystemConfig::paper_default(), monitor);
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

/// `baseline_bypass`'s Prime+Probe with `flush` against `defense`: 120
/// windows, key seed 77.
fn flush_attack(flush: Flush, defense: MonitorConfig) -> AttackRun {
    let config = AttackConfig {
        iterations: 120,
        ..AttackConfig::paper_default()
    };
    AttackCell::new(Attack::PrimeProbe(flush), config, Some(defense), 77).run()
}

fn monitor(run: &AttackRun) -> &PiPoMonitor {
    run.monitor.as_ref().expect("defended cell")
}

/// `baseline_bypass`'s deterministic table flush: `ways` fresh lines of
/// each leaky line's table set per window.
fn table_flush_attack() -> u64 {
    let run = flush_attack(Flush::Table, directory(1024, 8));
    let mut digest = Digest::new();
    digest.outcome(&run.outcome.trace, run.outcome.end_cycle);
    digest.words(&counts(monitor(&run)));
    digest.0
}

/// The same budget as a random flood against PiPoMonitor.
fn random_flood_attack() -> u64 {
    let run = flush_attack(Flush::Random, MonitorConfig::paper_default());
    let mut digest = Digest::new();
    digest.outcome(&run.outcome.trace, run.outcome.end_cycle);
    let stats = monitor(&run).stats();
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
    let defense = defended.then(MonitorConfig::paper_default);
    let run = AttackCell::new(Attack::EvictReload, config, defense, 31).run();
    let mut digest = Digest::new();
    digest.outcome(&run.outcome.trace, run.outcome.end_cycle);
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

// --- (d) Plain Prime+Probe ---

/// Plain Prime+Probe over 100 windows of `bits_per_window` key bits on
/// `system`, key seed `seed`; `defense` is `None` for the unprotected
/// baseline.
fn prime_probe_attack(
    bits_per_window: usize,
    system: SystemConfig,
    defense: Option<MonitorConfig>,
    seed: u64,
) -> u64 {
    let config = AttackConfig {
        iterations: 100,
        bits_per_window,
        ..AttackConfig::paper_default()
    };
    let cell = AttackCell::new(Attack::PrimeProbe(Flush::None), config, defense, seed);
    let run = cell.on_system(system).run();
    let mut digest = Digest::new();
    digest.outcome(&run.outcome.trace, run.outcome.end_cycle);
    if let Some(monitor) = &run.monitor {
        digest.words(&counts(monitor));
    }
    digest.0
}

#[test]
fn prime_probe_matches_the_golden_digests() {
    let paper = SystemConfig::paper_default;
    let defended = Some(MonitorConfig::paper_default());
    let mut random = SystemConfig::paper_default();
    random.replacement = Replacement::Random { seed: 5 };
    let delayed = Some(MonitorConfig::paper_default().with_prefetch_delay(6000));
    let got = vec![
        (
            "paper_window_baseline",
            prime_probe_attack(4, paper(), None, 2021),
        ),
        (
            "paper_window_defended",
            prime_probe_attack(4, paper(), defended, 2021),
        ),
        (
            "lockstep_baseline",
            prime_probe_attack(1, paper(), None, 2021),
        ),
        (
            "lockstep_defended",
            prime_probe_attack(1, paper(), defended, 2021),
        ),
        (
            "delay_6000_defended",
            prime_probe_attack(4, paper(), delayed, 2021),
        ),
        (
            "random_replacement_defended",
            prime_probe_attack(4, random, defended, 99),
        ),
    ];
    report("PRIME_PROBE_GOLDEN", &got);
    assert_eq!(got, PRIME_PROBE_GOLDEN);
}
