//! The paper's core security argument, end to end: a defense-aware attacker
//! flushes the victim's record from the defense's recording structure each
//! attack window.
//!
//! * Against the prior-work **directory table** (PiPoMonitor recording in
//!   `FilterBackend::Directory`), `b` fresh conflicting addresses per window
//!   deterministically evict the record — detection never triggers and the
//!   attack succeeds *despite* the defense.
//! * Against the **Auto-Cuckoo filter**, the same (and even a much larger)
//!   per-window budget cannot deterministically evict the record (expected
//!   cost `b·l` = 8192 accesses); the line is captured and the channel
//!   floods shut.

use auto_cuckoo::FilterBackend;
use cache_sim::{Hierarchy, SystemConfig};
use pipo_attacks::{AttackConfig, PrimeProbeAttack, SquareAndMultiply, TableFlusher, VictimLayout};
use pipomonitor::{MonitorConfig, PiPoMonitor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const WINDOWS: usize = 120;

fn attack_config() -> AttackConfig {
    AttackConfig {
        iterations: WINDOWS,
        ..AttackConfig::paper_default()
    }
}

/// PiPoMonitor recording in the prior-work directory table.
fn directory_monitor() -> PiPoMonitor {
    PiPoMonitor::new(MonitorConfig::paper_default().with_backend(FilterBackend::Directory))
        .expect("valid")
}

fn victim() -> SquareAndMultiply {
    SquareAndMultiply::with_random_key(
        VictimLayout::default_layout(),
        WINDOWS * attack_config().bits_per_window,
        77,
    )
}

#[test]
fn flushing_bypasses_the_directory_baseline() {
    let config = attack_config();
    let mut hierarchy = Hierarchy::new(SystemConfig::paper_default());
    let victim = victim();
    let layout = *victim.layout();
    let mut monitor = directory_monitor();
    let table = monitor.config().filter;

    // Flush both leaky lines' table records every window, avoiding the
    // attacker's own probe LLC sets so the flush does not pollute probes.
    let square_llc = hierarchy.llc_set_of(layout.square);
    let multiply_llc = hierarchy.llc_set_of(layout.multiply);
    let llc_sets = hierarchy.llc_sets() as u64;
    let mut flush_sq = TableFlusher::new(&table, layout.square.line(64), 0x60_0000_0000);
    let mut flush_mu = TableFlusher::new(&table, layout.multiply.line(64), 0x68_0000_0000);
    let avoid = move |l: cache_sim::LineAddr| {
        let set = (l.0 % llc_sets) as usize;
        set == square_llc || set == multiply_llc
    };

    let outcome = PrimeProbeAttack::new(config).run_with_flusher(
        &mut hierarchy,
        victim,
        &mut monitor,
        &mut |_| {
            let mut v = flush_sq.next_round(avoid);
            v.extend(flush_mu.next_round(avoid));
            v
        },
    );

    // The defense never fires *for the victim's lines*: their records are
    // evicted before Security can saturate, so the attack reads the
    // sequence cleanly. (The attacker's own ping-ponging eviction-set lines
    // do get captured — harmless to the attacker.)
    let recovery = outcome.trace.recover_key();
    assert!(
        recovery.distinguishability > 0.9,
        "directory baseline must be bypassed: distinguishability {}",
        recovery.distinguishability
    );
    for line in [layout.square.line(64), layout.multiply.line(64)] {
        let security = monitor.pattern_store().security_of(line.0);
        assert!(
            security.is_none() || security < Some(3),
            "victim record must never saturate: {security:?}"
        );
    }
    assert!(monitor.pattern_store().stats_snapshot().autonomic_deletions > 0);
}

#[test]
fn same_budget_flushing_fails_against_pipomonitor() {
    let config = attack_config();
    let mut hierarchy = Hierarchy::new(SystemConfig::paper_default());
    let victim = victim();
    let layout = *victim.layout();
    let mut monitor = PiPoMonitor::new(MonitorConfig::paper_default()).expect("valid");

    // The attacker cannot target filter records deterministically; the best
    // same-budget strategy is a random flood (16 fresh lines per window,
    // like the directory flush above). Expected records evicted per window:
    // 16 of 8192 — the victim's records survive ~512 windows in expectation.
    let llc_sets = hierarchy.llc_sets() as u64;
    let square_llc = hierarchy.llc_set_of(layout.square);
    let multiply_llc = hierarchy.llc_set_of(layout.multiply);
    let mut rng = StdRng::seed_from_u64(13);
    let outcome = PrimeProbeAttack::new(config).run_with_flusher(
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

    // PiPoMonitor still captures and floods the channel.
    assert!(monitor.stats().captures > 0, "{:?}", monitor.stats());
    assert!(monitor.stats().prefetches_scheduled > 10);
    let observed = outcome
        .trace
        .observations()
        .iter()
        .skip(10)
        .filter(|o| o.multiply)
        .count();
    let total = outcome.trace.len() - 10;
    assert!(
        observed * 100 >= total * 90,
        "probes must stay flooded under flushing: {observed}/{total}"
    );
    let recovery = outcome.trace.recover_key();
    assert!(
        recovery.distinguishability < 0.5,
        "channel must stay mostly closed: {}",
        recovery.distinguishability
    );
}

/// Without flushing, the directory baseline does defend (it is a legitimate
/// prior defense — its weakness is only the deterministic layout).
#[test]
fn directory_baseline_defends_naive_attacks() {
    let config = attack_config();
    let mut hierarchy = Hierarchy::new(SystemConfig::paper_default());
    let mut monitor = directory_monitor();
    let outcome = PrimeProbeAttack::new(config).run(&mut hierarchy, victim(), &mut monitor);
    assert!(monitor.stats().captures > 0);
    let observed = outcome
        .trace
        .observations()
        .iter()
        .skip(10)
        .filter(|o| o.multiply)
        .count();
    assert!(
        observed * 100 >= (outcome.trace.len() - 10) * 90,
        "naive attack must be flooded by the baseline too: {observed}"
    );
}
