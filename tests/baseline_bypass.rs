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
use pipo_attacks::{Attack, AttackCell, AttackConfig, Flush, VictimLayout};
use pipomonitor::MonitorConfig;

const WINDOWS: usize = 120;

/// Prime+Probe with `flush` against `defense`, key seed 77.
fn attack(flush: Flush, defense: MonitorConfig) -> AttackCell {
    let config = AttackConfig {
        iterations: WINDOWS,
        ..AttackConfig::paper_default()
    };
    AttackCell::new(Attack::PrimeProbe(flush), config, Some(defense), 77)
}

/// PiPoMonitor recording in the prior-work directory table.
fn directory() -> MonitorConfig {
    MonitorConfig::paper_default().with_backend(FilterBackend::Directory)
}

#[test]
fn flushing_bypasses_the_directory_baseline() {
    // Flush both leaky lines' table records every window, avoiding the
    // attacker's own probe LLC sets so the flush does not pollute probes.
    let run = attack(Flush::Table, directory()).run();
    let monitor = run.monitor.expect("defended cell");

    // The defense never fires *for the victim's lines*: their records are
    // evicted before Security can saturate, so the attack reads the
    // sequence cleanly. (The attacker's own ping-ponging eviction-set lines
    // do get captured — harmless to the attacker.)
    let recovery = run.outcome.trace.recover_key();
    assert!(
        recovery.distinguishability > 0.9,
        "directory baseline must be bypassed: distinguishability {}",
        recovery.distinguishability
    );
    let layout = VictimLayout::default_layout();
    for line in [layout.square.line(), layout.multiply.line()] {
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
    // The attacker cannot target filter records deterministically; the best
    // same-budget strategy is a random flood (16 fresh lines per window,
    // like the directory flush above). Expected records evicted per window:
    // 16 of 8192 — the victim's records survive ~512 windows in expectation.
    let run = attack(Flush::Random, MonitorConfig::paper_default()).run();
    let (outcome, monitor) = (run.outcome, run.monitor.expect("defended cell"));

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
    let run = attack(Flush::None, directory()).run();
    let outcome = run.outcome;
    assert!(run.monitor.expect("defended cell").stats().captures > 0);
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
