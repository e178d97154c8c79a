//! Extension experiment: PiPoMonitor against Evict+Reload on shared lines.
//!
//! The evict/re-fetch traffic of Evict+Reload is itself a Ping-Pong pattern,
//! so the defense needs nothing new: the filter captures the shared line and
//! the prefetch makes every attacker reload fast, regardless of victim
//! behaviour.

use pipo_attacks::{Attack, AttackCell, AttackConfig};
use pipomonitor::MonitorConfig;

/// Evict+Reload over 200 windows against the key of seed 31.
fn evict_reload(defended: bool) -> AttackCell {
    let config = AttackConfig {
        iterations: 200,
        ..AttackConfig::paper_default()
    };
    let defense = defended.then(MonitorConfig::paper_default);
    AttackCell::new(Attack::EvictReload, config, defense, 31)
}

#[test]
fn baseline_evict_reload_reads_sequence() {
    let outcome = evict_reload(false).run().outcome;
    let r = outcome.trace.recover_key();
    assert!(r.accuracy > 0.99, "accuracy {}", r.accuracy);
    assert!(r.distinguishability > 0.99);
}

#[test]
fn pipomonitor_blinds_evict_reload() {
    let run = evict_reload(true).run();
    let outcome = run.outcome;

    // The attacker's own evict/reload loop ping-pongs the shared lines, so
    // capture is guaranteed; afterwards reloads hit every window.
    assert!(run.monitor.expect("defended cell").stats().captures > 0);
    let warmup = 10;
    let hot = outcome
        .trace
        .observations()
        .iter()
        .skip(warmup)
        .filter(|o| o.multiply)
        .count();
    let total = outcome.trace.len() - warmup;
    assert!(
        hot * 100 >= total * 95,
        "reloads must be flooded: {hot}/{total}"
    );
    // Evict+Reload churns the filter harder than Prime+Probe (every window
    // cascades eviction-set refetches), so the victim record is sporadically
    // autonomically evicted and protection lapses for a few windows — the
    // paper's §VI-C false-negative dynamic. Most of the channel still
    // disappears (baseline distinguishability is 1.0).
    let r = outcome.trace.recover_key();
    assert!(
        r.distinguishability < 0.75,
        "most of the channel must be gone: {}",
        r.distinguishability
    );
}

#[test]
fn evict_reload_experiments_are_deterministic() {
    let run = || {
        let outcome = evict_reload(true).run().outcome;
        (outcome.trace.observations().to_vec(), outcome.end_cycle)
    };
    assert_eq!(run(), run());
}
