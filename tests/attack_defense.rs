//! End-to-end reproduction of the paper's security result (Fig. 6):
//! Prime+Probe recovers the victim's operation sequence on the baseline
//! system and learns nothing on the PiPoMonitor-protected system.

use pipo_attacks::{Attack, AttackCell, AttackConfig, AttackOutcome, Flush};
use pipomonitor::MonitorConfig;

fn prime_probe(defended: bool, config: AttackConfig, seed: u64) -> AttackCell {
    let defense = defended.then(MonitorConfig::paper_default);
    AttackCell::new(Attack::PrimeProbe(Flush::None), config, defense, seed)
}

fn run_attack(defended: bool, config: AttackConfig, seed: u64) -> AttackOutcome {
    prime_probe(defended, config, seed).run().outcome
}

/// Fig. 6(a): on the unprotected system the attacker reads the victim's
/// windowed operation sequence perfectly.
#[test]
fn baseline_attack_reads_operation_sequence() {
    let outcome = run_attack(false, AttackConfig::paper_default(), 2021);
    let recovery = outcome.trace.recover_key();
    assert!(
        recovery.accuracy > 0.99,
        "baseline accuracy {}",
        recovery.accuracy
    );
    assert!(
        recovery.distinguishability > 0.99,
        "baseline channel must be clean: {}",
        recovery.distinguishability
    );
}

/// Fig. 6(b): with PiPoMonitor the attacker observes (spurious) accesses in
/// essentially every window — the genuine sequence cannot be obtained.
///
/// Residual deltas vs the paper (documented in EXPERIMENTS.md): the first
/// few windows leak while the filter's Security counter warms up to secThr,
/// and the second of two *consecutive* quiet windows probes clean because
/// the anti-over-protection rule suppresses a second unaccessed prefetch.
/// Both effects vanish at the paper's timescales (continuous GnuPG victim,
/// instruction prefetchers); we assert the flooded-channel shape.
#[test]
fn defended_attack_learns_nothing() {
    let config = AttackConfig {
        iterations: 300,
        ..AttackConfig::paper_default()
    };
    let outcome = run_attack(true, config, 2021);
    let warmup = 10;
    let observations = &outcome.trace.observations()[warmup..];
    let truth = &outcome.trace.truth()[warmup..];

    // Overall the probes are flooded: ~every window reports activity.
    let observed = observations.iter().filter(|o| o.multiply).count();
    assert!(
        observed as f64 >= observations.len() as f64 * 0.95,
        "prefetch must flood the probes: {observed}/{}",
        observations.len()
    );

    // Quiet windows (truth = 0) are mostly covered by the prefetch echo.
    let quiet: Vec<bool> = observations
        .iter()
        .zip(truth)
        .filter(|(_, &t)| !t)
        .map(|(o, _)| o.multiply)
        .collect();
    let covered = quiet.iter().filter(|&&o| o).count();
    assert!(
        covered * 10 >= quiet.len() * 6,
        "quiet windows must be mostly flooded: {covered}/{}",
        quiet.len()
    );

    // The channel is largely closed relative to the baseline's 1.0.
    let recovery = outcome.trace.recover_key();
    assert!(
        recovery.distinguishability < 0.45,
        "defended channel must lose most distinguishability: {}",
        recovery.distinguishability
    );
}

/// The idealised lockstep attacker (one key bit per probe window) is
/// stronger than the paper's; PiPoMonitor still collapses most of the
/// channel (the residual is a one-window "echo" after each 1-bit).
#[test]
fn defended_lockstep_attack_is_degraded() {
    let cfg = AttackConfig {
        iterations: 100,
        ..AttackConfig::lockstep()
    };
    let baseline = run_attack(false, cfg, 7).trace.recover_key();
    let defended = run_attack(true, cfg, 7).trace.recover_key();
    assert!(baseline.distinguishability > 0.99);
    assert!(
        defended.distinguishability < baseline.distinguishability - 0.3,
        "defense must remove a large share of the channel: baseline {} vs defended {}",
        baseline.distinguishability,
        defended.distinguishability
    );
    assert!(
        defended.accuracy < 0.9,
        "defended accuracy {}",
        defended.accuracy
    );
}

/// The monitor's view of the attack: the victim's lines are captured as
/// Ping-Pong lines and re-prefetched on eviction.
#[test]
fn monitor_captures_the_attacked_lines() {
    let config = AttackConfig {
        iterations: 50,
        ..AttackConfig::paper_default()
    };
    let monitor = prime_probe(true, config, 11).run().monitor;
    let stats = *monitor.expect("defended cell").stats();
    assert!(stats.captures > 0, "attacked lines must be captured");
    assert!(
        stats.prefetches_scheduled > 10,
        "protected lines must be re-prefetched on eviction: {stats:?}"
    );
}

/// Determinism: the full attack experiment replays identically.
#[test]
fn attack_experiments_are_deterministic() {
    let a = run_attack(true, AttackConfig::paper_default(), 5);
    let b = run_attack(true, AttackConfig::paper_default(), 5);
    assert_eq!(a.trace.observations(), b.trace.observations());
    assert_eq!(a.end_cycle, b.end_cycle);
}
