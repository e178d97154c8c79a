//! Reproduces Fig. 6: the attacker's view of the victim's square/multiply
//! usage, on the baseline system and under PiPoMonitor.
//!
//! The attacker runs in lockstep with the victim, one key bit per probe
//! window, so each window's truth is a single key bit and the random key's
//! zeros show. (With several bits per window the truth is their OR, almost
//! always 1, and both panels would print the same all-ones rows.) The demo
//! asserts the shape `tests/attack_defense.rs` pins: the baseline reads the
//! key cleanly, and the defense removes a large share of the channel.
//!
//! Run with: `cargo run --example attack_demo`

use pipo_attacks::{Attack, AttackCell, AttackConfig, Flush};
use pipo_bench::args::write_stdout;
use pipomonitor::MonitorConfig;

fn main() {
    let config = AttackConfig {
        iterations: 100,
        ..AttackConfig::lockstep()
    };
    let cell = |defense| AttackCell::new(Attack::PrimeProbe(Flush::None), config, defense, 2021);

    let baseline = cell(None).run().outcome;
    let undefended = baseline.trace.recover_key();
    let run = cell(Some(MonitorConfig::paper_default())).run();
    let defended = run.outcome.trace.recover_key();
    write_stdout(&format!(
        "=== Fig. 6(a): baseline (no defense) ===\n{}\n\
         key recovery accuracy {:.3}, distinguishability {:.3}\n\n\
         === Fig. 6(b): PiPoMonitor deployed ===\n{}\n\
         key recovery accuracy {:.3}, distinguishability {:.3}\n\
         monitor stats: {:?}\n",
        baseline.trace.render(),
        undefended.accuracy,
        undefended.distinguishability,
        run.outcome.trace.render(),
        defended.accuracy,
        defended.distinguishability,
        run.monitor.expect("defended cell").stats()
    ));

    assert!(
        undefended.distinguishability > 0.99,
        "the baseline attack must read the key: distinguishability {}",
        undefended.distinguishability
    );
    assert!(
        defended.distinguishability < undefended.distinguishability - 0.3,
        "the defense must remove a large share of the channel: {} vs {}",
        defended.distinguishability,
        undefended.distinguishability
    );
}
