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

use cache_sim::{Hierarchy, NullObserver, SystemConfig};
use pipo_attacks::{AttackConfig, PrimeProbeAttack, SquareAndMultiply, VictimLayout};
use pipomonitor::{MonitorConfig, PiPoMonitor};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let bits = 100;
    let seed = 2021;
    let config = AttackConfig {
        iterations: bits,
        ..AttackConfig::lockstep()
    };

    println!("=== Fig. 6(a): baseline (no defense) ===");
    let mut hierarchy = Hierarchy::new(SystemConfig::paper_default());
    let victim = SquareAndMultiply::with_random_key(VictimLayout::default_layout(), bits, seed);
    let mut baseline = NullObserver;
    let outcome = PrimeProbeAttack::new(config).run(&mut hierarchy, victim, &mut baseline);
    println!("{}", outcome.trace.render());
    let undefended = outcome.trace.recover_key();
    println!(
        "key recovery accuracy {:.3}, distinguishability {:.3}\n",
        undefended.accuracy, undefended.distinguishability
    );

    println!("=== Fig. 6(b): PiPoMonitor deployed ===");
    let mut hierarchy = Hierarchy::new(SystemConfig::paper_default());
    let victim = SquareAndMultiply::with_random_key(VictimLayout::default_layout(), bits, seed);
    let mut monitor = PiPoMonitor::new(MonitorConfig::paper_default())?;
    let outcome = PrimeProbeAttack::new(config).run(&mut hierarchy, victim, &mut monitor);
    println!("{}", outcome.trace.render());
    let defended = outcome.trace.recover_key();
    println!(
        "key recovery accuracy {:.3}, distinguishability {:.3}",
        defended.accuracy, defended.distinguishability
    );
    println!("monitor stats: {:?}", monitor.stats());

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
    Ok(())
}
