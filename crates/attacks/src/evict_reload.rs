//! Evict+Reload: a cross-core attack on *shared* lines (e.g. a shared
//! library's code pages).
//!
//! Unlike Prime+Probe, the attacker can address the victim's lines directly:
//! each window it **evicts** the target line with an eviction set, waits,
//! then **reloads** the line itself and times the access — a fast reload
//! means the victim touched the line in between. This is an extension
//! beyond the paper's evaluation showing PiPoMonitor's mitigation is not
//! specific to Prime+Probe: the evict/re-fetch traffic is exactly a
//! Ping-Pong pattern, so the filter captures the line and the prefetch makes
//! every reload fast, blinding the attacker.

use cache_sim::{AccessKind, Hierarchy, TrafficObserver};

use crate::analysis::ProbeObservation;
use crate::eviction::MISS_THRESHOLD;
use crate::prime_probe::{run_windows, AttackConfig, AttackOutcome};
use crate::victim::SquareAndMultiply;

/// The Evict+Reload attack loop. Reuses [`AttackConfig`]; the
/// `attacker_base` seeds the eviction sets used for the evict step.
///
/// It runs Prime+Probe's window loop with the probe step replaced: the
/// attacker reloads the victim's two lines and times them.
///
/// # Examples
///
/// On the unprotected system the reload times leak the victim's windowed
/// operation sequence:
///
/// ```
/// use cache_sim::{Hierarchy, NullObserver, SystemConfig};
/// use pipo_attacks::{AttackConfig, EvictReloadAttack, SquareAndMultiply, VictimLayout};
///
/// let mut h = Hierarchy::new(SystemConfig::paper_default());
/// let victim = SquareAndMultiply::with_random_key(VictimLayout::default_layout(), 64, 3);
/// let cfg = AttackConfig { iterations: 16, ..AttackConfig::paper_default() };
/// let mut baseline = NullObserver;
/// let outcome = EvictReloadAttack::new(cfg).run(&mut h, victim, &mut baseline);
/// assert!(outcome.trace.recover_key().accuracy > 0.99);
/// ```
#[derive(Debug, Clone)]
pub struct EvictReloadAttack {
    config: AttackConfig,
}

impl EvictReloadAttack {
    /// Creates the attack.
    ///
    /// # Panics
    ///
    /// Panics if victim and attacker share a core.
    #[must_use]
    pub fn new(config: AttackConfig) -> Self {
        assert_ne!(
            config.victim_core, config.attacker_core,
            "cross-core attack requires distinct cores"
        );
        Self { config }
    }

    /// Runs the attack against `observer`'s system.
    pub fn run(
        &self,
        hierarchy: &mut Hierarchy,
        victim: SquareAndMultiply,
        observer: &mut dyn TrafficObserver,
    ) -> AttackOutcome {
        let core = self.config.attacker_core;
        let layout = *victim.layout();
        run_windows(
            &self.config,
            hierarchy,
            victim,
            observer,
            &mut |_| Vec::new(),
            |hierarchy, observer, _, now| {
                // Reload: a fast access means the victim touched the line.
                let rs = hierarchy.access(core, layout.square, AccessKind::Read, now, observer);
                let now = now + rs.latency;
                let rm = hierarchy.access(core, layout.multiply, AccessKind::Read, now, observer);
                let observation = ProbeObservation {
                    square: rs.latency < MISS_THRESHOLD,
                    multiply: rm.latency < MISS_THRESHOLD,
                };
                (observation, now + rm.latency)
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::victim::VictimLayout;
    use cache_sim::{NullObserver, SystemConfig};

    fn config(windows: usize) -> AttackConfig {
        AttackConfig {
            iterations: windows,
            bits_per_window: 1,
            ..AttackConfig::paper_default()
        }
    }

    #[test]
    fn baseline_reload_leaks_exact_bits() {
        let key = vec![true, false, true, true, false, false, true, false];
        let mut h = Hierarchy::new(SystemConfig::paper_default());
        let victim = SquareAndMultiply::new(VictimLayout::default_layout(), key.clone());
        let mut obs = NullObserver;
        let outcome = EvictReloadAttack::new(config(key.len())).run(&mut h, victim, &mut obs);
        for (o, &bit) in outcome.trace.observations().iter().zip(&key) {
            assert!(o.square, "square reload must hit every window");
            assert_eq!(o.multiply, bit, "multiply reload leaks the key bit");
        }
        assert!((outcome.trace.recover_key().accuracy - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "distinct cores")]
    fn rejects_same_core() {
        let cfg = AttackConfig {
            attacker_core: cache_sim::CoreId(0),
            ..AttackConfig::paper_default()
        };
        let _ = EvictReloadAttack::new(cfg);
    }

    #[test]
    fn trace_length_matches_windows() {
        let mut h = Hierarchy::new(SystemConfig::paper_default());
        let victim = SquareAndMultiply::with_random_key(VictimLayout::default_layout(), 20, 1);
        let mut obs = NullObserver;
        let outcome = EvictReloadAttack::new(config(20)).run(&mut h, victim, &mut obs);
        assert_eq!(outcome.trace.len(), 20);
        assert!(outcome.end_cycle >= 20 * 5000);
    }
}
