//! The cross-core Prime+Probe attack loop (paper §VI-A, Fig. 6).

use cache_sim::{AccessKind, Addr, CoreId, Cycle, Hierarchy, TrafficObserver};

use crate::analysis::{ProbeObservation, ProbeTrace};
use crate::eviction::EvictionSet;
use crate::victim::SquareAndMultiply;

/// Attack parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AttackConfig {
    /// Number of attack iterations (probe windows).
    pub iterations: usize,
    /// Cycles between successive probes (the paper probes every 5000).
    pub probe_interval: Cycle,
    /// Victim square-and-multiply iterations executed per probe window.
    ///
    /// `1` models an idealised lockstep attacker that samples every key bit
    /// individually — the strongest attacker. The paper's GnuPG victim runs
    /// continuously, processing several bits per 5000-cycle window; values
    /// around 3-5 model that timing. With more than one bit per window the
    /// recorded ground truth per window is the OR of its bits (did the
    /// victim multiply in this window), matching what Fig. 6 plots.
    pub bits_per_window: usize,
    /// Core running the victim.
    pub victim_core: CoreId,
    /// Core running the attacker (must differ from the victim's).
    pub attacker_core: CoreId,
    /// Base of the attacker's address region for eviction sets.
    pub attacker_base: u64,
}

impl AttackConfig {
    /// The paper's setup: probe every 5000 cycles, victim on core 0,
    /// attacker on core 1, 100 iterations, continuous victim execution
    /// (4 bits per window).
    #[must_use]
    pub fn paper_default() -> Self {
        Self {
            iterations: 100,
            probe_interval: 5000,
            bits_per_window: 4,
            victim_core: CoreId(0),
            attacker_core: CoreId(1),
            attacker_base: 0x77_0000_0000,
        }
    }

    /// An idealised lockstep attacker: exactly one victim key bit per probe
    /// window. Stronger than the paper's attacker.
    #[must_use]
    pub fn lockstep() -> Self {
        Self {
            bits_per_window: 1,
            ..Self::paper_default()
        }
    }
}

impl Default for AttackConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Everything the attack produced: the probe trace plus bookkeeping.
#[derive(Debug, Clone)]
pub struct AttackOutcome {
    /// Per-iteration probe observations and the ground-truth key bits.
    pub trace: ProbeTrace,
    /// Cycle at which the attack finished.
    pub end_cycle: Cycle,
}

/// The orchestrated Prime+Probe attack.
///
/// Each iteration: the attacker primes the `square` and `multiply` LLC sets,
/// the victim executes one square-and-multiply iteration, pending monitor
/// prefetches are drained (time passes), and the attacker probes both sets.
/// A probed miss means "the victim (apparently) touched this line".
///
/// # Examples
///
/// Against an unprotected system the attack recovers the key:
///
/// ```
/// use cache_sim::{Hierarchy, NullObserver, SystemConfig};
/// use pipo_attacks::{AttackConfig, PrimeProbeAttack, SquareAndMultiply, VictimLayout};
///
/// let mut h = Hierarchy::new(SystemConfig::paper_default());
/// let mut baseline = NullObserver;
/// let victim = SquareAndMultiply::with_random_key(VictimLayout::default_layout(), 32, 1);
/// let cfg = AttackConfig { iterations: 32, ..AttackConfig::lockstep() };
/// let outcome = PrimeProbeAttack::new(cfg).run(&mut h, victim, &mut baseline);
/// let recovery = outcome.trace.recover_key();
/// assert!(recovery.accuracy > 0.95);
/// ```
#[derive(Debug, Clone)]
pub struct PrimeProbeAttack {
    config: AttackConfig,
}

impl PrimeProbeAttack {
    /// Creates an attack with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if victim and attacker share a core (the threat model requires
    /// cross-core attackers).
    #[must_use]
    pub fn new(config: AttackConfig) -> Self {
        assert_ne!(
            config.victim_core, config.attacker_core,
            "cross-core attack requires distinct cores"
        );
        Self { config }
    }

    /// The attack configuration.
    #[must_use]
    pub fn config(&self) -> &AttackConfig {
        &self.config
    }

    /// Runs the attack on a hierarchy observed by `observer` (pass
    /// [`cache_sim::NullObserver`] for the unprotected baseline or a
    /// `PiPoMonitor` for the defended system).
    pub fn run(
        &self,
        hierarchy: &mut Hierarchy,
        victim: SquareAndMultiply,
        observer: &mut dyn TrafficObserver,
    ) -> AttackOutcome {
        self.run_with_flusher(hierarchy, victim, observer, &mut |_| Vec::new())
    }

    /// Like [`run`](Self::run), but a *defense-aware* attacker additionally
    /// accesses `flusher(window)`'s addresses at the start of every window,
    /// attempting to evict the victim's record from the defense's recording
    /// structure before its Security counter saturates (paper §VI-B).
    ///
    /// Against the deterministic directory-table baseline a tiny per-window
    /// flush suffices; against the Auto-Cuckoo filter the expected flush
    /// cost is `b·l` accesses per window, far beyond the probe interval.
    pub fn run_with_flusher(
        &self,
        hierarchy: &mut Hierarchy,
        victim: SquareAndMultiply,
        observer: &mut dyn TrafficObserver,
        flusher: &mut dyn FnMut(usize) -> Vec<Addr>,
    ) -> AttackOutcome {
        let core = self.config.attacker_core;
        run_windows(
            &self.config,
            hierarchy,
            victim,
            observer,
            flusher,
            |hierarchy, observer, [square, multiply], now| {
                // A miss means the set was disturbed since the prime.
                let (t, square_misses) = square.probe(hierarchy, core, now, observer);
                let (t, multiply_misses) = multiply.probe(hierarchy, core, t, observer);
                let observation = ProbeObservation {
                    square: square_misses > 0,
                    multiply: multiply_misses > 0,
                };
                (observation, t)
            },
        )
    }
}

/// The window loop shared by Prime+Probe and Evict+Reload.
///
/// Each window: the attacker accesses `flusher(window)`'s addresses and
/// primes (evicts) the eviction sets of the victim's `square` and
/// `multiply` lines, the victim executes `bits_per_window` iterations spread
/// across the window, pending monitor prefetches are drained at the end of
/// the probe interval, and `measure` reads the window from the two eviction
/// sets at that cycle, returning its observation and the cycle it finished.
/// The loop stops early when the victim's key runs out.
pub(crate) fn run_windows(
    cfg: &AttackConfig,
    hierarchy: &mut Hierarchy,
    mut victim: SquareAndMultiply,
    observer: &mut dyn TrafficObserver,
    flusher: &mut dyn FnMut(usize) -> Vec<Addr>,
    mut measure: impl FnMut(
        &mut Hierarchy,
        &mut dyn TrafficObserver,
        [&EvictionSet; 2],
        Cycle,
    ) -> (ProbeObservation, Cycle),
) -> AttackOutcome {
    let layout = *victim.layout();
    let square_set = EvictionSet::for_target(hierarchy, layout.square, cfg.attacker_base);
    // Offset the second region so the two sets cannot collide even when
    // the targets share an LLC set.
    let multiply_set =
        EvictionSet::for_target(hierarchy, layout.multiply, cfg.attacker_base + (1 << 32));

    let mut observations = Vec::with_capacity(cfg.iterations);
    let mut truth = Vec::with_capacity(cfg.iterations);
    let mut now: Cycle = 0;
    let bits_per_window = cfg.bits_per_window.max(1);

    'windows: for window in 0..cfg.iterations {
        let iter_start = now;

        // Defense-aware record flushing (no-op for the plain attacks).
        for addr in flusher(window) {
            let r = hierarchy.access(cfg.attacker_core, addr, AccessKind::Read, now, observer);
            now += r.latency;
        }

        // Prime (evict) both target sets.
        now = square_set.prime(hierarchy, cfg.attacker_core, now, observer);
        now = multiply_set.prime(hierarchy, cfg.attacker_core, now, observer);

        // The victim executes its iterations spread across the window.
        let mut window_bit = false;
        let slot = cfg.probe_interval / (bits_per_window as Cycle + 1);
        let mut executed_any = false;
        for k in 0..bits_per_window {
            let Some((bit, accesses)) = victim.next_iteration() else {
                if executed_any {
                    break;
                }
                break 'windows;
            };
            executed_any = true;
            window_bit |= bit;
            let mut victim_clock = iter_start + slot * (k as Cycle + 1);
            for addr in accesses {
                hierarchy.drain_prefetches(victim_clock, observer);
                let r = hierarchy.access(
                    cfg.victim_core,
                    addr,
                    AccessKind::Read,
                    victim_clock,
                    observer,
                );
                victim_clock += r.latency;
            }
        }
        truth.push(window_bit);

        // Wait out the probe interval; monitor prefetches become due.
        now = iter_start + cfg.probe_interval;
        hierarchy.drain_prefetches(now, observer);

        let (observation, t) = measure(hierarchy, observer, [&square_set, &multiply_set], now);
        now = t;
        observations.push(observation);
    }

    AttackOutcome {
        trace: ProbeTrace::new(observations, truth),
        end_cycle: now,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::victim::VictimLayout;
    use cache_sim::{NullObserver, SystemConfig};

    fn run_baseline(key: Vec<bool>) -> AttackOutcome {
        let mut h = Hierarchy::new(SystemConfig::paper_default());
        let mut obs = NullObserver;
        let victim = SquareAndMultiply::new(VictimLayout::default_layout(), key.clone());
        let cfg = AttackConfig {
            iterations: key.len(),
            ..AttackConfig::lockstep()
        };
        PrimeProbeAttack::new(cfg).run(&mut h, victim, &mut obs)
    }

    #[test]
    fn baseline_attack_reads_multiply_exactly_for_one_bits() {
        let key = vec![true, false, true, true, false, false, true, false];
        let outcome = run_baseline(key.clone());
        assert_eq!(outcome.trace.len(), key.len());
        for (obs, &bit) in outcome.trace.observations().iter().zip(&key) {
            assert!(obs.square, "square runs every iteration");
            assert_eq!(obs.multiply, bit, "multiply leaks the key bit");
        }
    }

    #[test]
    fn baseline_recovers_full_key() {
        let key = vec![
            true, false, false, true, true, false, true, false, true, true,
        ];
        let outcome = run_baseline(key);
        let recovery = outcome.trace.recover_key();
        assert!((recovery.accuracy - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "distinct cores")]
    fn same_core_attack_is_rejected() {
        let cfg = AttackConfig {
            attacker_core: CoreId(0),
            ..AttackConfig::paper_default()
        };
        let _ = PrimeProbeAttack::new(cfg);
    }

    #[test]
    fn attack_time_advances_monotonically() {
        let outcome = run_baseline(vec![true; 5]);
        assert!(outcome.end_cycle >= 5 * 5000);
    }

    #[test]
    fn windowed_attack_records_or_of_bits() {
        let mut h = Hierarchy::new(SystemConfig::paper_default());
        let mut obs = NullObserver;
        // 8 bits, 4 per window -> 2 windows with truths (1, 0).
        let key = vec![false, true, false, false, false, false, false, false];
        let victim = SquareAndMultiply::new(VictimLayout::default_layout(), key);
        let cfg = AttackConfig {
            iterations: 4,
            bits_per_window: 4,
            ..AttackConfig::paper_default()
        };
        let outcome = PrimeProbeAttack::new(cfg).run(&mut h, victim, &mut obs);
        assert_eq!(outcome.trace.len(), 2);
        assert_eq!(outcome.trace.truth(), &[true, false]);
        assert!(outcome.trace.observations()[0].multiply);
        assert!(!outcome.trace.observations()[1].multiply);
    }

    #[test]
    fn windowed_attack_stops_at_key_end() {
        let mut h = Hierarchy::new(SystemConfig::paper_default());
        let mut obs = NullObserver;
        // 6 bits, 4 per window: 1 full window + 1 partial window.
        let victim = SquareAndMultiply::new(VictimLayout::default_layout(), vec![true; 6]);
        let cfg = AttackConfig {
            iterations: 10,
            bits_per_window: 4,
            ..AttackConfig::paper_default()
        };
        let outcome = PrimeProbeAttack::new(cfg).run(&mut h, victim, &mut obs);
        assert_eq!(outcome.trace.len(), 2);
    }
}
