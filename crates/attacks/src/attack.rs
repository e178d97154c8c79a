//! The cross-core attack loop: Prime+Probe (paper §VI-A, Fig. 6) and
//! Evict+Reload, each run as an [`AttackCell`].

use cache_sim::{
    AccessKind, Addr, CoreId, Cycle, Hierarchy, LineAddr, NullObserver, SystemConfig,
    TrafficObserver, LINE_SIZE,
};
use pipomonitor::{MonitorConfig, PiPoMonitor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::analysis::{ProbeObservation, ProbeTrace};
use crate::defense_aware::TableFlusher;
use crate::eviction::{EvictionSet, MISS_THRESHOLD};
use crate::victim::{SquareAndMultiply, VictimLayout};

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
}

/// Core running the victim in every attack.
pub const VICTIM_CORE: CoreId = CoreId(0);

/// Core running the attacker: another core than the victim's, as the
/// cross-core threat model requires.
pub const ATTACKER_CORE: CoreId = CoreId(1);

/// Base of the attacker's address region for eviction sets.
pub const ATTACKER_BASE: u64 = 0x77_0000_0000;

impl AttackConfig {
    /// The paper's setup: probe every 5000 cycles, 100 iterations,
    /// continuous victim execution (4 bits per window).
    #[must_use]
    pub fn paper_default() -> Self {
        Self {
            iterations: 100,
            probe_interval: 5000,
            bits_per_window: 4,
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

/// Which attack a cell runs. Both share one window loop: the attacker
/// primes (evicts) the LLC sets of the victim's `square` and `multiply`
/// lines, the victim runs, and the attacker measures the two lines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Attack {
    /// Prime+Probe: the attacker probes its two eviction sets, and a probed
    /// miss means the victim (apparently) touched the line. The [`Flush`]
    /// is the defense-aware attacker's record flush at the start of every
    /// window.
    PrimeProbe(Flush),
    /// Evict+Reload: a cross-core attack on *shared* lines (e.g. a shared
    /// library's code pages).
    ///
    /// Unlike Prime+Probe, the attacker can address the victim's lines
    /// directly: each window it **evicts** the target line with an eviction
    /// set, waits, then **reloads** the line itself and times the access — a
    /// fast reload means the victim touched the line in between. This is an
    /// extension beyond the paper's evaluation showing PiPoMonitor's
    /// mitigation is not specific to Prime+Probe: the evict/re-fetch traffic
    /// is exactly a Ping-Pong pattern, so the filter captures the line and
    /// the prefetch makes every reload fast, blinding the attacker.
    ///
    /// # Examples
    ///
    /// On the unprotected system the reload times leak the victim's windowed
    /// operation sequence:
    ///
    /// ```
    /// use pipo_attacks::{Attack, AttackCell, AttackConfig};
    ///
    /// let cfg = AttackConfig { iterations: 16, ..AttackConfig::paper_default() };
    /// let run = AttackCell::new(Attack::EvictReload, cfg, None, 3).run();
    /// assert!(run.outcome.trace.recover_key().accuracy > 0.99);
    /// ```
    EvictReload,
}

/// A defense-aware attacker's record flush (paper §VI-B): extra accesses at
/// the start of every window that try to evict the victim's record from the
/// defense's recording structure before its Security counter saturates.
/// Flush lines never map to the two probed LLC sets, so they do not pollute
/// the probes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flush {
    /// No flush: the plain attack.
    None,
    /// `b` fresh lines of each leaky line's set in the defense's own table
    /// ([`TableFlusher`]; the paper's 1024×8 on an unprotected system).
    /// Against the deterministic directory table this evicts the victim's
    /// records every window.
    Table,
    /// A flood of 16 fresh random lines per window, the table flush's budget
    /// on the paper's table. It is the best an attacker can do against the
    /// Auto-Cuckoo filter, where evicting one record takes `b·l` fills in
    /// expectation.
    Random,
}

/// Lines per window of [`Flush::Random`].
const RANDOM_FLUSH_LINES: usize = 16;

/// One self-contained attack experiment: the attack, its parameters, the
/// simulated machine, the defense and the victim's key seed.
///
/// # Examples
///
/// Against an unprotected system Prime+Probe recovers the key:
///
/// ```
/// use pipo_attacks::{Attack, AttackCell, AttackConfig, Flush};
///
/// let cfg = AttackConfig { iterations: 32, ..AttackConfig::lockstep() };
/// let run = AttackCell::new(Attack::PrimeProbe(Flush::None), cfg, None, 1).run();
/// assert!(run.outcome.trace.recover_key().accuracy > 0.95);
/// assert!(run.monitor.is_none());
/// ```
#[derive(Debug, Clone)]
pub struct AttackCell {
    /// The attack.
    pub attack: Attack,
    /// Its parameters.
    pub config: AttackConfig,
    /// Simulated machine configuration.
    pub system: SystemConfig,
    /// The defense: `None` is the unprotected baseline.
    pub defense: Option<MonitorConfig>,
    /// Seed of the victim's random key of `iterations × bits_per_window`
    /// bits.
    pub seed: u64,
}

/// What an [`AttackCell`] produced.
#[derive(Debug)]
pub struct AttackRun {
    /// The probe trace and the end cycle.
    pub outcome: AttackOutcome,
    /// The defense's monitor after the attack (`None` on the baseline).
    pub monitor: Option<PiPoMonitor>,
}

impl AttackCell {
    /// A cell on the paper's default system configuration.
    #[must_use]
    pub fn new(
        attack: Attack,
        config: AttackConfig,
        defense: Option<MonitorConfig>,
        seed: u64,
    ) -> Self {
        Self {
            attack,
            config,
            system: SystemConfig::paper_default(),
            defense,
            seed,
        }
    }

    /// Replaces the system configuration (used by the replacement ablation).
    #[must_use]
    pub fn on_system(mut self, system: SystemConfig) -> Self {
        self.system = system;
        self
    }

    /// Runs the attack on a fresh machine against a victim with a random
    /// key drawn from the cell's seed.
    ///
    /// # Panics
    ///
    /// Panics if the defense holds invalid filter parameters.
    #[must_use]
    pub fn run(&self) -> AttackRun {
        let bits = self.config.iterations * self.config.bits_per_window.max(1);
        self.run_on(SquareAndMultiply::with_random_key(
            VictimLayout::default_layout(),
            bits,
            self.seed,
        ))
    }

    /// [`run`](Self::run) against an explicit victim.
    pub(crate) fn run_on(&self, victim: SquareAndMultiply) -> AttackRun {
        let mut hierarchy = Hierarchy::new(self.system.clone());
        let mut monitor = self
            .defense
            .map(|defense| PiPoMonitor::new(defense).expect("valid monitor configuration"));
        let outcome = match &mut monitor {
            Some(monitor) => self.run_windows(&mut hierarchy, victim, monitor),
            None => self.run_windows(&mut hierarchy, victim, &mut NullObserver),
        };
        AttackRun { outcome, monitor }
    }

    /// The window loop.
    ///
    /// Each window: the attacker accesses its flush lines and primes (evicts)
    /// the eviction sets of the victim's `square` and `multiply` lines, the
    /// victim executes `bits_per_window` iterations spread across the window,
    /// pending monitor prefetches are drained at the end of the probe
    /// interval, and the attacker measures both lines: Prime+Probe probes the
    /// eviction sets, Evict+Reload reloads and times the lines themselves.
    /// The loop stops early when the victim's key runs out.
    fn run_windows(
        &self,
        hierarchy: &mut Hierarchy,
        mut victim: SquareAndMultiply,
        observer: &mut dyn TrafficObserver,
    ) -> AttackOutcome {
        let cfg = &self.config;
        let core = ATTACKER_CORE;
        let layout = *victim.layout();
        let square_set = EvictionSet::for_target(hierarchy, layout.square, ATTACKER_BASE);
        // Offset the second region so the two sets cannot collide even when
        // the targets share an LLC set.
        let multiply_set =
            EvictionSet::for_target(hierarchy, layout.multiply, ATTACKER_BASE + (1 << 32));
        let mut flusher = Flusher::new(self, layout);
        let square_llc = hierarchy.llc_set_of(layout.square);
        let multiply_llc = hierarchy.llc_set_of(layout.multiply);
        let llc_sets = hierarchy.llc_sets() as u64;
        let probed = |line: LineAddr| {
            let set = (line.0 % llc_sets) as usize;
            set == square_llc || set == multiply_llc
        };

        let mut observations = Vec::with_capacity(cfg.iterations);
        let mut truth = Vec::with_capacity(cfg.iterations);
        let mut now: Cycle = 0;
        let bits_per_window = cfg.bits_per_window.max(1);

        'windows: for _ in 0..cfg.iterations {
            let iter_start = now;

            // The defense-aware record flush (none for the plain attacks).
            for addr in flusher.next_round(probed) {
                let r = hierarchy.access(core, addr, AccessKind::Read, now, observer);
                now += r.latency;
            }

            // Prime (evict) both target sets.
            now = square_set.prime(hierarchy, core, now, observer);
            now = multiply_set.prime(hierarchy, core, now, observer);

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
                        VICTIM_CORE,
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

            let observation = match self.attack {
                Attack::PrimeProbe(_) => {
                    // A miss means the set was disturbed since the prime.
                    let (t, square_misses) = square_set.probe(hierarchy, core, now, observer);
                    let (t, multiply_misses) = multiply_set.probe(hierarchy, core, t, observer);
                    now = t;
                    ProbeObservation {
                        square: square_misses > 0,
                        multiply: multiply_misses > 0,
                    }
                }
                Attack::EvictReload => {
                    // Reload: a fast access means the victim touched the line.
                    let rs = hierarchy.access(core, layout.square, AccessKind::Read, now, observer);
                    now += rs.latency;
                    let rm =
                        hierarchy.access(core, layout.multiply, AccessKind::Read, now, observer);
                    now += rm.latency;
                    ProbeObservation {
                        square: rs.latency < MISS_THRESHOLD,
                        multiply: rm.latency < MISS_THRESHOLD,
                    }
                }
            };
            observations.push(observation);
        }

        AttackOutcome {
            trace: ProbeTrace::new(observations, truth),
            end_cycle: now,
        }
    }
}

/// The per-window flush lines of a cell's [`Flush`].
enum Flusher {
    None,
    Table([TableFlusher; 2]),
    Random(StdRng),
}

impl Flusher {
    fn new(cell: &AttackCell, layout: VictimLayout) -> Self {
        match cell.attack {
            Attack::PrimeProbe(Flush::Table) => {
                let table = cell.defense.unwrap_or_default().filter;
                Self::Table([
                    TableFlusher::new(&table, layout.square.line(), 0x60_0000_0000),
                    TableFlusher::new(&table, layout.multiply.line(), 0x68_0000_0000),
                ])
            }
            Attack::PrimeProbe(Flush::Random) => Self::Random(StdRng::seed_from_u64(13)),
            Attack::PrimeProbe(Flush::None) | Attack::EvictReload => Self::None,
        }
    }

    /// The next window's flush lines, none of which `avoid` accepts.
    fn next_round(&mut self, avoid: impl Fn(LineAddr) -> bool + Copy) -> Vec<Addr> {
        match self {
            Self::None => Vec::new(),
            Self::Table([square, multiply]) => {
                let mut lines = square.next_round(avoid);
                lines.extend(multiply.next_round(avoid));
                lines
            }
            Self::Random(rng) => {
                let mut lines = Vec::with_capacity(RANDOM_FLUSH_LINES);
                while lines.len() < RANDOM_FLUSH_LINES {
                    let line = (rng.gen::<u64>() >> 8) | (1 << 40);
                    if !avoid(LineAddr(line)) {
                        lines.push(Addr(line * LINE_SIZE));
                    }
                }
                lines
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plain() -> Attack {
        Attack::PrimeProbe(Flush::None)
    }

    /// `attack` on the unprotected system against `key`, one bit per window.
    fn run_baseline(attack: Attack, key: Vec<bool>) -> AttackOutcome {
        let cfg = AttackConfig {
            iterations: key.len(),
            ..AttackConfig::lockstep()
        };
        let victim = SquareAndMultiply::new(VictimLayout::default_layout(), key);
        AttackCell::new(attack, cfg, None, 0).run_on(victim).outcome
    }

    /// Plain Prime+Probe on the unprotected system at the paper window.
    fn run_windowed(iterations: usize, key: Vec<bool>) -> AttackOutcome {
        let cfg = AttackConfig {
            iterations,
            bits_per_window: 4,
            ..AttackConfig::paper_default()
        };
        let victim = SquareAndMultiply::new(VictimLayout::default_layout(), key);
        AttackCell::new(plain(), cfg, None, 0)
            .run_on(victim)
            .outcome
    }

    #[test]
    fn baseline_attack_reads_multiply_exactly_for_one_bits() {
        let key = vec![true, false, true, true, false, false, true, false];
        let outcome = run_baseline(plain(), key.clone());
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
        let outcome = run_baseline(plain(), key);
        let recovery = outcome.trace.recover_key();
        assert!((recovery.accuracy - 1.0).abs() < 1e-12);
    }

    #[test]
    fn attack_time_advances_monotonically() {
        let outcome = run_baseline(plain(), vec![true; 5]);
        assert!(outcome.end_cycle >= 5 * 5000);
    }

    #[test]
    fn windowed_attack_records_or_of_bits() {
        // 8 bits, 4 per window -> 2 windows with truths (1, 0).
        let key = vec![false, true, false, false, false, false, false, false];
        let outcome = run_windowed(4, key);
        assert_eq!(outcome.trace.len(), 2);
        assert_eq!(outcome.trace.truth(), &[true, false]);
        assert!(outcome.trace.observations()[0].multiply);
        assert!(!outcome.trace.observations()[1].multiply);
    }

    #[test]
    fn windowed_attack_stops_at_key_end() {
        // 6 bits, 4 per window: 1 full window + 1 partial window.
        let outcome = run_windowed(10, vec![true; 6]);
        assert_eq!(outcome.trace.len(), 2);
    }

    #[test]
    fn baseline_reload_leaks_exact_bits() {
        let key = vec![true, false, true, true, false, false, true, false];
        let outcome = run_baseline(Attack::EvictReload, key.clone());
        for (o, &bit) in outcome.trace.observations().iter().zip(&key) {
            assert!(o.square, "square reload must hit every window");
            assert_eq!(o.multiply, bit, "multiply reload leaks the key bit");
        }
        assert!((outcome.trace.recover_key().accuracy - 1.0).abs() < 1e-12);
    }

    #[test]
    fn trace_length_matches_windows() {
        let cfg = AttackConfig {
            iterations: 20,
            ..AttackConfig::lockstep()
        };
        let outcome = AttackCell::new(Attack::EvictReload, cfg, None, 1)
            .run()
            .outcome;
        assert_eq!(outcome.trace.len(), 20);
        assert!(outcome.end_cycle >= 20 * 5000);
    }
}
