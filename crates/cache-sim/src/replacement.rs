//! Replacement policies for the set-associative caches.
//!
//! The paper does not vary replacement policy; LRU is the default. Tree-PLRU
//! and random replacement are provided for the ablation harness (see
//! "Recorded substitutions" in `ARCHITECTURE.md`) because detection-based
//! defenses interact with how predictable LLC evictions are.
//!
//! Each policy owns all of its per-way state, LRU's recency stamps included;
//! [`Cache`](crate::Cache) only reports touches and asks for victims.

use crate::types::Cycle;

/// Which replacement policy a cache uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Replacement {
    /// True least-recently-used.
    #[default]
    Lru,
    /// Tree pseudo-LRU (binary decision tree per set), as implemented in most
    /// real L1/L2 caches.
    TreePlru,
    /// Uniform random victim selection, seeded deterministically.
    Random {
        /// Seed for the victim-selection generator.
        seed: u64,
    },
}

impl Replacement {
    /// The policy's name (`lru`, `tree-plru` or `random`), as result-store
    /// keys, `pipo_serve` cell specs and the harness outputs spell it.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Replacement::Lru => "lru",
            Replacement::TreePlru => "tree-plru",
            Replacement::Random { .. } => "random",
        }
    }
}

/// Per-cache replacement state machine, driven by [`Cache`](crate::Cache)
/// through [`on_touch`](Self::on_touch) and [`victim`](Self::victim).
#[derive(Debug, Clone)]
pub(crate) enum ReplacementPolicy {
    /// True LRU: a recency stamp per way, drawn from a monotone touch clock.
    Lru {
        /// Stamp of each way's last touch, indexed `set * ways + way`.
        stamps: Vec<Cycle>,
        /// Monotone counter, incremented per touch (decoupled from sim time
        /// so two touches in the same cycle still order).
        clock: Cycle,
        /// Ways per set.
        ways: usize,
    },
    /// Tree-PLRU with `ways` a power of two.
    TreePlru {
        /// `ways - 1` internal tree bits per set.
        bits: Vec<bool>,
        /// Ways per set.
        ways: usize,
    },
    /// Random replacement with an xorshift generator.
    Random {
        /// Generator state.
        state: u64,
        /// The state the generator starts from, derived from the seed.
        start: u64,
        /// Ways per set.
        ways: usize,
    },
}

impl ReplacementPolicy {
    /// Instantiates the policy for a cache of `sets × ways`.
    ///
    /// # Panics
    ///
    /// Panics if `Replacement::TreePlru` is requested with a non-power-of-two
    /// way count.
    #[must_use]
    pub fn new(kind: Replacement, sets: usize, ways: usize) -> Self {
        match kind {
            Replacement::Lru => ReplacementPolicy::Lru {
                stamps: vec![0; sets * ways],
                clock: 0,
                ways,
            },
            Replacement::TreePlru => {
                assert!(
                    ways.is_power_of_two(),
                    "tree-PLRU requires power-of-two ways, got {ways}"
                );
                ReplacementPolicy::TreePlru {
                    bits: vec![false; sets * (ways - 1).max(1)],
                    ways,
                }
            }
            Replacement::Random { seed } => {
                let start = if seed == 0 {
                    0xdead_beef_cafe_f00d
                } else {
                    seed
                };
                ReplacementPolicy::Random {
                    state: start,
                    start,
                    ways,
                }
            }
        }
    }

    /// Returns the policy to the state a new one starts in, for a cache
    /// whose every way was just emptied: LRU's clock restarts at 0 and the
    /// random generator at its seed. The per-way stamps and tree bits stay
    /// as they are. A victim is chosen only in a full set, and each fill
    /// into an empty way touches that way, so by then every stamp of the
    /// set, and every tree node on a path to one of its ways, was
    /// rewritten since the reset.
    pub fn reset(&mut self) {
        match self {
            ReplacementPolicy::Lru { clock, .. } => *clock = 0,
            ReplacementPolicy::TreePlru { .. } => {}
            ReplacementPolicy::Random { state, start, .. } => *state = *start,
        }
    }

    /// Notes that `way` of `set` was touched (hit or fill).
    #[inline]
    pub fn on_touch(&mut self, set: usize, way: usize) {
        match self {
            ReplacementPolicy::Lru {
                stamps,
                clock,
                ways,
            } => {
                *clock += 1;
                stamps[set * *ways + way] = *clock;
            }
            ReplacementPolicy::TreePlru { bits, ways } => {
                if *ways == 1 {
                    return;
                }
                let base = set * (*ways - 1);
                // Walk root→leaf, pointing each node *away* from this way.
                let mut node = 0usize;
                let mut lo = 0usize;
                let mut hi = *ways;
                while hi - lo > 1 {
                    let mid = (lo + hi) / 2;
                    let go_right = way >= mid;
                    bits[base + node] = !go_right; // point away
                    node = 2 * node + if go_right { 2 } else { 1 };
                    if go_right {
                        lo = mid;
                    } else {
                        hi = mid;
                    }
                }
            }
            ReplacementPolicy::Random { .. } => {}
        }
    }

    /// Chooses a victim way within `set`. All ways are assumed valid (the
    /// cache fills invalid ways before asking).
    pub fn victim(&mut self, set: usize) -> usize {
        match self {
            ReplacementPolicy::Lru { stamps, ways, .. } => {
                // First-minimum stamp scan, matching classic LRU tie-breaking.
                let set_stamps = &stamps[set * *ways..(set + 1) * *ways];
                let mut best = 0;
                let mut best_stamp = Cycle::MAX;
                for (way, &stamp) in set_stamps.iter().enumerate() {
                    if stamp < best_stamp {
                        best_stamp = stamp;
                        best = way;
                    }
                }
                best
            }
            ReplacementPolicy::TreePlru { bits, ways } => {
                if *ways == 1 {
                    return 0;
                }
                let base = set * (*ways - 1);
                let mut node = 0usize;
                let mut lo = 0usize;
                let mut hi = *ways;
                while hi - lo > 1 {
                    let mid = (lo + hi) / 2;
                    let go_right = bits[base + node];
                    node = 2 * node + if go_right { 2 } else { 1 };
                    if go_right {
                        lo = mid;
                    } else {
                        hi = mid;
                    }
                }
                lo
            }
            ReplacementPolicy::Random { state, ways, .. } => {
                let mut x = *state;
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                *state = x;
                (x % *ways as u64) as usize
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tree_plru_never_picks_most_recent() {
        let mut p = ReplacementPolicy::new(Replacement::TreePlru, 1, 8);
        for way in 0..8 {
            p.on_touch(0, way);
        }
        for way in 0..8 {
            p.on_touch(0, way);
            let v = p.victim(0);
            assert_ne!(v, way, "PLRU must not evict the just-touched way");
            assert!(v < 8);
        }
    }

    #[test]
    fn tree_plru_single_way() {
        let mut p = ReplacementPolicy::new(Replacement::TreePlru, 4, 1);
        p.on_touch(2, 0);
        assert_eq!(p.victim(2), 0);
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn tree_plru_rejects_odd_ways() {
        let _ = ReplacementPolicy::new(Replacement::TreePlru, 1, 6);
    }

    #[test]
    fn random_is_deterministic_and_in_range() {
        let run = || {
            let mut p = ReplacementPolicy::new(Replacement::Random { seed: 9 }, 1, 16);
            (0..100).map(|_| p.victim(0)).collect::<Vec<_>>()
        };
        let a = run();
        assert_eq!(a, run());
        assert!(a.iter().all(|&v| v < 16));
        // Not constant.
        assert!(a.windows(2).any(|w| w[0] != w[1]));
    }

    #[test]
    fn reset_restarts_the_clock_and_the_generator() {
        let mut p = ReplacementPolicy::new(Replacement::Random { seed: 9 }, 1, 16);
        let first: Vec<_> = (0..20).map(|_| p.victim(0)).collect();
        p.reset();
        assert_eq!((0..20).map(|_| p.victim(0)).collect::<Vec<_>>(), first);
        let mut p = ReplacementPolicy::new(Replacement::Lru, 2, 2);
        p.on_touch(1, 0);
        p.reset();
        assert!(matches!(p, ReplacementPolicy::Lru { clock: 0, .. }));
    }

    #[test]
    fn random_zero_seed_is_usable() {
        let mut p = ReplacementPolicy::new(Replacement::Random { seed: 0 }, 1, 4);
        let vs: Vec<_> = (0..50).map(|_| p.victim(0)).collect();
        assert!(vs.iter().any(|&v| v != vs[0]));
    }
}
