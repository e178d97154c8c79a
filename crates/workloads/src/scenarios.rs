//! Adversarial and stress scenarios beyond the paper's benchmark mixes.
//!
//! Two multi-tenant / arrival-pattern generators that complement the
//! occupancy-channel attacker in `pipo_attacks`:
//!
//! * [`NoisyNeighborSource`] — several tenants' [`ProfileSource`] streams
//!   time-sliced onto one core in deterministic, seeded bursts: the classic
//!   noisy-neighbor consolidation pattern, where one tenant's churn degrades
//!   everyone's LLC residency and multiplies benign Ping-Pong noise.
//! * [`BurstySource`] — an open-loop arrival process: dense bursts of
//!   LLC-scale random accesses separated by long idle gaps (modelled as a
//!   large think time on the first access of each burst). Bursts stress the
//!   monitor's prefetch queue; gaps let the hierarchy drain.
//!
//! Both are deterministic for a given seed, and batched
//! [`refill`](AccessSource::refill) produces the same stream as repeated
//! `next_access` (the refill prefix-identity contract, pinned in
//! `tests/workload_statistics.rs`).

use cache_sim::{Access, AccessKind, AccessSource, Addr, LINE_SIZE};
use rand::distributions::Uniform;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::generator::ProfileSource;
use crate::profile::BenchProfile;

/// Time-sliced interleaving of several tenants' profile streams.
///
/// Each tenant owns a disjoint address region (its synthetic core index is
/// `tenant_base + i`, reusing [`ProfileSource`]'s per-core region layout —
/// pick a `tenant_base` above the real cores so tenants never alias them).
/// The scheduler rotates round-robin; each turn runs a seeded burst of
/// 1..=`max_burst` accesses, so tenants interleave at a realistic
/// scheduling-quantum granularity rather than access-by-access.
///
/// # Examples
///
/// ```
/// use cache_sim::AccessSource;
/// use pipo_workloads::{benchmark, NoisyNeighborSource};
///
/// let tenants = [benchmark("mcf").unwrap(), benchmark("gcc").unwrap()];
/// let mut a = NoisyNeighborSource::new(&tenants, 16, 32, 7);
/// let mut b = NoisyNeighborSource::new(&tenants, 16, 32, 7);
/// for _ in 0..100 {
///     assert_eq!(a.next_access(), b.next_access()); // deterministic
/// }
/// ```
#[derive(Debug, Clone)]
pub struct NoisyNeighborSource {
    tenants: Vec<ProfileSource>,
    rng: StdRng,
    burst_dist: Uniform,
    /// Tenant currently holding the (simulated) core.
    turn: usize,
    /// Accesses left in the current burst.
    remaining: u64,
}

impl NoisyNeighborSource {
    /// Interleaves one stream per profile in `tenants`, with scheduling
    /// bursts of 1..=`max_burst` accesses, regions starting at synthetic
    /// core index `tenant_base`, and a deterministic `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `tenants` is empty or `max_burst` is zero.
    #[must_use]
    pub fn new(tenants: &[&BenchProfile], tenant_base: usize, max_burst: u64, seed: u64) -> Self {
        assert!(!tenants.is_empty(), "need at least one tenant");
        assert!(max_burst > 0, "bursts must hold at least one access");
        let sources = tenants
            .iter()
            .enumerate()
            .map(|(i, &profile)| ProfileSource::new(profile, tenant_base + i, seed))
            .collect::<Vec<_>>();
        Self {
            // `turn` starts past the end so the first burst draw lands on
            // tenant 0.
            turn: sources.len() - 1,
            tenants: sources,
            rng: StdRng::seed_from_u64(seed ^ 0x6e6f_6973_795f_6e62), // "noisy_nb"
            burst_dist: Uniform::new_inclusive(1, max_burst),
            remaining: 0,
        }
    }

    /// Number of interleaved tenants.
    #[must_use]
    pub fn tenants(&self) -> usize {
        self.tenants.len()
    }

    /// Rotates to the next tenant and draws its burst length. Draw order
    /// (burst draw, then the tenant's own draws) is fixed so `refill` can
    /// reproduce it exactly.
    #[inline]
    fn start_burst(&mut self) {
        self.turn = (self.turn + 1) % self.tenants.len();
        self.remaining = self.burst_dist.sample(&mut self.rng);
    }
}

impl AccessSource for NoisyNeighborSource {
    fn next_access(&mut self) -> Option<Access> {
        if self.remaining == 0 {
            self.start_burst();
        }
        self.remaining -= 1;
        self.tenants[self.turn].next_access()
    }

    /// Batched generation: forwards whole burst tails to the active
    /// tenant's own (batched) `refill`, keeping the draw order of
    /// [`next_access`](Self::next_access) exactly.
    fn refill(&mut self, buf: &mut Vec<Access>, max: usize) {
        let mut remaining_out = max;
        while remaining_out > 0 {
            if self.remaining == 0 {
                self.start_burst();
            }
            let take = (self.remaining).min(remaining_out as u64);
            self.tenants[self.turn].refill(buf, take as usize);
            self.remaining -= take;
            remaining_out -= take as usize;
        }
    }
}

/// Open-loop bursty arrival generator over an LLC-scale random region.
///
/// Produces seeded bursts of 1..=`max_burst` back-to-back accesses
/// (think = `burst_think`), the first access of each burst carrying an
/// idle gap of `gap_cycles` think cycles. Addresses are uniform random
/// lines in `[base_line, base_line + lines)`; a `write_percent` share are
/// writes so dirty writebacks join the burst pressure.
///
/// # Examples
///
/// ```
/// use cache_sim::AccessSource;
/// use pipo_workloads::BurstySource;
///
/// let mut src = BurstySource::new(0, 1 << 16, 32, 5_000, 10, 42);
/// let first = src.next_access().expect("infinite");
/// assert_eq!(first.think_cycles, 5_000, "burst leader carries the gap");
/// ```
#[derive(Debug, Clone)]
pub struct BurstySource {
    base_line: u64,
    rng: StdRng,
    line_dist: Uniform,
    burst_dist: Uniform,
    gap_cycles: u64,
    burst_think: u64,
    write_percent: u64,
    /// Accesses left in the current burst; `0` means the next access opens
    /// a new burst (and carries the idle gap).
    remaining: u64,
}

impl BurstySource {
    /// Bursty arrivals over `lines` lines starting at `base_line`: bursts
    /// of 1..=`max_burst` accesses, `gap_cycles` idle think before each
    /// burst, 10% writes, deterministic for `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `lines` or `max_burst` is zero.
    #[must_use]
    pub fn new(
        base_line: u64,
        lines: u64,
        max_burst: u64,
        gap_cycles: u64,
        burst_think: u64,
        seed: u64,
    ) -> Self {
        assert!(lines > 0, "region must contain at least one line");
        assert!(max_burst > 0, "bursts must hold at least one access");
        Self {
            base_line,
            rng: StdRng::seed_from_u64(seed ^ 0x6275_7273_7479_2121), // "bursty!!"
            line_dist: Uniform::new(0, lines),
            burst_dist: Uniform::new_inclusive(1, max_burst),
            gap_cycles,
            burst_think,
            write_percent: 10,
            remaining: 0,
        }
    }
}

impl AccessSource for BurstySource {
    /// Draws in a fixed order (the burst length when opening a burst, then
    /// the line, then the write test), which the recorded
    /// `bursty_spike.trace2` pins.
    fn next_access(&mut self) -> Option<Access> {
        let think = if self.remaining == 0 {
            self.remaining = self.burst_dist.sample(&mut self.rng);
            self.gap_cycles
        } else {
            self.burst_think
        };
        self.remaining -= 1;
        let line = self.base_line + self.line_dist.sample(&mut self.rng);
        let kind = if self.rng.gen_range(0u64..100) < self.write_percent {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        Some(Access {
            addr: Addr(line * LINE_SIZE),
            kind,
            think_cycles: think,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::benchmark;

    fn tenants() -> Vec<&'static BenchProfile> {
        ["mcf", "gcc", "libquantum"]
            .iter()
            .map(|name| benchmark(name).expect("known"))
            .collect()
    }

    #[test]
    fn noisy_neighbor_is_deterministic() {
        let t = tenants();
        let mut a = NoisyNeighborSource::new(&t, 16, 24, 99);
        let mut b = NoisyNeighborSource::new(&t, 16, 24, 99);
        assert_eq!(a.tenants(), 3);
        for _ in 0..2000 {
            assert_eq!(a.next_access(), b.next_access());
        }
    }

    #[test]
    fn noisy_neighbor_visits_every_tenant_region() {
        let t = tenants();
        let mut src = NoisyNeighborSource::new(&t, 16, 8, 5);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..5000 {
            let line = src.next_access().expect("infinite").addr.0 / 64;
            seen.insert((16..19).find(|&core| ProfileSource::region(core).contains(&line)));
        }
        assert_eq!(
            seen,
            [Some(16), Some(17), Some(18)].into_iter().collect(),
            "all three tenants (synthetic cores 16..19) must run"
        );
    }

    #[test]
    fn noisy_neighbor_refill_matches_next_access() {
        let t = tenants();
        let mut scalar = NoisyNeighborSource::new(&t, 16, 16, 1234);
        let mut batched = NoisyNeighborSource::new(&t, 16, 16, 1234);
        let mut buf = Vec::new();
        for round in 0..60usize {
            let max = 1 + (round * 7) % 64;
            buf.clear();
            batched.refill(&mut buf, max);
            assert_eq!(buf.len(), max, "infinite stream must fill the batch");
            for &access in &buf {
                assert_eq!(Some(access), scalar.next_access());
            }
            assert_eq!(batched.next_access(), scalar.next_access());
        }
    }

    #[test]
    fn bursty_gap_rides_on_burst_leaders_only() {
        let mut src = BurstySource::new(0, 4096, 16, 9999, 3, 8);
        let mut gaps = 0u32;
        for i in 0..5000 {
            let a = src.next_access().expect("infinite");
            if a.think_cycles == 9999 {
                gaps += 1;
            } else {
                assert_eq!(a.think_cycles, 3, "non-leader think at access {i}");
                assert!(i > 0, "stream must open with a gap");
            }
        }
        assert!(gaps > 5000 / 16, "bursts are at most 16 long");
    }

    #[test]
    fn bursty_refill_matches_next_access() {
        let mut scalar = BurstySource::new(1 << 20, 1 << 14, 24, 4000, 1, 77);
        let mut batched = BurstySource::new(1 << 20, 1 << 14, 24, 4000, 1, 77);
        let mut buf = Vec::new();
        for round in 0..60usize {
            let max = 1 + (round * 7) % 64;
            buf.clear();
            batched.refill(&mut buf, max);
            assert_eq!(buf.len(), max);
            for &access in &buf {
                assert_eq!(Some(access), scalar.next_access());
            }
            assert_eq!(batched.next_access(), scalar.next_access());
        }
    }

    #[test]
    fn bursty_stays_in_region_and_mixes_writes() {
        let mut src = BurstySource::new(100, 50, 8, 100, 0, 3);
        let mut writes = 0u32;
        for _ in 0..2000 {
            let a = src.next_access().expect("infinite");
            let line = a.addr.0 / LINE_SIZE;
            assert!((100..150).contains(&line));
            writes += u32::from(a.kind.is_write());
        }
        let frac = f64::from(writes) / 2000.0;
        assert!((frac - 0.10).abs() < 0.04, "write fraction {frac}");
    }
}
