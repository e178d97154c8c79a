//! Turns a [`BenchProfile`] into a deterministic infinite access stream.

use std::ops::Range;

use cache_sim::{Access, AccessKind, AccessSource, Addr, LINE_SIZE};
use rand::distributions::Uniform;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

use crate::profile::BenchProfile;

/// Line-number stride separating per-core address regions (2^36 lines
/// = 4 TiB of byte address space per core: regions can never overlap).
const CORE_REGION_LINES: u64 = 1 << 36;
/// Offset of the churn tier inside a core region, in lines.
const CHURN_OFFSET_LINES: u64 = 1 << 24;
/// Offset of the thrash tier inside a core region, in lines.
const THRASH_OFFSET_LINES: u64 = 1 << 26;
/// Offset of the stream tier inside a core region, in lines.
const STREAM_OFFSET_LINES: u64 = 1 << 28;
/// LLC set count of the paper's Table II configuration; thrash-tier lines
/// are spaced by this so they collide in a single LLC set.
const LLC_SETS: u64 = 4096;

/// The cut-off that turns a probability test into an integer compare:
/// `ceil(p · 2^53)`.
///
/// `rand`'s `gen::<f64>()` is `k · 2^-53` for the 53-bit draw
/// `k = next_u64() >> 11`, and both that product and `p · 2^53` are exact,
/// so `gen::<f64>() < p` holds exactly when `k < ceil(p · 2^53)`.
fn cut_off(p: f64) -> u64 {
    (p * (1u64 << 53) as f64).ceil() as u64
}

/// The 53-bit draw that [`cut_off`] thresholds are compared against.
#[inline(always)]
fn unit_draw(rng: &mut StdRng) -> u64 {
    rng.next_u64() >> 11
}

/// Positions of the three cycling tiers (each in `0..tier_lines`).
#[derive(Debug, Clone, Copy, Default)]
struct Cursors {
    churn: u64,
    thrash: u64,
    stream: u64,
}

/// A deterministic stochastic address stream for one benchmark on one core.
///
/// Each core gets a disjoint address region, so mixes share only the LLC
/// capacity (no accidental data sharing), matching independent SPEC processes
/// under a non-shared-memory OS model.
///
/// Both [`AccessSource`] entry points run one inlined definition of a single
/// access draw. It takes the generator state and the tier cursors as
/// locals, which [`refill`](AccessSource::refill) keeps in registers for a
/// whole batch. Its probability tests compare the raw 53-bit draw against
/// cut-offs precomputed at construction, which decide exactly as
/// `gen::<f64>() < p` would.
///
/// # Examples
///
/// ```
/// use cache_sim::AccessSource;
/// use pipo_workloads::{benchmark, ProfileSource};
///
/// let p = benchmark("gcc").expect("known");
/// let mut a = ProfileSource::new(p, 0, 1);
/// let mut b = ProfileSource::new(p, 0, 1);
/// // Same profile, core and seed: identical streams.
/// for _ in 0..100 {
///     assert_eq!(a.next_access(), b.next_access());
/// }
/// ```
#[derive(Debug, Clone)]
pub struct ProfileSource {
    profile: BenchProfile,
    rng: StdRng,
    cursors: Cursors,
    hot_base: u64,
    churn_base: u64,
    thrash_base: u64,
    stream_base: u64,
    /// Precomputed hot-tier line distribution (`0..hot_lines`); drawn on
    /// ~90% of accesses, so the division is strength-reduced once here
    /// instead of per draw.
    hot_dist: Uniform,
    /// Precomputed think-gap distribution (`0..=2 * think_mean`); drawn on
    /// every access.
    think_dist: Uniform,
    /// [`cut_off`]s of the cumulative tier probabilities: hot, hot + churn
    /// and hot + churn + thrash (the rest streams).
    hot_cut: u64,
    churn_cut: u64,
    thrash_cut: u64,
    /// [`cut_off`] of the write fraction.
    write_cut: u64,
}

impl ProfileSource {
    /// Creates the stream for `profile` running on core `core_index` with a
    /// deterministic `seed`, assuming the paper's 4096-set LLC for the
    /// thrash tier.
    ///
    /// # Panics
    ///
    /// Panics if the profile is invalid.
    #[must_use]
    pub fn new(profile: &BenchProfile, core_index: usize, seed: u64) -> Self {
        profile.assert_valid();
        let region = Self::region(core_index).start;
        let p = profile;
        Self {
            profile: *profile,
            rng: StdRng::seed_from_u64(seed ^ ((core_index as u64) << 32)),
            cursors: Cursors::default(),
            hot_base: region,
            churn_base: region + CHURN_OFFSET_LINES,
            thrash_base: region + THRASH_OFFSET_LINES,
            stream_base: region + STREAM_OFFSET_LINES,
            hot_dist: Uniform::new(0, profile.hot_lines),
            think_dist: Uniform::new_inclusive(0, profile.think_mean * 2),
            hot_cut: cut_off(p.p_hot),
            churn_cut: cut_off(p.p_hot + p.p_churn),
            thrash_cut: cut_off(p.p_hot + p.p_churn + p.p_thrash),
            write_cut: cut_off(p.write_fraction),
        }
    }

    /// The line addresses of core `core_index`'s stream. Distinct cores'
    /// regions never overlap.
    #[must_use]
    pub fn region(core_index: usize) -> Range<u64> {
        let base = (core_index as u64 + 1) * CORE_REGION_LINES;
        base..base + CORE_REGION_LINES
    }

    /// The profile driving this stream.
    #[must_use]
    pub fn profile(&self) -> &BenchProfile {
        &self.profile
    }

    /// Draws one access from the generator state `rng` and `cursors`: the
    /// tier pick (plus the hot line, on a hot pick), then the write test,
    /// then the think gap.
    #[inline(always)]
    fn draw(&self, rng: &mut StdRng, cursors: &mut Cursors) -> Access {
        let p = &self.profile;
        let tier = unit_draw(rng);
        let line = if tier < self.hot_cut {
            // Uniform re-reference within the private-cache-resident set.
            self.hot_base + self.hot_dist.sample(rng)
        } else if tier < self.churn_cut {
            // Sequential sweep over the LLC-scale set: every line is
            // periodically evicted and re-fetched (array-sweep behaviour).
            cursors.churn = wrap_incr(cursors.churn, p.churn_lines);
            self.churn_base + cursors.churn
        } else if tier < self.thrash_cut {
            // Round-robin over same-LLC-set lines exceeding associativity:
            // classic LRU pathology where every access conflict-misses, so
            // the same lines are re-fetched from memory within a short
            // window — the benign Ping-Pong pattern.
            cursors.thrash = wrap_incr(cursors.thrash, p.thrash_lines);
            self.thrash_base + cursors.thrash * LLC_SETS
        } else {
            // Streaming through a footprint much larger than the LLC.
            cursors.stream = wrap_incr(cursors.stream, p.stream_lines);
            self.stream_base + cursors.stream
        };
        let kind = if unit_draw(rng) < self.write_cut {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        // Uniform on 0..=2*mean keeps the mean while adding jitter.
        let think = self.think_dist.sample(rng);
        Access {
            addr: Addr(line * LINE_SIZE),
            kind,
            think_cycles: think,
        }
    }
}

/// `(pos + 1) % len` for a `pos` already in `0..len`, without the division.
#[inline]
fn wrap_incr(pos: u64, len: u64) -> u64 {
    let next = pos + 1;
    if next == len {
        0
    } else {
        next
    }
}

impl AccessSource for ProfileSource {
    fn next_access(&mut self) -> Option<Access> {
        let mut rng = self.rng.clone();
        let mut cursors = self.cursors;
        let access = self.draw(&mut rng, &mut cursors);
        self.rng = rng;
        self.cursors = cursors;
        Some(access)
    }

    /// Batched generation: the generator state and tier cursors stay in
    /// locals for the whole batch and are stored back once. Each access is
    /// the same draw `next_access` makes, so the stream is bit-identical
    /// however the caller mixes the two entry points. The batch is filled
    /// in one reservation (`extend` over a counted range), so the buffer's
    /// length is stored once per batch, not once per access.
    fn refill(&mut self, buf: &mut Vec<Access>, max: usize) {
        let mut rng = self.rng.clone();
        let mut cursors = self.cursors;
        buf.extend((0..max).map(|_| self.draw(&mut rng, &mut cursors)));
        self.rng = rng;
        self.cursors = cursors;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::benchmark;

    #[test]
    fn stream_is_deterministic() {
        let p = benchmark("libquantum").expect("known");
        let mut a = ProfileSource::new(p, 2, 99);
        let mut b = ProfileSource::new(p, 2, 99);
        for _ in 0..1000 {
            assert_eq!(a.next_access(), b.next_access());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let p = benchmark("libquantum").expect("known");
        let mut a = ProfileSource::new(p, 0, 1);
        let mut b = ProfileSource::new(p, 0, 2);
        let same = (0..100)
            .filter(|_| a.next_access() == b.next_access())
            .count();
        assert!(same < 100, "seeds must change the stream");
    }

    #[test]
    fn distinct_cores_get_distinct_seed_stable_streams() {
        let p = benchmark("libquantum").expect("known");
        // Same seed, different cores: the per-core seed derivation
        // `seed ^ ((core_index as u64) << 32)` must decorrelate the RNG
        // streams, not just shift the address region.
        let draws = |core: usize, seed: u64| -> Vec<(u64, bool, u64)> {
            let mut src = ProfileSource::new(p, core, seed);
            let base = ProfileSource::region(core).start * LINE_SIZE;
            (0..200)
                .map(|_| {
                    let a = src.next_access().expect("infinite");
                    // Subtract the region base so streams are comparable.
                    (a.addr.0 - base, a.kind.is_write(), a.think_cycles)
                })
                .collect()
        };
        let core0 = draws(0, 7);
        let core1 = draws(1, 7);
        let core2 = draws(2, 7);
        assert_ne!(core0, core1, "cores 0/1 share an RNG stream");
        assert_ne!(core1, core2, "cores 1/2 share an RNG stream");
        assert_ne!(core0, core2, "cores 0/2 share an RNG stream");
        // And each stream is stable under reconstruction with the same seed.
        assert_eq!(core0, draws(0, 7));
        assert_eq!(core1, draws(1, 7));
        assert_eq!(core2, draws(2, 7));
    }

    #[test]
    fn cut_off_decides_like_the_float_test() {
        let scale = 1.0 / (1u64 << 53) as f64;
        let probabilities = [
            0.0,
            1.0,
            0.5,
            0.3,
            0.1 + 0.2,
            0.97,
            1e-300,
            0.875 + 0.02 + 0.004,
            1.0 - f64::EPSILON / 2.0,
        ];
        for p in probabilities {
            let cut = cut_off(p);
            for k in cut.saturating_sub(2)..(cut + 2).min(1 << 53) {
                assert_eq!(k < cut, k as f64 * scale < p, "p {p}, k {k}");
            }
        }
    }

    #[test]
    fn stream_matches_the_float_reference() {
        use rand::Rng;
        // The pre-cut-off generator: the same draws, made with `gen::<f64>()`
        // probability tests and `gen_range`.
        for p in crate::spec::BENCHMARKS {
            let mut src = ProfileSource::new(p, 1, 42);
            let mut rng = StdRng::seed_from_u64(42 ^ (1 << 32));
            let mut pos = Cursors::default();
            for _ in 0..5_000 {
                let r: f64 = rng.gen();
                let line = if r < p.p_hot {
                    src.hot_base + rng.gen_range(0..p.hot_lines)
                } else if r < p.p_hot + p.p_churn {
                    pos.churn = (pos.churn + 1) % p.churn_lines;
                    src.churn_base + pos.churn
                } else if r < p.p_hot + p.p_churn + p.p_thrash {
                    pos.thrash = (pos.thrash + 1) % p.thrash_lines;
                    src.thrash_base + pos.thrash * LLC_SETS
                } else {
                    pos.stream = (pos.stream + 1) % p.stream_lines;
                    src.stream_base + pos.stream
                };
                let write = rng.gen::<f64>() < p.write_fraction;
                let think = rng.gen_range(0..=2 * p.think_mean);
                let a = src.next_access().expect("infinite");
                assert_eq!(
                    (a.addr.0, a.kind.is_write(), a.think_cycles),
                    (line * LINE_SIZE, write, think),
                    "{}",
                    p.name
                );
            }
        }
    }

    #[test]
    fn refill_matches_next_access_stream() {
        let p = benchmark("hmmer").expect("known");
        let mut scalar = ProfileSource::new(p, 3, 1234);
        let mut batched = ProfileSource::new(p, 3, 1234);
        let mut buf = Vec::new();
        // Mixed batch sizes, interleaved with scalar pulls on the same
        // source: the override must stay draw-for-draw identical.
        for round in 0..50 {
            let max = 1 + (round * 7) % 64;
            buf.clear();
            batched.refill(&mut buf, max);
            assert_eq!(buf.len(), max, "infinite stream must fill the batch");
            for access in &buf {
                assert_eq!(Some(*access), scalar.next_access());
            }
            assert_eq!(batched.next_access(), scalar.next_access());
        }
    }

    #[test]
    fn cores_use_disjoint_regions() {
        let p = benchmark("mcf").expect("known");
        let mut a = ProfileSource::new(p, 0, 1);
        let mut b = ProfileSource::new(p, 1, 1);
        let max_a = (0..1000)
            .map(|_| a.next_access().expect("infinite").addr.0)
            .max()
            .expect("nonempty");
        let min_b = (0..1000)
            .map(|_| b.next_access().expect("infinite").addr.0)
            .min()
            .expect("nonempty");
        assert!(
            max_a < min_b,
            "core regions overlap: {max_a:#x} vs {min_b:#x}"
        );
    }

    #[test]
    fn tier_frequencies_match_probabilities() {
        let p = benchmark("libquantum").expect("known");
        let mut src = ProfileSource::new(p, 0, 7);
        let hot_end = src.hot_base + p.hot_lines;
        let churn_end = src.churn_base + p.churn_lines;
        let mut hot = 0u32;
        let mut churn = 0u32;
        let n = 100_000;
        for _ in 0..n {
            let line = src.next_access().expect("infinite").addr.0 / LINE_SIZE;
            if (src.hot_base..hot_end).contains(&line) {
                hot += 1;
            } else if (src.churn_base..churn_end).contains(&line) {
                churn += 1;
            }
        }
        let hot_frac = f64::from(hot) / f64::from(n);
        let churn_frac = f64::from(churn) / f64::from(n);
        assert!((hot_frac - p.p_hot).abs() < 0.01, "hot {hot_frac}");
        assert!((churn_frac - p.p_churn).abs() < 0.01, "churn {churn_frac}");
    }

    #[test]
    fn write_fraction_is_respected() {
        let p = benchmark("hmmer").expect("known"); // 40% writes
        let mut src = ProfileSource::new(p, 0, 11);
        let n = 50_000;
        let writes = (0..n)
            .filter(|_| src.next_access().expect("infinite").kind.is_write())
            .count();
        let frac = writes as f64 / f64::from(n);
        assert!((frac - 0.40).abs() < 0.02, "write fraction {frac}");
    }

    #[test]
    fn think_cycles_average_near_mean() {
        let p = benchmark("gcc").expect("known");
        let mut src = ProfileSource::new(p, 0, 13);
        let n = 50_000u64;
        let total: u64 = (0..n)
            .map(|_| src.next_access().expect("infinite").think_cycles)
            .sum();
        let mean = total as f64 / n as f64;
        assert!(
            (mean - p.think_mean as f64).abs() < 0.2,
            "mean think {mean} vs {}",
            p.think_mean
        );
    }

    #[test]
    fn churn_lines_are_revisited() {
        let p = benchmark("libquantum").expect("known");
        let mut src = ProfileSource::new(p, 0, 5);
        let churn_range = src.churn_base..src.churn_base + p.churn_lines;
        let mut first_seen = std::collections::HashMap::new();
        let mut revisits = 0u32;
        // Enough accesses for the churn sweep to wrap: churn_lines / p_churn.
        let needed = (p.churn_lines as f64 / p.p_churn * 1.2) as u64;
        for i in 0..needed {
            let line = src.next_access().expect("infinite").addr.0 / LINE_SIZE;
            if churn_range.contains(&line) && first_seen.insert(line, i).is_some() {
                revisits += 1;
            }
        }
        assert!(revisits > 0, "churn tier must revisit lines");
    }
}
