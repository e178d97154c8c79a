//! Simple synthetic streams for tests, microbenchmarks, and ablations.

use cache_sim::{Access, AccessSource, Addr, LINE_SIZE};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A fixed-stride streaming source (models array sweeps).
///
/// # Examples
///
/// ```
/// use cache_sim::AccessSource;
/// use pipo_workloads::StrideSource;
///
/// let mut s = StrideSource::new(0x1000, 64, 2);
/// assert_eq!(s.next_access().expect("infinite").addr.0, 0x1040);
/// assert_eq!(s.next_access().expect("infinite").addr.0, 0x1080);
/// ```
#[derive(Debug, Clone)]
pub struct StrideSource {
    addr: u64,
    stride: u64,
    think: u64,
}

impl StrideSource {
    /// Starts at `base` and advances by `stride` bytes per access, with
    /// `think` compute cycles between accesses.
    #[must_use]
    pub fn new(base: u64, stride: u64, think: u64) -> Self {
        Self {
            addr: base,
            stride,
            think,
        }
    }
}

impl AccessSource for StrideSource {
    fn next_access(&mut self) -> Option<Access> {
        self.addr = self.addr.wrapping_add(self.stride);
        Some(Access::read(Addr(self.addr)).after(self.think))
    }
}

/// A pointer-chase over a random permutation of `lines` cache lines
/// (models mcf-style dependent loads: no spatial locality, full reuse).
#[derive(Debug, Clone)]
pub struct PointerChaseSource {
    base_line: u64,
    next: Vec<u32>,
    pos: u32,
    think: u64,
}

impl PointerChaseSource {
    /// Builds a single-cycle random permutation over `lines` lines.
    ///
    /// # Panics
    ///
    /// Panics if `lines == 0` or `lines > u32::MAX as u64`.
    #[must_use]
    pub fn new(base_line: u64, lines: u64, think: u64, seed: u64) -> Self {
        assert!(lines > 0, "chase needs at least one line");
        assert!(lines <= u64::from(u32::MAX), "chase too large");
        let n = lines as u32;
        let mut order: Vec<u32> = (0..n).collect();
        // Fisher-Yates with a seeded generator; then link into one cycle so
        // the chase visits every line before repeating.
        let mut rng = StdRng::seed_from_u64(seed);
        for i in (1..n as usize).rev() {
            let j = rng.gen_range(0..=i);
            order.swap(i, j);
        }
        let mut next = vec![0u32; n as usize];
        for w in 0..n as usize {
            let from = order[w];
            let to = order[(w + 1) % n as usize];
            next[from as usize] = to;
        }
        Self {
            base_line,
            next,
            pos: 0,
            think,
        }
    }

    /// Number of lines in the chase.
    #[must_use]
    pub fn lines(&self) -> usize {
        self.next.len()
    }
}

impl AccessSource for PointerChaseSource {
    fn next_access(&mut self) -> Option<Access> {
        self.pos = self.next[self.pos as usize];
        let line = self.base_line + u64::from(self.pos);
        Some(Access::read(Addr(line * LINE_SIZE)).after(self.think))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stride_advances_linearly() {
        let mut s = StrideSource::new(0, 128, 1);
        assert_eq!(s.next_access().expect("infinite").addr.0, 128);
        assert_eq!(s.next_access().expect("infinite").addr.0, 256);
    }

    #[test]
    fn pointer_chase_visits_every_line_once_per_cycle() {
        let lines = 64;
        let mut s = PointerChaseSource::new(0, lines, 0, 9);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..lines {
            let a = s.next_access().expect("infinite");
            assert!(seen.insert(a.addr.0), "revisit before full cycle");
        }
        // The next access starts the cycle again.
        let a = s.next_access().expect("infinite");
        assert!(seen.contains(&a.addr.0));
    }

    #[test]
    fn pointer_chase_is_deterministic() {
        let mut a = PointerChaseSource::new(0, 32, 0, 4);
        let mut b = PointerChaseSource::new(0, 32, 0, 4);
        for _ in 0..64 {
            assert_eq!(a.next_access(), b.next_access());
        }
    }

    #[test]
    fn pointer_chase_single_line() {
        let mut s = PointerChaseSource::new(5, 1, 0, 1);
        assert_eq!(s.next_access().expect("infinite").addr.0, 5 * 64);
        assert_eq!(s.next_access().expect("infinite").addr.0, 5 * 64);
    }
}
