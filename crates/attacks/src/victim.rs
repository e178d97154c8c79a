//! The square-and-multiply victim (GnuPG 1.4.13 model).
//!
//! The algorithm processes the exponent from the most significant bit down:
//! every iteration executes `square`; iterations whose key bit is 1 also
//! execute `multiply`. The *instruction lines* of the two routines are the
//! side channel: observing which of the two lines the victim touched per
//! iteration reveals the key (paper §VI-A).

use cache_sim::Addr;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Addresses of the victim's two leaky instruction lines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VictimLayout {
    /// Entry line of the `square` routine (touched every iteration).
    pub square: Addr,
    /// Entry line of the `multiply` routine (touched only for 1-bits).
    pub multiply: Addr,
}

impl VictimLayout {
    /// A layout placing the two lines in distinct cache lines of the
    /// victim's text segment.
    ///
    /// # Panics
    ///
    /// Panics if both addresses fall in the same
    /// [`LINE_SIZE`](cache_sim::LINE_SIZE)-byte line.
    #[must_use]
    pub fn new(square: Addr, multiply: Addr) -> Self {
        assert_ne!(
            square.line(),
            multiply.line(),
            "square and multiply must live in different lines"
        );
        Self { square, multiply }
    }

    /// The default layout used by the attack experiments: two lines in a
    /// victim text region, far from attacker-controlled memory.
    #[must_use]
    pub fn default_layout() -> Self {
        // Distinct LLC sets keep the two probes independent.
        Self::new(Addr(0x10_0000_0000), Addr(0x10_0004_0040))
    }
}

/// A square-and-multiply exponentiation processing one key bit per
/// iteration.
///
/// # Examples
///
/// ```
/// use pipo_attacks::{SquareAndMultiply, VictimLayout};
///
/// let mut v = SquareAndMultiply::with_random_key(VictimLayout::default_layout(), 8, 42);
/// let mut iterations = 0;
/// while let Some((bit, accesses)) = v.next_iteration() {
///     // square is always touched; multiply only for 1-bits.
///     assert_eq!(accesses.len(), 1 + usize::from(bit));
///     iterations += 1;
/// }
/// assert_eq!(iterations, 8);
/// ```
#[derive(Debug, Clone)]
pub struct SquareAndMultiply {
    layout: VictimLayout,
    key: Vec<bool>,
    pos: usize,
}

impl SquareAndMultiply {
    /// Creates a victim with an explicit key (MSB first).
    #[must_use]
    pub fn new(layout: VictimLayout, key: Vec<bool>) -> Self {
        Self {
            layout,
            key,
            pos: 0,
        }
    }

    /// Creates a victim with a uniformly random `bits`-bit key.
    #[must_use]
    pub fn with_random_key(layout: VictimLayout, bits: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let key = (0..bits).map(|_| rng.gen::<bool>()).collect();
        Self::new(layout, key)
    }

    /// The victim's layout.
    #[must_use]
    pub fn layout(&self) -> &VictimLayout {
        &self.layout
    }

    /// The ground-truth key (for accuracy scoring).
    #[must_use]
    pub fn key(&self) -> &[bool] {
        &self.key
    }

    /// Restarts the exponentiation from the first bit.
    pub fn reset(&mut self) {
        self.pos = 0;
    }

    /// Executes the next iteration, returning the processed bit and the
    /// instruction-line accesses it performs, or `None` when the key is
    /// exhausted.
    pub fn next_iteration(&mut self) -> Option<(bool, Vec<Addr>)> {
        let bit = *self.key.get(self.pos)?;
        self.pos += 1;
        let mut accesses = vec![self.layout.square];
        if bit {
            accesses.push(self.layout.multiply);
        }
        Some((bit, accesses))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iterates_key_msb_first() {
        let layout = VictimLayout::default_layout();
        let mut v = SquareAndMultiply::new(layout, vec![true, false, true]);
        let (b1, a1) = v.next_iteration().expect("bit 0");
        assert!(b1);
        assert_eq!(a1, vec![layout.square, layout.multiply]);
        let (b2, a2) = v.next_iteration().expect("bit 1");
        assert!(!b2);
        assert_eq!(a2, vec![layout.square]);
        let (b3, _) = v.next_iteration().expect("bit 2");
        assert!(b3);
        assert!(v.next_iteration().is_none());
    }

    #[test]
    fn reset_restarts() {
        let mut v = SquareAndMultiply::new(VictimLayout::default_layout(), vec![true]);
        assert!(v.next_iteration().is_some());
        assert!(v.next_iteration().is_none());
        v.reset();
        assert!(v.next_iteration().is_some());
    }

    #[test]
    fn random_key_is_deterministic_per_seed() {
        let l = VictimLayout::default_layout();
        let a = SquareAndMultiply::with_random_key(l, 64, 7);
        let b = SquareAndMultiply::with_random_key(l, 64, 7);
        assert_eq!(a.key(), b.key());
        let c = SquareAndMultiply::with_random_key(l, 64, 8);
        assert_ne!(a.key(), c.key());
    }

    #[test]
    fn random_key_is_balanced() {
        let v = SquareAndMultiply::with_random_key(VictimLayout::default_layout(), 1000, 3);
        let ones = v.key().iter().filter(|&&b| b).count();
        assert!((350..=650).contains(&ones), "ones = {ones}");
    }

    #[test]
    #[should_panic(expected = "different lines")]
    fn layout_rejects_same_line() {
        let _ = VictimLayout::new(Addr(0x1000), Addr(0x1020));
    }
}
