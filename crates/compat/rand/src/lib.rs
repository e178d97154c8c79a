//! Offline stand-in for the `rand` crate.
//!
//! The build environment has no registry access, so this vendored shim
//! provides the API subset the workspace uses: [`rngs::StdRng`],
//! [`SeedableRng::seed_from_u64`], [`Rng::gen`], and [`Rng::gen_range`].
//! Streams are deterministic (xoshiro256++ seeded via SplitMix64) but do
//! **not** match upstream `rand`'s streams; all workspace experiments derive
//! their reference numbers from this generator.

#![forbid(unsafe_code)]

use std::ops::{Range, RangeInclusive};

/// Construction of a reproducible generator from a seed.
pub trait SeedableRng: Sized {
    /// Builds a generator whose stream is a pure function of `state`.
    fn seed_from_u64(state: u64) -> Self;
}

/// Types samplable by [`Rng::gen`] (upstream's `Standard` distribution).
pub trait Standard: Sized {
    /// Draws one value from `rng`.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

/// The raw 64-bit generator interface.
pub trait RngCore {
    /// Produces the next 64 random bits.
    fn next_u64(&mut self) -> u64;
}

/// Ranges usable with [`Rng::gen_range`].
pub trait SampleRange<T> {
    /// Draws a value uniformly from the range.
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! impl_sample_range_uint {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "empty range in gen_range");
                let span = (self.end - self.start) as u64;
                self.start + (rng.next_u64() % span) as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "empty range in gen_range");
                let span = (end - start) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                start + (rng.next_u64() % (span + 1)) as $t
            }
        }
    )*};
}

impl_sample_range_uint!(u8, u16, u32, u64, usize);

impl Standard for u64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Standard for u32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 32) as u32
    }
}

impl Standard for usize {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() as usize
    }
}

impl Standard for bool {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() >> 63 != 0
    }
}

impl Standard for f64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 uniform mantissa bits in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }
}

/// The user-facing sampling interface (subset of upstream `Rng`).
pub trait Rng: RngCore {
    /// Draws a value of an inferred type (upstream's `Standard` distribution).
    fn gen<T: Standard>(&mut self) -> T
    where
        Self: Sized,
    {
        T::sample(self)
    }

    /// Draws a value uniformly from `range`.
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T
    where
        Self: Sized,
    {
        range.sample_from(self)
    }

    /// Draws `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        self.gen::<f64>() < p
    }
}

impl<R: RngCore> Rng for R {}

/// Distributions with precomputed sampling state (subset of upstream
/// `rand::distributions`).
pub mod distributions {
    use super::RngCore;

    /// A uniform integer distribution with a precomputed Barrett reciprocal.
    ///
    /// Sampling draws **exactly** `start + rng.next_u64() % span` — the same
    /// value, from the same single RNG draw, as [`Rng::gen_range`] over the
    /// equivalent range — but replaces the hardware 64-bit division with two
    /// multiplies and a conditional subtract. A power-of-two span takes the
    /// low bits (`x & (span - 1)`), which is the same remainder without the
    /// multiplies. Hot generators that draw from a fixed range every access
    /// precompute the distribution once instead of paying the division per
    /// draw.
    ///
    /// [`Rng::gen_range`]: super::Rng::gen_range
    #[derive(Debug, Clone, Copy)]
    pub struct Uniform {
        start: u64,
        /// Range width; `0` encodes the full-width `start..=start + u64::MAX`
        /// degenerate range (every draw is returned as-is).
        span: u64,
        /// `floor(2^64 / span)` (unused for span 0 and powers of two).
        magic: u64,
    }

    impl Uniform {
        /// Distribution over `start..end` (half-open).
        ///
        /// # Panics
        ///
        /// Panics if the range is empty.
        #[must_use]
        pub fn new(start: u64, end: u64) -> Self {
            assert!(start < end, "empty range in Uniform::new");
            Self::with_span(start, end - start)
        }

        /// Distribution over `start..=end` (inclusive).
        ///
        /// # Panics
        ///
        /// Panics if the range is empty.
        #[must_use]
        pub fn new_inclusive(start: u64, end: u64) -> Self {
            assert!(start <= end, "empty range in Uniform::new_inclusive");
            Self::with_span(start, (end - start).wrapping_add(1))
        }

        fn with_span(start: u64, span: u64) -> Self {
            let magic = if span >= 2 {
                ((1u128 << 64) / u128::from(span)) as u64
            } else {
                0
            };
            Self { start, span, magic }
        }

        /// Draws one value (consumes one `next_u64`, like `gen_range`).
        #[inline]
        pub fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> u64 {
            let x = rng.next_u64();
            let rem = match self.span {
                0 => return self.start.wrapping_add(x),
                span if span.is_power_of_two() => x & (span - 1),
                span => {
                    // Barrett reduction with `magic = floor(2^64 / span)`:
                    // the estimated quotient is `floor(x / span)` or one
                    // less, so one conditional subtract makes the remainder
                    // exact for every `x`.
                    let q = ((u128::from(x) * u128::from(self.magic)) >> 64) as u64;
                    let mut rem = x - q * span;
                    if rem >= span {
                        rem -= span;
                    }
                    debug_assert_eq!(rem, x % span);
                    rem
                }
            };
            self.start + rem
        }
    }
}

/// Named generators (upstream's `rand::rngs`).
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// Deterministic xoshiro256++ generator (stand-in for upstream StdRng).
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(state: u64) -> Self {
            let mut sm = state;
            Self {
                s: [
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                ],
            }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let result = self.s[0]
                .wrapping_add(self.s[3])
                .rotate_left(23)
                .wrapping_add(self.s[0]);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            result
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_streams() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
        let mut c = StdRng::seed_from_u64(8);
        assert_ne!(a.gen::<u64>(), c.gen::<u64>());
    }

    #[test]
    fn uniform_matches_gen_range_stream() {
        use super::distributions::Uniform;
        // Spans around powers of two, primes, 1, and the full-width
        // degenerate inclusive range: the precomputed distribution must
        // reproduce `gen_range`'s draws bit-for-bit from the same stream.
        for span in [1u64, 2, 3, 7, 8, 1000, 4096, 1 << 22, (1 << 62) + 3] {
            let mut a = StdRng::seed_from_u64(span);
            let mut b = StdRng::seed_from_u64(span);
            let half = Uniform::new(5, 5 + span);
            let incl = Uniform::new_inclusive(5, 5 + span);
            for _ in 0..200 {
                assert_eq!(half.sample(&mut a), b.gen_range(5..5 + span), "span {span}");
                assert_eq!(
                    incl.sample(&mut a),
                    b.gen_range(5..=5 + span),
                    "span {span}"
                );
            }
        }
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(1);
        let full = Uniform::new_inclusive(0, u64::MAX);
        for _ in 0..100 {
            assert_eq!(full.sample(&mut a), b.gen_range(0..=u64::MAX));
        }
    }

    #[test]
    fn ranges_are_in_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            let x = rng.gen_range(10u64..20);
            assert!((10..20).contains(&x));
            let y = rng.gen_range(0usize..=3);
            assert!(y <= 3);
            let f = rng.gen::<f64>();
            assert!((0.0..1.0).contains(&f));
        }
    }
}
