//! Partial-key cuckoo hashing: the `Hash1`, `Hash2` and `fPrint Hash` modules
//! of the hardware microarchitecture (Fig. 5 of the paper).
//!
//! The three functions satisfy the identity required by partial-key cuckoo
//! hashing:
//!
//! ```text
//! h1(x) = hash(x)
//! h2(x) = h1(x) ^ hash(fingerprint(x))
//! ```
//!
//! so that, given only a stored fingerprint and the bucket it currently
//! occupies, the alternate bucket is `bucket ^ hash(fingerprint)`.

use crate::params::FilterParams;

/// SplitMix64 finaliser: a fast, high-quality 64-bit mixer used for all
/// hashing in this crate. Deterministic across platforms.
#[inline]
#[must_use]
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Derives the `f`-bit fingerprint ξ_x of an item.
///
/// The fingerprint hash is domain-separated from the index hash so that the
/// partial-key identity does not degenerate.
///
/// # Examples
///
/// ```
/// use auto_cuckoo::{fingerprint_of, FilterParams};
///
/// let p = FilterParams::paper_default();
/// let fp = fingerprint_of(0xabcd, &p);
/// assert!(fp <= p.fingerprint_mask());
/// ```
#[inline]
#[must_use]
pub fn fingerprint_of(item: u64, params: &FilterParams) -> u16 {
    let h = mix64(item ^ 0xf1f1_f1f1_0000_0000);
    (h as u16) & params.fingerprint_mask()
}

/// The two candidate bucket indices (μ_x, σ_x) of an item.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct IndexPair {
    /// Primary bucket index `h1(x)`.
    pub primary: usize,
    /// Alternate bucket index `h2(x) = h1(x) ^ hash(ξ_x)`.
    pub alternate: usize,
}

impl IndexPair {
    /// Canonical (order-independent) identity of the bucket pair. Two items
    /// occupy the same logical entry slot family iff they share a fingerprint
    /// and a canonical pair.
    #[must_use]
    pub fn canonical(&self) -> (usize, usize) {
        if self.primary <= self.alternate {
            (self.primary, self.alternate)
        } else {
            (self.alternate, self.primary)
        }
    }

    /// Whether `bucket` is one of the two candidates.
    #[must_use]
    pub fn contains(&self, bucket: usize) -> bool {
        bucket == self.primary || bucket == self.alternate
    }
}

/// Computes the primary bucket index `h1(x)`.
#[inline]
#[must_use]
pub fn primary_index(item: u64, params: &FilterParams) -> usize {
    (mix64(item) & params.bucket_mask()) as usize
}

/// Hash of a fingerprint, reduced to a bucket-index offset. This is the
/// `fPrint Hash` module: the XOR distance between the two candidate buckets.
#[inline]
#[must_use]
pub fn fingerprint_offset(fingerprint: u16, params: &FilterParams) -> usize {
    // Standard partial-key cuckoo hashing re-hashes the fingerprint before
    // XOR so the alternate bucket is well distributed even for small f.
    (mix64(u64::from(fingerprint) ^ 0x0f0f_5a5a_c3c3_9696) & params.bucket_mask()) as usize
}

/// Computes both candidate buckets of an item.
///
/// # Examples
///
/// The XOR identity lets either bucket derive the other from the stored
/// fingerprint alone:
///
/// ```
/// use auto_cuckoo::hash::{candidate_buckets, alternate_bucket};
/// use auto_cuckoo::{fingerprint_of, FilterParams};
///
/// let p = FilterParams::paper_default();
/// let item = 0x1234_5678;
/// let pair = candidate_buckets(item, &p);
/// let fp = fingerprint_of(item, &p);
/// assert_eq!(alternate_bucket(pair.primary, fp, &p), pair.alternate);
/// assert_eq!(alternate_bucket(pair.alternate, fp, &p), pair.primary);
/// ```
#[inline]
#[must_use]
pub fn candidate_buckets(item: u64, params: &FilterParams) -> IndexPair {
    let primary = primary_index(item, params);
    let fp = fingerprint_of(item, params);
    let alternate = primary ^ fingerprint_offset(fp, params);
    IndexPair { primary, alternate }
}

/// Given a bucket holding `fingerprint`, returns the record's other candidate
/// bucket. This is the relocation step of a kick.
#[inline]
#[must_use]
pub fn alternate_bucket(bucket: usize, fingerprint: u16, params: &FilterParams) -> usize {
    bucket ^ fingerprint_offset(fingerprint, params)
}

/// Small deterministic xorshift64* RNG used for victim selection inside the
/// filters. Hardware would use an LFSR; the statistical requirements are the
/// same (uniform-ish victim choice), and determinism keeps every experiment
/// reproducible.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DetRng {
    state: u64,
}

impl DetRng {
    /// Creates an RNG from a nonzero seed (zero is mapped to a fixed odd
    /// constant, since xorshift has a zero fixed point).
    #[must_use]
    pub fn new(seed: u64) -> Self {
        let state = if seed == 0 {
            0x9e37_79b9_7f4a_7c15
        } else {
            seed
        };
        Self { state }
    }

    /// Next raw 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform value in `0..bound` (rejection-free multiply-shift; bias is
    /// negligible for the small bounds used here).
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    #[inline]
    pub fn below(&mut self, bound: usize) -> usize {
        assert!(bound > 0, "bound must be nonzero");
        ((u128::from(self.next_u64()) * bound as u128) >> 64) as usize
    }

    /// Uniform boolean.
    #[inline]
    pub fn coin(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> FilterParams {
        FilterParams::paper_default()
    }

    #[test]
    fn xor_identity_is_involution() {
        let p = params();
        for item in 0..10_000u64 {
            let pair = candidate_buckets(item * 64, &p);
            let fp = fingerprint_of(item * 64, &p);
            assert_eq!(alternate_bucket(pair.primary, fp, &p), pair.alternate);
            assert_eq!(alternate_bucket(pair.alternate, fp, &p), pair.primary);
        }
    }

    #[test]
    fn indices_are_in_range() {
        let p = params();
        for item in 0..10_000u64 {
            let pair = candidate_buckets(item.wrapping_mul(0x1234_5678_9abc_def1), &p);
            assert!(pair.primary < p.buckets());
            assert!(pair.alternate < p.buckets());
        }
    }

    #[test]
    fn fingerprints_respect_width() {
        for bits in 1..=16 {
            let p = FilterParams::builder()
                .fingerprint_bits(bits)
                .build()
                .expect("valid");
            for item in 0..1000u64 {
                assert!(fingerprint_of(item, &p) <= p.fingerprint_mask());
            }
        }
    }

    #[test]
    fn primary_indices_are_roughly_uniform() {
        let p = params();
        let mut counts = vec![0u32; p.buckets()];
        let n = 1_000_000u64;
        for item in 0..n {
            counts[primary_index(item * 64, &p)] += 1;
        }
        let mean = n as f64 / p.buckets() as f64;
        let max = *counts.iter().max().expect("nonempty") as f64;
        let min = *counts.iter().min().expect("nonempty") as f64;
        // ~977 expected per bucket; 4-sigma Poisson bounds with headroom.
        assert!(max < mean * 1.3, "max {max} too far above mean {mean}");
        assert!(min > mean * 0.7, "min {min} too far below mean {mean}");
    }

    #[test]
    fn index_pair_contains_and_canonical() {
        let pair = IndexPair {
            primary: 3,
            alternate: 9,
        };
        assert!(pair.contains(3));
        assert!(pair.contains(9));
        assert!(!pair.contains(4));
        assert_eq!(pair.canonical(), (3, 9));
        let flipped = IndexPair {
            primary: 9,
            alternate: 3,
        };
        assert_eq!(flipped.canonical(), (3, 9));
    }

    #[test]
    fn det_rng_is_deterministic() {
        let mut a = DetRng::new(42);
        let mut b = DetRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn det_rng_zero_seed_is_usable() {
        let mut r = DetRng::new(0);
        let first = r.next_u64();
        assert_ne!(first, 0);
        assert_ne!(first, r.next_u64());
    }

    #[test]
    fn det_rng_below_respects_bound() {
        let mut r = DetRng::new(7);
        for _ in 0..10_000 {
            assert!(r.below(8) < 8);
        }
    }

    #[test]
    fn det_rng_below_is_roughly_uniform() {
        let mut r = DetRng::new(99);
        let mut counts = [0u32; 8];
        for _ in 0..80_000 {
            counts[r.below(8)] += 1;
        }
        for &c in &counts {
            assert!((8_000..12_000).contains(&c), "count {c} out of range");
        }
    }

    #[test]
    fn mix64_avalanche_differs_on_single_bit() {
        // A weak but meaningful check: flipping one input bit flips a good
        // fraction of output bits on average.
        let mut total = 0u32;
        for i in 0..64 {
            total += (mix64(0) ^ mix64(1u64 << i)).count_ones();
        }
        let avg = f64::from(total) / 64.0;
        assert!(avg > 24.0 && avg < 40.0, "average flipped bits {avg}");
    }
}
