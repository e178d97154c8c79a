//! Filter geometry and policy parameters (Table I of the paper).

use std::error::Error;
use std::fmt;

/// Errors produced when validating [`FilterParams`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ParamsError {
    /// The number of buckets `l` must be a power of two so that the XOR
    /// alternate-bucket identity is an involution over bucket indices.
    BucketsNotPowerOfTwo(usize),
    /// The number of buckets `l` must be nonzero.
    ZeroBuckets,
    /// The bucket width `b` must be nonzero.
    ZeroEntriesPerBucket,
    /// Fingerprint width `f` must be in `1..=16` (entries store `u16`).
    FingerprintWidthOutOfRange(u32),
    /// `secThr` must fit in the 2-bit saturating Security counter (`1..=3`).
    SecurityThresholdOutOfRange(u8),
}

impl fmt::Display for ParamsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParamsError::BucketsNotPowerOfTwo(l) => {
                write!(f, "bucket count {l} is not a power of two")
            }
            ParamsError::ZeroBuckets => write!(f, "bucket count must be nonzero"),
            ParamsError::ZeroEntriesPerBucket => {
                write!(f, "entries per bucket must be nonzero")
            }
            ParamsError::FingerprintWidthOutOfRange(bits) => {
                write!(f, "fingerprint width {bits} is outside 1..=16")
            }
            ParamsError::SecurityThresholdOutOfRange(thr) => {
                write!(f, "security threshold {thr} is outside 1..=3")
            }
        }
    }
}

impl Error for ParamsError {}

/// Geometry and policy parameters of a Cuckoo filter.
///
/// Notation follows Table I of the paper:
///
/// | field | paper symbol | meaning |
/// |---|---|---|
/// | `buckets` | `l` | number of bucket rows |
/// | `entries_per_bucket` | `b` | entries per bucket row |
/// | `fingerprint_bits` | `f` | fingerprint width in bits |
/// | `max_kicks` | `MNK` | maximal number of relocations per insertion |
/// | `security_threshold` | `secThr` | Security saturation = Ping-Pong capture |
///
/// # Examples
///
/// ```
/// use auto_cuckoo::FilterParams;
///
/// let p = FilterParams::paper_default();
/// assert_eq!(p.buckets(), 1024);
/// assert_eq!(p.entries_per_bucket(), 8);
/// assert_eq!(p.fingerprint_bits(), 12);
/// assert_eq!(p.max_kicks(), 4);
/// assert_eq!(p.security_threshold(), 3);
/// assert_eq!(p.capacity(), 8192);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FilterParams {
    buckets: usize,
    entries_per_bucket: usize,
    fingerprint_bits: u32,
    max_kicks: u32,
    security_threshold: u8,
    seed: u64,
}

impl FilterParams {
    /// The configuration evaluated in the paper (Table II):
    /// `l = 1024, b = 8, f = 12, MNK = 4, secThr = 3` (ε ≈ 0.004).
    #[must_use]
    pub fn paper_default() -> Self {
        Self {
            buckets: 1024,
            entries_per_bucket: 8,
            fingerprint_bits: 12,
            max_kicks: 4,
            security_threshold: 3,
            seed: 0x5151_c0de,
        }
    }

    /// Starts building a custom parameter set from the paper defaults.
    #[must_use]
    pub fn builder() -> FilterParamsBuilder {
        FilterParamsBuilder::new()
    }

    /// Number of bucket rows (`l`).
    #[must_use]
    pub fn buckets(&self) -> usize {
        self.buckets
    }

    /// Entries per bucket row (`b`).
    #[must_use]
    pub fn entries_per_bucket(&self) -> usize {
        self.entries_per_bucket
    }

    /// Fingerprint width in bits (`f`).
    #[must_use]
    pub fn fingerprint_bits(&self) -> u32 {
        self.fingerprint_bits
    }

    /// Maximal number of kicks per insertion (`MNK`).
    #[must_use]
    pub fn max_kicks(&self) -> u32 {
        self.max_kicks
    }

    /// Security counter saturation value (`secThr`).
    #[must_use]
    pub fn security_threshold(&self) -> u8 {
        self.security_threshold
    }

    /// Seed for the filter's deterministic victim-selection randomness.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Total entry capacity, `l × b`.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.buckets * self.entries_per_bucket
    }

    /// Hardware bits per cuckoo-table entry: 1 valid bit, `f` fingerprint
    /// bits and a 2-bit `Security` counter (paper §VII-D). 15 at `f = 12`.
    #[must_use]
    pub fn entry_bits(&self) -> u32 {
        1 + self.fingerprint_bits + 2
    }

    /// Bit mask selecting a bucket index (requires `l` to be a power of two).
    #[must_use]
    pub fn bucket_mask(&self) -> u64 {
        (self.buckets as u64) - 1
    }

    /// Bit mask selecting a fingerprint.
    #[must_use]
    pub fn fingerprint_mask(&self) -> u16 {
        if self.fingerprint_bits >= 16 {
            u16::MAX
        } else {
            ((1u32 << self.fingerprint_bits) - 1) as u16
        }
    }

    /// Validates the parameter set.
    ///
    /// # Errors
    ///
    /// Returns a [`ParamsError`] when `l` is zero or not a power of two, `b`
    /// is zero, `f` is outside `1..=16`, or `secThr` is outside `1..=3`.
    pub fn validate(&self) -> Result<(), ParamsError> {
        if self.buckets == 0 {
            return Err(ParamsError::ZeroBuckets);
        }
        if !self.buckets.is_power_of_two() {
            return Err(ParamsError::BucketsNotPowerOfTwo(self.buckets));
        }
        if self.entries_per_bucket == 0 {
            return Err(ParamsError::ZeroEntriesPerBucket);
        }
        if self.fingerprint_bits == 0 || self.fingerprint_bits > 16 {
            return Err(ParamsError::FingerprintWidthOutOfRange(
                self.fingerprint_bits,
            ));
        }
        if self.security_threshold == 0 || self.security_threshold > 3 {
            return Err(ParamsError::SecurityThresholdOutOfRange(
                self.security_threshold,
            ));
        }
        Ok(())
    }
}

impl Default for FilterParams {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Builder for [`FilterParams`].
///
/// # Examples
///
/// ```
/// use auto_cuckoo::FilterParams;
///
/// # fn main() -> Result<(), auto_cuckoo::ParamsError> {
/// let p = FilterParams::builder()
///     .buckets(512)
///     .entries_per_bucket(8)
///     .fingerprint_bits(12)
///     .max_kicks(4)
///     .build()?;
/// assert_eq!(p.capacity(), 4096);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct FilterParamsBuilder {
    params: FilterParams,
}

impl FilterParamsBuilder {
    /// Creates a builder initialised to [`FilterParams::paper_default`].
    #[must_use]
    pub fn new() -> Self {
        Self {
            params: FilterParams::paper_default(),
        }
    }

    /// Sets the number of bucket rows (`l`); must be a power of two.
    #[must_use]
    pub fn buckets(mut self, l: usize) -> Self {
        self.params.buckets = l;
        self
    }

    /// Sets the number of entries per bucket (`b`).
    #[must_use]
    pub fn entries_per_bucket(mut self, b: usize) -> Self {
        self.params.entries_per_bucket = b;
        self
    }

    /// Sets the fingerprint width in bits (`f`), `1..=16`.
    #[must_use]
    pub fn fingerprint_bits(mut self, f: u32) -> Self {
        self.params.fingerprint_bits = f;
        self
    }

    /// Sets the maximal number of kicks (`MNK`). `0` is allowed and means an
    /// insertion into two full buckets immediately evicts a victim.
    #[must_use]
    pub fn max_kicks(mut self, mnk: u32) -> Self {
        self.params.max_kicks = mnk;
        self
    }

    /// Sets the Security saturation threshold (`secThr`), `1..=3`.
    #[must_use]
    pub fn security_threshold(mut self, thr: u8) -> Self {
        self.params.security_threshold = thr;
        self
    }

    /// Sets the seed of the filter's deterministic randomness.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.params.seed = seed;
        self
    }

    /// Validates and returns the parameter set.
    ///
    /// # Errors
    ///
    /// Propagates [`FilterParams::validate`] failures.
    pub fn build(self) -> Result<FilterParams, ParamsError> {
        self.params.validate()?;
        Ok(self.params)
    }
}

impl Default for FilterParamsBuilder {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_is_valid() {
        FilterParams::paper_default().validate().expect("valid");
    }

    #[test]
    fn paper_default_capacity_is_8192() {
        assert_eq!(FilterParams::paper_default().capacity(), 8192);
    }

    #[test]
    fn builder_round_trips_all_fields() {
        let p = FilterParams::builder()
            .buckets(2048)
            .entries_per_bucket(4)
            .fingerprint_bits(10)
            .max_kicks(2)
            .security_threshold(2)
            .seed(7)
            .build()
            .expect("valid");
        assert_eq!(p.buckets(), 2048);
        assert_eq!(p.entries_per_bucket(), 4);
        assert_eq!(p.fingerprint_bits(), 10);
        assert_eq!(p.max_kicks(), 2);
        assert_eq!(p.security_threshold(), 2);
        assert_eq!(p.seed(), 7);
    }

    #[test]
    fn rejects_non_power_of_two_buckets() {
        let err = FilterParams::builder().buckets(1000).build().unwrap_err();
        assert_eq!(err, ParamsError::BucketsNotPowerOfTwo(1000));
    }

    #[test]
    fn rejects_zero_buckets() {
        let err = FilterParams::builder().buckets(0).build().unwrap_err();
        assert_eq!(err, ParamsError::ZeroBuckets);
    }

    #[test]
    fn rejects_zero_bucket_width() {
        let err = FilterParams::builder()
            .entries_per_bucket(0)
            .build()
            .unwrap_err();
        assert_eq!(err, ParamsError::ZeroEntriesPerBucket);
    }

    #[test]
    fn rejects_wide_fingerprints() {
        let err = FilterParams::builder()
            .fingerprint_bits(17)
            .build()
            .unwrap_err();
        assert_eq!(err, ParamsError::FingerprintWidthOutOfRange(17));
    }

    #[test]
    fn rejects_zero_fingerprint_bits() {
        let err = FilterParams::builder()
            .fingerprint_bits(0)
            .build()
            .unwrap_err();
        assert_eq!(err, ParamsError::FingerprintWidthOutOfRange(0));
    }

    #[test]
    fn rejects_out_of_range_threshold() {
        let err = FilterParams::builder()
            .security_threshold(4)
            .build()
            .unwrap_err();
        assert_eq!(err, ParamsError::SecurityThresholdOutOfRange(4));
        let err = FilterParams::builder()
            .security_threshold(0)
            .build()
            .unwrap_err();
        assert_eq!(err, ParamsError::SecurityThresholdOutOfRange(0));
    }

    #[test]
    fn fingerprint_mask_matches_width() {
        let p = FilterParams::builder()
            .fingerprint_bits(12)
            .build()
            .expect("valid");
        assert_eq!(p.fingerprint_mask(), 0x0fff);
        let p = FilterParams::builder()
            .fingerprint_bits(16)
            .build()
            .expect("valid");
        assert_eq!(p.fingerprint_mask(), 0xffff);
        let p = FilterParams::builder()
            .fingerprint_bits(1)
            .build()
            .expect("valid");
        assert_eq!(p.fingerprint_mask(), 0x1);
    }

    #[test]
    fn error_display_is_lowercase_and_specific() {
        let msg = ParamsError::BucketsNotPowerOfTwo(1000).to_string();
        assert!(msg.contains("1000"));
        assert!(msg.starts_with("bucket count"));
    }
}
