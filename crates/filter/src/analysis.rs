//! Analytic models from the paper: false-positive rate (§V-B), and
//! brute-force and reverse-engineering attack costs (§VI-B). Storage
//! (§VII-D) has no model here: each store prices its own state in
//! [`PatternStore::memory_bytes`](crate::PatternStore::memory_bytes).

use crate::params::FilterParams;

/// Upper bound on the false-positive rate of a query,
/// `ε = 1 − (1 − 1/2^f)^(2b) ≈ 2b / 2^f` (paper §V-B).
///
/// # Examples
///
/// The paper's configuration (b = 8, f = 12) yields ε ≈ 0.004:
///
/// ```
/// use auto_cuckoo::{false_positive_rate, FilterParams};
///
/// let eps = false_positive_rate(&FilterParams::paper_default());
/// assert!((eps - 0.0039).abs() < 0.0002);
/// ```
#[must_use]
pub fn false_positive_rate(params: &FilterParams) -> f64 {
    let f = params.fingerprint_bits();
    let b = params.entries_per_bucket() as f64;
    let p_match = 1.0 / f64::from(1u32 << f.min(31));
    1.0 - (1.0 - p_match).powf(2.0 * b)
}

/// Expected number of filter fills a brute-force adversary needs to evict one
/// specific target record: `b · l` (paper §VI-B). Each fill evicts one stored
/// record uniformly at random thanks to autonomic deletion, so the eviction
/// of a *specific* record is geometric with success probability `1/(b·l)`.
///
/// # Examples
///
/// ```
/// use auto_cuckoo::{brute_force_expected_fills, FilterParams};
///
/// assert_eq!(brute_force_expected_fills(&FilterParams::paper_default()), 8192);
/// ```
#[must_use]
pub fn brute_force_expected_fills(params: &FilterParams) -> u64 {
    (params.buckets() * params.entries_per_bucket()) as u64
}

/// Size of the eviction set a reverse-engineering adversary must construct to
/// deterministically evict a target record: `b^(MNK+1)` (paper §VI-B, Fig. 7).
///
/// Saturates at `u64::MAX` for configurations whose eviction set exceeds
/// 2^64 — at which point the attack is unambiguously impractical.
///
/// # Examples
///
/// The paper's configuration (b = 8, MNK = 4) needs 8^5 = 32768 addresses:
///
/// ```
/// use auto_cuckoo::{reverse_eviction_set_size, FilterParams};
///
/// assert_eq!(reverse_eviction_set_size(&FilterParams::paper_default()), 32768);
/// ```
#[must_use]
pub fn reverse_eviction_set_size(params: &FilterParams) -> u64 {
    let b = params.entries_per_bucket() as u64;
    let mut size: u64 = 1;
    for _ in 0..=params.max_kicks() {
        size = match size.checked_mul(b) {
            Some(s) => s,
            None => return u64::MAX,
        };
    }
    size
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::FilterParams;

    #[test]
    fn fp_rate_halves_per_fingerprint_bit() {
        let rate = |f| {
            false_positive_rate(
                &FilterParams::builder()
                    .fingerprint_bits(f)
                    .build()
                    .expect("valid"),
            )
        };
        for f in 8..=15 {
            let ratio = rate(f) / rate(f + 1);
            assert!(
                (ratio - 2.0).abs() < 0.05,
                "f={f}: ratio {ratio} should be ~2"
            );
        }
    }

    #[test]
    fn fp_rate_matches_paper_configuration() {
        let eps = false_positive_rate(&FilterParams::paper_default());
        // 2b/2^f = 16/4096 = 0.0039..., the paper reports ε = 0.004.
        assert!((eps - 16.0 / 4096.0).abs() < 1e-4, "eps = {eps}");
    }

    #[test]
    fn brute_force_matches_paper() {
        assert_eq!(
            brute_force_expected_fills(&FilterParams::paper_default()),
            8192
        );
    }

    #[test]
    fn reverse_eviction_set_grows_exponentially_with_mnk() {
        let size = |mnk| {
            reverse_eviction_set_size(
                &FilterParams::builder()
                    .max_kicks(mnk)
                    .build()
                    .expect("valid"),
            )
        };
        assert_eq!(size(0), 8);
        assert_eq!(size(1), 64);
        assert_eq!(size(2), 512);
        assert_eq!(size(3), 4096);
        assert_eq!(size(4), 32768);
    }

    #[test]
    fn reverse_eviction_set_saturates_instead_of_overflowing() {
        let p = FilterParams::builder()
            .max_kicks(100)
            .build()
            .expect("valid");
        assert_eq!(reverse_eviction_set_size(&p), u64::MAX);
    }
}
