//! Hardware overhead accounting (paper §VII-D).
//!
//! Storage is exact arithmetic over the filter geometry. Area is an estimate
//! scaled linearly from the paper's published CACTI 7 numbers at 22 nm
//! (0.013 mm² for the 15 KB, 8192-entry configuration against a 4 MB LLC);
//! CACTI itself is not available offline, so this substitution is documented
//! under "Recorded substitutions" in `ARCHITECTURE.md`.

use auto_cuckoo::{FilterParams, StorageOverhead};

/// The paper's published area for its 15 KB filter configuration, in mm².
const PAPER_AREA_MM2: f64 = 0.013;
/// Storage bits of the paper's configuration (8192 entries × 15 bits).
const PAPER_BITS: f64 = 8192.0 * 15.0;

/// Estimated silicon area of a filter configuration at 22 nm, scaled
/// linearly in storage bits from the paper's CACTI 7 data point.
///
/// # Examples
///
/// ```
/// use auto_cuckoo::FilterParams;
/// use pipomonitor::area_estimate_mm2;
///
/// let area = area_estimate_mm2(&FilterParams::paper_default());
/// assert!((area - 0.013).abs() < 1e-9);
/// ```
#[must_use]
pub fn area_estimate_mm2(params: &FilterParams) -> f64 {
    let bits = u64::from(params.entry_bits()) * params.capacity() as u64;
    PAPER_AREA_MM2 * bits as f64 / PAPER_BITS
}

/// Full hardware-overhead report for a monitor deployment (the §VII-D
/// table).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverheadReport {
    /// Storage accounting.
    pub storage: StorageOverhead,
    /// Estimated area in mm².
    pub area_mm2: f64,
    /// Area relative to the paper's 4 MB LLC (the paper reports 0.32 %).
    pub area_relative_to_llc: f64,
}

impl OverheadReport {
    /// Computes the report for a filter protecting an LLC of `llc_bytes`.
    ///
    /// # Examples
    ///
    /// ```
    /// use auto_cuckoo::FilterParams;
    /// use pipomonitor::OverheadReport;
    ///
    /// let r = OverheadReport::for_filter(&FilterParams::paper_default(), 4 << 20);
    /// assert!((r.storage.total_kib - 15.0).abs() < 1e-9);
    /// assert!((r.storage.relative_to_llc * 100.0 - 0.37).abs() < 0.01);
    /// ```
    #[must_use]
    pub fn for_filter(params: &FilterParams, llc_bytes: u64) -> Self {
        let storage = StorageOverhead::for_filter(params, llc_bytes);
        let area_mm2 = area_estimate_mm2(params);
        // The paper's LLC area baseline: 0.013 mm² is 0.32% of the LLC, so
        // the LLC is ~4.06 mm²; scale with LLC capacity.
        let paper_llc_area = PAPER_AREA_MM2 / 0.0032;
        let llc_area = paper_llc_area * llc_bytes as f64 / (4 << 20) as f64;
        Self {
            storage,
            area_mm2,
            area_relative_to_llc: area_mm2 / llc_area,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_configuration_matches_published_numbers() {
        let r = OverheadReport::for_filter(&FilterParams::paper_default(), 4 << 20);
        assert_eq!(r.storage.entries, 8192);
        assert_eq!(r.storage.bits_per_entry, 15);
        assert!((r.storage.total_kib - 15.0).abs() < 1e-9);
        assert!((r.area_mm2 - 0.013).abs() < 1e-12);
        assert!((r.area_relative_to_llc - 0.0032).abs() < 1e-6);
    }

    #[test]
    fn area_scales_linearly_with_bits() {
        let half = FilterParams::builder().buckets(512).build().expect("valid");
        assert!((area_estimate_mm2(&half) - 0.013 / 2.0).abs() < 1e-12);
    }

    #[test]
    fn overhead_an_order_below_directory_extension() {
        // The paper's claim: an order of magnitude below prior stateful
        // approaches. A directory extension storing a 26-bit line tag plus a
        // 2-bit counter per LLC line would cost 65536 * 28 bits = 224 KiB;
        // the filter costs 15 KiB.
        let filter = OverheadReport::for_filter(&FilterParams::paper_default(), 4 << 20);
        let directory_bits = 65536.0 * 28.0;
        assert!(filter.storage.total_bits as f64 * 10.0 < directory_bits * 1.5);
    }
}
