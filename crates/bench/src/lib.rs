//! Shared harness code for the experiment binaries that regenerate every
//! table and figure of the PiPoMonitor paper. See `EXPERIMENTS.md` at the
//! repository root for the experiment index and how to regenerate each
//! figure (including sequential vs. parallel execution and JSON output).
//!
//! The harness layer is built around the [`sweep`] engine: each binary
//! declares its figure as a grid of independent cells and the engine
//! evaluates them sequentially or fanned across host threads, with
//! bit-identical per-cell results either way. [`args`] gives every binary the
//! same CLI surface and [`json`] the machine-readable output format.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod figures;
pub mod json;
pub mod oracle;
pub mod serve;
pub mod store;
pub mod sweep;

use auto_cuckoo::FilterParams;
use cache_sim::SimReport;
use pipomonitor::MonitorStats;

pub use args::{HarnessArgs, Input};
pub use json::{emit_json, sweep_document, write_atomic, Json};
pub use oracle::CaptureOracle;
pub use store::{mix_cell_key, ResultStore, StoreTelemetry, STORE_SCHEMA_VERSION};
pub use sweep::{run_cells, ExecMode, MixCell, Sweep, SweepStoreOutcome};

/// Default instructions simulated per core for performance experiments.
/// The paper simulates 1 B instructions per benchmark on Gem5; this
/// trace-driven simulator reproduces the same relative behaviour at a
/// laptop-friendly scale (override with a CLI argument in the binaries).
pub const DEFAULT_INSTRUCTIONS: u64 = 2_000_000;

/// Result of one monitored mix simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MixRun {
    /// Mix name.
    pub mix: &'static str,
    /// Baseline (unprotected) makespan in cycles.
    pub baseline_cycles: u64,
    /// Monitored makespan in cycles.
    pub monitored_cycles: u64,
    /// Total instructions retired in the monitored run.
    pub instructions: u64,
    /// Monitor captures (false positives on benign workloads).
    pub captures: u64,
    /// Prefetches issued.
    pub prefetches: u64,
    /// LLC hits on prefetched-but-untouched lines (prefetch benefit).
    pub prefetch_hits: u64,
}

impl MixRun {
    /// Normalised performance: baseline time / monitored time (higher is
    /// better; > 1.0 means the monitor *improved* performance).
    #[must_use]
    pub fn normalized_performance(&self) -> f64 {
        self.baseline_cycles as f64 / self.monitored_cycles as f64
    }

    /// False positives per million instructions (Fig. 8(b)'s metric).
    #[must_use]
    pub fn false_positives_per_mi(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.captures as f64 * 1.0e6 / self.instructions as f64
        }
    }

    /// All raw counters and derived metrics as a JSON object. This is also
    /// the payload schema of the persistent [`store`]:
    /// [`ResultStore::record`] writes it, and [`ResultStore::lookup`] reads
    /// it back bit-identically.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::object()
            .field("mix", self.mix)
            .field("baseline_cycles", self.baseline_cycles)
            .field("monitored_cycles", self.monitored_cycles)
            .field("instructions", self.instructions)
            .field("captures", self.captures)
            .field("prefetches", self.prefetches)
            .field("prefetch_hits", self.prefetch_hits)
            .field("normalized_performance", self.normalized_performance())
            .field("false_positives_per_mi", self.false_positives_per_mi())
    }
}

/// Assembles a [`MixRun`] from its baseline and monitored halves (the sweep
/// engine simulates them as separate work items so baselines can be
/// memoized).
pub(crate) fn mix_run_from_parts(
    mix: &'static str,
    baseline: &SimReport,
    monitored: &SimReport,
    stats: &MonitorStats,
) -> MixRun {
    MixRun {
        mix,
        baseline_cycles: baseline.makespan(),
        monitored_cycles: monitored.makespan(),
        instructions: monitored.total_instructions(),
        captures: stats.captures,
        prefetches: stats.prefetches_scheduled,
        prefetch_hits: monitored.stats.prefetch_hits,
    }
}

/// The five Auto-Cuckoo filter sizes evaluated in Fig. 8: `(l, b)` pairs.
#[must_use]
pub fn fig8_filter_sizes() -> Vec<(usize, usize)> {
    vec![(512, 8), (1024, 8), (1024, 16), (2048, 4), (2048, 8)]
}

/// Builds the paper's filter parameters with a custom geometry.
///
/// # Panics
///
/// Panics if the geometry is invalid (all Fig. 8 geometries are valid).
#[must_use]
pub fn filter_with_size(l: usize, b: usize) -> FilterParams {
    FilterParams::builder()
        .buckets(l)
        .entries_per_bucket(b)
        .build()
        .expect("figure-8 geometry is valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use cache_sim::{NullObserver, System};
    use pipo_workloads::all_mixes;
    use pipomonitor::{MonitorConfig, PiPoMonitor};

    #[test]
    fn mix_run_metrics() {
        let run = MixRun {
            mix: "mix1",
            baseline_cycles: 1010,
            monitored_cycles: 1000,
            instructions: 2_000_000,
            captures: 100,
            prefetches: 120,
            prefetch_hits: 60,
        };
        assert!((run.normalized_performance() - 1.01).abs() < 1e-12);
        assert!((run.false_positives_per_mi() - 50.0).abs() < 1e-12);
        let json = run.to_json().to_pretty();
        assert!(json.contains("\"mix\": \"mix1\""));
        assert!(json.contains("\"captures\": 100"));
        assert!(json.contains("\"false_positives_per_mi\": 50"));
    }

    #[test]
    fn fig8_sizes_match_paper() {
        let sizes = fig8_filter_sizes();
        assert_eq!(sizes.len(), 5);
        assert!(sizes.contains(&(1024, 8)));
        assert!(sizes.contains(&(2048, 4)));
    }

    #[test]
    fn short_mix_run_is_consistent() {
        let mix = all_mixes()[2]; // mix3: light, fast
        let run = MixCell::new("mix3", mix, MonitorConfig::paper_default(), 50_000, 1).run();
        assert_eq!(run.mix, "mix3");
        assert!(run.baseline_cycles > 0);
        assert!(run.monitored_cycles > 0);
        assert!(run.instructions >= 4 * 50_000);
        // Performance deltas stay well under 5% even at tiny scale.
        let np = run.normalized_performance();
        assert!((0.95..1.05).contains(&np), "normalized perf {np}");
    }

    #[test]
    fn monitored_systems_are_send() {
        // The sweep engine moves whole simulations onto worker threads; a
        // regression reintroducing a non-Send source or observer would break
        // parallel sweeps at a distance, so pin it here.
        fn assert_send<T: Send>() {}
        assert_send::<System<PiPoMonitor>>();
        assert_send::<System<NullObserver>>();
    }
}
