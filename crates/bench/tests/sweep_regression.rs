//! Bit-identity regression for the sweep engine (same spirit as
//! `tests/scheduler_regression.rs` at the workspace root).
//!
//! The engine promises that parallelism exists only *across* cells: per-cell
//! `MixRun` results must be bit-identical whether the grid runs sequentially,
//! fans across worker threads, or bypasses the engine entirely
//! ([`pipo_bench::MixCell::run`]: each cell simulated directly, with no
//! baseline memoization). A divergence means a cell shared mutable
//! state or dropped its deterministic seeding — simulated behaviour, not
//! speed — which would silently corrupt every figure of the paper.

use pipo_bench::{ExecMode, MixCell, MixRun, Sweep};
use pipo_workloads::all_mixes;
use pipomonitor::MonitorConfig;

const INSTRUCTIONS: u64 = 30_000;
const SEED: u64 = 42;

/// A small but heterogeneous grid: two monitor configurations over three
/// mixes (sharing baselines), plus one cell on a different seed (its own
/// baseline).
fn small_sweep() -> Sweep {
    let mixes = all_mixes();
    let mut sweep = Sweep::new();
    for delay in [50u64, 500] {
        let monitor = MonitorConfig::paper_default().with_prefetch_delay(delay);
        for mix in &mixes[..3] {
            sweep.push(MixCell::new(
                format!("delay{delay}/{}", mix.name),
                *mix,
                monitor,
                INSTRUCTIONS,
                SEED,
            ));
        }
    }
    sweep.push(MixCell::new(
        "reseeded/mix1",
        mixes[0],
        MonitorConfig::paper_default(),
        INSTRUCTIONS,
        SEED + 1,
    ));
    sweep
}

#[test]
fn parallel_results_are_bit_identical_to_sequential() {
    let sweep = small_sweep();
    let sequential = sweep.run(ExecMode::Sequential);
    let parallel = sweep.run(ExecMode::with_threads(4));
    assert_eq!(sequential.len(), sweep.cells().len());
    assert_eq!(sequential, parallel);
}

#[test]
fn engine_results_match_direct_unmemoized_runs() {
    let sweep = small_sweep();
    let engine = sweep.run(ExecMode::with_threads(3));
    let direct: Vec<MixRun> = sweep.cells().iter().map(MixCell::run).collect();
    assert_eq!(engine, direct);
}

#[test]
fn shared_baselines_do_not_leak_across_seeds() {
    let runs = small_sweep().run(ExecMode::Sequential);
    // Cells 0..3 and 3..6 share per-mix baselines across the two monitor
    // configurations; the reseeded cell must not reuse mix1's.
    assert_eq!(runs[0].baseline_cycles, runs[3].baseline_cycles);
    assert_eq!(runs[1].baseline_cycles, runs[4].baseline_cycles);
    assert_ne!(
        runs[0].baseline_cycles, runs[6].baseline_cycles,
        "a different seed must get its own baseline"
    );
}
