//! The unified sweep engine behind every figure harness.
//!
//! Each figure and table of the paper is regenerated by evaluating a grid of
//! independent *cells* — a cell is one self-contained experiment (a system
//! configuration + monitor configuration + workload + seed, or a filter
//! microbenchmark, or one attack run). Cells never share mutable state, so
//! the grid is embarrassingly parallel at the harness level.
//!
//! Two layers:
//!
//! * `run_cells` — the generic executor: runs any slice of cells either
//!   sequentially or fanned across host threads (`std::thread::scope` plus an
//!   atomic work queue). Results always come back in cell order and each
//!   cell's result is bit-identical between the two modes, because a cell
//!   constructs every piece of simulator state it touches.
//! * [`Sweep`] over [`MixCell`] — the declarative layer for `System::run`
//!   mix replays (Fig. 8, §VII-C sensitivity, replacement ablation, and
//!   every `pipo-serve` job). It memoizes baseline (unprotected) runs keyed
//!   on `(system config, mix, instructions, seed)`: Fig. 8 evaluates five
//!   filter geometries against the same ten baselines, so memoization cuts
//!   the baseline work 5×.
//!
//! Parallelism is only ever *across* cells, never inside a `System` — the
//! simulated schedule of every cell is exactly the one [`MixCell::run`]
//! produces, which `crates/bench/tests/sweep_regression.rs` pins.

use std::collections::HashMap;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use cache_sim::{CoreId, NullObserver, SimReport, System, SystemConfig, TrafficObserver};
use pipo_workloads::{Mix, ProfileSource};
use pipomonitor::{MonitorConfig, MonitorStats, PiPoMonitor};

use crate::store::{baseline_cell_key, ResultStore};
use crate::{mix_run_from_parts, MixRun};

/// How a sweep executes its cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// One cell at a time, on the calling thread (the pre-engine behaviour).
    Sequential,
    /// Cells fanned across this many worker threads via a work queue.
    Parallel(NonZeroUsize),
}

impl ExecMode {
    /// Parallel across all host cores, or sequential on a single-core host.
    #[must_use]
    pub fn host_default() -> Self {
        match std::thread::available_parallelism() {
            Ok(n) if n.get() > 1 => Self::Parallel(n),
            _ => Self::Sequential,
        }
    }

    /// Parallel with an explicit thread count (`<= 1` means sequential).
    #[must_use]
    pub fn with_threads(threads: usize) -> Self {
        match NonZeroUsize::new(threads) {
            Some(n) if n.get() > 1 => Self::Parallel(n),
            _ => Self::Sequential,
        }
    }

    /// Number of worker threads this mode uses.
    #[must_use]
    pub fn threads(&self) -> usize {
        match self {
            Self::Sequential => 1,
            Self::Parallel(n) => n.get(),
        }
    }

    /// `"sequential"` or `"parallel"`, for reports and JSON output.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Self::Sequential => "sequential",
            Self::Parallel(_) => "parallel",
        }
    }
}

/// Runs every cell through `run` and returns the results in cell order.
///
/// `run` receives `(cell index, cell)` and must be a pure function of them:
/// it is invoked exactly once per cell, from an unspecified thread in
/// [`ExecMode::Parallel`]. Execution order is unspecified in parallel mode;
/// result order is always cell order, so output built from the returned
/// `Vec` is identical in both modes.
///
/// # Panics
///
/// Propagates a panic from any cell (the scoped worker threads join first).
pub(crate) fn run_cells<C, R, F>(mode: ExecMode, cells: &[C], run: F) -> Vec<R>
where
    C: Sync,
    R: Send,
    F: Fn(usize, &C) -> R + Sync,
{
    match mode {
        ExecMode::Sequential => cells.iter().enumerate().map(|(i, c)| run(i, c)).collect(),
        ExecMode::Parallel(threads) => {
            let workers = threads.get().min(cells.len());
            let next = AtomicUsize::new(0);
            let slots: Vec<Mutex<Option<R>>> = (0..cells.len()).map(|_| Mutex::new(None)).collect();
            std::thread::scope(|scope| {
                for _ in 0..workers {
                    scope.spawn(|| loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(cell) = cells.get(i) else { break };
                        let result = run(i, cell);
                        *slots[i].lock().expect("result slot not poisoned") = Some(result);
                    });
                }
            });
            slots
                .into_iter()
                .map(|slot| {
                    slot.into_inner()
                        .expect("result slot not poisoned")
                        .expect("every cell ran")
                })
                .collect()
        }
    }
}

/// One monitored mix replay: the unit of work of the `System::run` figures.
///
/// The seed is part of the cell, so per-cell results are deterministic
/// regardless of which worker thread evaluates the cell or in what order.
#[derive(Debug, Clone)]
pub struct MixCell {
    /// Human-readable label carried into reports (e.g. `"1024x8/mix3"`).
    pub label: String,
    /// Simulated machine configuration.
    pub system: SystemConfig,
    /// PiPoMonitor configuration for the protected run.
    pub monitor: MonitorConfig,
    /// Workload mix replayed on both the baseline and the protected system.
    pub mix: Mix,
    /// Instructions simulated per core.
    pub instructions: u64,
    /// Workload seed shared by the baseline and protected runs.
    pub seed: u64,
}

impl MixCell {
    /// A cell on the paper's default system configuration.
    #[must_use]
    pub fn new(
        label: impl Into<String>,
        mix: Mix,
        monitor: MonitorConfig,
        instructions: u64,
        seed: u64,
    ) -> Self {
        Self {
            label: label.into(),
            system: SystemConfig::paper_default(),
            monitor,
            mix,
            instructions,
            seed,
        }
    }

    /// Replaces the system configuration (used by the replacement ablation).
    #[must_use]
    pub fn on_system(mut self, system: SystemConfig) -> Self {
        self.system = system;
        self
    }

    /// Runs this cell directly: its baseline and its monitored simulation,
    /// back to back on the calling thread, with no memoization and no
    /// store. This is the reference [`Sweep`] is pinned against
    /// (`crates/bench/tests/sweep_regression.rs`, `tests/figure_shapes.rs`).
    ///
    /// # Panics
    ///
    /// Panics if the monitor configuration holds invalid filter parameters.
    #[must_use]
    pub fn run(&self) -> MixRun {
        let baseline = self.run_baseline();
        let (monitored, stats) = self.run_monitored();
        mix_run_from_parts(self.mix.name, &baseline, &monitored, &stats)
    }

    /// The cell's mix on its unprotected system.
    fn run_baseline(&self) -> SimReport {
        self.system_with(NullObserver).run(self.instructions)
    }

    /// The cell's mix under PiPoMonitor: the report and the monitor's
    /// statistics.
    fn run_monitored(&self) -> (SimReport, MonitorStats) {
        let monitor = PiPoMonitor::new(self.monitor).expect("valid monitor configuration");
        let mut system = self.system_with(monitor);
        let report = system.run(self.instructions);
        (report, *system.observer().stats())
    }

    /// A fresh system with one mix benchmark per core.
    fn system_with<O: TrafficObserver>(&self, observer: O) -> System<O> {
        let mut system = System::new(self.system.clone(), observer);
        for (core, bench) in self.mix.benchmarks.iter().enumerate() {
            system.set_source(
                CoreId(core),
                Box::new(ProfileSource::new(bench, core, self.seed)),
            );
        }
        system
    }
}

/// A declarative grid of [`MixCell`]s evaluated together.
#[derive(Debug, Clone, Default)]
pub struct Sweep {
    cells: Vec<MixCell>,
}

impl Sweep {
    /// An empty sweep.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a cell.
    pub fn push(&mut self, cell: MixCell) {
        self.cells.push(cell);
    }

    /// The cells, in insertion order.
    #[must_use]
    pub fn cells(&self) -> &[MixCell] {
        &self.cells
    }

    /// Evaluates every cell and returns one [`MixRun`] per cell, in cell
    /// order ([`run_streaming`](Self::run_streaming) with no store and no
    /// hook).
    #[must_use]
    pub fn run(&self, mode: ExecMode) -> Vec<MixRun> {
        self.run_streaming(mode, None, |_, _| {}).0
    }

    /// Evaluates every cell, calling `on_cell(index, run)` exactly once per
    /// cell as soon as that cell's [`MixRun`] is final, and returns the runs
    /// in cell order.
    ///
    /// A cell that `store` answers ([`ResultStore::lookup`]) is a *warm*
    /// cell: its run is decoded straight from the store, no simulation
    /// runs, and its hook fires before any simulation starts. The
    /// remaining *cold* cells simulate. Their baseline (unprotected) runs
    /// are memoized on the canonical baseline key ([`baseline_cell_key`]:
    /// system config, mix, instructions, seed), so cells differing only in
    /// monitor configuration share one baseline simulation. Baseline and
    /// monitored simulations go into one work queue across `mode`'s worker
    /// threads; a cold cell's hook fires when the later of its two halves
    /// finishes, so in parallel mode cells complete in any order. Hooks
    /// never run concurrently with each other.
    ///
    /// Cold results are written back into `store`
    /// ([`ResultStore::record`]), so the next invocation (or a `pipo-serve`
    /// instance reading the same store) answers them warm. The caller is
    /// responsible for [`ResultStore::flush`]. Per-cell results are
    /// bit-identical with and without a store, in either mode, and to
    /// [`MixCell::run`].
    ///
    /// # Panics
    ///
    /// Propagates a panic from any simulation once the other workers have
    /// drained the queue; hooks have fired for every cell that completed.
    pub fn run_streaming(
        &self,
        mode: ExecMode,
        mut store: Option<&mut ResultStore>,
        mut on_cell: impl FnMut(usize, &MixRun) + Send,
    ) -> (Vec<MixRun>, SweepStoreOutcome) {
        // Warm lookups first: a hit skips both halves of the cell's work.
        let mut results: Vec<Option<MixRun>> = self
            .cells
            .iter()
            .map(|cell| store.as_deref()?.lookup(cell))
            .collect();
        for (i, run) in results.iter().enumerate() {
            if let Some(run) = run {
                on_cell(i, run);
            }
        }

        // Dedup the cold cells' baselines on the canonical baseline key;
        // remember each baseline slot's cold cells.
        let cold: Vec<usize> = (0..self.cells.len())
            .filter(|&i| results[i].is_none())
            .collect();
        let mut baseline_slots: HashMap<String, usize> = HashMap::new();
        let mut baseline_cells: Vec<&MixCell> = Vec::new();
        let mut baseline_of_cold = Vec::with_capacity(cold.len());
        let mut cold_of_baseline: Vec<Vec<usize>> = Vec::new();
        for (pos, &i) in cold.iter().enumerate() {
            let cell = &self.cells[i];
            let key = baseline_cell_key(&cell.system, &cell.mix, cell.instructions, cell.seed);
            let slot = *baseline_slots.entry(key).or_insert_with(|| {
                baseline_cells.push(cell);
                cold_of_baseline.push(Vec::new());
                baseline_cells.len() - 1
            });
            baseline_of_cold.push(slot);
            cold_of_baseline[slot].push(pos);
        }
        let outcome = SweepStoreOutcome {
            hits: self.cells.len() - cold.len(),
            misses: cold.len(),
            simulated_systems: baseline_cells.len() + cold.len(),
        };

        enum Work<'a> {
            Baseline(usize, &'a MixCell),
            Monitored(usize, &'a MixCell),
        }
        let work: Vec<Work> = baseline_cells
            .iter()
            .enumerate()
            .map(|(slot, cell)| Work::Baseline(slot, cell))
            .chain(
                cold.iter()
                    .enumerate()
                    .map(|(pos, &i)| Work::Monitored(pos, &self.cells[i])),
            )
            .collect();
        let completion = Mutex::new(Completion {
            cells: &self.cells,
            cold: &cold,
            baseline_of_cold: &baseline_of_cold,
            baselines: vec![None; baseline_cells.len()],
            monitored: vec![None; cold.len()],
            computed: vec![None; cold.len()],
            on_cell: &mut on_cell,
        });
        run_cells(mode, &work, |_, work| {
            // Simulate outside the lock; only the bookkeeping is serialized.
            match work {
                Work::Baseline(slot, cell) => {
                    let report = cell.run_baseline();
                    let mut done = completion.lock().expect("sweep state not poisoned");
                    done.baselines[*slot] = Some(report);
                    for &pos in &cold_of_baseline[*slot] {
                        done.finish(pos);
                    }
                }
                Work::Monitored(pos, cell) => {
                    let half = cell.run_monitored();
                    let mut done = completion.lock().expect("sweep state not poisoned");
                    done.monitored[*pos] = Some(half);
                    done.finish(*pos);
                }
            }
        });

        let computed = completion
            .into_inner()
            .expect("sweep state not poisoned")
            .computed;
        for (&i, run) in cold.iter().zip(computed) {
            let run = run.expect("every cold cell completed");
            if let Some(store) = store.as_deref_mut() {
                store.record(&self.cells[i], &run);
            }
            results[i] = Some(run);
        }
        let runs = results
            .into_iter()
            .map(|run| run.expect("every cell is either warm or computed"))
            .collect();
        (runs, outcome)
    }
}

/// Cold-cell bookkeeping shared by a sweep's workers. A cold cell's run is
/// final once both its monitored simulation and its (possibly shared)
/// baseline have finished, whichever finishes last.
struct Completion<'a, F> {
    cells: &'a [MixCell],
    /// Cell index of each cold position.
    cold: &'a [usize],
    /// Baseline slot of each cold position.
    baseline_of_cold: &'a [usize],
    baselines: Vec<Option<SimReport>>,
    /// Monitored halves waiting for their baseline, by cold position.
    monitored: Vec<Option<(SimReport, MonitorStats)>>,
    /// Final runs, by cold position.
    computed: Vec<Option<MixRun>>,
    on_cell: &'a mut F,
}

impl<F: FnMut(usize, &MixRun)> Completion<'_, F> {
    /// Finalizes cold position `pos` if both of its halves are in.
    fn finish(&mut self, pos: usize) {
        let Some(baseline) = &self.baselines[self.baseline_of_cold[pos]] else {
            return;
        };
        let Some((report, stats)) = self.monitored[pos].take() else {
            return;
        };
        let i = self.cold[pos];
        let run = mix_run_from_parts(self.cells[i].mix.name, baseline, &report, &stats);
        (self.on_cell)(i, &run);
        self.computed[pos] = Some(run);
    }
}

/// How many of a sweep's cells a [`ResultStore`] answered vs simulated
/// (all-miss when no store was given).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepStoreOutcome {
    /// Cells answered from the persistent store without simulating.
    pub hits: usize,
    /// Cells that had to be simulated (and were written back).
    pub misses: usize,
    /// Systems simulated for the missed cells: one monitored run per miss
    /// plus one baseline per distinct baseline key among them.
    pub simulated_systems: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipo_workloads::all_mixes;

    #[test]
    fn exec_mode_threads_and_names() {
        assert_eq!(ExecMode::Sequential.threads(), 1);
        assert_eq!(ExecMode::Sequential.name(), "sequential");
        assert_eq!(ExecMode::with_threads(0), ExecMode::Sequential);
        assert_eq!(ExecMode::with_threads(1), ExecMode::Sequential);
        let par = ExecMode::with_threads(3);
        assert_eq!(par.threads(), 3);
        assert_eq!(par.name(), "parallel");
        assert!(ExecMode::host_default().threads() >= 1);
    }

    #[test]
    fn run_cells_preserves_cell_order() {
        let cells: Vec<u64> = (0..37).collect();
        let square = |_: usize, c: &u64| c * c;
        let seq = run_cells(ExecMode::Sequential, &cells, square);
        let par = run_cells(ExecMode::with_threads(4), &cells, square);
        assert_eq!(seq, par);
        assert_eq!(seq[6], 36);
    }

    #[test]
    fn run_cells_with_more_threads_than_cells() {
        let cells = [10u64, 20];
        let out = run_cells(ExecMode::with_threads(16), &cells, |i, c| c + i as u64);
        assert_eq!(out, vec![10, 21]);
    }

    #[test]
    fn run_cells_on_empty_grid() {
        let cells: [u64; 0] = [];
        let out = run_cells(ExecMode::with_threads(4), &cells, |_, c| *c);
        assert!(out.is_empty());
    }

    #[test]
    fn run_cells_runs_each_cell_exactly_once() {
        let counters: Vec<AtomicUsize> = (0..25).map(|_| AtomicUsize::new(0)).collect();
        let _ = run_cells(ExecMode::with_threads(5), &counters, |_, c| {
            c.fetch_add(1, Ordering::Relaxed)
        });
        for c in &counters {
            assert_eq!(c.load(Ordering::Relaxed), 1);
        }
    }

    #[test]
    fn sweep_memoizes_baselines_across_monitor_configs() {
        let mix = all_mixes()[2]; // mix3: light, fast
        let mut sweep = Sweep::new();
        for delay in [50, 100] {
            sweep.push(MixCell::new(
                format!("delay{delay}"),
                mix,
                MonitorConfig::paper_default().with_prefetch_delay(delay),
                20_000,
                1,
            ));
        }
        // Two cells, one shared baseline: identical baseline cycles, and both
        // match a direct unshared run.
        let runs = sweep.run(ExecMode::Sequential);
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[0].baseline_cycles, runs[1].baseline_cycles);
        let direct = MixCell::new("direct", mix, MonitorConfig::paper_default(), 20_000, 1).run();
        assert_eq!(runs[0].baseline_cycles, direct.baseline_cycles);
        assert_eq!(runs[0].monitored_cycles, direct.monitored_cycles);
    }

    #[test]
    fn hook_fires_once_per_cell_with_the_returned_run() {
        let mixes = all_mixes();
        let mut sweep = Sweep::new();
        // mix3 twice (one shared baseline) plus mix6 (its own baseline).
        for (mix, delay) in [(mixes[2], 50), (mixes[2], 100), (mixes[5], 50)] {
            sweep.push(MixCell::new(
                format!("{}/delay{delay}", mix.name),
                mix,
                MonitorConfig::paper_default().with_prefetch_delay(delay),
                20_000,
                1,
            ));
        }
        for mode in [ExecMode::Sequential, ExecMode::with_threads(2)] {
            let mut seen: Vec<Option<MixRun>> = vec![None; sweep.cells().len()];
            let (runs, outcome) = sweep.run_streaming(mode, None, |i, run| {
                assert!(seen[i].is_none(), "cell {i} completed twice");
                seen[i] = Some(run.clone());
            });
            let seen: Vec<MixRun> = seen
                .into_iter()
                .map(|run| run.expect("hook fired for every cell"))
                .collect();
            assert_eq!(seen, runs, "{mode:?}");
            assert_eq!(runs, sweep.run(ExecMode::Sequential), "{mode:?}");
            assert_eq!((outcome.hits, outcome.misses), (0, 3));
            assert_eq!(outcome.simulated_systems, 5, "two baselines + three cells");
        }
    }

    #[test]
    fn sweep_answers_warm_cells_from_the_store() {
        let path =
            std::env::temp_dir().join(format!("pipo_sweep_store_{}.log", std::process::id()));
        std::fs::remove_file(&path).ok();
        let mix = all_mixes()[2]; // mix3: light, fast
        let mut sweep = Sweep::new();
        for delay in [50, 100] {
            sweep.push(MixCell::new(
                format!("delay{delay}"),
                mix,
                MonitorConfig::paper_default().with_prefetch_delay(delay),
                20_000,
                1,
            ));
        }

        let mut store = ResultStore::open(&path).expect("open fresh store");
        let (cold, outcome) =
            sweep.run_streaming(ExecMode::Sequential, Some(&mut store), |_, _| {});
        assert_eq!((outcome.hits, outcome.misses), (0, 2));
        store.flush().expect("flush");

        // A fresh process over the same store answers everything warm, and
        // the decoded runs are identical to the computed ones. A third cell
        // forces a mixed warm/cold sweep.
        let mut store = ResultStore::open(&path).expect("reopen store");
        let (warm, outcome) =
            sweep.run_streaming(ExecMode::Sequential, Some(&mut store), |_, _| {});
        assert_eq!((outcome.hits, outcome.misses), (2, 0));
        assert_eq!(outcome.simulated_systems, 0);
        assert_eq!(warm, cold);
        assert_eq!(
            warm,
            sweep.run(ExecMode::Sequential),
            "store must not change results"
        );

        let mut sweep3 = sweep.clone();
        sweep3.push(MixCell::new(
            "delay200",
            mix,
            MonitorConfig::paper_default().with_prefetch_delay(200),
            20_000,
            1,
        ));
        let (mixed, outcome) =
            sweep3.run_streaming(ExecMode::with_threads(2), Some(&mut store), |_, _| {});
        assert_eq!((outcome.hits, outcome.misses), (2, 1));
        assert_eq!(&mixed[..2], &warm[..]);
        std::fs::remove_file(&path).ok();
    }
}
