//! The four benchmark workloads. Each one builds its inputs from the seed,
//! runs a counted reference op with every output check, then alternates
//! plain ops (end-to-end timings) and, in traced runs, timed ops (per-layer
//! spans), checking every op against the reference.

use std::collections::HashMap;
use std::path::PathBuf;
use std::time::Instant;

use cache_sim::SystemConfig;
use pipo_bench::{
    fig8_filter_sizes, filter_with_size, mix_cell_key, ExecMode, Json, MixCell, MixRun, Sweep,
};
use pipo_workloads::{all_mixes, benchmark, Mix};
use pipomonitor::MonitorConfig;

use crate::layers::{layer_metrics, median, percentile, store_replay, Metrics, TimedOp};
use crate::serve::{run_session, serve_options, SessionPlan};
use crate::host::Calibration;
use crate::sim::{
    check_run, elapsed_ns, run_all, table2_machine, MachineRun, MachineSpec, Probe, SourceSpec,
};

/// The reference op's findings.
pub struct Reference {
    /// Simulated accesses one op performs (the numerator of
    /// `sim_maccess_per_s`).
    pub accesses: u64,
    /// Simulated-quality metrics (`quality.*`).
    pub quality: Metrics,
    /// Human-readable context lines for the report.
    pub notes: Vec<String>,
    pub failures: Vec<String>,
}

/// One plain (untraced) op.
pub struct PlainSample {
    pub wall_ns: u64,
    pub setup_ns: u64,
    /// Host time the op's simulations took (the denominator of
    /// `sim_maccess_per_s`).
    pub sim_ns: u64,
    /// The part of `wall_ns` the host's speed sets: all of it, except on
    /// `serve_jobs`, whose session otherwise waits on socket timers.
    pub host_bound_ns: u64,
    /// The host's speed while the op ran (see [`PlainSample::calibrated`]).
    pub calibration: Calibration,
    /// Operations attempted and failed: one per op, or one per request
    /// for `serve_jobs`.
    pub attempted: u64,
    pub failed: u64,
    /// What failed, for the log.
    pub failures: Vec<String>,
}

/// An op's spans with the host's drift taken out, in ns of the calibration
/// reference host.
pub struct Calibrated {
    pub wall_ns: f64,
    pub setup_ns: f64,
    pub sim_ns: f64,
}

impl PlainSample {
    /// The op's spans, each host-bound span divided by the slowdown the
    /// host showed while the op ran.
    pub fn calibrated(&self) -> Calibrated {
        let slowdown = self.calibration.slowdown();
        let host_bound = self.host_bound_ns.min(self.wall_ns) as f64;
        Calibrated {
            wall_ns: self.wall_ns as f64 - host_bound + host_bound / slowdown,
            setup_ns: self.setup_ns as f64 / slowdown,
            sim_ns: self.sim_ns as f64 / slowdown,
        }
    }
}

/// One timed (traced) op.
pub struct TracedSample {
    pub wall_ns: u64,
    /// Wall time of the same work untraced, when the plain op is not that
    /// work (the grid workloads, whose plain op is `Sweep::run` or a
    /// server session).
    pub untraced_wall_ns: Option<u64>,
    pub layers: Metrics,
    pub failures: Vec<String>,
}

pub trait Workload {
    fn reference(&mut self) -> Reference;
    fn plain(&mut self) -> PlainSample;
    fn traced(&mut self) -> TracedSample;
    /// Workload-specific metrics accumulated over the plain ops. The serve
    /// layer's metrics are per-layer metrics of every workload: zero where
    /// the serve layer does not run.
    fn report(&self) -> Metrics {
        SERVE_LAYER
            .into_iter()
            .map(|name| (name.to_string(), 0.0))
            .collect()
    }
}

/// The serve layer's per-layer metrics (`ServeJobs::report` sets them).
const SERVE_LAYER: [&str; 10] = [
    "serve.requests",
    "serve.cells_hit",
    "serve.cells_missed",
    "cold_job_p50_ms",
    "warm_job_p50_ms",
    "warm_job_p99_ms",
    "serve.cold_job_wall_us",
    "serve.warm_job_wall_us",
    "serve.client_overhead_us",
    "serve.dashboard_p50_ms",
];

/// Every workload this benchmark can run. `BENCHMARK.json` lists the ones
/// measured by default; the others run by name (see `README.md`).
pub const NAMES: [&str; 4] = ["fig8_grid", "manycore_32c", "pingpong_attack", "serve_jobs"];

/// Builds a workload. `smoke` shrinks every input for the self-test.
pub fn build(name: &str, seed: u64, smoke: bool) -> Option<Box<dyn Workload>> {
    let scale = |n: u64| if smoke { (n / 16).max(1_000) } else { n };
    Some(match name {
        "fig8_grid" => Box::new(Fig8Grid::new(seed, scale(FIG8_INSTRUCTIONS))),
        "manycore_32c" => Box::new(Manycore::new(seed, scale(MANYCORE_INSTRUCTIONS))),
        "pingpong_attack" => Box::new(PingPong::new(seed, scale(PINGPONG_INSTRUCTIONS))),
        "serve_jobs" => Box::new(ServeJobs::new(
            seed,
            scale(SERVE_INSTRUCTIONS),
            if smoke { 5 } else { SERVE_WARM_REPEATS },
        )),
        _ => return None,
    })
}

/// Instructions per core of each workload's machines. `fig8_grid` runs at
/// a fifth of the figure's default (`pipo_bench::DEFAULT_INSTRUCTIONS`):
/// the time shares of generation, hierarchy, monitor and filter are the
/// same at both scales, but at the default a run holds only a few ops.
/// At this scale the LLC has barely begun to evict and the filter is not
/// yet full (see `README.md`).
const FIG8_INSTRUCTIONS: u64 = 400_000;
const MANYCORE_INSTRUCTIONS: u64 = 200_000;
const PINGPONG_INSTRUCTIONS: u64 = 1_500_000;
const SERVE_INSTRUCTIONS: u64 = 1_000_000;
/// Warm repeats of the job per `serve_jobs` session.
const SERVE_WARM_REPEATS: usize = 20;
/// Dashboard and stats reads per `serve_jobs` session.
const SERVE_READS: usize = 5;

fn mix_named(name: &str) -> Mix {
    all_mixes()
        .into_iter()
        .find(|m| m.name == name)
        .expect("Table III mix is modelled")
}

/// The executor of every simulation the benchmark times: the calling
/// thread. On a few shared vCPUs a parallel op waits for its slowest
/// thread, so its wall follows the host's load (two-threaded `Sweep::run`
/// medians spread past the benchmark's 0.25 bound), and one thread is what
/// the calibration chunks, run on the same pinned CPU, can calibrate.
const EXEC: ExecMode = ExecMode::Sequential;

fn host_threads() -> usize {
    EXEC.threads()
}

/// Checks every run of an op against its machine and the reference.
fn check_against(
    specs: &[MachineSpec],
    runs: &[MachineRun],
    reference: &[MachineRun],
    failures: &mut Vec<String>,
) {
    for (i, (spec, run)) in specs.iter().zip(runs).enumerate() {
        failures.extend(check_run(spec, run));
        if let Some(expected) = reference.get(i) {
            if run.outcome != expected.outcome {
                failures.push(format!(
                    "machine {i}: simulated statistics differ from the reference run"
                ));
            }
        }
    }
}

/// A grid of monitored mix cells, expanded into the machines that answer
/// it: the baselines, then one monitored machine per cell.
struct Grid {
    sweep: Sweep,
    machines: Vec<MachineSpec>,
    /// Machine index of each cell's baseline.
    baseline_of: Vec<usize>,
    baselines: usize,
}

/// How a grid's cells get their baselines.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Baselines {
    /// One per distinct `(mix, instructions, seed)`, as `Sweep::run` does.
    Shared,
    /// One per cell, as `pipo-serve`'s cold path (`run_mix_monitored_on`)
    /// does.
    PerCell,
}

fn mix_machine(mix: &Mix, config: SystemConfig, seed: u64, instructions: u64) -> MachineSpec {
    MachineSpec {
        config,
        sources: mix
            .benchmarks
            .iter()
            .enumerate()
            .map(|(core, &bench)| SourceSpec::Profile { bench, core, seed })
            .collect(),
        monitor: None,
        instructions_per_core: instructions,
        attack_region: None,
    }
}

/// The fields of a [`MixRun`] the grid reproduces from its own machines.
#[derive(Debug, Clone, PartialEq)]
struct CellResult {
    baseline_cycles: u64,
    monitored_cycles: u64,
    instructions: u64,
    captures: u64,
    prefetches: u64,
    prefetch_hits: u64,
}

impl CellResult {
    fn of(run: &MixRun) -> Self {
        Self {
            baseline_cycles: run.baseline_cycles,
            monitored_cycles: run.monitored_cycles,
            instructions: run.instructions,
            captures: run.captures,
            prefetches: run.prefetches,
            prefetch_hits: run.prefetch_hits,
        }
    }

    fn slowdown_pct(&self) -> f64 {
        slowdown_pct(self.baseline_cycles, self.monitored_cycles)
    }

    fn false_alarms_per_mi(&self) -> f64 {
        per_mi(self.captures, self.instructions)
    }
}

/// Monitored vs baseline makespan, in percent.
fn slowdown_pct(baseline: u64, monitored: u64) -> f64 {
    (monitored as f64 / baseline as f64 - 1.0) * 100.0
}

/// Captures per million instructions (the Fig. 8(b) definition: every
/// capture counts).
fn per_mi(captures: u64, instructions: u64) -> f64 {
    captures as f64 * 1e6 / instructions as f64
}

/// The `quality.*` metrics.
fn quality(slowdown_pct: f64, false_alarms_per_mi: f64, detection_latency: f64) -> Metrics {
    [
        ("quality.sim_slowdown_pct", slowdown_pct),
        ("quality.false_alarms_per_mi", false_alarms_per_mi),
        ("quality.detection_latency_fetches", detection_latency),
    ]
    .into_iter()
    .map(|(name, value)| (name.to_string(), value))
    .collect()
}

/// `quality.*` of one baseline/monitored pair; the detection latency comes
/// from the capture oracle when the monitored run had an attack region.
fn pair_quality(baseline: &MachineRun, monitored: &MachineRun) -> Metrics {
    let (b, m) = (&baseline.outcome, &monitored.outcome);
    let captures = m.monitor.map_or(0, |s| s.captures);
    let detection = monitored
        .spans
        .as_ref()
        .and_then(|s| s.oracle)
        .map_or(0, |v| {
            v.detection_latency_fetches.unwrap_or(v.region_fetches)
        });
    quality(
        slowdown_pct(b.makespan(), m.makespan()),
        per_mi(captures, m.total_instructions()),
        detection as f64,
    )
}

impl Grid {
    fn new(cells: Vec<MixCell>, baselines: Baselines) -> Self {
        let mut slots: HashMap<(&'static str, u64, u64, usize), usize> = HashMap::new();
        let mut machines = Vec::new();
        let mut baseline_of = Vec::new();
        for (i, cell) in cells.iter().enumerate() {
            let own = if baselines == Baselines::PerCell {
                i
            } else {
                0
            };
            let key = (cell.mix.name, cell.instructions, cell.seed, own);
            let slot = *slots.entry(key).or_insert_with(|| {
                machines.push(mix_machine(
                    &cell.mix,
                    cell.system.clone(),
                    cell.seed,
                    cell.instructions,
                ));
                machines.len() - 1
            });
            baseline_of.push(slot);
        }
        let baselines = machines.len();
        let mut sweep = Sweep::new();
        for cell in cells {
            let mut machine =
                mix_machine(&cell.mix, cell.system.clone(), cell.seed, cell.instructions);
            machine.monitor = Some(cell.monitor);
            machines.push(machine);
            sweep.push(cell);
        }
        Self {
            sweep,
            machines,
            baseline_of,
            baselines,
        }
    }

    fn cells(&self) -> &[MixCell] {
        self.sweep.cells()
    }

    fn results(&self, runs: &[MachineRun]) -> Vec<CellResult> {
        (0..self.cells().len())
            .map(|i| {
                let baseline = &runs[self.baseline_of[i]].outcome;
                let monitored = &runs[self.baselines + i].outcome;
                let stats = monitored.monitor.expect("monitored machine");
                CellResult {
                    baseline_cycles: baseline.makespan(),
                    monitored_cycles: monitored.makespan(),
                    instructions: monitored.total_instructions(),
                    captures: stats.captures,
                    prefetches: stats.prefetches_scheduled,
                    prefetch_hits: monitored.stats.prefetch_hits,
                }
            })
            .collect()
    }

    fn quality(results: &[CellResult]) -> Metrics {
        let mean =
            |f: fn(&CellResult) -> f64| results.iter().map(f).sum::<f64>() / results.len() as f64;
        quality(
            mean(CellResult::slowdown_pct),
            mean(CellResult::false_alarms_per_mi),
            0.0,
        )
    }

    /// One traced op: the grid's machines untraced, then behind the timing
    /// shims, on the same executor, so the tracing overhead compares the
    /// same work. Every run is checked against the reference, and `records`
    /// are replayed through the result store.
    fn traced(
        &self,
        reference: &[MachineRun],
        store_name: &str,
        records: &[(String, String)],
        gets_per_record: usize,
    ) -> TracedSample {
        let threads = host_threads();
        let (untraced, untraced_wall_ns) = run_all(&self.machines, Probe::Plain, threads);
        let (runs, wall_ns) = run_all(&self.machines, Probe::Timed, threads);
        let mut failures = Vec::new();
        check_against(&self.machines, &untraced, reference, &mut failures);
        check_against(&self.machines, &runs, reference, &mut failures);
        let (mut layers, replay_failures) = layer_metrics(&TimedOp {
            specs: &self.machines,
            runs: &runs,
            cells: self.cells().len(),
            threads,
            wall_ns,
        });
        failures.extend(replay_failures);
        let (store, store_failures) =
            store_replay(&store_file(store_name), records, gets_per_record);
        layers.extend(store);
        failures.extend(store_failures);
        TracedSample {
            wall_ns,
            untraced_wall_ns: Some(untraced_wall_ns),
            layers,
            failures,
        }
    }
}

fn sum_accesses(runs: &[MachineRun]) -> u64 {
    runs.iter().map(|r| r.outcome.accesses()).sum()
}

/// `fig8_grid`: the paper's Fig. 8, 10 mixes × 5 filter geometries through
/// `Sweep::run`, one sweep per mix.
struct Fig8Grid {
    grid: Grid,
    /// The grid's cells, one `Sweep` per mix, in grid order. Each mix's
    /// cells share one baseline, so the ten sweeps simulate the same 60
    /// systems as one sweep of the grid, with calibration chunks between.
    mix_sweeps: Vec<Sweep>,
    reference: Vec<MachineRun>,
    expected: Vec<CellResult>,
    /// The last plain op's runs, for the store replay.
    last_runs: Vec<MixRun>,
}

impl Fig8Grid {
    fn new(seed: u64, instructions: u64) -> Self {
        let mut cells = Vec::new();
        let mut mix_sweeps = Vec::new();
        for mix in all_mixes() {
            let mut sweep = Sweep::new();
            for (l, b) in fig8_filter_sizes() {
                let monitor = MonitorConfig::paper_default().with_filter(filter_with_size(l, b));
                let cell = || {
                    MixCell::new(
                        format!("{l}x{b}/{}", mix.name),
                        mix,
                        monitor,
                        instructions,
                        seed,
                    )
                };
                cells.push(cell());
                sweep.push(cell());
            }
            mix_sweeps.push(sweep);
        }
        Self {
            grid: Grid::new(cells, Baselines::Shared),
            mix_sweeps,
            reference: Vec::new(),
            expected: Vec::new(),
            last_runs: Vec::new(),
        }
    }
}

impl Workload for Fig8Grid {
    fn reference(&mut self) -> Reference {
        let (runs, _) = run_all(&self.grid.machines, Probe::Counted, host_threads());
        let mut failures = Vec::new();
        check_against(&self.grid.machines, &runs, &[], &mut failures);
        self.expected = self.grid.results(&runs);
        // The paper's Fig. 8 reports the 1024x8 geometry.
        let paper_cells: Vec<(&str, &CellResult)> = self
            .grid
            .cells()
            .iter()
            .zip(&self.expected)
            .filter_map(|(c, r)| c.label.strip_prefix("1024x8/").map(|mix| (mix, r)))
            .collect();
        let fp = |mix: &str| {
            paper_cells
                .iter()
                .find(|(m, _)| *m == mix)
                .map_or(0.0, |(_, r)| r.false_alarms_per_mi())
        };
        let mean_perf = paper_cells
            .iter()
            .map(|(_, r)| r.baseline_cycles as f64 / r.monitored_cycles as f64)
            .sum::<f64>()
            / paper_cells.len() as f64;
        let notes = vec![format!(
            "fig8 at 1024x8 (simulated model, unvalidated against hardware): \
             mix1 {:.1} FP/Mi, mix7 {:.1} FP/Mi, mean performance {:+.3}%; \
             paper: mix1 ~97, mix7 ~71 FP/Mi, mean +0.1%",
            fp("mix1"),
            fp("mix7"),
            (mean_perf - 1.0) * 100.0
        )];
        let accesses = sum_accesses(&runs);
        self.reference = runs;
        Reference {
            accesses,
            quality: Grid::quality(&self.expected),
            notes,
            failures,
        }
    }

    fn plain(&mut self) -> PlainSample {
        // `Sweep::run` constructs its machines internally; set-up is priced
        // by constructing the same machines here.
        let mut calibration = Calibration::default();
        calibration.sample();
        let setup_ns = self.grid.machines.iter().map(MachineSpec::build_ns).sum();
        let mut wall_ns = 0;
        let mut runs = Vec::new();
        for sweep in &self.mix_sweeps {
            calibration.sample();
            let start = Instant::now();
            runs.extend(sweep.run(EXEC));
            wall_ns += elapsed_ns(start);
        }
        calibration.sample();
        let mut failures = Vec::new();
        let got: Vec<CellResult> = runs.iter().map(CellResult::of).collect();
        if got != self.expected {
            failures.push("Sweep::run results differ from the reference machines".to_string());
        }
        self.last_runs = runs;
        PlainSample {
            wall_ns,
            setup_ns,
            sim_ns: wall_ns,
            host_bound_ns: wall_ns,
            calibration,
            attempted: 1,
            failed: u64::from(!failures.is_empty()),
            failures,
        }
    }

    /// Times the grid's machines behind the shims; `Sweep::run` builds its
    /// machines internally, so the shims cannot reach inside it.
    fn traced(&mut self) -> TracedSample {
        let records: Vec<(String, String)> = self
            .grid
            .cells()
            .iter()
            .zip(&self.last_runs)
            .map(|(cell, run)| (mix_cell_key(cell), run.to_json().to_pretty()))
            .collect();
        self.grid.traced(&self.reference, "fig8_grid", &records, 1)
    }
}

/// Result-store scratch file for a workload's replay, under the run
/// directory (created by `main`).
fn store_file(name: &str) -> PathBuf {
    crate::run_dir().join(format!("{name}-{}.log", std::process::id()))
}

/// A summary record of one machine's run, for the store replay of the
/// workloads that have no `MixRun` records.
fn summary_record(
    workload: &str,
    label: &str,
    spec: &MachineSpec,
    run: &MachineRun,
) -> (String, String) {
    let out = &run.outcome;
    let monitor = out.monitor.unwrap_or_default();
    let key = format!(
        "perfbench/{workload}/{label} cores={} instr={}",
        spec.config.cores, spec.instructions_per_core
    );
    let payload = Json::object()
        .field("makespan", out.makespan())
        .field("instructions", out.total_instructions())
        .field("accesses", out.accesses())
        .field("memory_fetches", out.memory_fetches())
        .field("llc_evictions", out.stats.llc_evictions)
        .field("captures", monitor.captures)
        .field("prefetches", monitor.prefetches_scheduled)
        .to_pretty();
    (key, payload)
}

/// Shared shape of the two single-machine-set workloads: the op runs
/// `machines` one after another on the calling thread.
struct Machines {
    name: &'static str,
    labels: Vec<&'static str>,
    machines: Vec<MachineSpec>,
    reference: Vec<MachineRun>,
}

impl Machines {
    fn plain(&self) -> PlainSample {
        let mut failures = Vec::new();
        let mut calibration = Calibration::default();
        let runs: Vec<MachineRun> = self
            .machines
            .iter()
            .map(|m| {
                calibration.sample();
                m.run(Probe::Plain)
            })
            .collect();
        calibration.sample();
        check_against(&self.machines, &runs, &self.reference, &mut failures);
        let setup_ns = runs.iter().map(|r| r.setup_ns).sum();
        let run_ns: u64 = runs.iter().map(|r| r.run_ns).sum();
        PlainSample {
            wall_ns: run_ns,
            setup_ns,
            sim_ns: run_ns,
            host_bound_ns: run_ns,
            calibration,
            attempted: 1,
            failed: u64::from(!failures.is_empty()),
            failures,
        }
    }

    fn traced(&self) -> TracedSample {
        let start = Instant::now();
        let runs: Vec<MachineRun> = self.machines.iter().map(|m| m.run(Probe::Timed)).collect();
        let wall_ns = elapsed_ns(start);
        let mut failures = Vec::new();
        check_against(&self.machines, &runs, &self.reference, &mut failures);
        let (mut layers, replay_failures) = layer_metrics(&TimedOp {
            specs: &self.machines,
            runs: &runs,
            cells: 1,
            threads: 1,
            wall_ns,
        });
        failures.extend(replay_failures);
        let records: Vec<(String, String)> = self
            .labels
            .iter()
            .zip(&self.machines)
            .zip(&runs)
            .map(|((label, spec), run)| summary_record(self.name, label, spec, run))
            .collect();
        let rounds = 50 / records.len().max(1);
        let (store, store_failures) = store_replay(&store_file(self.name), &records, rounds);
        layers.extend(store);
        failures.extend(store_failures);
        TracedSample {
            // The plain op's wall is the machines' run spans; compare like
            // with like.
            wall_ns: runs.iter().map(|r| r.run_ns).sum(),
            untraced_wall_ns: None,
            layers,
            failures,
        }
    }
}

/// `manycore_32c`: mix7 round-robin on 32 cores sharing the paper's 4 MB
/// LLC, one monitored `System::run`.
struct Manycore {
    machines: Machines,
    /// The unprotected machine, run once by the reference op for
    /// `quality.sim_slowdown_pct`.
    baseline: MachineSpec,
}

impl Manycore {
    fn new(seed: u64, instructions: u64) -> Self {
        let mix = mix_named("mix7");
        let baseline = MachineSpec {
            config: table2_machine(32),
            sources: (0..32)
                .map(|core| SourceSpec::Profile {
                    bench: mix.benchmarks[core % mix.benchmarks.len()],
                    core,
                    seed,
                })
                .collect(),
            monitor: None,
            instructions_per_core: instructions,
            attack_region: None,
        };
        let mut monitored = baseline.clone();
        monitored.monitor = Some(MonitorConfig::paper_default());
        Self {
            machines: Machines {
                name: "manycore_32c",
                labels: vec!["monitored"],
                machines: vec![monitored],
                reference: Vec::new(),
            },
            baseline,
        }
    }
}

impl Workload for Manycore {
    fn reference(&mut self) -> Reference {
        let monitored = self.machines.machines[0].run(Probe::Counted);
        let baseline = self.baseline.run(Probe::Counted);
        let mut failures = check_run(&self.machines.machines[0], &monitored);
        failures.extend(check_run(&self.baseline, &baseline));
        let quality = pair_quality(&baseline, &monitored);
        let out = &monitored.outcome;
        let notes = vec![format!(
            "manycore_32c: {} accesses, {} LLC misses, {} back-invalidations per op",
            out.accesses(),
            out.stats.per_core.iter().map(|c| c.l3.misses).sum::<u64>(),
            out.stats.back_invalidations
        )];
        let accesses = out.accesses();
        self.machines.reference = vec![monitored];
        Reference {
            accesses,
            quality,
            notes,
            failures,
        }
    }

    fn plain(&mut self) -> PlainSample {
        self.machines.plain()
    }

    fn traced(&mut self) -> TracedSample {
        self.machines.traced()
    }
}

/// Base line of the occupancy probe (far above every benign region, and a
/// multiple of the LLC set count), as in `trace_replay`.
const OCC_BASE_LINE: u64 = 48 << 36;
const OCC_PROBE_SETS: u64 = 64;

/// `pingpong_attack`: `trace_replay`'s occupancy cell — the occupancy probe
/// on core 0 beside gcc, mcf and libquantum — on the baseline and under
/// the monitor.
struct PingPong {
    machines: Machines,
}

impl PingPong {
    fn new(seed: u64, instructions: u64) -> Self {
        let config = SystemConfig::paper_default();
        let sets = config.l3.sets as u64;
        let ways = config.l3.ways as u64;
        let mut sources = vec![SourceSpec::Occupancy {
            base_line: OCC_BASE_LINE,
            llc_sets: sets,
            llc_ways: ways,
            probe_sets: OCC_PROBE_SETS,
            think: 2,
        }];
        for (i, name) in ["gcc", "mcf", "libquantum"].iter().enumerate() {
            sources.push(SourceSpec::Profile {
                bench: benchmark(name).expect("modelled benchmark"),
                core: i + 1,
                seed,
            });
        }
        let baseline = MachineSpec {
            config,
            sources,
            monitor: None,
            instructions_per_core: instructions,
            attack_region: None,
        };
        let mut monitored = baseline.clone();
        monitored.monitor = Some(MonitorConfig::paper_default());
        monitored.attack_region = Some(OCC_BASE_LINE..OCC_BASE_LINE + (ways + 1) * sets);
        Self {
            machines: Machines {
                name: "pingpong_attack",
                labels: vec!["baseline", "monitored"],
                machines: vec![baseline, monitored],
                reference: Vec::new(),
            },
        }
    }
}

impl Workload for PingPong {
    fn reference(&mut self) -> Reference {
        let runs: Vec<MachineRun> = self
            .machines
            .machines
            .iter()
            .map(|m| m.run(Probe::Counted))
            .collect();
        let mut failures = Vec::new();
        check_against(&self.machines.machines, &runs, &[], &mut failures);
        let verdict = runs[1]
            .spans
            .as_ref()
            .and_then(|s| s.oracle)
            .expect("the reference op runs the capture oracle");
        let quality = pair_quality(&runs[0], &runs[1]);
        let notes = vec![format!(
            "pingpong_attack oracle: {} exact and {} collision-driven captures, \
             {} attack-region fetches, detected: {}",
            verdict.exact_captures,
            verdict.collision_captures,
            verdict.region_fetches,
            verdict.detection_latency_fetches.is_some()
        )];
        let accesses = sum_accesses(&runs);
        self.machines.reference = runs;
        Reference {
            accesses,
            quality,
            notes,
            failures,
        }
    }

    fn plain(&mut self) -> PlainSample {
        self.machines.plain()
    }

    fn traced(&mut self) -> TracedSample {
        self.machines.traced()
    }
}

/// `serve_jobs`: an in-process server on a fresh store, driven by one
/// closed-loop client: a cold job of the five Fig. 8 geometries on mix1,
/// warm repeats of it, then dashboard and stats reads.
struct ServeJobs {
    plan: SessionPlan,
    /// The job's cells as the server's cold path simulates them (a baseline
    /// and a monitored system per cell), for the reference and the traced
    /// ops: the server builds its systems internally, out of the shims'
    /// reach.
    grid: Grid,
    reference: Vec<MachineRun>,
    sessions: u64,
    cold_ms: Vec<f64>,
    cold_server_us: Vec<f64>,
    warm_ms: Vec<f64>,
    warm_server_us: Vec<f64>,
    dashboard_ms: Vec<f64>,
    stats_ms: Vec<f64>,
    requests: u64,
    cells_hit: u64,
    cells_missed: u64,
    records: Vec<(String, String)>,
}

impl ServeJobs {
    fn new(seed: u64, instructions: u64, warm_repeats: usize) -> Self {
        let mix = mix_named("mix1");
        let mut specs = Vec::new();
        let mut cells = Vec::new();
        for (l, b) in fig8_filter_sizes() {
            let label = format!("{l}x{b}/{}", mix.name);
            specs.push(
                Json::object()
                    .field("mix", mix.name)
                    .field("label", label.as_str())
                    .field("l", l)
                    .field("b", b)
                    .field("instructions", instructions)
                    .field("seed", seed),
            );
            cells.push(MixCell::new(
                label,
                mix,
                MonitorConfig::paper_default().with_filter(filter_with_size(l, b)),
                instructions,
                seed,
            ));
        }
        Self {
            plan: SessionPlan {
                cells: specs,
                warm_repeats,
                reads: SERVE_READS,
            },
            grid: Grid::new(cells, Baselines::PerCell),
            reference: Vec::new(),
            sessions: 0,
            cold_ms: Vec::new(),
            cold_server_us: Vec::new(),
            warm_ms: Vec::new(),
            warm_server_us: Vec::new(),
            dashboard_ms: Vec::new(),
            stats_ms: Vec::new(),
            requests: 0,
            cells_hit: 0,
            cells_missed: 0,
            records: Vec::new(),
        }
    }
}

impl Workload for ServeJobs {
    fn reference(&mut self) -> Reference {
        let (runs, _) = run_all(&self.grid.machines, Probe::Counted, host_threads());
        let mut failures = Vec::new();
        check_against(&self.grid.machines, &runs, &[], &mut failures);
        let results = self.grid.results(&runs);
        let accesses = sum_accesses(&runs);
        self.reference = runs;
        Reference {
            accesses,
            quality: Grid::quality(&results),
            notes: vec![format!(
                "serve_jobs: closed loop, 1 client; {} cells per job, {} warm repeats, \
                 {} dashboard and stats reads per session",
                self.plan.cells.len(),
                self.plan.warm_repeats,
                self.plan.reads
            )],
            failures,
        }
    }

    fn plain(&mut self) -> PlainSample {
        let mut calibration = Calibration::default();
        let session = run_session(&store_file("serve_jobs"), &self.plan, &mut calibration);
        self.sessions += 1;
        self.cold_ms.push(session.cold_ms);
        self.cold_server_us.push(session.cold_server_us);
        self.warm_ms.extend(&session.warm_ms);
        self.warm_server_us.extend(&session.warm_server_us);
        self.dashboard_ms.extend(&session.dashboard_ms);
        self.stats_ms.extend(&session.stats_ms);
        self.requests += session.requests;
        self.cells_hit += session.cells_hit;
        self.cells_missed += session.cells_missed;
        let mut failures = session.failures;
        if session.records.len() != self.plan.cells.len() {
            failures.push(format!(
                "the store holds {} records after the session, expected {}",
                session.records.len(),
                self.plan.cells.len()
            ));
        }
        self.records = session.records;
        // Each failed request is a failed op; a session check that fails
        // with every request answered still fails one.
        let failed = session.failed_requests.max(u64::from(!failures.is_empty()));
        PlainSample {
            wall_ns: session.wall_ns,
            setup_ns: session.setup_ns,
            // The server's own wall for the cold job: its simulations plus
            // the store write-back, without the socket round trips.
            sim_ns: (session.cold_server_us * 1e3) as u64,
            host_bound_ns: (session.cold_ms * 1e6) as u64,
            calibration,
            attempted: session.requests,
            failed,
            failures,
        }
    }

    fn traced(&mut self) -> TracedSample {
        let mut sample = self.grid.traced(
            &self.reference,
            "serve_jobs-replay",
            &self.records,
            self.plan.warm_repeats,
        );
        // The cold job runs on the server's worker pool, not on the
        // benchmark's executor.
        sample
            .layers
            .insert("sweep.threads".into(), serve_options().workers as f64);
        sample
    }

    fn report(&self) -> Metrics {
        let mut m = Metrics::new();
        let warm_client_us: Vec<f64> = self.warm_ms.iter().map(|ms| ms * 1e3).collect();
        let overhead: Vec<f64> = warm_client_us
            .iter()
            .zip(&self.warm_server_us)
            .map(|(client, server)| client - server)
            .collect();
        m.insert("warm_job_p50_ms".into(), median(&self.warm_ms));
        m.insert("warm_job_p99_ms".into(), percentile(&self.warm_ms, 99.0));
        m.insert("warm_job_samples".into(), self.warm_ms.len() as f64);
        m.insert("cold_job_p50_ms".into(), median(&self.cold_ms));
        m.insert("cold_job_samples".into(), self.cold_ms.len() as f64);
        m.insert(
            "serve.warm_job_wall_us".into(),
            median(&self.warm_server_us),
        );
        m.insert(
            "serve.cold_job_wall_us".into(),
            median(&self.cold_server_us),
        );
        m.insert("serve.client_overhead_us".into(), median(&overhead));
        m.insert("serve.dashboard_p50_ms".into(), median(&self.dashboard_ms));
        m.insert("serve.stats_p50_ms".into(), median(&self.stats_ms));
        let sessions = self.sessions.max(1) as f64;
        m.insert("serve.sessions".into(), self.sessions as f64);
        m.insert("serve.requests".into(), self.requests as f64 / sessions);
        m.insert("serve.cells_hit".into(), self.cells_hit as f64 / sessions);
        m.insert(
            "serve.cells_missed".into(),
            self.cells_missed as f64 / sessions,
        );
        m
    }
}
