//! Trace-replay harness: adversarial scenarios and recorded traces driven
//! through whole monitored systems, with oracle-checked detection results.
//!
//! Each cell replays one workload on core 0 of the paper's quad-core system
//! (cores 1–3 run benign SPEC-profile streams, so detection must work under
//! load) twice: once on the unprotected baseline and once under PiPoMonitor
//! wrapped in a [`CaptureProbe`], whose [`CaptureOracle`] counts every
//! line's true memory-fetch tally and attributes each capture as *exact*
//! (the line really was fetched more than `secThr` times) or
//! collision-driven (reported as false-positive captures).
//! Per scenario the figure reports:
//!
//! * **detection latency** — scenario-region memory fetches until the first
//!   capture lands inside the scenario's address region (capped at the
//!   region fetch count when nothing was captured, with `detected: false`);
//! * **overhead** — monitored vs. baseline makespan, in percent.
//!
//! Built-in scenario cells (the scenario library):
//!
//! * `occupancy_channel` — [`OccupancyChannelSource`], an over-associativity
//!   occupancy probe. Its repeating sweep *is* a Ping-Pong pattern, so the
//!   monitor must capture it (exact captures, short latency).
//! * `noisy_neighbor` — [`NoisyNeighborSource`], three tenants time-sliced
//!   onto one core: benign consolidation churn (captures here are the
//!   false-positive cost of the defense, not detections).
//! * `bursty` — [`BurstySource`], open-loop bursts over an LLC-scale random
//!   region separated by idle gaps.
//!
//! `--trace PATH` adds a cell replaying a recorded `pipo-trace` file — v1
//! text or v2 binary, sniffed by magic. The file is decoded once, at load,
//! and both of the cell's systems replay the decoded [`Trace`]. Its region
//! is the trace's own line-address span.
//!
//! Run: `cargo run --release -p pipo_bench --bin trace_replay -- \
//!       [instructions_per_core] [--json PATH] [--sequential | --threads N] \
//!       [--filter BACKEND] [--trace PATH]`

use std::ops::Range;

use cache_sim::{
    AccessSource, CoreId, Cycle, LineAddr, NullObserver, System, SystemConfig, TrafficObserver,
};
use pipo_attacks::OccupancyChannelSource;
use pipo_bench::args::exit_with_error;
use pipo_bench::{emit_json, run_cells, sweep_document, CaptureOracle, HarnessArgs, Input, Json};
use pipo_workloads::{benchmark, is_v2, BurstySource, NoisyNeighborSource, ProfileSource, Trace};
use pipomonitor::{MonitorConfig, PiPoMonitor};

const SEED: u64 = 2126;
/// Occupancy probe: LLC sets probed (each with `ways + 1` colliding lines).
const OCC_PROBE_SETS: u64 = 64;
/// Occupancy probe base line — far above every benign/tenant region, and a
/// multiple of the LLC set count so probed sets start at set 0.
const OCC_BASE_LINE: u64 = 48 << 36;
/// Noisy-neighbor tenants occupy synthetic cores 16.. (benign cores 0–3 own
/// regions 1–4, so tenants can never alias them).
const TENANT_BASE: usize = 16;
/// The noisy-neighbor tenants' profiles, one synthetic core each.
const TENANTS: [&str; 3] = ["mcf", "gcc", "libquantum"];
const TENANT_MAX_BURST: u64 = 32;
/// Bursty region: 2^16 lines (4 MiB — exactly LLC-scale) at a private base.
const BURSTY_BASE_LINE: u64 = 40 << 36;
const BURSTY_LINES: u64 = 1 << 16;
const BURSTY_MAX_BURST: u64 = 32;
const BURSTY_GAP_CYCLES: u64 = 4_000;

/// One replay workload: a built-in scenario or a loaded trace file.
enum Workload {
    Occupancy,
    NoisyNeighbor,
    Bursty,
    TraceFile {
        path: String,
        trace: Trace,
        format: &'static str,
    },
}

impl Workload {
    fn name(&self) -> &str {
        match self {
            Workload::Occupancy => "occupancy_channel",
            Workload::NoisyNeighbor => "noisy_neighbor",
            Workload::Bursty => "bursty",
            Workload::TraceFile { path, .. } => path,
        }
    }

    /// The workload's line-address region, for attributing captures and
    /// counting scenario fetches.
    fn region(&self, config: &SystemConfig) -> Range<u64> {
        match self {
            Workload::Occupancy => {
                let span = (config.l3.ways as u64 + 1) * config.l3.sets as u64;
                OCC_BASE_LINE..OCC_BASE_LINE + span
            }
            Workload::NoisyNeighbor => {
                let last = TENANT_BASE + TENANTS.len() - 1;
                ProfileSource::region(TENANT_BASE).start..ProfileSource::region(last).end
            }
            Workload::Bursty => BURSTY_BASE_LINE..BURSTY_BASE_LINE + BURSTY_LINES,
            Workload::TraceFile { trace, .. } => {
                let lines = trace.accesses().iter().map(|a| a.addr.line().0);
                let lo = lines.clone().min().unwrap_or(0);
                let hi = lines.max().unwrap_or(0);
                lo..hi + 1
            }
        }
    }

    /// A fresh, deterministic access source for core 0.
    fn source(&self, config: &SystemConfig) -> Box<dyn AccessSource + Send> {
        match self {
            Workload::Occupancy => Box::new(OccupancyChannelSource::new(
                OCC_BASE_LINE,
                config.l3.sets as u64,
                config.l3.ways as u64,
                OCC_PROBE_SETS,
                2,
            )),
            Workload::NoisyNeighbor => {
                let tenants = TENANTS.map(|name| benchmark(name).expect("known"));
                Box::new(NoisyNeighborSource::new(
                    &tenants,
                    TENANT_BASE,
                    TENANT_MAX_BURST,
                    SEED,
                ))
            }
            Workload::Bursty => Box::new(BurstySource::new(
                BURSTY_BASE_LINE,
                BURSTY_LINES,
                BURSTY_MAX_BURST,
                BURSTY_GAP_CYCLES,
                1,
                SEED,
            )),
            Workload::TraceFile { trace, .. } => Box::new(trace.replay()),
        }
    }
}

/// [`PiPoMonitor`] wrapped with a [`CaptureOracle`], which splits its
/// captures into exact and collision-driven, and with the scenario
/// region's accounting: its fetches, and when the first capture lands in it.
struct CaptureProbe {
    monitor: PiPoMonitor,
    oracle: CaptureOracle,
    region: Range<u64>,
    fetches: u64,
    region_fetches: u64,
    /// `region_fetches` value at the first in-region capture.
    first_region_capture: Option<u64>,
}

impl CaptureProbe {
    fn new(config: MonitorConfig, region: Range<u64>) -> Self {
        Self {
            oracle: CaptureOracle::new(config.filter.security_threshold()),
            monitor: PiPoMonitor::new(config).expect("valid monitor configuration"),
            region,
            fetches: 0,
            region_fetches: 0,
            first_region_capture: None,
        }
    }
}

impl TrafficObserver for CaptureProbe {
    fn on_memory_fetch(&mut self, line: LineAddr, now: Cycle) -> bool {
        self.fetches += 1;
        let in_region = self.region.contains(&line.0);
        self.region_fetches += u64::from(in_region);
        let captured = self.monitor.on_memory_fetch(line, now);
        self.oracle.record(line.0, captured);
        if captured && in_region && self.first_region_capture.is_none() {
            self.first_region_capture = Some(self.region_fetches);
        }
        captured
    }

    fn on_llc_eviction(&mut self, line: LineAddr, protected: bool, accessed: bool, now: Cycle) {
        self.monitor.on_llc_eviction(line, protected, accessed, now);
    }

    fn next_prefetch_due(&self) -> Option<Cycle> {
        self.monitor.next_prefetch_due()
    }

    fn drain_due_prefetches(&mut self, now: Cycle, out: &mut Vec<LineAddr>) {
        self.monitor.drain_due_prefetches(now, out);
    }
}

struct CellResult {
    baseline_cycles: u64,
    monitored_cycles: u64,
    instructions: u64,
    captures: u64,
    exact_captures: u64,
    fp_captures: u64,
    fetches: u64,
    region_fetches: u64,
    detection_latency: u64,
    detected: bool,
    prefetches: u64,
}

impl CellResult {
    fn overhead_percent(&self) -> f64 {
        if self.baseline_cycles == 0 {
            0.0
        } else {
            (self.monitored_cycles as f64 / self.baseline_cycles as f64 - 1.0) * 100.0
        }
    }
}

/// Core 0 replays the workload; cores 1–3 run benign SPEC profiles so both
/// halves of the comparison see realistic LLC contention.
fn assign_sources(system: &mut System<impl TrafficObserver>, workload: &Workload) {
    let config = SystemConfig::paper_default();
    system.set_source(CoreId(0), workload.source(&config));
    for (core, name) in ["gcc", "mcf", "libquantum"].iter().enumerate() {
        let profile = benchmark(name).expect("known benchmark");
        system.set_source(
            CoreId(core + 1),
            Box::new(ProfileSource::new(profile, core + 1, SEED)),
        );
    }
}

fn run_cell(workload: &Workload, monitor_config: MonitorConfig, instructions: u64) -> CellResult {
    let system_config = SystemConfig::paper_default();

    let mut baseline_system = System::new(system_config.clone(), NullObserver);
    assign_sources(&mut baseline_system, workload);
    let baseline = baseline_system.run(instructions);

    let probe = CaptureProbe::new(monitor_config, workload.region(&system_config));
    let mut monitored_system = System::new(system_config, probe);
    assign_sources(&mut monitored_system, workload);
    let monitored = monitored_system.run(instructions);

    let probe = monitored_system.observer();
    let stats = *probe.monitor.stats();
    CellResult {
        baseline_cycles: baseline.makespan(),
        monitored_cycles: monitored.makespan(),
        instructions: monitored.total_instructions(),
        captures: stats.captures,
        exact_captures: probe.oracle.exact_captures(),
        fp_captures: probe.oracle.collision_captures(),
        fetches: probe.fetches,
        region_fetches: probe.region_fetches,
        detection_latency: probe.first_region_capture.unwrap_or(probe.region_fetches),
        detected: probe.first_region_capture.is_some(),
        prefetches: stats.prefetches_scheduled,
    }
}

fn load_workloads(trace_path: Option<&str>) -> Vec<Workload> {
    let mut workloads = vec![
        Workload::Occupancy,
        Workload::NoisyNeighbor,
        Workload::Bursty,
    ];
    if let Some(path) = trace_path {
        let bytes = std::fs::read(path)
            .unwrap_or_else(|e| exit_with_error(2, format!("cannot read trace {path}: {e}")));
        let trace = Trace::from_bytes(&bytes)
            .unwrap_or_else(|e| exit_with_error(2, format!("cannot parse trace {path}: {e}")));
        let format = if is_v2(&bytes) { "v2" } else { "v1" };
        workloads.push(Workload::TraceFile {
            path: path.to_string(),
            trace,
            format,
        });
    }
    workloads
}

fn main() {
    let args = HarnessArgs::parse(&[Input::Scale(u64::MAX), Input::Filter, Input::Trace]);
    let instructions = args.instructions();
    let backend = args.filter_backend();
    let monitor_config = MonitorConfig::paper_default().with_backend(backend);
    let workloads = load_workloads(args.trace.as_deref());
    println!(
        "trace replay — {instructions} instructions per core, {} workloads, \
         {backend} backend",
        workloads.len()
    );

    let results = run_cells(args.mode, &workloads, |_, workload| {
        run_cell(workload, monitor_config, instructions)
    });

    println!(
        "\n{:>34} {:>10} {:>10} {:>9} {:>9} {:>9} {:>10} {:>9}",
        "scenario", "overhead%", "captures", "exact", "fp", "detected", "latency", "fetches"
    );
    for (workload, r) in workloads.iter().zip(&results) {
        println!(
            "{:>34} {:>10.3} {:>10} {:>9} {:>9} {:>9} {:>10} {:>9}",
            workload.name(),
            r.overhead_percent(),
            r.captures,
            r.exact_captures,
            r.fp_captures,
            r.detected,
            r.detection_latency,
            r.region_fetches,
        );
    }
    println!("\ndetection latency: scenario-region memory fetches until the first capture");
    println!("lands in the region (= region fetch count when nothing was captured).");
    println!(
        "exact/fp: oracle attribution — was the captured line truly re-fetched secThr+1 times?"
    );

    let cells = workloads
        .iter()
        .zip(&results)
        .map(|(workload, r)| {
            let cell = Json::object()
                .field("scenario", workload.name())
                .field("baseline_cycles", r.baseline_cycles)
                .field("monitored_cycles", r.monitored_cycles)
                .field("overhead_percent", r.overhead_percent())
                .field("instructions", r.instructions)
                .field("captures", r.captures)
                .field("exact_captures", r.exact_captures)
                .field("fp_captures", r.fp_captures)
                .field("fetches", r.fetches)
                .field("scenario_fetches", r.region_fetches)
                .field("detected", r.detected)
                .field("detection_latency_fetches", r.detection_latency)
                .field("prefetches_scheduled", r.prefetches);
            match workload {
                Workload::TraceFile { format, trace, .. } => cell
                    .field("kind", "trace")
                    .field("trace_format", *format)
                    .field("trace_accesses", trace.len()),
                _ => cell.field("kind", "builtin"),
            }
        })
        .collect();
    let meta = Json::object()
        .field("instructions_per_core", instructions)
        .field("filter_backend", backend.name())
        .field("seed", SEED)
        .field(
            "secthr",
            u64::from(monitor_config.filter.security_threshold()),
        )
        .field("trace", args.trace.as_deref().unwrap_or(""));
    emit_json(
        args.json.as_deref(),
        &sweep_document("trace_replay", args.mode, meta, cells),
    );
}
