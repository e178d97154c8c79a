//! The trace-replay figure: built-in adversarial scenarios and an optional
//! recorded trace, each replayed on core 0 of the paper's quad-core system
//! beside three benign cores, once unprotected and once under PiPoMonitor
//! wrapped in a [`CaptureProbe`].

use std::ops::Range;

use cache_sim::{
    AccessSource, CoreId, Cycle, LineAddr, NullObserver, System, SystemConfig, TrafficObserver,
};
use pipo_attacks::OccupancyChannelSource;
use pipo_workloads::{benchmark, is_v2, BurstySource, NoisyNeighborSource, ProfileSource, Trace};
use pipomonitor::{MonitorConfig, PiPoMonitor};

use crate::args::exit_with_error;
use crate::{run_cells, sweep_document, CaptureOracle, HarnessArgs, Json};

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

/// Replays `workload` unprotected and monitored, and returns its table row
/// and its `--json` cell.
fn run_cell(
    workload: &Workload,
    monitor_config: MonitorConfig,
    instructions: u64,
) -> (String, Json) {
    let system_config = SystemConfig::paper_default();

    let mut baseline_system = System::new(system_config.clone(), NullObserver);
    assign_sources(&mut baseline_system, workload);
    let baseline = baseline_system.run(instructions);

    let probe = CaptureProbe::new(monitor_config, workload.region(&system_config));
    let mut monitored_system = System::new(system_config, probe);
    assign_sources(&mut monitored_system, workload);
    let monitored = monitored_system.run(instructions);

    let probe = monitored_system.observer();
    let stats = probe.monitor.stats();
    let (baseline_cycles, monitored_cycles) = (baseline.makespan(), monitored.makespan());
    let overhead_percent = if baseline_cycles == 0 {
        0.0
    } else {
        (monitored_cycles as f64 / baseline_cycles as f64 - 1.0) * 100.0
    };
    let (exact, fp) = (
        probe.oracle.exact_captures(),
        probe.oracle.collision_captures(),
    );
    let detected = probe.first_region_capture.is_some();
    let latency = probe.first_region_capture.unwrap_or(probe.region_fetches);
    let row = format!(
        "{:>34} {overhead_percent:>10.3} {:>10} {exact:>9} {fp:>9} {detected:>9} {latency:>10} \
         {:>9}\n",
        workload.name(),
        stats.captures,
        probe.region_fetches,
    );
    let cell = Json::object()
        .field("scenario", workload.name())
        .field("baseline_cycles", baseline_cycles)
        .field("monitored_cycles", monitored_cycles)
        .field("overhead_percent", overhead_percent)
        .field("instructions", monitored.total_instructions())
        .field("captures", stats.captures)
        .field("exact_captures", exact)
        .field("fp_captures", fp)
        .field("fetches", probe.fetches)
        .field("scenario_fetches", probe.region_fetches)
        .field("detected", detected)
        .field("detection_latency_fetches", latency)
        .field("prefetches_scheduled", stats.prefetches_scheduled);
    let cell = match workload {
        Workload::TraceFile { format, trace, .. } => cell
            .field("kind", "trace")
            .field("trace_format", *format)
            .field("trace_accesses", trace.len()),
        _ => cell.field("kind", "builtin"),
    };
    (row, cell)
}

/// The built-in scenarios, then the trace at `trace_path` when given. A
/// trace that cannot be read or parsed exits 2 with an `error:` line.
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

/// The trace-replay figure over the scale's instructions per core (default
/// 2 M): per workload, the monitor's overhead, its captures split by the
/// oracle into exact and collision-driven, and the scenario-region fetches
/// until the first capture lands in the region.
pub fn trace_replay(args: &HarnessArgs) -> (String, Json) {
    let instructions = args.instructions();
    let backend = args.filter_backend();
    let monitor_config = MonitorConfig::paper_default().with_backend(backend);
    let workloads = load_workloads(args.trace.as_deref());
    let rows = run_cells(args.mode, &workloads, |_, workload| {
        run_cell(workload, monitor_config, instructions)
    });
    let (rows, cells): (String, Vec<Json>) = rows.into_iter().unzip();
    let text = format!(
        "trace replay — {instructions} instructions per core, {} workloads, {backend} backend\n\n\
         {:>34} {:>10} {:>10} {:>9} {:>9} {:>9} {:>10} {:>9}\n{rows}\n\
         detection latency: scenario-region memory fetches until the first capture\n\
         lands in the region (= region fetch count when nothing was captured).\n\
         exact/fp: oracle attribution — was the captured line truly re-fetched secThr+1 times?\n",
        workloads.len(),
        "scenario",
        "overhead%",
        "captures",
        "exact",
        "fp",
        "detected",
        "latency",
        "fetches"
    );
    let meta = Json::object()
        .field("instructions_per_core", instructions)
        .field("filter_backend", backend.name())
        .field("seed", SEED)
        .field(
            "secthr",
            u64::from(monitor_config.filter.security_threshold()),
        )
        .field("trace", args.trace.as_deref().unwrap_or(""));
    (text, sweep_document("trace_replay", args.mode, meta, cells))
}
