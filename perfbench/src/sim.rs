//! Simulated machines: how the benchmark builds them, runs them plain or
//! behind timing shims, and checks what they report.
//!
//! Every machine is described by a [`MachineSpec`] and built fresh for each
//! run, so simulated caches always start empty. A run happens in one of
//! three [`Probe`] modes:
//!
//! * `Plain` — the repository's own types and nothing else; end-to-end
//!   timings come only from these runs.
//! * `Counted` — counting shims around every `AccessSource` and the
//!   observer, plus an exact per-line capture oracle. Untimed; this is the
//!   reference run each benchmark process checks every other run against.
//! * `Timed` — the counting shims also time `AccessSource::refill` and the
//!   `TrafficObserver` calls, and the observer shim records the demand-fetch
//!   stream so the pattern store can be priced by replay.

use std::collections::HashMap;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use auto_cuckoo::{build_store, FilterStats};
use cache_sim::{
    Access, AccessSource, Addr, CoreId, Cycle, HierarchyStats, LineAddr, NullObserver, SimReport,
    System, SystemConfig, TrafficObserver,
};
use pipo_attacks::OccupancyChannelSource;
use pipo_workloads::{BenchProfile, ProfileSource};
use pipomonitor::{MonitorConfig, MonitorStats, PiPoMonitor};

/// One core's access stream.
#[derive(Debug, Clone)]
pub enum SourceSpec {
    /// A SPEC-profile stream (`ProfileSource::new(bench, core, seed)`).
    Profile {
        bench: &'static BenchProfile,
        core: usize,
        seed: u64,
    },
    /// The occupancy-channel probe of `trace_replay`'s attack cell.
    Occupancy {
        base_line: u64,
        llc_sets: u64,
        llc_ways: u64,
        probe_sets: u64,
        think: u64,
    },
    /// One constant address with a fixed compute gap: every access after
    /// the first hits in L1.
    Constant { addr: u64, think: Cycle },
}

impl SourceSpec {
    fn build(&self) -> Box<dyn AccessSource + Send> {
        match *self {
            SourceSpec::Profile { bench, core, seed } => {
                Box::new(ProfileSource::new(bench, core, seed))
            }
            SourceSpec::Occupancy {
                base_line,
                llc_sets,
                llc_ways,
                probe_sets,
                think,
            } => Box::new(OccupancyChannelSource::new(
                base_line, llc_sets, llc_ways, probe_sets, think,
            )),
            SourceSpec::Constant { addr, think } => {
                Box::new(move || Some(Access::read(Addr(addr)).after(think)))
            }
        }
    }
}

/// Everything that determines one simulated machine's run.
#[derive(Debug, Clone)]
pub struct MachineSpec {
    pub config: SystemConfig,
    /// One source per core, in core order.
    pub sources: Vec<SourceSpec>,
    /// `None` runs the unprotected baseline.
    pub monitor: Option<MonitorConfig>,
    pub instructions_per_core: u64,
    /// Line-address region of an attack stream; the capture oracle reports
    /// when the first capture lands inside it.
    pub attack_region: Option<Range<u64>>,
}

/// The simulated statistics of one run: everything the benchmark compares
/// between plain, counted and timed runs of the same machine.
#[derive(Debug, Clone, PartialEq)]
pub struct SimOutcome {
    pub completion_cycles: Vec<Cycle>,
    pub instructions: Vec<u64>,
    pub stats: HierarchyStats,
    pub dram_reads: u64,
    pub dram_prefetch_reads: u64,
    pub dram_writes: u64,
    pub monitor: Option<MonitorStats>,
    pub filter: Option<FilterStats>,
}

impl SimOutcome {
    fn new(report: SimReport, monitor: Option<&PiPoMonitor>) -> Self {
        Self {
            completion_cycles: report.completion_cycles,
            instructions: report.instructions,
            stats: report.stats,
            dram_reads: report.dram_reads,
            dram_prefetch_reads: report.dram_prefetch_reads,
            dram_writes: report.dram_writes,
            monitor: monitor.map(|m| *m.stats()),
            filter: monitor.map(|m| m.pattern_store().stats_snapshot()),
        }
    }

    pub fn makespan(&self) -> Cycle {
        self.completion_cycles.iter().copied().max().unwrap_or(0)
    }

    pub fn total_instructions(&self) -> u64 {
        self.instructions.iter().sum()
    }

    /// Accesses the cores issued (every access starts with an L1 lookup).
    pub fn accesses(&self) -> u64 {
        self.stats.per_core.iter().map(|c| c.l1.accesses()).sum()
    }

    pub fn memory_fetches(&self) -> u64 {
        self.stats.total_memory_fetches()
    }
}

/// How a run is instrumented (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Probe {
    Plain,
    Counted,
    Timed,
}

/// Per-source counters, shared between the shim the `System` owns and the
/// benchmark (the `System` keeps its sources, so counts leave through an
/// `Arc`). Statistics only: `Relaxed` is enough.
#[derive(Debug, Default)]
struct SourceCounters {
    refill_ns: AtomicU64,
    refill_calls: AtomicU64,
    generated: AtomicU64,
    last_refill: AtomicU64,
}

struct ShimSource {
    inner: Box<dyn AccessSource + Send>,
    timed: bool,
    counters: Arc<SourceCounters>,
}

impl AccessSource for ShimSource {
    fn next_access(&mut self) -> Option<Access> {
        let mut buf = Vec::with_capacity(1);
        self.refill(&mut buf, 1);
        buf.pop()
    }

    fn refill(&mut self, buf: &mut Vec<Access>, max: usize) {
        let before = buf.len();
        if self.timed {
            let start = Instant::now();
            self.inner.refill(buf, max);
            self.counters
                .refill_ns
                .fetch_add(elapsed_ns(start), Ordering::Relaxed);
        } else {
            self.inner.refill(buf, max);
        }
        let drawn = (buf.len() - before) as u64;
        self.counters.refill_calls.fetch_add(1, Ordering::Relaxed);
        self.counters.generated.fetch_add(drawn, Ordering::Relaxed);
        self.counters.last_refill.store(drawn, Ordering::Relaxed);
    }
}

/// Exact per-line fetch tally: attributes each capture as exact (the line
/// really was fetched more than `secThr` times) or collision-driven, and
/// records when the first capture lands in the attack region.
#[derive(Debug)]
struct CaptureOracle {
    threshold: u32,
    region: Range<u64>,
    fetched: HashMap<u64, u32>,
    region_fetches: u64,
    exact_captures: u64,
    collision_captures: u64,
    first_region_capture: Option<u64>,
}

impl CaptureOracle {
    fn observe(&mut self, line: u64, captured: bool) {
        let in_region = self.region.contains(&line);
        self.region_fetches += u64::from(in_region);
        let count = self.fetched.entry(line).or_insert(0);
        *count += 1;
        if captured {
            if *count > self.threshold {
                self.exact_captures += 1;
            } else {
                self.collision_captures += 1;
            }
            if in_region && self.first_region_capture.is_none() {
                self.first_region_capture = Some(self.region_fetches);
            }
        }
    }
}

/// What the capture oracle concluded about one monitored run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OracleVerdict {
    pub exact_captures: u64,
    pub collision_captures: u64,
    pub region_fetches: u64,
    /// Attack-region fetches up to and including the first in-region
    /// capture; `None` when the attack was never captured.
    pub detection_latency_fetches: Option<u64>,
}

/// Counting (and optionally timing) wrapper around the machine's observer.
struct ShimObserver<O> {
    inner: O,
    timed: bool,
    fetch_ns: u64,
    fetch_calls: u64,
    evict_ns: u64,
    evict_calls: u64,
    drain_ns: u64,
    drain_calls: u64,
    fetch_log: Option<Vec<u64>>,
    oracle: Option<CaptureOracle>,
}

impl<O> ShimObserver<O> {
    /// `timed` times the observer calls and records the fetch stream; the
    /// baseline's observer does nothing, so its calls are only counted.
    fn new(inner: O, timed: bool, oracle: Option<CaptureOracle>) -> Self {
        Self {
            inner,
            timed,
            fetch_ns: 0,
            fetch_calls: 0,
            evict_ns: 0,
            evict_calls: 0,
            drain_ns: 0,
            drain_calls: 0,
            fetch_log: timed.then(Vec::new),
            oracle,
        }
    }
}

impl<O: TrafficObserver> TrafficObserver for ShimObserver<O> {
    fn on_memory_fetch(&mut self, line: LineAddr, now: Cycle) -> bool {
        self.fetch_calls += 1;
        let captured = if self.timed {
            let start = Instant::now();
            let captured = self.inner.on_memory_fetch(line, now);
            self.fetch_ns += elapsed_ns(start);
            captured
        } else {
            self.inner.on_memory_fetch(line, now)
        };
        if let Some(log) = &mut self.fetch_log {
            log.push(line.0);
        }
        if let Some(oracle) = &mut self.oracle {
            oracle.observe(line.0, captured);
        }
        captured
    }

    fn on_llc_eviction(&mut self, line: LineAddr, protected: bool, accessed: bool, now: Cycle) {
        self.evict_calls += 1;
        if self.timed {
            let start = Instant::now();
            self.inner.on_llc_eviction(line, protected, accessed, now);
            self.evict_ns += elapsed_ns(start);
        } else {
            self.inner.on_llc_eviction(line, protected, accessed, now);
        }
    }

    // Polled on every scheduler step; a timer here would cost more than
    // the call it measures, so it is neither timed nor counted.
    fn next_prefetch_due(&self) -> Option<Cycle> {
        self.inner.next_prefetch_due()
    }

    fn drain_due_prefetches(&mut self, now: Cycle, out: &mut Vec<LineAddr>) {
        self.drain_calls += 1;
        if self.timed {
            let start = Instant::now();
            self.inner.drain_due_prefetches(now, out);
            self.drain_ns += elapsed_ns(start);
        } else {
            self.inner.drain_due_prefetches(now, out);
        }
    }
}

/// Counts and spans of one instrumented run (inside its `System::run`
/// span, which is [`MachineRun::run_ns`]).
#[derive(Debug, Clone, Default)]
pub struct Spans {
    pub refill_ns: u64,
    pub refill_calls: u64,
    pub generated: u64,
    /// Per core: accesses generated and the size of the last refill (the
    /// most a core can have drawn but not yet issued).
    pub per_core_generated: Vec<(u64, u64)>,
    pub fetch_ns: u64,
    pub fetch_calls: u64,
    pub evict_ns: u64,
    pub evict_calls: u64,
    pub drain_ns: u64,
    pub drain_calls: u64,
    pub fetch_log: Vec<u64>,
    pub oracle: Option<OracleVerdict>,
}

impl Spans {
    /// Time inside the observer calls (the monitor layer, including the
    /// pattern-store queries it makes).
    pub fn observer_ns(&self) -> u64 {
        self.fetch_ns + self.evict_ns + self.drain_ns
    }
}

/// One finished run: its statistics, its set-up and run times, and (for
/// `Counted`/`Timed` runs) the shims' counts and spans.
#[derive(Debug, Clone)]
pub struct MachineRun {
    pub outcome: SimOutcome,
    pub setup_ns: u64,
    pub run_ns: u64,
    pub spans: Option<Spans>,
}

pub fn elapsed_ns(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}
impl MachineSpec {
    /// Builds the machine fresh and runs it under `probe`.
    pub fn run(&self, probe: Probe) -> MachineRun {
        let timed = probe == Probe::Timed;
        let Some(config) = self.monitor else {
            return match probe {
                Probe::Plain => self.run_plain(NullObserver),
                _ => self.run_shimmed(NullObserver, timed, false, None),
            };
        };
        let start = Instant::now();
        let monitor = PiPoMonitor::new(config).expect("valid monitor configuration");
        let built = elapsed_ns(start);
        let mut run = match probe {
            Probe::Plain => self.run_plain(monitor),
            _ => {
                let oracle = (probe == Probe::Counted)
                    .then(|| self.attack_region.clone())
                    .flatten()
                    .map(|region| CaptureOracle {
                        threshold: u32::from(config.filter.security_threshold()),
                        region,
                        fetched: HashMap::new(),
                        region_fetches: 0,
                        exact_captures: 0,
                        collision_captures: 0,
                        first_region_capture: None,
                    });
                self.run_shimmed(monitor, timed, timed, oracle)
            }
        };
        run.setup_ns += built;
        run
    }

    /// Time to construct this machine (monitor, system and sources) without
    /// running it.
    pub fn build_ns(&self) -> u64 {
        let start = Instant::now();
        match self.monitor {
            Some(config) => {
                let monitor = PiPoMonitor::new(config).expect("valid monitor configuration");
                let system = self.construct(monitor);
                let ns = elapsed_ns(start);
                drop(std::hint::black_box(system));
                ns
            }
            None => {
                let system = self.construct(NullObserver);
                let ns = elapsed_ns(start);
                drop(std::hint::black_box(system));
                ns
            }
        }
    }

    fn construct<O: TrafficObserver>(&self, observer: O) -> System<O> {
        let mut system = System::new(self.config.clone(), observer);
        for (core, source) in self.sources.iter().enumerate() {
            system.set_source(CoreId(core), source.build());
        }
        system
    }

    fn run_plain<O: MaybeMonitor>(&self, observer: O) -> MachineRun {
        let start = Instant::now();
        let mut system = self.construct(observer);
        let setup_ns = elapsed_ns(start);
        let start = Instant::now();
        let report = system.run(self.instructions_per_core);
        let run_ns = elapsed_ns(start);
        MachineRun {
            outcome: SimOutcome::new(report, system.observer().monitor()),
            setup_ns,
            run_ns,
            spans: None,
        }
    }

    fn run_shimmed<O: MaybeMonitor>(
        &self,
        observer: O,
        timed: bool,
        timed_observer: bool,
        oracle: Option<CaptureOracle>,
    ) -> MachineRun {
        let start = Instant::now();
        let mut system = System::new(
            self.config.clone(),
            ShimObserver::new(observer, timed_observer, oracle),
        );
        let counters: Vec<Arc<SourceCounters>> = self
            .sources
            .iter()
            .map(|_| Arc::new(SourceCounters::default()))
            .collect();
        for (core, (source, counters)) in self.sources.iter().zip(&counters).enumerate() {
            system.set_source(
                CoreId(core),
                Box::new(ShimSource {
                    inner: source.build(),
                    timed,
                    counters: Arc::clone(counters),
                }),
            );
        }
        let setup_ns = elapsed_ns(start);
        let start = Instant::now();
        let report = system.run(self.instructions_per_core);
        let run_ns = elapsed_ns(start);

        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        let shim = system.observer_mut();
        let spans = Spans {
            refill_ns: counters.iter().map(|c| load(&c.refill_ns)).sum(),
            refill_calls: counters.iter().map(|c| load(&c.refill_calls)).sum(),
            generated: counters.iter().map(|c| load(&c.generated)).sum(),
            per_core_generated: counters
                .iter()
                .map(|c| (load(&c.generated), load(&c.last_refill)))
                .collect(),
            fetch_ns: shim.fetch_ns,
            fetch_calls: shim.fetch_calls,
            evict_ns: shim.evict_ns,
            evict_calls: shim.evict_calls,
            drain_ns: shim.drain_ns,
            drain_calls: shim.drain_calls,
            fetch_log: shim.fetch_log.take().unwrap_or_default(),
            oracle: shim.oracle.as_ref().map(|o| OracleVerdict {
                exact_captures: o.exact_captures,
                collision_captures: o.collision_captures,
                region_fetches: o.region_fetches,
                detection_latency_fetches: o.first_region_capture,
            }),
        };
        MachineRun {
            outcome: SimOutcome::new(report, system.observer().inner.monitor()),
            setup_ns,
            run_ns,
            spans: Some(spans),
        }
    }
}

/// The two observers the benchmark runs: the unprotected baseline and the
/// monitor.
trait MaybeMonitor: TrafficObserver {
    fn monitor(&self) -> Option<&PiPoMonitor>;
}

impl MaybeMonitor for NullObserver {
    fn monitor(&self) -> Option<&PiPoMonitor> {
        None
    }
}

impl MaybeMonitor for PiPoMonitor {
    fn monitor(&self) -> Option<&PiPoMonitor> {
        Some(self)
    }
}

impl<O: MaybeMonitor> MaybeMonitor for ShimObserver<O> {
    fn monitor(&self) -> Option<&PiPoMonitor> {
        self.inner.monitor()
    }
}

/// Output checks on one run. Returns a description of every check that
/// failed (empty when the run is correct).
pub fn check_run(spec: &MachineSpec, run: &MachineRun) -> Vec<String> {
    let mut failures = Vec::new();
    let out = &run.outcome;
    for (core, &retired) in out.instructions.iter().enumerate() {
        if retired < spec.instructions_per_core {
            failures.push(format!(
                "core {core} retired {retired} of {} instructions",
                spec.instructions_per_core
            ));
        }
    }
    for (core, c) in out.stats.per_core.iter().enumerate() {
        let served = c.l1.hits + c.l2.hits + c.l3.hits + c.memory_fetches;
        if served != c.l1.accesses()
            || c.l1.misses != c.l2.accesses()
            || c.l2.misses != c.l3.accesses()
            || c.l3.misses != c.memory_fetches
        {
            failures.push(format!(
                "core {core}: level hits plus memory fetches do not add up to its accesses"
            ));
        }
    }
    if let Some(monitor) = &out.monitor {
        if monitor.fetches_observed != out.memory_fetches() {
            failures.push(format!(
                "monitor observed {} fetches, the hierarchy made {}",
                monitor.fetches_observed,
                out.memory_fetches()
            ));
        }
    }
    if let Some(spans) = &run.spans {
        for (core, (c, &(generated, last_refill))) in out
            .stats
            .per_core
            .iter()
            .zip(&spans.per_core_generated)
            .enumerate()
        {
            // A core draws its accesses in batches, so at the end it may
            // hold part of its last batch unissued — never more.
            let issued = c.l1.accesses();
            if issued > generated || generated - issued > last_refill {
                failures.push(format!(
                    "core {core}: {issued} L1 accesses against {generated} generated"
                ));
            }
        }
        if spans.fetch_calls != out.memory_fetches() {
            failures.push(format!(
                "observer saw {} fetches, the hierarchy made {}",
                spans.fetch_calls,
                out.memory_fetches()
            ));
        }
        if spec.attack_region.is_some() {
            if let Some(verdict) = &spans.oracle {
                if verdict.detection_latency_fetches.is_none() {
                    failures.push("the attack was never captured".to_string());
                }
            }
        }
    }
    failures
}

/// A timed run's fetch stream replayed into a fresh pattern store.
#[derive(Debug, Clone, Copy)]
pub struct FilterReplay {
    pub ns: u64,
    pub queries: u64,
    /// The replay reproduced the monitor's capture count exactly.
    pub captures_match: bool,
    /// Fraction of the store's capacity in use after the replay.
    pub occupancy: f64,
}

/// Prices the pattern store the monitor owns: replays a timed run's fetch
/// stream into a fresh `build_store` of the monitor's configuration, timing
/// only the queries. `None` for baseline or untimed runs.
pub fn replay_filter(spec: &MachineSpec, run: &MachineRun) -> Option<FilterReplay> {
    let config = spec.monitor.as_ref()?;
    let spans = run.spans.as_ref()?;
    let monitor = run.outcome.monitor.as_ref()?;
    let mut store = build_store(config.backend, config.filter).expect("valid filter parameters");
    let mut captures = 0u64;
    let start = Instant::now();
    for &line in &spans.fetch_log {
        captures += u64::from(store.query(std::hint::black_box(line)).captured);
    }
    let ns = elapsed_ns(start);
    Some(FilterReplay {
        ns,
        queries: spans.fetch_log.len() as u64,
        captures_match: captures == monitor.captures,
        occupancy: store.occupancy(),
    })
}

/// Runs `specs` across at most `threads` host threads, returning results in
/// spec order and the executor's wall time in ns.
pub fn run_all(specs: &[MachineSpec], probe: Probe, threads: usize) -> (Vec<MachineRun>, u64) {
    let start = Instant::now();
    let next = AtomicU64::new(0);
    let slots: Vec<std::sync::Mutex<Option<MachineRun>>> =
        specs.iter().map(|_| std::sync::Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads.clamp(1, specs.len().max(1)) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed) as usize;
                let Some(spec) = specs.get(i) else { break };
                let run = spec.run(probe);
                *slots[i].lock().expect("result slot not poisoned") = Some(run);
            });
        }
    });
    let runs = slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot not poisoned")
                .expect("every machine ran")
        })
        .collect();
    (runs, elapsed_ns(start))
}

/// The paper's Table II machine with `cores` cores (the LLC stays 4 MB).
pub fn table2_machine(cores: usize) -> SystemConfig {
    let mut config = SystemConfig::paper_default();
    config.cores = cores;
    config
}

/// Prices the scheduler plus the L1 fast path directly: every core issues
/// one constant address, so after the first access every access hits L1
/// and no miss path, observer or generator work runs. Returns ns/access.
pub fn l1hit_ns_per_access(cores: usize, accesses: u64) -> f64 {
    let think = 3;
    let spec = MachineSpec {
        config: table2_machine(cores),
        sources: (0..cores)
            .map(|core| SourceSpec::Constant {
                addr: core as u64 * 64,
                think,
            })
            .collect(),
        monitor: None,
        instructions_per_core: accesses / cores as u64 * (think + 1),
        attack_region: None,
    };
    let run = spec.run(Probe::Plain);
    run.run_ns as f64 / run.outcome.accesses().max(1) as f64
}
