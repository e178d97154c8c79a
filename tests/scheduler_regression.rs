//! Bit-identity regression: a monitored run on a fixed seeded workload must
//! produce exactly the same simulation results as the pre-refactor engine.
//!
//! The golden values below were captured from the original `System::run`
//! implementation (linear min-scan scheduler, allocating observer API) before
//! the event-driven rewrite. Any scheduler or hot-path change that alters
//! them changes simulated behaviour, not just speed — which is a bug, because
//! the paper reproduction depends on cycle-exact determinism.
//!
//! Run with `GOLDEN_PRINT=1 cargo test -q --test scheduler_regression -- --nocapture`
//! to print the current values when intentionally re-baselining.

use cache_sim::{
    Access, AccessSource, Addr, Core, CoreId, Hierarchy, HierarchyStats, NullObserver, Replacement,
    SimReport, System, SystemConfig, LINE_SIZE,
};
use pipo_workloads::{mixes::mix_by_name, ProfileSource};
use pipomonitor::{MonitorConfig, MonitorStats, PiPoMonitor};

const INSTRUCTIONS: u64 = 200_000;
const SEED: u64 = 7;
const MIX: &str = "mix3";

/// Every observable of a run, flattened for exact comparison.
#[derive(Debug, PartialEq, Eq)]
struct Fingerprint {
    completion_cycles: Vec<u64>,
    instructions: Vec<u64>,
    llc_evictions: u64,
    back_invalidations: u64,
    coherence_invalidations: u64,
    writebacks: u64,
    prefetch_fills: u64,
    prefetch_hits: u64,
    memory_fetches: Vec<u64>,
    l1_hits: Vec<u64>,
    l3_hits: Vec<u64>,
    dram_reads: u64,
    dram_prefetch_reads: u64,
    dram_writes: u64,
}

fn fingerprint(report: &SimReport) -> Fingerprint {
    Fingerprint {
        completion_cycles: report.completion_cycles.clone(),
        instructions: report.instructions.clone(),
        llc_evictions: report.stats.llc_evictions,
        back_invalidations: report.stats.back_invalidations,
        coherence_invalidations: report.stats.coherence_invalidations,
        writebacks: report.stats.writebacks,
        prefetch_fills: report.stats.prefetch_fills,
        prefetch_hits: report.stats.prefetch_hits,
        memory_fetches: report
            .stats
            .per_core
            .iter()
            .map(|c| c.memory_fetches)
            .collect(),
        l1_hits: report.stats.per_core.iter().map(|c| c.l1.hits).collect(),
        l3_hits: report.stats.per_core.iter().map(|c| c.l3.hits).collect(),
        dram_reads: report.dram_reads,
        dram_prefetch_reads: report.dram_prefetch_reads,
        dram_writes: report.dram_writes,
    }
}

fn run_monitored() -> (Fingerprint, MonitorStats) {
    let mix = mix_by_name(MIX).expect("mix exists");
    let monitor = PiPoMonitor::new(MonitorConfig::paper_default()).expect("valid config");
    let mut system = System::new(SystemConfig::paper_default(), monitor);
    for (core, bench) in mix.benchmarks.iter().enumerate() {
        system.set_source(
            CoreId(core),
            Box::new(ProfileSource::new(bench, core, SEED)),
        );
    }
    let report = system.run(INSTRUCTIONS);
    (fingerprint(&report), *system.observer().stats())
}

/// A Prime+Probe-shaped workload that drives the full protection cycle:
/// captures, tagging, pEvicts, and delayed prefetches — so the event-driven
/// drain path is exercised, not just the benign fast path.
fn run_monitored_pingpong() -> (Fingerprint, MonitorStats) {
    let config = SystemConfig::paper_default();
    let sets = config.l3.sets as u64;
    let ways = config.l3.ways as u64;
    let line = LINE_SIZE;
    let monitor = PiPoMonitor::new(MonitorConfig::paper_default()).expect("valid config");
    let mut system = System::new(config, monitor);
    // Victim: hammers one line with a think gap.
    system.set_source(
        CoreId(0),
        Box::new(move || Some(Access::read(Addr(0)).after(50))),
    );
    // Attacker: sweeps an eviction set aliasing the victim's LLC set.
    let mut i = 0u64;
    system.set_source(
        CoreId(1),
        Box::new(move || {
            i += 1;
            let conflict = (i % (ways + 1) + 1) * sets * line;
            Some(Access::read(Addr(conflict)).after(5))
        }),
    );
    let report = system.run(50_000);
    (fingerprint(&report), *system.observer().stats())
}

fn run_baseline() -> Fingerprint {
    let mix = mix_by_name(MIX).expect("mix exists");
    let mut system = System::new(SystemConfig::paper_default(), NullObserver);
    for (core, bench) in mix.benchmarks.iter().enumerate() {
        system.set_source(
            CoreId(core),
            Box::new(ProfileSource::new(bench, core, SEED)),
        );
    }
    fingerprint(&system.run(INSTRUCTIONS))
}

#[test]
fn monitored_run_matches_pre_refactor_golden() {
    let (fp, stats) = run_monitored();
    if std::env::var("GOLDEN_PRINT").is_ok() {
        println!("GOLDEN fingerprint: {fp:#?}");
        println!("GOLDEN monitor stats: {stats:#?}");
    }
    let golden = Fingerprint {
        completion_cycles: vec![537_146, 508_700, 428_807, 510_687],
        instructions: vec![200_003, 200_000, 200_004, 200_004],
        llc_evictions: 36,
        back_invalidations: 45,
        coherence_invalidations: 0,
        writebacks: 17,
        prefetch_fills: 0,
        prefetch_hits: 0,
        memory_fetches: vec![1210, 1110, 767, 1108],
        l1_hits: vec![48_427, 48_960, 49_325, 48_691],
        l3_hits: vec![0, 0, 0, 0],
        dram_reads: 4195,
        dram_prefetch_reads: 0,
        dram_writes: 17,
    };
    let golden_stats = MonitorStats {
        fetches_observed: 4195,
        captures: 0,
        pevicts: 0,
        prefetches_scheduled: 0,
        prefetches_suppressed: 0,
    };
    assert_eq!(fp, golden);
    assert_eq!(stats, golden_stats);
}

#[test]
fn baseline_run_matches_pre_refactor_golden() {
    let fp = run_baseline();
    if std::env::var("GOLDEN_PRINT").is_ok() {
        println!("GOLDEN baseline fingerprint: {fp:#?}");
    }
    let golden = Fingerprint {
        completion_cycles: vec![537_146, 508_700, 428_807, 510_687],
        instructions: vec![200_003, 200_000, 200_004, 200_004],
        llc_evictions: 36,
        back_invalidations: 45,
        coherence_invalidations: 0,
        writebacks: 17,
        prefetch_fills: 0,
        prefetch_hits: 0,
        memory_fetches: vec![1210, 1110, 767, 1108],
        l1_hits: vec![48_427, 48_960, 49_325, 48_691],
        l3_hits: vec![0, 0, 0, 0],
        dram_reads: 4195,
        dram_prefetch_reads: 0,
        dram_writes: 17,
    };
    assert_eq!(fp, golden);
}

#[test]
fn pingpong_run_matches_pre_refactor_golden() {
    let (fp, stats) = run_monitored_pingpong();
    if std::env::var("GOLDEN_PRINT").is_ok() {
        println!("GOLDEN pingpong fingerprint: {fp:#?}");
        println!("GOLDEN pingpong monitor stats: {stats:#?}");
    }
    // The protection cycle must actually fire for this golden to mean
    // anything.
    assert!(stats.captures > 0, "workload must trigger captures");
    assert!(
        stats.prefetches_scheduled > 0,
        "prefetches must be scheduled"
    );
    assert!(fp.prefetch_fills > 0, "prefetches must reach the LLC");
    let golden = Fingerprint {
        completion_cycles: vec![57_303, 1_188_360, 0, 0],
        instructions: vec![50_031, 50_004, 0, 0],
        llc_evictions: 8523,
        back_invalidations: 164,
        coherence_invalidations: 0,
        writebacks: 0,
        prefetch_fills: 4237,
        prefetch_hits: 4059,
        memory_fetches: vec![27, 4275, 0, 0],
        l1_hits: vec![954, 0, 0, 0],
        l3_hits: vec![0, 4059, 0, 0],
        dram_reads: 4302,
        dram_prefetch_reads: 4237,
        dram_writes: 0,
    };
    let golden_stats = MonitorStats {
        fetches_observed: 4302,
        captures: 4248,
        pevicts: 8469,
        prefetches_scheduled: 8292,
        prefetches_suppressed: 177,
    };
    assert_eq!(fp, golden);
    assert_eq!(stats, golden_stats);
}

#[test]
fn reruns_are_bit_identical() {
    let a = run_monitored();
    let b = run_monitored();
    assert_eq!(a, b);
    let c = run_monitored_pingpong();
    let d = run_monitored_pingpong();
    assert_eq!(c, d);
}

const DIFF_CORES: [usize; 10] = [1, 2, 3, 4, 5, 8, 9, 16, 32, 64];
const DIFF_INSTRUCTIONS: u64 = 10_000;

/// Everything a differential run is compared on.
type RunState = (Vec<u64>, Vec<u64>, HierarchyStats, MonitorStats);

/// The workload of a differential machine: core 0 hammers one line (the
/// victim), core 1 ping-pongs the victim's LLC set with one more line than
/// the set has ways (the attacker), and every further core runs a mix7
/// benchmark in its own address region.
fn differential_sources(config: &SystemConfig) -> Vec<Box<dyn AccessSource + Send>> {
    let sets = config.l3.sets as u64;
    let ways = config.l3.ways as u64;
    let line = LINE_SIZE;
    let mix = mix_by_name("mix7").expect("mix exists");
    (0..config.cores)
        .map(|core| -> Box<dyn AccessSource + Send> {
            match core {
                0 => Box::new(move || Some(Access::read(Addr(0)).after(50))),
                1 => {
                    let mut i = 0u64;
                    Box::new(move || {
                        i += 1;
                        let conflict = (i % (ways + 1) + 1) * sets * line;
                        Some(Access::read(Addr(conflict)).after(5))
                    })
                }
                _ => {
                    let bench = mix.benchmarks[core % mix.benchmarks.len()];
                    Box::new(ProfileSource::new(bench, core, SEED))
                }
            }
        })
        .collect()
}

/// Cores that share writable lines: each core spends one access in eight
/// on eight lines every core uses and the rest on sixteen lines of its own,
/// and one access in three is a write. Everything fits in L1, so most
/// accesses hit, while writes to the shared lines invalidate the other
/// cores' copies and reads of them clear the writer's modified flag.
fn shared_region_sources(config: &SystemConfig) -> Vec<Box<dyn AccessSource + Send>> {
    let line = LINE_SIZE;
    (0..config.cores as u64)
        .map(|core| -> Box<dyn AccessSource + Send> {
            let mut state = 0x9E37_79B9_7F4A_7C15 ^ (core + 1);
            Box::new(move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let index = if state % 8 == 0 {
                    (state >> 3) % 8
                } else {
                    8 + core * 16 + (state >> 3) % 16
                };
                let addr = Addr(index * line);
                let access = if (state >> 8) % 3 == 0 {
                    Access::write(addr)
                } else {
                    Access::read(addr)
                };
                Some(access.after((state >> 12) % 8))
            })
        })
        .collect()
}

/// The naive reference scheduler, built only on the public `Core` and
/// `Hierarchy` API: before every step it picks the live core with the
/// smallest `(clock, index)`, drains due prefetches at that clock, and steps
/// it; a final drain at the latest clock closes the run.
fn reference_run(
    cores: &mut [Core],
    hierarchy: &mut Hierarchy,
    monitor: &mut PiPoMonitor,
    quota: u64,
) -> RunState {
    let mut live: Vec<bool> = cores
        .iter()
        .map(|c| !c.is_exhausted() && c.retired() < quota)
        .collect();
    while let Some(idx) = (0..cores.len())
        .filter(|&i| live[i])
        .min_by_key(|&i| (cores[i].now(), i))
    {
        hierarchy.drain_prefetches(cores[idx].now(), monitor);
        if !cores[idx].step(hierarchy, monitor) || cores[idx].retired() >= quota {
            live[idx] = false;
        }
    }
    let end = cores.iter().map(Core::now).max().unwrap_or(0);
    hierarchy.drain_prefetches(end, monitor);
    (
        cores.iter().map(Core::now).collect(),
        cores.iter().map(Core::retired).collect(),
        hierarchy.stats().clone(),
        *monitor.stats(),
    )
}

/// Runs `System::run` and the reference side by side on two copies of one
/// machine, resuming both at every quota in turn, and asserts that they agree
/// after each. Returns the final state.
fn assert_matches_reference(
    label: &str,
    config: &SystemConfig,
    sources: fn(&SystemConfig) -> Vec<Box<dyn AccessSource + Send>>,
    quotas: &[u64],
) -> RunState {
    let monitor = || PiPoMonitor::new(MonitorConfig::paper_default()).expect("valid config");
    let mut system = System::new(config.clone(), monitor());
    for (core, source) in sources(config).into_iter().enumerate() {
        system.set_source(CoreId(core), source);
    }
    let mut reference_cores: Vec<Core> = sources(config)
        .into_iter()
        .enumerate()
        .map(|(core, source)| Core::new(CoreId(core), source))
        .collect();
    let mut hierarchy = Hierarchy::new(config.clone());
    let mut reference_monitor = monitor();
    let mut state = None;
    for &quota in quotas {
        let report = system.run(quota);
        let got = (
            report.completion_cycles,
            report.instructions,
            report.stats,
            *system.observer().stats(),
        );
        let want = reference_run(
            &mut reference_cores,
            &mut hierarchy,
            &mut reference_monitor,
            quota,
        );
        assert_eq!(got, want, "{label}, quota {quota}");
        state = Some(got);
    }
    state.expect("at least one quota")
}

/// `System::run` must step cores in exactly the reference's order at core
/// counts from 1 to the 64-core limit, powers of two and the counts just
/// past them, including a second `run` that resumes the same machine with a
/// larger quota. Further inputs put shared writable lines, Tree-PLRU and
/// random replacement, and long runs whose LLC fills and evicts through
/// the same comparison.
#[test]
fn system_run_matches_naive_reference_scheduler() {
    let quotas = [DIFF_INSTRUCTIONS / 2, DIFF_INSTRUCTIONS];
    for cores in DIFF_CORES {
        let mut config = SystemConfig::paper_default();
        config.cores = cores;
        let label = format!("{cores} cores");
        let (_, _, stats, monitor) =
            assert_matches_reference(&label, &config, differential_sources, &quotas);
        // The attack must drive the whole protection cycle whenever the
        // attacker core exists, or the drain schedule is left untested.
        if cores >= 2 {
            assert!(monitor.captures > 0, "{label}");
            assert!(stats.prefetch_fills > 0, "{label}: no prefetch fills");
        }
    }

    for replacement in [
        Replacement::Lru,
        Replacement::TreePlru,
        Replacement::Random { seed: 5 },
    ] {
        let mut config = SystemConfig::paper_default();
        config.replacement = replacement;
        config.cores = 2;
        let label = format!("shared region, {replacement:?}");
        let (_, _, stats, _) =
            assert_matches_reference(&label, &config, shared_region_sources, &quotas);
        assert!(stats.coherence_invalidations > 0, "{label}");
        if replacement != Replacement::Lru {
            for cores in [2, 4, 9] {
                config.cores = cores;
                let label = format!("{cores} cores, {replacement:?}");
                assert_matches_reference(&label, &config, differential_sources, &quotas);
            }
        }
    }

    for cores in [4, 32] {
        let mut config = SystemConfig::paper_default();
        config.cores = cores;
        let label = format!("{cores} cores, long run");
        let (_, instructions, stats, _) =
            assert_matches_reference(&label, &config, differential_sources, &[100_000]);
        assert!(instructions.iter().all(|&i| i >= 100_000), "{label}");
        assert!(stats.llc_evictions > 0, "{label}: no LLC evictions");
        assert!(stats.back_invalidations > 0, "{label}");
    }
}
