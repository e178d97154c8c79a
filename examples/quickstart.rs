//! Quickstart: build a monitored quad-core system, run a workload mix, and
//! read out the monitor's view.
//!
//! Run with: `cargo run --example quickstart`

use std::fmt::Write;

use cache_sim::{CoreId, System, SystemConfig};
use pipo_bench::args::write_stdout;
use pipo_workloads::{all_mixes, ProfileSource};
use pipomonitor::{MonitorConfig, PiPoMonitor};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. The paper's system: quad-core, inclusive L1/L2/L3 (Table II), with
    //    PiPoMonitor in the memory controller.
    let monitor = PiPoMonitor::new(MonitorConfig::paper_default())?;
    let mut system = System::new(SystemConfig::paper_default(), monitor);

    // 2. Table III's mix1: libquantum, mcf, sphinx3, gobmk — one per core.
    let mix = &all_mixes()[0];
    for (core, bench) in mix.benchmarks.iter().enumerate() {
        system.set_source(CoreId(core), Box::new(ProfileSource::new(bench, core, 42)));
    }

    // 3. Run half a million instructions per core.
    let report = system.run(500_000);

    let mut out = format!(
        "ran {} on {} cores\nmakespan: {} cycles\n",
        mix.name,
        report.completion_cycles.len(),
        report.makespan()
    );
    for core in 0..4 {
        let id = CoreId(core);
        let _ = writeln!(
            out,
            "  {} ({:<10}): {:>8} instructions, IPC {:.3}",
            id,
            mix.benchmarks[core].name,
            report.instructions[core],
            report.ipc(id)
        );
    }

    // 4. What the monitor saw.
    let monitor = system.observer();
    let stats = monitor.stats();
    let _ = write!(
        out,
        "\nPiPoMonitor:\n  \
         memory fetches observed : {}\n  \
         Ping-Pong captures      : {}\n  \
         prefetches scheduled    : {}\n  \
         false positives / Mi    : {:.1}\n  \
         filter occupancy        : {:.1}%\n",
        stats.fetches_observed,
        stats.captures,
        stats.prefetches_scheduled,
        monitor.false_positives_per_mi(report.total_instructions()),
        monitor.pattern_store().occupancy() * 100.0
    );
    write_stdout(&out);
    Ok(())
}
