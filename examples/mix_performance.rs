//! Compares baseline vs monitored execution for every Table III mix — a
//! miniature of Fig. 8 (use the `fig8_performance` harness for the full
//! sweep over filter sizes).
//!
//! Run with: `cargo run --release --example mix_performance [instructions]`

use std::fmt::Write;

use pipo_bench::args::write_stdout;
use pipo_bench::{ExecMode, MixCell, Sweep};
use pipo_workloads::all_mixes;
use pipomonitor::MonitorConfig;

fn main() {
    let instructions: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(500_000);

    let mut sweep = Sweep::new();
    for mix in all_mixes() {
        let monitor = MonitorConfig::paper_default();
        sweep.push(MixCell::new(mix.name, mix, monitor, instructions, 42));
    }

    let mut out = format!(
        "{:>7} {:>14} {:>14} {:>10} {:>8}\n",
        "mix", "baseline cyc", "monitored cyc", "norm perf", "fp/Mi"
    );
    for run in sweep.run(ExecMode::host_default()) {
        let _ = writeln!(
            out,
            "{:>7} {:>14} {:>14} {:>10.4} {:>8.1}",
            run.mix,
            run.baseline_cycles,
            run.monitored_cycles,
            run.normalized_performance(),
            run.false_positives_per_mi()
        );
    }
    out += "\npaper: normalized performance ~1.001 (never a slowdown beyond noise);\n\
            most false positives in mix1/mix7, fewest in mix3/mix6\n";
    write_stdout(&out);
}
