//! Ablation: the prefetch delay between `pEvict` and the prefetch issue.
//!
//! The paper introduces the delay "to avoid memory bandwidth preemption with
//! the writeback of the same line" but does not publish a value. This sweep
//! shows the defense is insensitive to the delay as long as it stays well
//! below the attacker's probe interval (5000 cycles): the prefetch must land
//! before the next probe to flood it.
//!
//! The nine delay cells run through the sweep engine (each cell is one
//! self-contained attack simulation).
//!
//! Run: `cargo run --release -p pipo_bench --bin ablation_delay -- \
//!       [probe_windows] [--json PATH] [--sequential | --threads N]`

use pipo_attacks::{Attack, AttackCell, AttackConfig, AttackRun, Flush};
use pipo_bench::{emit_json, run_cells, sweep_document, HarnessArgs, Json};
use pipomonitor::MonitorConfig;

const DELAYS: [u64; 9] = [0, 10, 50, 200, 1000, 3000, 4900, 6000, 20_000];
const SEED: u64 = 2021;

struct DelayResult {
    observed_fraction: f64,
    distinguishability: f64,
    prefetches: u64,
}

fn main() {
    let args = HarnessArgs::parse();
    args.expect_no_trace();
    args.expect_no_store();
    let windows = args.scale_or(150) as usize;
    let backend = args.filter_backend();
    let config = AttackConfig {
        iterations: windows,
        ..AttackConfig::paper_default()
    };
    println!(
        "prefetch-delay ablation — {} probe windows, interval 5000 cycles, {backend} backend",
        windows
    );
    println!(
        "{:>8} {:>16} {:>18} {:>14}",
        "delay", "observed frac", "distinguishability", "prefetches"
    );

    let cells = DELAYS.map(|delay| {
        let defense = MonitorConfig::paper_default()
            .with_prefetch_delay(delay)
            .with_backend(backend);
        AttackCell::new(Attack::PrimeProbe(Flush::None), config, Some(defense), SEED)
    });
    let results = run_cells(args.mode, &cells, |_, cell| {
        let AttackRun { outcome, monitor } = cell.run();
        let observed = outcome
            .trace
            .observations()
            .iter()
            .filter(|o| o.multiply)
            .count();
        let recovery = outcome.trace.recover_key();
        DelayResult {
            observed_fraction: observed as f64 / outcome.trace.len() as f64,
            distinguishability: recovery.distinguishability,
            prefetches: monitor.expect("defended cell").stats().prefetches_scheduled,
        }
    });

    for (&delay, r) in DELAYS.iter().zip(&results) {
        println!(
            "{delay:>8} {:>16.3} {:>18.3} {:>14}",
            r.observed_fraction, r.distinguishability, r.prefetches
        );
    }
    println!("\nexpected: flooding holds for delay << probe interval; a delay beyond the");
    println!("interval lets probes land before the prefetch and re-opens the channel");

    let cells = DELAYS
        .iter()
        .zip(&results)
        .map(|(&delay, r)| {
            Json::object()
                .field("prefetch_delay", delay)
                .field("observed_fraction", r.observed_fraction)
                .field("distinguishability", r.distinguishability)
                .field("prefetches", r.prefetches)
        })
        .collect();
    let meta = Json::object()
        .field("probe_windows", windows)
        .field("filter_backend", backend.name())
        .field("seed", SEED);
    emit_json(
        args.json.as_deref(),
        &sweep_document("ablation_delay", args.mode, meta, cells),
    );
}
