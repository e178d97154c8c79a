//! Fig. 6: cache usage patterns of the probe addresses extracted by a
//! Prime+Probe attacker, (a) on the baseline and (b) under PiPoMonitor.
//!
//! Paper result: on the baseline the attacker reads the victim's
//! square/multiply operation sequence; with PiPoMonitor deployed the
//! attacker observes accesses regardless of victim behaviour and the genuine
//! sequence cannot be obtained.
//!
//! The two panels are two sweep-engine cells (baseline and defended attack
//! runs are independent simulations).
//!
//! Run: `cargo run --release -p pipo_bench --bin fig6_attack -- \
//!       [windows] [--json PATH] [--sequential | --threads N]`

use pipo_attacks::{Attack, AttackCell, AttackConfig, Flush};
use pipo_bench::{emit_json, run_cells, sweep_document, HarnessArgs, Input, Json};
use pipomonitor::{MonitorConfig, MonitorStats};

const SEED: u64 = 2021;
/// The most probe windows a run takes (its scale's bound): each cell
/// holds the key, the probe trace and its rendering, about 20 bytes per
/// window.
const MAX_WINDOWS: u64 = 10_000_000;

struct PanelResult {
    rendered: String,
    accuracy: f64,
    distinguishability: f64,
    monitor: Option<MonitorStats>,
}

fn main() {
    let args = HarnessArgs::parse(&[Input::Scale(MAX_WINDOWS), Input::Filter]);
    let windows = args.scale_or(100) as usize;
    let backend = args.filter_backend();
    let config = AttackConfig {
        iterations: windows,
        ..AttackConfig::paper_default()
    };

    let panels = ["baseline", "pipomonitor"];
    let cells = [
        None,
        Some(MonitorConfig::paper_default().with_backend(backend)),
    ]
    .map(|defense| AttackCell::new(Attack::PrimeProbe(Flush::None), config, defense, SEED));
    let results = run_cells(args.mode, &cells, |_, cell| {
        let run = cell.run();
        let recovery = run.outcome.trace.recover_key();
        PanelResult {
            rendered: run.outcome.trace.render(),
            accuracy: recovery.accuracy,
            distinguishability: recovery.distinguishability,
            monitor: run.monitor.map(|monitor| *monitor.stats()),
        }
    });

    println!("Fig. 6(a) — baseline: attacker-extracted usage pattern");
    println!("{}", results[0].rendered);
    println!(
        "sequence recovery accuracy {:.3}, channel distinguishability {:.3}\n",
        results[0].accuracy, results[0].distinguishability
    );

    println!("Fig. 6(b) — PiPoMonitor deployed");
    println!("{}", results[1].rendered);
    println!(
        "sequence recovery accuracy {:.3}, channel distinguishability {:.3}",
        results[1].accuracy, results[1].distinguishability
    );
    let stats = results[1].monitor.expect("monitored panel has stats");
    println!(
        "monitor: {} captures, {} prefetches scheduled, {} suppressed",
        stats.captures, stats.prefetches_scheduled, stats.prefetches_suppressed
    );
    println!();
    println!("paper: (a) operation sequence readable; (b) attacker always observes accesses");

    let cells = panels
        .iter()
        .zip(&results)
        .map(|(panel, r)| {
            let mut cell = Json::object()
                .field("panel", *panel)
                .field("recovery_accuracy", r.accuracy)
                .field("distinguishability", r.distinguishability);
            if let Some(stats) = &r.monitor {
                cell = cell
                    .field("captures", stats.captures)
                    .field("prefetches_scheduled", stats.prefetches_scheduled)
                    .field("prefetches_suppressed", stats.prefetches_suppressed);
            }
            cell
        })
        .collect();
    let meta = Json::object()
        .field("probe_windows", windows)
        .field("filter_backend", backend.name())
        .field("seed", SEED);
    emit_json(
        args.json.as_deref(),
        &sweep_document("fig6_attack", args.mode, meta, cells),
    );
}
