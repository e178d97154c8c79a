//! The attack figures: Fig. 6's Prime+Probe panels, the prefetch-delay
//! ablation and §VIII's comparison with a stateful directory table. Every
//! attack is one [`AttackCell`], and each figure runs its cells in one
//! `run_cells` call; each cell returns its table row and its `--json` cell.

use std::fmt::Write as _;

use auto_cuckoo::{build_store, FilterBackend, FilterParams};
use pipo_attacks::{Attack, AttackCell, AttackConfig, AttackRun, Flush};
use pipomonitor::{MonitorConfig, OverheadReport};

use crate::{run_cells, sweep_document, HarnessArgs, Json};

/// Key seed of Fig. 6's and the delay ablation's attacks.
const SEED: u64 = 2021;

/// Fig. 6: the usage pattern a Prime+Probe attacker extracts over the
/// scale's probe windows (default 100), (a) on the baseline and (b) under
/// PiPoMonitor, with the key recovery each allows.
pub fn fig6_attack(args: &HarnessArgs) -> (String, Json) {
    let windows = args.scale_or(100) as usize;
    let backend = args.filter_backend();
    let config = AttackConfig {
        iterations: windows,
        ..AttackConfig::paper_default()
    };
    let panels = [
        (
            "baseline",
            "Fig. 6(a) — baseline: attacker-extracted usage pattern",
            None,
        ),
        (
            "pipomonitor",
            "Fig. 6(b) — PiPoMonitor deployed",
            Some(MonitorConfig::paper_default().with_backend(backend)),
        ),
    ];
    let panels = run_cells(args.mode, &panels, |_, &(panel, title, defense)| {
        let run = AttackCell::new(Attack::PrimeProbe(Flush::None), config, defense, SEED).run();
        let recovery = run.outcome.trace.recover_key();
        let mut text = format!(
            "{title}\n{}\nsequence recovery accuracy {:.3}, channel distinguishability {:.3}\n",
            run.outcome.trace.render(),
            recovery.accuracy,
            recovery.distinguishability
        );
        let mut cell = Json::object()
            .field("panel", panel)
            .field("recovery_accuracy", recovery.accuracy)
            .field("distinguishability", recovery.distinguishability);
        if let Some(monitor) = &run.monitor {
            let stats = monitor.stats();
            let _ = writeln!(
                text,
                "monitor: {} captures, {} prefetches scheduled, {} suppressed",
                stats.captures, stats.prefetches_scheduled, stats.prefetches_suppressed
            );
            cell = cell
                .field("captures", stats.captures)
                .field("prefetches_scheduled", stats.prefetches_scheduled)
                .field("prefetches_suppressed", stats.prefetches_suppressed);
        }
        (text, cell)
    });
    let (panels, cells): (Vec<String>, Vec<Json>) = panels.into_iter().unzip();
    let text = panels.join("\n")
        + "\npaper: (a) operation sequence readable; (b) attacker always observes accesses\n";
    let meta = Json::object()
        .field("probe_windows", windows)
        .field("filter_backend", backend.name())
        .field("seed", SEED);
    (text, sweep_document("fig6_attack", args.mode, meta, cells))
}

/// The prefetch-delay ablation: Prime+Probe over the scale's probe windows
/// (default 150) under PiPoMonitor at nine delays between `pEvict` and the
/// prefetch, with the share of windows the attacker reads as accessed, the
/// channel's distinguishability and the prefetches scheduled.
pub fn ablation_delay(args: &HarnessArgs) -> (String, Json) {
    const DELAYS: [u64; 9] = [0, 10, 50, 200, 1000, 3000, 4900, 6000, 20_000];
    let windows = args.scale_or(150) as usize;
    let backend = args.filter_backend();
    let config = AttackConfig {
        iterations: windows,
        ..AttackConfig::paper_default()
    };
    let rows = run_cells(args.mode, &DELAYS, |_, &delay| {
        let defense = MonitorConfig::paper_default()
            .with_prefetch_delay(delay)
            .with_backend(backend);
        let attack = Attack::PrimeProbe(Flush::None);
        let AttackRun { outcome, monitor } =
            AttackCell::new(attack, config, Some(defense), SEED).run();
        let trace = &outcome.trace;
        let observed = trace.observations().iter().filter(|o| o.multiply).count();
        let observed_fraction = observed as f64 / trace.len() as f64;
        let distinguishability = trace.recover_key().distinguishability;
        let prefetches = monitor.expect("defended cell").stats().prefetches_scheduled;
        (
            format!(
                "{delay:>8} {observed_fraction:>16.3} {distinguishability:>18.3} {prefetches:>14}\n"
            ),
            Json::object()
                .field("prefetch_delay", delay)
                .field("observed_fraction", observed_fraction)
                .field("distinguishability", distinguishability)
                .field("prefetches", prefetches),
        )
    });
    let (rows, cells): (String, Vec<Json>) = rows.into_iter().unzip();
    let text = format!(
        "prefetch-delay ablation — {windows} probe windows, interval 5000 cycles, \
         {backend} backend\n{:>8} {:>16} {:>18} {:>14}\n{rows}\n\
         expected: flooding holds for delay << probe interval; a delay beyond the\n\
         interval lets probes land before the prefetch and re-opens the channel\n",
        "delay", "observed frac", "distinguishability", "prefetches"
    );
    let meta = Json::object()
        .field("probe_windows", windows)
        .field("filter_backend", backend.name())
        .field("seed", SEED);
    (
        text,
        sweep_document("ablation_delay", args.mode, meta, cells),
    )
}

/// §VIII's prior-work comparison: the storage of the Auto-Cuckoo filter
/// against two directory-style tables, each a built store's
/// `memory_bytes`, and the distinguishability each defense leaves a
/// Prime+Probe attacker who flushes 16 records per window.
pub fn baseline_stateful(args: &HarnessArgs) -> (String, Json) {
    const WINDOWS: usize = 150;
    // Each row is a store of `sets` x `ways` records, priced by the store.
    let storage = [
        (
            "Auto-Cuckoo filter (1024x8, f=12)",
            FilterBackend::Auto,
            1024,
            8,
        ),
        (
            "tag table, same capacity (1024x8)",
            FilterBackend::Directory,
            1024,
            8,
        ),
        (
            "directory extension (per LLC line)",
            FilterBackend::Directory,
            65_536,
            1,
        ),
    ]
    .map(|(structure, backend, sets, ways)| {
        let params = FilterParams::builder()
            .buckets(sets)
            .entries_per_bucket(ways)
            .build()
            .expect("valid store geometry");
        let store = build_store(backend, params).expect("valid store geometry");
        let report = OverheadReport::for_store(store.as_ref(), 4 << 20);
        let (entries, kib) = (params.capacity(), report.storage_kib());
        let relative = report.storage_relative_to_llc;
        (
            format!(
                "{structure:>34} {entries:>10} {kib:>10.1} {:>10.3}\n",
                relative * 100.0
            ),
            Json::object()
                .field("structure", structure)
                .field("entries", entries)
                .field("kib", kib)
                .field("relative_to_llc", relative),
        )
    });
    let (storage_rows, storage): (String, Vec<Json>) = storage.into_iter().unzip();

    // Prime+Probe with a per-window record-flushing budget of 16 lines
    // against each defense. The directory table's records are flushed
    // deterministically (`b` fresh lines of each leaky line's table set);
    // the filter's cannot be targeted, so the best same-budget attack is a
    // random flood, and expected eviction needs `b·l` = 8192 fills.
    let config = AttackConfig {
        iterations: WINDOWS,
        ..AttackConfig::paper_default()
    };
    let defenses = [
        (
            "directory",
            "directory table (deterministic)",
            Flush::Table,
            MonitorConfig::paper_default().with_backend(FilterBackend::Directory),
        ),
        (
            "pipomonitor",
            "Auto-Cuckoo filter (PiPoMonitor)",
            Flush::Random,
            MonitorConfig::paper_default(),
        ),
    ];
    let rows = run_cells(
        args.mode,
        &defenses,
        |_, &(defense, label, flush, monitor)| {
            let cell = AttackCell::new(Attack::PrimeProbe(flush), config, Some(monitor), 77);
            let disting = cell.run().outcome.trace.recover_key().distinguishability;
            let bypassed = disting > 0.9;
            (
                format!(
                    "{label:>34} {disting:>20.3} {:>12}\n",
                    if bypassed { "YES" } else { "no" }
                ),
                Json::object()
                    .field("defense", defense)
                    .field("distinguishability", disting)
                    .field("bypassed", bypassed),
            )
        },
    );
    let (rows, cells): (String, Vec<Json>) = rows.into_iter().unzip();
    let text = format!(
        "storage comparison (4 MB LLC, 40-bit physical addresses)\n\
         {:>34} {:>10} {:>10} {:>10}\n{storage_rows}\
         paper: filter = 15 KB (0.37%), an order of magnitude below stateful prior work\n\n\
         defense-aware record flushing (16 fresh flush lines per 5000-cycle window)\n\
         {:>34} {:>20} {:>12}\n{rows}\n\
         paper: deterministic record eviction defeats directory-based stateful defenses;\n\
         autonomic deletion raises the expected flush cost to b*l = 8192 accesses/window\n",
        "structure", "entries", "KiB", "% of LLC", "defense", "distinguishability", "bypassed?"
    );
    let meta = Json::object()
        .field("probe_windows", WINDOWS)
        .field("flush_lines_per_window", 16u64)
        .field("storage", storage);
    (
        text,
        sweep_document("baseline_stateful", args.mode, meta, cells),
    )
}
