//! Prior-work comparison (paper §VIII, related work): the Auto-Cuckoo
//! filter vs a directory-style stateful recording table, on storage and on
//! resistance to defense-aware record flushing.
//!
//! Paper claims: stateful directory extensions cost an order of magnitude
//! more storage than PiPoMonitor, and "the directory itself is vulnerable to
//! reverse attacks using eviction sets to evict target records".
//!
//! The two flushing attacks (directory table vs PiPoMonitor) are two
//! sweep-engine cells; each storage row is a built store's `memory_bytes`.
//!
//! Run: `cargo run --release -p pipo_bench --bin baseline_stateful -- \
//!       [--json PATH] [--sequential | --threads N]`

use auto_cuckoo::{build_store, FilterBackend, FilterParams};
use pipo_attacks::{Attack, AttackCell, AttackConfig, Flush};
use pipo_bench::{emit_json, run_cells, sweep_document, HarnessArgs, Json};
use pipomonitor::{MonitorConfig, OverheadReport};

const WINDOWS: usize = 150;

struct StorageRow {
    structure: &'static str,
    entries: usize,
    report: OverheadReport,
}

fn main() {
    let args = HarnessArgs::parse(&[]);
    let storage = storage_rows();
    print_storage(&storage);
    println!();
    let flushing = run_cells(args.mode, &flushing_cells(), |_, cell| {
        cell.run().outcome.trace.recover_key().distinguishability
    });
    print_flushing(&flushing);

    let cells = ["directory", "pipomonitor"]
        .iter()
        .zip(&flushing)
        .map(|(defense, &disting)| {
            Json::object()
                .field("defense", *defense)
                .field("distinguishability", disting)
                .field("bypassed", disting > 0.9)
        })
        .collect();
    let storage_json: Vec<Json> = storage
        .iter()
        .map(|row| {
            Json::object()
                .field("structure", row.structure)
                .field("entries", row.entries)
                .field("kib", row.report.storage_kib())
                .field("relative_to_llc", row.report.storage_relative_to_llc)
        })
        .collect();
    let meta = Json::object()
        .field("probe_windows", WINDOWS)
        .field("flush_lines_per_window", 16u64)
        .field("storage", storage_json);
    emit_json(
        args.json.as_deref(),
        &sweep_document("baseline_stateful", args.mode, meta, cells),
    );
}

fn storage_rows() -> [StorageRow; 3] {
    // Each row is a store of `sets` x `ways` records, priced by the store.
    [
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
        StorageRow {
            structure,
            entries: params.capacity(),
            report: OverheadReport::for_store(store.as_ref(), 4 << 20),
        }
    })
}

fn print_storage(rows: &[StorageRow]) {
    println!("storage comparison (4 MB LLC, 40-bit physical addresses)");
    println!(
        "{:>34} {:>10} {:>10} {:>10}",
        "structure", "entries", "KiB", "% of LLC"
    );
    for row in rows {
        println!(
            "{:>34} {:>10} {:>10.1} {:>10.3}",
            row.structure,
            row.entries,
            row.report.storage_kib(),
            row.report.storage_relative_to_llc * 100.0
        );
    }
    println!("paper: filter = 15 KB (0.37%), an order of magnitude below stateful prior work");
}

/// Prime+Probe with a per-window record-flushing budget of 16 lines against
/// each defense. The directory table's records are flushed
/// deterministically (`b` fresh lines of each leaky line's table set); the
/// filter's cannot be targeted, so the best same-budget attack is a random
/// flood, and expected eviction needs `b·l` = 8192 fills.
fn flushing_cells() -> [AttackCell; 2] {
    let config = AttackConfig {
        iterations: WINDOWS,
        ..AttackConfig::paper_default()
    };
    let directory = MonitorConfig::paper_default().with_backend(FilterBackend::Directory);
    [
        (Flush::Table, directory),
        (Flush::Random, MonitorConfig::paper_default()),
    ]
    .map(|(flush, defense)| AttackCell::new(Attack::PrimeProbe(flush), config, Some(defense), 77))
}

fn print_flushing(results: &[f64]) {
    let (dir, pipo) = (results[0], results[1]);
    println!("defense-aware record flushing (16 fresh flush lines per 5000-cycle window)");
    println!(
        "{:>34} {:>20} {:>12}",
        "defense", "distinguishability", "bypassed?"
    );
    println!(
        "{:>34} {:>20.3} {:>12}",
        "directory table (deterministic)",
        dir,
        if dir > 0.9 { "YES" } else { "no" }
    );
    println!(
        "{:>34} {:>20.3} {:>12}",
        "Auto-Cuckoo filter (PiPoMonitor)",
        pipo,
        if pipo > 0.9 { "YES" } else { "no" }
    );
    println!("\npaper: deterministic record eviction defeats directory-based stateful defenses;");
    println!("autonomic deletion raises the expected flush cost to b*l = 8192 accesses/window");
}
