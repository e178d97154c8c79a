//! Prior-work comparison (paper §VIII, related work): the Auto-Cuckoo
//! filter vs a directory-style stateful recording table, on storage and on
//! resistance to defense-aware record flushing.
//!
//! Paper claims: stateful directory extensions cost an order of magnitude
//! more storage than PiPoMonitor, and "the directory itself is vulnerable to
//! reverse attacks using eviction sets to evict target records".
//!
//! The two flushing attacks (directory table vs PiPoMonitor) are two
//! sweep-engine cells; the storage rows are pure arithmetic.
//!
//! Run: `cargo run --release -p pipo_bench --bin baseline_stateful -- \
//!       [--json PATH] [--sequential | --threads N]`

use auto_cuckoo::{build_store, FilterBackend, FilterParams, StorageOverhead};
use pipo_attacks::{Attack, AttackCell, AttackConfig, Flush};
use pipo_bench::{emit_json, run_cells, sweep_document, HarnessArgs, Json};
use pipomonitor::MonitorConfig;

const WINDOWS: usize = 150;

struct StorageRow {
    structure: &'static str,
    entries: u64,
    kib: f64,
    relative_to_llc: f64,
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
                .field("kib", row.kib)
                .field("relative_to_llc", row.relative_to_llc)
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

fn storage_rows() -> Vec<StorageRow> {
    let llc_bits = (4u64 << 20) * 8;
    let filter = StorageOverhead::for_filter(&FilterParams::paper_default(), 4 << 20);
    // The directory table of `sets` x `ways` records, priced by its store.
    let table_row = |structure, sets, ways| {
        let table = FilterParams::builder()
            .buckets(sets)
            .entries_per_bucket(ways)
            .build()
            .expect("valid table geometry");
        let store = build_store(FilterBackend::Directory, table).expect("valid table geometry");
        let bits = store.memory_bytes() as u64 * 8;
        StorageRow {
            structure,
            entries: table.capacity() as u64,
            kib: bits as f64 / 8.0 / 1024.0,
            relative_to_llc: bits as f64 / llc_bits as f64,
        }
    };
    vec![
        StorageRow {
            structure: "Auto-Cuckoo filter (1024x8, f=12)",
            entries: filter.entries,
            kib: filter.total_kib,
            relative_to_llc: filter.relative_to_llc,
        },
        table_row("tag table, same capacity (1024x8)", 1024, 8),
        table_row("directory extension (per LLC line)", 65_536, 1),
    ]
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
            row.kib,
            row.relative_to_llc * 100.0
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
