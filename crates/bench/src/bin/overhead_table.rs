//! §VII-D hardware overhead: storage and area of PiPoMonitor relative to the
//! 4 MB LLC it protects.
//!
//! Paper result (l=1024, b=8, f=12, CACTI 7 @ 22 nm): 8192 entries × 15 bits
//! = 15 KB storage = 0.37 % of the LLC; 0.013 mm² = 0.32 % of the LLC area.
//! Storage is each built filter's `memory_bytes`; area is scaled linearly
//! from it and the paper's published CACTI data point (see EXPERIMENTS.md,
//! substitutions).
//!
//! The five filter geometries are five sweep-engine cells (pure arithmetic,
//! but routed through the engine so every harness shares one code path and
//! the `--json` emitter).
//!
//! Run: `cargo run --release -p pipo_bench --bin overhead_table -- \
//!       [--json PATH] [--sequential | --threads N]`

use auto_cuckoo::CuckooFilter;
use pipo_bench::{
    emit_json, fig8_filter_sizes, filter_with_size, run_cells, sweep_document, HarnessArgs, Json,
};
use pipomonitor::OverheadReport;

fn main() {
    let args = HarnessArgs::parse(&[]);
    let llc_bytes: u64 = 4 << 20;
    println!("§VII-D — PiPoMonitor hardware overhead against a 4 MB LLC");
    println!(
        "{:>9} {:>8} {:>12} {:>10} {:>12} {:>10} {:>12}",
        "size", "entries", "bits/entry", "KiB", "% of LLC", "mm^2", "% LLC area"
    );

    let sizes = fig8_filter_sizes();
    let rows = run_cells(args.mode, &sizes, |_, &(l, b)| {
        let params = filter_with_size(l, b);
        let filter = CuckooFilter::auto(params).expect("figure-8 geometry is valid");
        (params, OverheadReport::for_store(&filter, llc_bytes))
    });

    for (&(l, b), (params, report)) in sizes.iter().zip(&rows) {
        println!(
            "{:>6}x{:<2} {:>8} {:>12} {:>10.2} {:>12.3} {:>10.4} {:>12.3}",
            l,
            b,
            params.capacity(),
            params.entry_bits(),
            report.storage_kib(),
            report.storage_relative_to_llc * 100.0,
            report.area_mm2,
            report.area_relative_to_llc * 100.0
        );
    }
    println!("\npaper (1024x8): 15 KB storage (0.37%), 0.013 mm^2 (0.32%)");

    let cells = sizes
        .iter()
        .zip(&rows)
        .map(|(&(l, b), (params, report))| {
            Json::object()
                .field("l", l)
                .field("b", b)
                .field("entries", params.capacity())
                .field("bits_per_entry", params.entry_bits())
                .field("storage_kib", report.storage_kib())
                .field("storage_relative_to_llc", report.storage_relative_to_llc)
                .field("area_mm2", report.area_mm2)
                .field("area_relative_to_llc", report.area_relative_to_llc)
        })
        .collect();
    let meta = Json::object().field("llc_bytes", llc_bytes);
    emit_json(
        args.json.as_deref(),
        &sweep_document("overhead_table", args.mode, meta, cells),
    );
}
