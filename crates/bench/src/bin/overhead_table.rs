//! §VII-D hardware overhead: storage and area of PiPoMonitor relative to the
//! 4 MB LLC it protects.
//!
//! Paper result (l=1024, b=8, f=12, CACTI 7 @ 22 nm): 8192 entries × 15 bits
//! = 15 KB storage = 0.37 % of the LLC; 0.013 mm² = 0.32 % of the LLC area.
//! Storage is each built filter's `memory_bytes`; area is scaled linearly
//! from it and the paper's published CACTI data point (see EXPERIMENTS.md,
//! substitutions).
//!
//! The five filter geometries are five rows of arithmetic on built
//! filters; they run in order, whatever `--sequential` or `--threads` says.
//!
//! Run: `cargo run --release -p pipo_bench --bin overhead_table -- \
//!       [--json PATH] [--sequential | --threads N]`

use pipo_bench::{figures, HarnessArgs};

fn main() {
    let args = HarnessArgs::parse(&[]);
    figures::emit(args.json.as_deref(), figures::overhead_table(&args));
}
