//! Fig. 3: occupancy of the Auto-Cuckoo filter as insertions accumulate,
//! for different MNK values.
//!
//! Paper result: occupancy is insensitive to MNK; curves for all MNK values
//! overlap, are identical below ~9 K insertions, and reach 100 % by ~12.5 K
//! insertions for the l=1024, b=8 configuration — even with MNK = 2.
//!
//! Each MNK curve is one sweep-engine cell (plus one cell for the paper's
//! 12.5 K spot check), so the curves fill in parallel.
//!
//! Run: `cargo run --release -p pipo_bench --bin fig3_occupancy -- \
//!       [--json PATH] [--sequential | --threads N]`

use pipo_bench::{figures, HarnessArgs};

fn main() {
    let args = HarnessArgs::parse(&[]);
    figures::emit(args.json.as_deref(), figures::fig3_occupancy(&args));
}
