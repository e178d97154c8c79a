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

use pipo_bench::{figures, HarnessArgs};

fn main() {
    let args = HarnessArgs::parse(&[]);
    figures::emit(args.json.as_deref(), figures::baseline_stateful(&args));
}
