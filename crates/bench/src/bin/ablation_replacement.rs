//! Ablation: LLC replacement policy vs the Prime+Probe attack and the
//! monitor's false positives.
//!
//! The paper evaluates LRU only. Random replacement weakens the attacker's
//! prime precision (a primed way may survive), while Tree-PLRU behaves close
//! to LRU. The monitor's detection is replacement-agnostic because it
//! watches memory traffic, not set state.
//!
//! Both grids (a baseline and a defended attack cell per policy, three
//! monitored-mix cells) run through the sweep engine.
//!
//! Run: `cargo run --release -p pipo_bench --bin ablation_replacement -- \
//!       [instructions] [--json PATH] [--sequential | --threads N] \
//!       [--store PATH]`

use pipo_bench::{figures, HarnessArgs, Input};

fn main() {
    let args = HarnessArgs::parse(&[Input::Scale(u64::MAX), Input::Filter, Input::Store]);
    figures::emit(&args, figures::ablation_replacement(&args));
}
