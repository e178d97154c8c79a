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

use pipo_bench::{figures, HarnessArgs, Input};

/// The most probe windows a run takes (its scale's bound): each cell
/// holds the key and the probe trace, about 10 bytes per window.
const MAX_WINDOWS: u64 = 10_000_000;

fn main() {
    let args = HarnessArgs::parse(&[Input::Scale(MAX_WINDOWS), Input::Filter]);
    figures::emit(args.json.as_deref(), figures::ablation_delay(&args));
}
