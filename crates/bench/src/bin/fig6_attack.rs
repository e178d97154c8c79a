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

use pipo_bench::{figures, HarnessArgs, Input};

/// The most probe windows a run takes (its scale's bound): each cell
/// holds the key, the probe trace and its rendering, about 20 bytes per
/// window.
const MAX_WINDOWS: u64 = 10_000_000;

fn main() {
    let args = HarnessArgs::parse(&[Input::Scale(MAX_WINDOWS), Input::Filter]);
    figures::emit(args.json.as_deref(), figures::fig6_attack(&args));
}
