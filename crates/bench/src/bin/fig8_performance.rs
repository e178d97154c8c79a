//! Fig. 8: performance evaluation over the ten SPEC-mix workloads with
//! different Auto-Cuckoo filter sizes.
//!
//! * Fig. 8(a): performance normalised to the unprotected baseline (higher
//!   is better). Paper: +0.1 % on average for l=1024, b=8; mix1 improves the
//!   most (+0.3 %); several mixes unchanged; all sizes within ±0.2 %.
//! * Fig. 8(b): false positives (captured Ping-Pong lines) per million
//!   instructions. Paper: mix1 ≈ 97 and mix7 ≈ 71 are the largest;
//!   mix3/mix6 below 20.
//!
//! The 5 sizes × 10 mixes grid runs through the sweep engine: the fifty
//! monitored cells fan across host threads and the ten per-mix baselines are
//! memoized (they do not depend on filter geometry), instead of being
//! re-simulated for every size as the old sequential loop did.
//!
//! Run: `cargo run --release -p pipo_bench --bin fig8_performance -- \
//!       [instructions_per_core] [--json PATH] [--sequential | --threads N] \
//!       [--store PATH]`
//!
//! With `--store PATH` the grid is answered from (and recorded into) the
//! persistent result store: a repeat run with identical parameters serves
//! every cell warm and produces a byte-identical `--json` document.

use pipo_bench::{figures, HarnessArgs, Input};

fn main() {
    let args = HarnessArgs::parse(&[Input::Scale(u64::MAX), Input::Filter, Input::Store]);
    figures::emit(args.json.as_deref(), figures::fig8_performance(&args));
}
