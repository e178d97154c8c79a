//! §VII-C sensitivity analysis: the security threshold secThr.
//!
//! Paper result: secThr = 3 gives better average performance than 1 or 2,
//! because smaller thresholds capture (and prefetch) more aggressively and
//! generate more false positives.
//!
//! The 10 mixes × 3 thresholds grid runs through the sweep engine (cells in
//! parallel, one memoized baseline per mix across the three thresholds).
//!
//! Run: `cargo run --release -p pipo_bench --bin sensitivity_secthr -- \
//!       [instructions_per_core] [--json PATH] [--sequential | --threads N] \
//!       [--store PATH]`

use pipo_bench::{figures, HarnessArgs, Input};

fn main() {
    let args = HarnessArgs::parse(&[Input::Scale(u64::MAX), Input::Filter, Input::Store]);
    figures::emit(&args, figures::sensitivity_secthr(&args));
}
