//! Fig. 4: ratio of fingerprint-collision entries in the b=8 Auto-Cuckoo
//! filter as the fingerprint width f grows, classified by the number of
//! addresses collided per entry, after 6 million insertions.
//!
//! Paper result: the ratio tracks ε ≈ 2b/2^f (halving per extra bit); at
//! f = 12 the collision-entry ratio is 0.014 with ε = 0.004, and entries
//! holding more than two collided addresses approach zero.
//!
//! Each fingerprint width is one sweep-engine cell (6 M insertions each, so
//! the fan-out dominates this binary's wall clock).
//!
//! Run: `cargo run --release -p pipo_bench --bin fig4_collisions -- \
//!       [insertions] [--json PATH] [--sequential | --threads N]`

use pipo_bench::{figures, HarnessArgs, Input};

fn main() {
    let args = HarnessArgs::parse(&[Input::Scale(u64::MAX)]);
    figures::emit(args.json.as_deref(), figures::fig4_collisions(&args));
}
