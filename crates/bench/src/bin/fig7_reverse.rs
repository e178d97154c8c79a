//! Fig. 7 / §VI-B: defense-aware attacks on the Auto-Cuckoo filter.
//!
//! Paper results:
//! * brute force needs `b·l` fills in expectation (8192 for b=8, l=1024 —
//!   "the adversary needed 8192 memory accesses on average");
//! * a reverse-engineering eviction set must grow as `b^(MNK+1)` (32768 for
//!   b=8, MNK=4), making the targeted attack cost exceed brute force.
//!
//! The empirical reverse-attack sweep runs on a scaled-down filter (l=128,
//! b=8) at MNK 0–3, and on the paper's filter (l=1024, b=8) at MNK 0–4,
//! where 4 is the paper's MNK. The measured quantity is the cost of a
//! *random targeted flood* (addresses whose candidate buckets intersect the
//! target's). On the scaled filter it is lowest at MNK=0, rises at MNK=1 and
//! then stays roughly flat through MNK=3, several times below the
//! brute-force cost of the same filter (`b·l` = 1024 fills). Each MNK's
//! verdict compares its measured mean with the brute-force expectation of
//! its own filter (1024 scaled, 8192 paper), and one closing line per filter
//! summarises the verdicts. Deterministically steering the kick walk is what
//! requires the `b^(MNK+1)` eviction set the paper analyses; that bound is
//! printed alongside (and is the quantity Fig. 7 plots), but the random
//! flood does not build it.
//!
//! The brute-force measurement and the nine MNK sweep points are ten
//! sweep-engine cells evaluated together.
//!
//! Run: `cargo run --release -p pipo_bench --bin fig7_reverse -- \
//!       [trials] [--json PATH] [--sequential | --threads N]`

use pipo_bench::{figures, HarnessArgs, Input};

/// The most trials a run takes (its scale's bound): the brute-force cell
/// keeps every trial's fill count, 8 bytes each.
const MAX_TRIALS: u64 = 10_000_000;

fn main() {
    let args = HarnessArgs::parse(&[Input::Scale(MAX_TRIALS)]);
    figures::emit(args.json.as_deref(), figures::fig7_reverse(&args));
}
