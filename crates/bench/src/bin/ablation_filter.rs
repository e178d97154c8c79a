//! Filter-zoo ablation: every `PatternStore` backend at production scale.
//!
//! The paper evaluates one pattern filter (the Auto-Cuckoo filter) at one
//! size (8192 entries). This figure goes beyond the paper: it drives all
//! four [`FilterBackend`](auto_cuckoo::FilterBackend)s with the same
//! multi-tenant memory-fetch stream at *production* scale — millions of
//! tracked line addresses spread over several tenant address spaces — and
//! reports the axes a deployment would trade off:
//!
//! * **false alarms / Mi** — captures the backend raised on lines whose
//!   *exact* re-fetch count was still below `secThr + 1` (an exact oracle
//!   counts the stream once and attributes every capture). These are purely
//!   false-positive-driven: fingerprint collisions (cuckoo), counter sharing
//!   (bloom), or frozen-membership collisions (xor).
//! * **detection latency** — attacker accesses until a fresh Ping-Pong line
//!   is captured, with benign traffic interleaved (averaged over trials).
//! * **memory bytes** — the backend's modelled hardware footprint.
//! * **ns / access** — host-side cost of the query-with-promotion hot path.
//!
//! The sweep drives the stores directly with the fetch stream (no full
//! system simulation — at this scale the cache hierarchy would dwarf the
//! signal), so the per-Mi basis is *million tracked accesses*. `--filter` is
//! rejected: this binary sweeps every backend by construction.
//!
//! Run: `cargo run --release -p pipo_bench --bin ablation_filter -- \
//!       [tracked_lines] [--json PATH] [--sequential | --threads N]`

use pipo_bench::{figures, HarnessArgs, Input};

/// The most tracked lines a run takes (its scale's bound). The benign
/// stream holds 24 bytes per line and its exact-fetch marks 3 more. The
/// count behind the marks (freed before the cells run) and each backend
/// cell in flight (its store) take up to about 30 more each: on two
/// threads a run peaks near 170 MiB at the default and 710 MiB at the
/// bound.
const MAX_TRACKED: u64 = 10_000_000;

fn main() {
    let args = HarnessArgs::parse(&[Input::Scale(MAX_TRACKED)]);
    figures::emit(args.json.as_deref(), figures::ablation_filter(&args));
}
