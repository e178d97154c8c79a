//! Trace-replay harness: adversarial scenarios and recorded traces driven
//! through whole monitored systems, with oracle-checked detection results.
//!
//! Each cell replays one workload on core 0 of the paper's quad-core system
//! (cores 1–3 run benign SPEC-profile streams, so detection must work under
//! load) twice: once on the unprotected baseline and once under PiPoMonitor
//! wrapped in a capture probe, whose
//! [`CaptureOracle`](pipo_bench::CaptureOracle) counts every line's true
//! memory-fetch tally and attributes each capture as *exact* (the line
//! really was fetched more than `secThr` times) or collision-driven
//! (reported as false-positive captures). Per scenario the figure reports:
//!
//! * **detection latency** — scenario-region memory fetches until the first
//!   capture lands inside the scenario's address region (capped at the
//!   region fetch count when nothing was captured, with `detected: false`);
//! * **overhead** — monitored vs. baseline makespan, in percent.
//!
//! Built-in scenario cells (the scenario library):
//!
//! * `occupancy_channel` —
//!   [`OccupancyChannelSource`](pipo_attacks::OccupancyChannelSource), an
//!   over-associativity occupancy probe. Its repeating sweep *is* a
//!   Ping-Pong pattern, so the monitor must capture it (exact captures,
//!   short latency).
//! * `noisy_neighbor` —
//!   [`NoisyNeighborSource`](pipo_workloads::NoisyNeighborSource), three
//!   tenants time-sliced onto one core: benign consolidation churn
//!   (captures here are the false-positive cost of the defense, not
//!   detections).
//! * `bursty` — [`BurstySource`](pipo_workloads::BurstySource), open-loop
//!   bursts over an LLC-scale random region separated by idle gaps.
//!
//! `--trace PATH` adds a cell replaying a recorded `pipo-trace` file — v1
//! text or v2 binary, sniffed by magic. The file is decoded once, at load,
//! and both of the cell's systems replay the decoded
//! [`Trace`](pipo_workloads::Trace). Its region is the trace's own
//! line-address span.
//!
//! Run: `cargo run --release -p pipo_bench --bin trace_replay -- \
//!       [instructions_per_core] [--json PATH] [--sequential | --threads N] \
//!       [--filter BACKEND] [--trace PATH]`

use pipo_bench::{figures, HarnessArgs, Input};

fn main() {
    let args = HarnessArgs::parse(&[Input::Scale(u64::MAX), Input::Filter, Input::Trace]);
    figures::emit(args.json.as_deref(), figures::trace_replay(&args));
}
