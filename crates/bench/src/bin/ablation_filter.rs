//! Filter-zoo ablation: every `PatternStore` backend at production scale.
//!
//! The paper evaluates one pattern filter (the Auto-Cuckoo filter) at one
//! size (8192 entries). This figure goes beyond the paper: it drives all
//! four [`FilterBackend`]s with the same multi-tenant memory-fetch stream at
//! *production* scale — millions of tracked line addresses spread over
//! several tenant address spaces — and reports the axes a deployment would
//! trade off:
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

use std::time::Instant;

use auto_cuckoo::{build_store, DetRng, FilterBackend, FilterParams};
use pipo_bench::{emit_json, run_cells, sweep_document, CaptureOracle, HarnessArgs, Input, Json};

/// Distinct benign line addresses (the tracked population) by default.
const DEFAULT_TRACKED: u64 = 2_000_000;
/// The most tracked lines a run takes (its scale's bound). The benign
/// stream holds 24 bytes per line and its exact-fetch marks 3 more. The
/// count behind the marks (freed before the cells run) and each backend
/// cell in flight (its store) take up to about 30 more each: on two
/// threads a run peaks near 170 MiB at the default and 710 MiB at the
/// bound.
const MAX_TRACKED: u64 = 10_000_000;
/// Benign accesses generated per tracked line.
const ACCESSES_PER_LINE: u64 = 3;
/// Independent tenant address spaces sharing the monitor.
const TENANTS: u64 = 8;
/// Fraction (1/N) of each tenant's lines forming its hot set.
const HOT_DIVISOR: u64 = 10;
/// Probability (percent) that an access goes to the hot set.
const HOT_PERCENT: usize = 80;
/// Attacker trials for the detection-latency estimate.
const ATTACK_TRIALS: u64 = 16;
/// Benign accesses interleaved between consecutive attacker accesses.
const BENIGN_PER_PROBE: u64 = 32;
/// Give up on a trial after this many attacker accesses (counts as the cap).
const MAX_PROBES: u64 = 64;
const SEED: u64 = 2021;

struct BackendResult {
    captures: u64,
    exact_captures: u64,
    fp_captures: u64,
    false_alarms_per_mi: f64,
    detection_latency: f64,
    memory_bytes: usize,
    ns_per_access: f64,
    occupancy: f64,
    tracked: usize,
}

/// Geometry shared by every backend: paper policy (`b=8`, `f=12`, MNK=4,
/// `secThr=3`) with the bucket count scaled so capacity comfortably exceeds
/// the tracked population (~2× headroom, as a deployment would provision).
fn production_params(tracked_lines: u64) -> FilterParams {
    let buckets = (tracked_lines / 6).next_power_of_two().max(1024) as usize;
    FilterParams::builder()
        .buckets(buckets)
        .build()
        .expect("scaled parameters are valid")
}

/// The deterministic multi-tenant benign stream: each access picks a tenant,
/// then a line from the tenant's hot set (80%) or its full space (20%).
/// Identical for every backend (same seed), so the comparison is paired.
fn benign_stream(tracked_lines: u64) -> Vec<u64> {
    let per_tenant = (tracked_lines / TENANTS).max(1);
    let hot_lines = (per_tenant / HOT_DIVISOR).max(1);
    let total = tracked_lines * ACCESSES_PER_LINE;
    let mut rng = DetRng::new(SEED);
    let mut stream = Vec::with_capacity(total as usize);
    for _ in 0..total {
        let tenant = rng.below(TENANTS as usize) as u64;
        let line = if rng.below(100) < HOT_PERCENT {
            rng.below(hot_lines as usize) as u64
        } else {
            rng.below(per_tenant as usize) as u64
        };
        // Tenant address spaces are disjoint 1 TiB windows of line addresses.
        stream.push((tenant << 34) | line);
    }
    stream
}

/// Runs one backend over `stream`; `exact_fetch[i]` says whether a capture
/// at fetch `i` is exact ([`CaptureOracle::exact_fetches`]).
fn run_backend(
    backend: FilterBackend,
    params: FilterParams,
    stream: &[u64],
    exact_fetch: &[bool],
) -> BackendResult {
    let mut store = build_store(backend, params).expect("valid parameters");

    // Timed benign phase: the loop body is exactly the monitor's hot path
    // (one query-with-promotion per memory fetch). Capture indices are
    // recorded and sorted against the exact-fetch marks afterwards, so the
    // loop carries no oracle work; the Vec is preallocated so a push cannot
    // trigger a mid-loop reallocation spike.
    let mut captured_at: Vec<u32> = Vec::with_capacity(stream.len() / 16 + 16);
    let started = Instant::now();
    for (i, &line) in stream.iter().enumerate() {
        if store.query(line).captured {
            captured_at.push(i as u32);
        }
    }
    let elapsed = started.elapsed();
    let ns_per_access = elapsed.as_nanos() as f64 / stream.len() as f64;

    let captures = captured_at.len() as u64;
    let exact_captures = captured_at
        .iter()
        .filter(|&&i| exact_fetch[i as usize])
        .count() as u64;
    let fp_captures = captures - exact_captures;
    let false_alarms_per_mi = fp_captures as f64 * 1.0e6 / stream.len() as f64;

    // Detection-latency phase: fresh attacker lines outside every tenant
    // window, probed with benign traffic interleaved (the store keeps its
    // warm benign state — detection must work under load, not in a vacuum).
    let mut rng = DetRng::new(SEED ^ 0x5a5a_5a5a);
    let mut benign = stream.iter().cycle();
    let mut total_probes = 0u64;
    for trial in 0..ATTACK_TRIALS {
        let target = (0xff << 34) | (rng.next_u64() >> 32) | (trial << 20);
        let mut probes = 0u64;
        while probes < MAX_PROBES {
            probes += 1;
            if store.query(target).captured {
                break;
            }
            for _ in 0..BENIGN_PER_PROBE {
                let &line = benign.next().expect("cycled stream never ends");
                store.query(line);
            }
        }
        total_probes += probes;
    }
    let detection_latency = total_probes as f64 / ATTACK_TRIALS as f64;

    BackendResult {
        captures,
        exact_captures,
        fp_captures,
        false_alarms_per_mi,
        detection_latency,
        memory_bytes: store.memory_bytes(),
        ns_per_access,
        occupancy: store.occupancy(),
        tracked: store.len(),
    }
}

fn main() {
    let args = HarnessArgs::parse(&[Input::Scale(MAX_TRACKED)]);
    let tracked_lines = args.scale_or(DEFAULT_TRACKED).max(1024);
    let params = production_params(tracked_lines);
    let accesses = tracked_lines * ACCESSES_PER_LINE;
    println!(
        "filter-zoo ablation — {tracked_lines} tracked lines across {TENANTS} tenants, \
         {accesses} benign accesses, capacity {} ({}x{})",
        params.capacity(),
        params.buckets(),
        params.entries_per_bucket(),
    );

    let stream = benign_stream(tracked_lines);
    let exact_fetch = CaptureOracle::exact_fetches(params.security_threshold(), &stream);
    let backends = FilterBackend::ALL;
    let results = run_cells(args.mode, &backends, |_, &backend| {
        run_backend(backend, params, &stream, &exact_fetch)
    });

    println!(
        "\n{:>8} {:>12} {:>14} {:>12} {:>12} {:>12} {:>10}",
        "backend", "captures", "false alarms", "fa/Mi", "latency", "memory", "ns/access"
    );
    for (backend, r) in backends.iter().zip(&results) {
        println!(
            "{:>8} {:>12} {:>14} {:>12.2} {:>12.1} {:>12} {:>10.1}",
            backend.name(),
            r.captures,
            r.fp_captures,
            r.false_alarms_per_mi,
            r.detection_latency,
            r.memory_bytes,
            r.ns_per_access
        );
    }
    println!("\nexact-capture floor (oracle): every backend also raised the genuine captures its");
    println!("hot lines earned; the false-alarm column is the backend-specific excess.");
    println!("detection latency: attacker accesses to capture (exact stores: secThr+1 = 4).");

    let cells = backends
        .iter()
        .zip(&results)
        .map(|(backend, r)| {
            Json::object()
                .field("backend", backend.name())
                .field("captures", r.captures)
                .field("exact_captures", r.exact_captures)
                .field("fp_captures", r.fp_captures)
                .field("false_alarms_per_mi", r.false_alarms_per_mi)
                .field("detection_latency_accesses", r.detection_latency)
                .field("memory_bytes", r.memory_bytes)
                .field("ns_per_access", r.ns_per_access)
                .field("occupancy", r.occupancy)
                .field("tracked_len", r.tracked)
        })
        .collect();
    let meta = Json::object()
        .field("tracked_lines", tracked_lines)
        .field("tenants", TENANTS)
        .field("benign_accesses", accesses)
        .field("capacity", params.capacity())
        .field("buckets", params.buckets())
        .field("attack_trials", ATTACK_TRIALS)
        .field("seed", SEED);
    emit_json(
        args.json.as_deref(),
        &sweep_document("ablation_filter", args.mode, meta, cells),
    );
}
