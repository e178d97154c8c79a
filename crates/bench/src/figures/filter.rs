//! The filter figures: Fig. 3's occupancy, Fig. 4's fingerprint
//! collisions, Fig. 7's defense-aware attacks, the filter-zoo ablation and
//! §VII-D's overhead table. They drive the pattern stores directly, with no
//! system simulation. Each but the overhead table, which is arithmetic on
//! five built filters, runs its cells in one `run_cells` call.

use std::fmt::Write as _;
use std::time::Instant;

use auto_cuckoo::{
    brute_force_expected_fills, build_store, false_positive_rate, reverse_eviction_set_size,
    CuckooFilter, DetRng, FilterBackend, FilterParams, PatternStore,
};
use pipo_attacks::{brute_force_eviction, reverse_engineering_attack};
use pipomonitor::OverheadReport;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{
    fig8_filter_sizes, filter_with_size, run_cells, sweep_document, CaptureOracle, HarnessArgs,
    Json,
};

/// Fig. 3: the Auto-Cuckoo filter's occupancy after every 1000 random
/// insertions up to 16 000, at five MNK values, and at the paper's spot
/// check of 12 500 insertions with MNK 2.
pub fn fig3_occupancy(args: &HarnessArgs) -> (String, Json) {
    const MNKS: [u32; 5] = [0, 1, 2, 4, 8];
    const SEED: u64 = 3;
    let checkpoints: Vec<u64> = (1..=16).map(|k| k * 1000).collect();
    // One cell per MNK curve, plus the paper's 12.5 K spot check at MNK=2.
    let mut cells: Vec<(u32, Vec<u64>)> =
        MNKS.iter().map(|&mnk| (mnk, checkpoints.clone())).collect();
    cells.push((2, vec![12_500]));
    let curves = run_cells(args.mode, &cells, |_, (mnk, points)| {
        let params = FilterParams::builder()
            .max_kicks(*mnk)
            .build()
            .expect("valid parameters");
        let mut filter = CuckooFilter::auto(params).expect("valid parameters");
        let mut rng = StdRng::seed_from_u64(SEED);
        let mut inserted = 0;
        let curve: Vec<f64> = points
            .iter()
            .map(|&point| {
                for _ in inserted..point {
                    // Random addresses from the whole memory address space.
                    filter.query(rng.gen::<u64>() | 1);
                }
                inserted = point;
                filter.occupancy()
            })
            .collect();
        let cell = Json::object()
            .field("mnk", *mnk)
            .field(
                "insertions",
                points.iter().map(|&p| Json::UInt(p)).collect::<Vec<_>>(),
            )
            .field(
                "occupancy",
                curve.iter().map(|&o| Json::Float(o)).collect::<Vec<_>>(),
            );
        (curve, cell)
    });
    let (curves, cells): (Vec<Vec<f64>>, Vec<Json>) = curves.into_iter().unzip();

    let mut text = format!(
        "Fig. 3 — Auto-Cuckoo filter occupancy vs insertions (l=1024, b=8, f=12)\n{:>12}",
        "insertions"
    );
    for mnk in MNKS {
        let _ = write!(text, "  MNK={mnk:<4}");
    }
    for (row, checkpoint) in checkpoints.iter().enumerate() {
        let _ = write!(text, "\n{checkpoint:>12}");
        for curve in &curves[..MNKS.len()] {
            let _ = write!(text, "  {:>7.4}", curve[row]);
        }
    }
    let _ = writeln!(
        text,
        "\n\noccupancy at 12.5K insertions with MNK=2: {:.4} (paper: 1.00)",
        curves[MNKS.len()][0]
    );
    let meta = Json::object().field("seed", SEED);
    (
        text,
        sweep_document("fig3_occupancy", args.mode, meta, cells),
    )
}

/// Fig. 4: after the scale's random insertions (default 6 M) into the
/// l=1024, b=8 filter, the share of entries whose fingerprint collided,
/// by addresses per entry, at fingerprint widths 8 to 16 bits, beside the
/// analytic false-positive rate and its `2b/2^f` approximation.
pub fn fig4_collisions(args: &HarnessArgs) -> (String, Json) {
    const SEED: u64 = 41;
    let insertions = args.scale_or(6_000_000);
    let widths: [u32; 9] = [8, 9, 10, 11, 12, 13, 14, 15, 16];
    let rows = run_cells(args.mode, &widths, |_, &f| {
        let params = FilterParams::builder()
            .fingerprint_bits(f)
            .build()
            .expect("valid parameters");
        let mut filter = CuckooFilter::auto(params).expect("valid parameters");
        let mut rng = StdRng::seed_from_u64(SEED);
        for _ in 0..insertions {
            filter.query(rng.gen::<u64>() | 1);
        }
        let census = filter.census();
        let collided = census.collision_ratio();
        let exactly_two = census.entries_with(2) as f64 / census.total_entries().max(1) as f64;
        let heavy = census.heavy_collision_ratio();
        let eps = false_positive_rate(&params);
        let approx = 16.0 / f64::from(1u32 << f);
        (
            format!(
                "{f:>4} {collided:>12.5} {exactly_two:>12.5} {heavy:>12.5} {eps:>12.5} \
                 {approx:>12.5}\n"
            ),
            Json::object()
                .field("fingerprint_bits", f)
                .field("ratio_collided", collided)
                .field("ratio_exactly_two", exactly_two)
                .field("ratio_heavy", heavy)
                .field("eps_analytic", eps)
                .field("approx_2b_over_2f", approx),
        )
    });
    let (rows, cells): (String, Vec<Json>) = rows.into_iter().unzip();
    let text = format!(
        "Fig. 4 — fingerprint-collision entry ratios after {insertions} insertions \
         (l=1024, b=8)\n{:>4} {:>12} {:>12} {:>12} {:>12} {:>12}\n{rows}\n\
         paper at f=12: collision ratio 0.014, eps 0.004, >2-address entries ~ 0\n",
        "f", "ratio>=2", "ratio=2", "ratio>=3", "eps_analytic", "2b/2^f"
    );
    let meta = Json::object()
        .field("insertions", insertions)
        .field("seed", SEED);
    (
        text,
        sweep_document("fig4_collisions", args.mode, meta, cells),
    )
}

/// The filters Fig. 7's reverse attack runs on.
#[derive(Clone, Copy)]
enum Geometry {
    /// l=128, b=8: the effect is measurable in seconds.
    Scaled,
    /// The paper's l=1024, b=8 (`FilterParams::paper_default()` at MNK 4).
    Paper,
}

impl Geometry {
    fn params(self, mnk: u32) -> FilterParams {
        let builder = match self {
            Geometry::Scaled => FilterParams::builder()
                .buckets(128)
                .entries_per_bucket(8)
                .fingerprint_bits(14),
            Geometry::Paper => FilterParams::builder(),
        };
        builder.max_kicks(mnk).build().expect("valid parameters")
    }
}

/// One MNK's row of a Fig. 7 reverse-attack table, with its verdict
/// against its filter's brute-force cost; its `--json` cell; and the MNK
/// again when the flood was cheaper than brute force.
fn reverse_row(geometry: Geometry, mnk: u32, trials: usize) -> (String, Json, Option<u32>) {
    let params = geometry.params(mnk);
    let mean_fills = reverse_engineering_attack(params, trials, 11).mean_fills;
    let brute_force = brute_force_expected_fills(&params);
    let eviction_set = reverse_eviction_set_size(&params);
    let paper_set = reverse_eviction_set_size(&Geometry::Paper.params(mnk));
    let cheaper = mean_fills < brute_force as f64;
    let verdict = if cheaper { "cheaper" } else { "not cheaper" };
    let row = format!(
        "{mnk:>5} {mean_fills:>18.1} {eviction_set:>22} {paper_set:>26}  {verdict} than \
         {brute_force}\n"
    );
    let cell = |kind: &str| {
        Json::object()
            .field("kind", kind)
            .field("mnk", mnk)
            .field("trials", trials)
            .field("mean_fills", mean_fills)
    };
    let cell = match geometry {
        Geometry::Scaled => cell("reverse")
            .field("eviction_set_scaled", eviction_set)
            .field("eviction_set_paper", paper_set),
        Geometry::Paper => cell("reverse_paper")
            .field("eviction_set_paper", eviction_set)
            .field("brute_force_expected_fills", brute_force),
    };
    (row, cell, cheaper.then_some(mnk))
}

/// Fig. 7 / §VI-B: the fills a brute-force flood needs to evict a target
/// record from the paper's filter (over at least 50 trials), then the
/// fills a random targeted flood needs over the scale's trials (default
/// 30) at each MNK, on a scaled filter (MNK 0–3) and on the paper's (MNK
/// 0–4), each against its own filter's brute-force cost.
pub fn fig7_reverse(args: &HarnessArgs) -> (String, Json) {
    let trials = args.scale_or(30) as usize;
    // Per-trial brute-force cost is geometric with mean b*l, so the sample
    // mean needs a few dozen trials to stabilise.
    let bf_trials = trials.max(50);
    // Cell 0 is brute force; cells 1–4 are the scaled filter's MNK 0–3 and
    // cells 5–9 the paper filter's MNK 0–4, so the `--json` of the scaled
    // sweep keeps its place.
    let mut cells = vec![None];
    for (geometry, mnks) in [(Geometry::Scaled, 0..=3u32), (Geometry::Paper, 0..=4)] {
        cells.extend(mnks.map(|mnk| Some((geometry, mnk))));
    }
    let results = run_cells(args.mode, &cells, |_, &cell| {
        let Some((geometry, mnk)) = cell else {
            let paper = FilterParams::paper_default();
            let mean_fills = brute_force_eviction(paper, bf_trials, 7).mean_fills;
            let analytic = brute_force_expected_fills(&paper);
            let text = format!(
                "§VI-B brute force — paper configuration (l=1024, b=8), {bf_trials} trials\n  \
                 measured mean fills to evict target: {mean_fills:.0} (analytic expectation \
                 {analytic})\n  paper: 8192 memory accesses on average\n\n"
            );
            let cell = Json::object()
                .field("kind", "brute_force")
                .field("trials", bf_trials)
                .field("mean_fills", mean_fills)
                .field("analytic_expected_fills", analytic);
            return (text, cell, None);
        };
        reverse_row(geometry, mnk, trials)
    });

    // A reverse-attack table and its closing verdict.
    let table = |filter: &str, rows: &[(String, Json, Option<u32>)]| {
        let mut text = format!(
            "Fig. 7 reverse-engineering attack — {filter}, {trials} trials\n\
             {:>5} {:>18} {:>22} {:>26}  verdict vs brute force\n",
            "MNK", "measured fills", "eviction set b^(MNK+1)", "paper-config set size"
        );
        let mut cheaper = Vec::new();
        for (row, _, mnk) in rows {
            text.push_str(row);
            cheaper.extend(mnk.map(|mnk| mnk.to_string()));
        }
        let verdict = if cheaper.is_empty() {
            "targeted attack cost reaches brute force at every MNK -> reverse engineering \
             impractical"
                .to_string()
        } else {
            format!(
                "targeted flood is cheaper than brute force at MNK {} -> the measurement does \
                 not show reverse engineering impractical",
                cheaper.join(", ")
            )
        };
        (text, verdict)
    };
    let (scaled, scaled_verdict) = table("scaled filter (l=128, b=8)", &results[1..5]);
    let (paper, paper_verdict) = table("paper filter (l=1024, b=8)", &results[5..]);
    let paper_mnk4 = reverse_eviction_set_size(&FilterParams::paper_default());
    let text = format!(
        "{}{scaled}\npaper config (b=8, MNK=4): eviction set b^(MNK+1) = {paper_mnk4} \
         (paper: 32768)\n{scaled_verdict}\n\n{paper}paper filter: {paper_verdict}\n",
        results[0].0
    );
    let cells = results.into_iter().map(|(_, cell, _)| cell).collect();
    (
        text,
        sweep_document("fig7_reverse", args.mode, Json::object(), cells),
    )
}

/// Distinct benign line addresses (the tracked population) by default.
const DEFAULT_TRACKED: u64 = 2_000_000;
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
/// Seed of the filter-zoo ablation's benign stream and attacker lines.
const ZOO_SEED: u64 = 2021;

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
    let mut rng = DetRng::new(ZOO_SEED);
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

/// Runs one backend over `stream` and returns its table row and `--json`
/// cell; `exact_fetch[i]` says whether a capture at fetch `i` is exact
/// ([`CaptureOracle::exact_fetches`]).
fn run_backend(
    backend: FilterBackend,
    params: FilterParams,
    stream: &[u64],
    exact_fetch: &[bool],
) -> (String, Json) {
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
    let mut rng = DetRng::new(ZOO_SEED ^ 0x5a5a_5a5a);
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
    let latency = total_probes as f64 / ATTACK_TRIALS as f64;
    let memory_bytes = store.memory_bytes();

    (
        format!(
            "{:>8} {captures:>12} {fp_captures:>14} {false_alarms_per_mi:>12.2} {latency:>12.1} \
             {memory_bytes:>12} {ns_per_access:>10.1}\n",
            backend.name()
        ),
        Json::object()
            .field("backend", backend.name())
            .field("captures", captures)
            .field("exact_captures", exact_captures)
            .field("fp_captures", fp_captures)
            .field("false_alarms_per_mi", false_alarms_per_mi)
            .field("detection_latency_accesses", latency)
            .field("memory_bytes", memory_bytes)
            .field("ns_per_access", ns_per_access)
            .field("occupancy", store.occupancy())
            .field("tracked_len", store.len()),
    )
}

/// The filter-zoo ablation: every [`FilterBackend`] driven by one
/// multi-tenant benign stream over the scale's tracked lines (default 2 M,
/// at least 1024), with its captures, false alarms per million accesses,
/// detection latency, modelled memory and host ns per access.
pub fn ablation_filter(args: &HarnessArgs) -> (String, Json) {
    let tracked_lines = args.scale_or(DEFAULT_TRACKED).max(1024);
    let params = production_params(tracked_lines);
    let accesses = tracked_lines * ACCESSES_PER_LINE;
    let stream = benign_stream(tracked_lines);
    let exact_fetch = CaptureOracle::exact_fetches(params.security_threshold(), &stream);
    let rows = run_cells(args.mode, &FilterBackend::ALL, |_, &backend| {
        run_backend(backend, params, &stream, &exact_fetch)
    });
    let (rows, cells): (String, Vec<Json>) = rows.into_iter().unzip();
    let text = format!(
        "filter-zoo ablation — {tracked_lines} tracked lines across {TENANTS} tenants, \
         {accesses} benign accesses, capacity {} ({}x{})\n\n\
         {:>8} {:>12} {:>14} {:>12} {:>12} {:>12} {:>10}\n{rows}\n\
         exact-capture floor (oracle): every backend also raised the genuine captures its\n\
         hot lines earned; the false-alarm column is the backend-specific excess.\n\
         detection latency: attacker accesses to capture (exact stores: secThr+1 = 4).\n",
        params.capacity(),
        params.buckets(),
        params.entries_per_bucket(),
        "backend",
        "captures",
        "false alarms",
        "fa/Mi",
        "latency",
        "memory",
        "ns/access"
    );
    let meta = Json::object()
        .field("tracked_lines", tracked_lines)
        .field("tenants", TENANTS)
        .field("benign_accesses", accesses)
        .field("capacity", params.capacity())
        .field("buckets", params.buckets())
        .field("attack_trials", ATTACK_TRIALS)
        .field("seed", ZOO_SEED);
    (
        text,
        sweep_document("ablation_filter", args.mode, meta, cells),
    )
}

/// §VII-D: the storage and area of the Auto-Cuckoo filter at the five
/// Fig. 8 sizes, against a 4 MB LLC. Storage is each built filter's
/// `memory_bytes`, and area scales from the paper's CACTI data point.
pub fn overhead_table(args: &HarnessArgs) -> (String, Json) {
    let llc_bytes: u64 = 4 << 20;
    let (rows, cells): (String, Vec<Json>) = fig8_filter_sizes()
        .into_iter()
        .map(|(l, b)| {
            let params = filter_with_size(l, b);
            let filter = CuckooFilter::auto(params).expect("figure-8 geometry is valid");
            let report = OverheadReport::for_store(&filter, llc_bytes);
            (
                format!(
                    "{l:>6}x{b:<2} {:>8} {:>12} {:>10.2} {:>12.3} {:>10.4} {:>12.3}\n",
                    params.capacity(),
                    params.entry_bits(),
                    report.storage_kib(),
                    report.storage_relative_to_llc * 100.0,
                    report.area_mm2,
                    report.area_relative_to_llc * 100.0
                ),
                Json::object()
                    .field("l", l)
                    .field("b", b)
                    .field("entries", params.capacity())
                    .field("bits_per_entry", params.entry_bits())
                    .field("storage_kib", report.storage_kib())
                    .field("storage_relative_to_llc", report.storage_relative_to_llc)
                    .field("area_mm2", report.area_mm2)
                    .field("area_relative_to_llc", report.area_relative_to_llc),
            )
        })
        .unzip();
    let text = format!(
        "§VII-D — PiPoMonitor hardware overhead against a 4 MB LLC\n\
         {:>9} {:>8} {:>12} {:>10} {:>12} {:>10} {:>12}\n{rows}\n\
         paper (1024x8): 15 KB storage (0.37%), 0.013 mm^2 (0.32%)\n",
        "size", "entries", "bits/entry", "KiB", "% of LLC", "mm^2", "% LLC area"
    );
    let meta = Json::object().field("llc_bytes", llc_bytes);
    (
        text,
        sweep_document("overhead_table", args.mode, meta, cells),
    )
}
