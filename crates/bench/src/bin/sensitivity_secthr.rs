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

use auto_cuckoo::FilterParams;
use pipo_bench::{
    emit_json, finish_store, sweep_document, HarnessArgs, Input, Json, MixCell, Sweep,
};
use pipo_workloads::all_mixes;
use pipomonitor::MonitorConfig;

const SEED: u64 = 42;
const THRESHOLDS: [u8; 3] = [1, 2, 3];

fn main() {
    let args = HarnessArgs::parse(&[Input::Scale(u64::MAX), Input::Filter, Input::Store]);
    let instructions = args.instructions();
    let backend = args.filter_backend();
    let mixes = all_mixes();
    println!(
        "§VII-C — secThr sensitivity, {instructions} instructions per core, {backend} backend"
    );
    println!(
        "{:>7} {:>12} {:>12} {:>12}   {:>12} {:>12} {:>12}",
        "mix",
        "perf thr=1",
        "perf thr=2",
        "perf thr=3",
        "fp/Mi thr=1",
        "fp/Mi thr=2",
        "fp/Mi thr=3"
    );

    let mut sweep = Sweep::new();
    for mix in &mixes {
        for thr in THRESHOLDS {
            let filter = FilterParams::builder()
                .security_threshold(thr)
                .build()
                .expect("valid parameters");
            sweep.push(MixCell::new(
                format!("thr{thr}/{}", mix.name),
                *mix,
                MonitorConfig::paper_default()
                    .with_filter(filter)
                    .with_backend(backend),
                instructions,
                SEED,
            ));
        }
    }
    let mut store = args.open_store();
    let started = std::time::Instant::now();
    let (runs, outcome) = sweep.run_with_store(args.mode, store.as_mut());
    finish_store(store.as_mut(), outcome, started.elapsed());

    let mut sums = [0.0f64; 3];
    for (mix, thr_runs) in mixes.iter().zip(runs.chunks(THRESHOLDS.len())) {
        let perfs: Vec<f64> = thr_runs
            .iter()
            .map(pipo_bench::MixRun::normalized_performance)
            .collect();
        let fps: Vec<f64> = thr_runs
            .iter()
            .map(pipo_bench::MixRun::false_positives_per_mi)
            .collect();
        println!(
            "{:>7} {:>12.4} {:>12.4} {:>12.4}   {:>12.1} {:>12.1} {:>12.1}",
            mix.name, perfs[0], perfs[1], perfs[2], fps[0], fps[1], fps[2]
        );
        for (i, p) in perfs.iter().enumerate() {
            sums[i] += p;
        }
    }
    let n = mixes.len() as f64;
    println!(
        "{:>7} {:>12.4} {:>12.4} {:>12.4}",
        "mean",
        sums[0] / n,
        sums[1] / n,
        sums[2] / n
    );
    println!("\npaper: average performance at secThr=3 is better than at 1 or 2");

    let cells = sweep
        .cells()
        .iter()
        .zip(&runs)
        .zip((0..mixes.len()).flat_map(|_| THRESHOLDS))
        .map(|((cell, run), thr)| {
            run.to_json()
                .field("label", cell.label.as_str())
                .field("security_threshold", u64::from(thr))
        })
        .collect();
    let meta = Json::object()
        .field("instructions_per_core", instructions)
        .field("filter_backend", backend.name())
        .field("seed", SEED);
    emit_json(
        args.json.as_deref(),
        &sweep_document("sensitivity_secthr", args.mode, meta, cells),
    );
}
