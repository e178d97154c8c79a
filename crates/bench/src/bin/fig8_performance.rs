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

use pipo_bench::{
    emit_json, fig8_filter_sizes, filter_with_size, finish_store, sweep_document, HarnessArgs,
    Input, Json, MixCell, MixRun, Sweep,
};
use pipo_workloads::all_mixes;
use pipomonitor::MonitorConfig;

const SEED: u64 = 42;

fn main() {
    let args = HarnessArgs::parse(&[Input::Scale(u64::MAX), Input::Filter, Input::Store]);
    let instructions = args.instructions();
    let backend = args.filter_backend();
    let sizes = fig8_filter_sizes();
    let mixes = all_mixes();
    println!(
        "Fig. 8 — {} instructions per core, filter sizes {:?}, {backend} backend",
        instructions, sizes
    );

    let mut sweep = Sweep::new();
    for &(l, b) in &sizes {
        let config = MonitorConfig::paper_default()
            .with_filter(filter_with_size(l, b))
            .with_backend(backend);
        for mix in &mixes {
            sweep.push(MixCell::new(
                format!("{l}x{b}/{}", mix.name),
                *mix,
                config,
                instructions,
                SEED,
            ));
        }
    }
    let mut store = args.open_store();
    let started = std::time::Instant::now();
    let (runs, outcome) = sweep.run_with_store(args.mode, store.as_mut());
    finish_store(store.as_mut(), outcome, started.elapsed());
    // results[size][mix], matching the cell grid above.
    let results: Vec<&[MixRun]> = runs.chunks(mixes.len()).collect();

    println!("\nFig. 8(a) — normalized performance (baseline = 1.0000, higher is better)");
    print!("{:>7}", "mix");
    for &(l, b) in &sizes {
        print!("  {l:>5}x{b:<2}");
    }
    println!();
    for (m, mix) in mixes.iter().enumerate() {
        print!("{:>7}", mix.name);
        for runs in &results {
            print!("  {:>8.4}", runs[m].normalized_performance());
        }
        println!();
    }
    print!("{:>7}", "mean");
    for runs in &results {
        let mean: f64 =
            runs.iter().map(MixRun::normalized_performance).sum::<f64>() / runs.len() as f64;
        print!("  {mean:>8.4}");
    }
    println!();

    println!("\nFig. 8(b) — false positives per million instructions");
    print!("{:>7}", "mix");
    for &(l, b) in &sizes {
        print!("  {l:>5}x{b:<2}");
    }
    println!();
    for (m, mix) in mixes.iter().enumerate() {
        print!("{:>7}", mix.name);
        for runs in &results {
            print!("  {:>8.1}", runs[m].false_positives_per_mi());
        }
        println!();
    }

    println!("\npaper: avg +0.1% for 1024x8; mix1 up to +0.3%; size impact < 0.2%");
    println!("paper FP/Mi at 1024x8: mix1 ~97, mix7 ~71, mix3/mix6 < 20");

    let cells = sweep
        .cells()
        .iter()
        .zip(&runs)
        .zip(
            sizes
                .iter()
                .flat_map(|&size| mixes.iter().map(move |_| size)),
        )
        .map(|((cell, run), (l, b))| {
            run.to_json()
                .field("label", cell.label.as_str())
                .field("l", l)
                .field("b", b)
        })
        .collect();
    let meta = Json::object()
        .field("instructions_per_core", instructions)
        .field("filter_backend", backend.name())
        .field("seed", SEED);
    emit_json(
        args.json.as_deref(),
        &sweep_document("fig8_performance", args.mode, meta, cells),
    );
}
