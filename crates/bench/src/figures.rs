//! The paper's figures as library code. Each figure is a function from its
//! binary's command line ([`HarnessArgs`]) to the text the binary prints
//! and the `--json` document it writes; [`emit`] is the binaries' one
//! output step.
//!
//! The mix-sweep figures (Fig. 8, the §VII-C secThr sensitivity and the
//! replacement ablation) run their [`MixCell`]s through one runner, which
//! answers warm cells from the `--store` and records cold ones into it.

use std::fmt::Write as _;
use std::io::{self, Write as _};
use std::time::Instant;

use auto_cuckoo::FilterParams;
use cache_sim::{Replacement, SystemConfig};
use pipo_attacks::{Attack, AttackCell, AttackConfig, Flush};
use pipo_workloads::all_mixes;
use pipomonitor::MonitorConfig;

use crate::args::{exit_with_error, write_stdout};
use crate::{
    fig8_filter_sizes, filter_with_size, run_cells, sweep_document, HarnessArgs, Json, MixCell,
    MixRun, Sweep,
};

mod attack;
mod filter;
mod replay;

pub use attack::{ablation_delay, baseline_stateful, fig6_attack};
pub use filter::{ablation_filter, fig3_occupancy, fig4_collisions, fig7_reverse, overhead_table};
pub use replay::trace_replay;

/// Workload seed of every mix-sweep figure's cells.
const SEED: u64 = 42;

/// The binaries' one output step: writes `document` to the `json` path
/// when one is given (exit 1 if that fails), then `text` to stdout through
/// [`write_stdout`], so a reader that stops early loses no result.
pub fn emit(json: Option<&str>, (text, document): (String, Json)) {
    if let Some(path) = json {
        if let Err(e) = document.write_file(path) {
            exit_with_error(1, format!("cannot write JSON output {path}: {e}"));
        }
        let _ = writeln!(io::stderr(), "wrote JSON results to {path}");
    }
    write_stdout(&text);
}

/// Runs a mix-sweep figure's cells as one [`Sweep`] over the `--store`,
/// flushes the store and reports its warm/cold split on stderr (stderr,
/// because it differs between a cold and a warm run while the document
/// must not). Returns the runs in cell order and the figure's `--json`
/// document: one cell per run, its [`MixRun::to_json`] fields followed by
/// those `describe` appends given the cell's index.
fn run_mix_sweep(
    args: &HarnessArgs,
    bench: &str,
    instructions: u64,
    sweep: &Sweep,
    describe: impl Fn(usize, &MixCell, Json) -> Json,
) -> (Vec<MixRun>, Json) {
    let mut store = args.open_store();
    let started = Instant::now();
    let (runs, outcome) = sweep.run_streaming(args.mode, store.as_mut(), |_, _| {});
    let elapsed = started.elapsed();
    if let Some(store) = &mut store {
        let path = store.path().display().to_string();
        if let Err(e) = store.flush() {
            exit_with_error(1, format!("cannot flush result store {path}: {e}"));
        }
        let _ = writeln!(
            io::stderr(),
            "store {path}: {} warm / {} cold cells in {elapsed:.1?} ({} records, {} bytes)",
            outcome.hits,
            outcome.misses,
            store.len(),
            store.bytes(),
        );
    }
    let cells = sweep
        .cells()
        .iter()
        .zip(&runs)
        .enumerate()
        .map(|(i, (cell, run))| describe(i, cell, run.to_json()))
        .collect();
    let meta = Json::object()
        .field("instructions_per_core", instructions)
        .field("filter_backend", args.filter_backend().name())
        .field("seed", SEED);
    let document = sweep_document(bench, args.mode, meta, cells);
    (runs, document)
}

/// Fig. 8: the ten mixes under the five filter sizes, as performance
/// normalised to the unprotected baseline (a) and false positives per
/// million instructions (b). The ten baselines are shared by the sizes.
pub fn fig8_performance(args: &HarnessArgs) -> (String, Json) {
    let instructions = args.instructions();
    let backend = args.filter_backend();
    let sizes = fig8_filter_sizes();
    let mixes = all_mixes();
    let mut sweep = Sweep::new();
    for &(l, b) in &sizes {
        let config = MonitorConfig::paper_default()
            .with_filter(filter_with_size(l, b))
            .with_backend(backend);
        for mix in &mixes {
            let label = format!("{l}x{b}/{}", mix.name);
            sweep.push(MixCell::new(label, *mix, config, instructions, SEED));
        }
    }
    let (runs, document) = run_mix_sweep(
        args,
        "fig8_performance",
        instructions,
        &sweep,
        |_, cell, json| {
            let filter = &cell.monitor.filter;
            json.field("label", cell.label.as_str())
                .field("l", filter.buckets())
                .field("b", filter.entries_per_bucket())
        },
    );
    // results[size][mix], matching the cell grid above.
    let results: Vec<&[MixRun]> = runs.chunks(mixes.len()).collect();

    let mut text = format!(
        "Fig. 8 — {instructions} instructions per core, filter sizes {sizes:?}, {backend} backend\n"
    );
    // (title, metric, decimals, whether a mean row closes the panel)
    let panels = [
        (
            "Fig. 8(a) — normalized performance (baseline = 1.0000, higher is better)",
            MixRun::normalized_performance as fn(&MixRun) -> f64,
            4,
            true,
        ),
        (
            "Fig. 8(b) — false positives per million instructions",
            MixRun::false_positives_per_mi,
            1,
            false,
        ),
    ];
    for (title, metric, precision, with_mean) in panels {
        let _ = write!(text, "\n{title}\n{:>7}", "mix");
        for &(l, b) in &sizes {
            let _ = write!(text, "  {l:>5}x{b:<2}");
        }
        for (m, mix) in mixes.iter().enumerate() {
            let _ = write!(text, "\n{:>7}", mix.name);
            for runs in &results {
                let _ = write!(text, "  {:>8.precision$}", metric(&runs[m]));
            }
        }
        if with_mean {
            let _ = write!(text, "\n{:>7}", "mean");
            for runs in &results {
                let mean = runs.iter().map(metric).sum::<f64>() / runs.len() as f64;
                let _ = write!(text, "  {mean:>8.precision$}");
            }
        }
        text.push('\n');
    }
    text.push_str("\npaper: avg +0.1% for 1024x8; mix1 up to +0.3%; size impact < 0.2%\n");
    text.push_str("paper FP/Mi at 1024x8: mix1 ~97, mix7 ~71, mix3/mix6 < 20\n");
    (text, document)
}

/// §VII-C: the ten mixes under secThr 1, 2 and 3, as normalised
/// performance and false positives per million instructions. The three
/// thresholds share each mix's baseline.
pub fn sensitivity_secthr(args: &HarnessArgs) -> (String, Json) {
    const THRESHOLDS: [u8; 3] = [1, 2, 3];
    let instructions = args.instructions();
    let backend = args.filter_backend();
    let mixes = all_mixes();
    let mut sweep = Sweep::new();
    for mix in &mixes {
        for thr in THRESHOLDS {
            let filter = FilterParams::builder()
                .security_threshold(thr)
                .build()
                .expect("valid parameters");
            let config = MonitorConfig::paper_default()
                .with_filter(filter)
                .with_backend(backend);
            let label = format!("thr{thr}/{}", mix.name);
            sweep.push(MixCell::new(label, *mix, config, instructions, SEED));
        }
    }
    let (runs, document) = run_mix_sweep(
        args,
        "sensitivity_secthr",
        instructions,
        &sweep,
        |_, cell, json| {
            let thr = cell.monitor.filter.security_threshold();
            json.field("label", cell.label.as_str())
                .field("security_threshold", u64::from(thr))
        },
    );

    let mut text = format!(
        "§VII-C — secThr sensitivity, {instructions} instructions per core, {backend} backend\n\
         {:>7} {:>12} {:>12} {:>12}   {:>12} {:>12} {:>12}\n",
        "mix",
        "perf thr=1",
        "perf thr=2",
        "perf thr=3",
        "fp/Mi thr=1",
        "fp/Mi thr=2",
        "fp/Mi thr=3"
    );
    let mut sums = [0.0f64; 3];
    for (mix, thr_runs) in mixes.iter().zip(runs.chunks(THRESHOLDS.len())) {
        let perfs: Vec<f64> = thr_runs
            .iter()
            .map(MixRun::normalized_performance)
            .collect();
        let fps: Vec<f64> = thr_runs
            .iter()
            .map(MixRun::false_positives_per_mi)
            .collect();
        let _ = writeln!(
            text,
            "{:>7} {:>12.4} {:>12.4} {:>12.4}   {:>12.1} {:>12.1} {:>12.1}",
            mix.name, perfs[0], perfs[1], perfs[2], fps[0], fps[1], fps[2]
        );
        for (sum, perf) in sums.iter_mut().zip(perfs) {
            *sum += perf;
        }
    }
    let n = mixes.len() as f64;
    let [thr1, thr2, thr3] = sums.map(|sum| sum / n);
    let _ = writeln!(text, "{:>7} {thr1:>12.4} {thr2:>12.4} {thr3:>12.4}", "mean");
    text.push_str("\npaper: average performance at secThr=3 is better than at 1 or 2\n");
    (text, document)
}

/// The replacement ablation, under LRU, Tree-PLRU and random LLC
/// replacement: Prime+Probe's distinguishability on the baseline and under
/// PiPoMonitor, and the monitor's false positives and normalised
/// performance on mix1. Only the mix cells go through the `--store`: the
/// attack cells are not `System::run` cells and have no canonical key.
pub fn ablation_replacement(args: &HarnessArgs) -> (String, Json) {
    let policies = [
        Replacement::Lru,
        Replacement::TreePlru,
        Replacement::Random { seed: 5 },
    ];
    let on_policy = |replacement| SystemConfig {
        replacement,
        ..SystemConfig::paper_default()
    };
    let monitor = MonitorConfig::paper_default().with_backend(args.filter_backend());
    let attacks = run_cells(args.mode, &policies, |_, &policy| {
        [None, Some(monitor)].map(|defense| {
            let attack = Attack::PrimeProbe(Flush::None);
            let cell = AttackCell::new(attack, AttackConfig::paper_default(), defense, 99);
            let run = cell.on_system(on_policy(policy)).run();
            run.outcome.trace.recover_key().distinguishability
        })
    });

    let instructions = args.instructions().min(500_000);
    let mut sweep = Sweep::new();
    for policy in policies {
        let label = format!("{}/mix1", policy.name());
        let cell = MixCell::new(label, all_mixes()[0], monitor, instructions, SEED);
        sweep.push(cell.on_system(on_policy(policy)));
    }
    let (runs, document) = run_mix_sweep(
        args,
        "ablation_replacement",
        instructions,
        &sweep,
        |i, cell, json| {
            let [base, defended] = attacks[i];
            json.field("policy", cell.system.replacement.name())
                .field("attack_distinguishability_baseline", base)
                .field("attack_distinguishability_monitored", defended)
        },
    );

    let mut text = format!(
        "replacement ablation — attack channel distinguishability\n{:>10} {:>14} {:>14}\n",
        "policy", "baseline", "with monitor"
    );
    for (policy, [base, defended]) in policies.iter().zip(&attacks) {
        let _ = writeln!(text, "{:>10} {base:>14.3} {defended:>14.3}", policy.name());
    }
    let _ = write!(
        text,
        "\nmonitor false positives on mix1 ({instructions} instructions/core)\n\
         {:>10} {:>10} {:>12}\n",
        "policy", "fp/Mi", "norm perf"
    );
    for (policy, run) in policies.iter().zip(&runs) {
        let _ = writeln!(
            text,
            "{:>10} {:>10.1} {:>12.4}",
            policy.name(),
            run.false_positives_per_mi(),
            run.normalized_performance()
        );
    }
    (text, document)
}
