//! Ablation: LLC replacement policy vs the Prime+Probe attack and the
//! monitor's false positives.
//!
//! The paper evaluates LRU only. Random replacement weakens the attacker's
//! prime precision (a primed way may survive), while Tree-PLRU behaves close
//! to LRU. The monitor's detection is replacement-agnostic because it
//! watches memory traffic, not set state.
//!
//! Both grids (a baseline and a defended attack cell per policy, three
//! monitored-mix cells) run through the sweep engine.
//!
//! Run: `cargo run --release -p pipo_bench --bin ablation_replacement -- \
//!       [instructions] [--json PATH] [--sequential | --threads N] \
//!       [--store PATH]`

use cache_sim::{Replacement, SystemConfig};
use pipo_attacks::{Attack, AttackCell, AttackConfig, Flush};
use pipo_bench::{
    emit_json, finish_store, run_cells, sweep_document, HarnessArgs, Input, Json, MixCell, Sweep,
};
use pipo_workloads::all_mixes;
use pipomonitor::MonitorConfig;

const SEED: u64 = 42;

fn main() {
    let args = HarnessArgs::parse(&[Input::Scale(u64::MAX), Input::Filter, Input::Store]);
    let backend = args.filter_backend();
    let policies = [
        Replacement::Lru,
        Replacement::TreePlru,
        Replacement::Random { seed: 5 },
    ];

    // The baseline and defended attack distinguishability per policy.
    let config = AttackConfig {
        iterations: 100,
        ..AttackConfig::paper_default()
    };
    let attack_results = run_cells(args.mode, &policies, |_, &policy| {
        let mut system = SystemConfig::paper_default();
        system.replacement = policy;
        [
            None,
            Some(MonitorConfig::paper_default().with_backend(backend)),
        ]
        .map(|defense| {
            let cell = AttackCell::new(Attack::PrimeProbe(Flush::None), config, defense, 99);
            let run = cell.on_system(system.clone()).run();
            run.outcome.trace.recover_key().distinguishability
        })
    });

    println!("replacement ablation — attack channel distinguishability");
    println!("{:>10} {:>14} {:>14}", "policy", "baseline", "with monitor");
    for (policy, [base, defended]) in policies.iter().zip(&attack_results) {
        println!("{:>10} {base:>14.3} {defended:>14.3}", policy.name());
    }

    // Monitor false positives under each policy (mix1, scaled run).
    let instructions = args.instructions().min(500_000);
    println!("\nmonitor false positives on mix1 ({instructions} instructions/core)");
    println!("{:>10} {:>10} {:>12}", "policy", "fp/Mi", "norm perf");
    let mut sweep = Sweep::new();
    for policy in policies {
        let mut cfg = SystemConfig::paper_default();
        cfg.replacement = policy;
        sweep.push(
            MixCell::new(
                format!("{}/mix1", policy.name()),
                all_mixes()[0],
                MonitorConfig::paper_default().with_backend(backend),
                instructions,
                SEED,
            )
            .on_system(cfg),
        );
    }
    // Only the mix sweep is store-keyed; the attack cells above always run
    // (they are not `System::run` cells and have no canonical key).
    let mut store = args.open_store();
    let started = std::time::Instant::now();
    let (mix_runs, outcome) = sweep.run_with_store(args.mode, store.as_mut());
    finish_store(store.as_mut(), outcome, started.elapsed());
    for (policy, run) in policies.iter().zip(&mix_runs) {
        println!(
            "{:>10} {:>10.1} {:>12.4}",
            policy.name(),
            run.false_positives_per_mi(),
            run.normalized_performance()
        );
    }

    let cells = policies
        .iter()
        .zip(&attack_results)
        .zip(&mix_runs)
        .map(|((policy, [base, defended]), run)| {
            run.to_json()
                .field("policy", policy.name())
                .field("attack_distinguishability_baseline", *base)
                .field("attack_distinguishability_monitored", *defended)
        })
        .collect();
    let meta = Json::object()
        .field("instructions_per_core", instructions)
        .field("filter_backend", backend.name())
        .field("seed", SEED);
    emit_json(
        args.json.as_deref(),
        &sweep_document("ablation_replacement", args.mode, meta, cells),
    );
}
