//! Fig. 3: occupancy of the Auto-Cuckoo filter as insertions accumulate,
//! for different MNK values.
//!
//! Paper result: occupancy is insensitive to MNK; curves for all MNK values
//! overlap, are identical below ~9 K insertions, and reach 100 % by ~12.5 K
//! insertions for the l=1024, b=8 configuration — even with MNK = 2.
//!
//! Each MNK curve is one sweep-engine cell (plus one cell for the paper's
//! 12.5 K spot check), so the curves fill in parallel.
//!
//! Run: `cargo run --release -p pipo_bench --bin fig3_occupancy -- \
//!       [--json PATH] [--sequential | --threads N]`

use auto_cuckoo::{CuckooFilter, FilterParams, PatternStore};
use pipo_bench::{emit_json, run_cells, sweep_document, HarnessArgs, Json};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const MNKS: [u32; 5] = [0, 1, 2, 4, 8];
const SEED: u64 = 3;

/// Filter occupancy after each checkpoint's worth of random insertions.
fn occupancy_curve(mnk: u32, checkpoints: &[u64]) -> Vec<f64> {
    let params = FilterParams::builder()
        .max_kicks(mnk)
        .build()
        .expect("valid parameters");
    let mut filter = CuckooFilter::auto(params).expect("valid parameters");
    let mut rng = StdRng::seed_from_u64(SEED);
    let mut curve = Vec::with_capacity(checkpoints.len());
    let mut inserted = 0u64;
    for &cp in checkpoints {
        while inserted < cp {
            // Random addresses from the whole memory address space.
            filter.query(rng.gen::<u64>() | 1);
            inserted += 1;
        }
        curve.push(filter.occupancy());
    }
    curve
}

fn main() {
    let args = HarnessArgs::parse(&[]);
    let checkpoints: Vec<u64> = (1..=16).map(|k| k * 1000).collect();

    println!("Fig. 3 — Auto-Cuckoo filter occupancy vs insertions (l=1024, b=8, f=12)");
    print!("{:>12}", "insertions");
    for mnk in MNKS {
        print!("  MNK={mnk:<4}");
    }
    println!();

    // One cell per MNK curve, plus the paper's 12.5 K spot check at MNK=2.
    let mut cells: Vec<(u32, Vec<u64>)> =
        MNKS.iter().map(|&mnk| (mnk, checkpoints.clone())).collect();
    cells.push((2, vec![12_500]));
    let curves = run_cells(args.mode, &cells, |_, (mnk, cps)| {
        occupancy_curve(*mnk, cps)
    });

    for (row, cp) in checkpoints.iter().enumerate() {
        print!("{cp:>12}");
        for curve in &curves[..MNKS.len()] {
            print!("  {:>7.4}", curve[row]);
        }
        println!();
    }

    let at_12_5k = curves[MNKS.len()][0];
    println!();
    println!("occupancy at 12.5K insertions with MNK=2: {at_12_5k:.4} (paper: 1.00)");

    let json_cells = cells
        .iter()
        .zip(&curves)
        .map(|((mnk, cps), curve)| {
            Json::object()
                .field("mnk", *mnk)
                .field(
                    "insertions",
                    cps.iter().map(|&cp| Json::UInt(cp)).collect::<Vec<_>>(),
                )
                .field(
                    "occupancy",
                    curve.iter().map(|&o| Json::Float(o)).collect::<Vec<_>>(),
                )
        })
        .collect();
    let meta = Json::object().field("seed", SEED);
    emit_json(
        args.json.as_deref(),
        &sweep_document("fig3_occupancy", args.mode, meta, json_cells),
    );
}
