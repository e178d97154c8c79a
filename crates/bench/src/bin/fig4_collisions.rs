//! Fig. 4: ratio of fingerprint-collision entries in the b=8 Auto-Cuckoo
//! filter as the fingerprint width f grows, classified by the number of
//! addresses collided per entry, after 6 million insertions.
//!
//! Paper result: the ratio tracks ε ≈ 2b/2^f (halving per extra bit); at
//! f = 12 the collision-entry ratio is 0.014 with ε = 0.004, and entries
//! holding more than two collided addresses approach zero.
//!
//! Each fingerprint width is one sweep-engine cell (6 M insertions each, so
//! the fan-out dominates this binary's wall clock).
//!
//! Run: `cargo run --release -p pipo_bench --bin fig4_collisions -- \
//!       [insertions] [--json PATH] [--sequential | --threads N]`

use auto_cuckoo::{false_positive_rate, CuckooFilter, FilterParams, PatternStore};
use pipo_bench::{emit_json, run_cells, sweep_document, HarnessArgs, Input, Json};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const WIDTHS: [u32; 9] = [8, 9, 10, 11, 12, 13, 14, 15, 16];
const SEED: u64 = 41;

struct CollisionResult {
    ratio_collided: f64,
    ratio_exactly_two: f64,
    ratio_heavy: f64,
    eps_analytic: f64,
    approx: f64,
}

fn main() {
    let args = HarnessArgs::parse(&[Input::Scale(u64::MAX)]);
    let insertions = args.scale_or(6_000_000);

    println!(
        "Fig. 4 — fingerprint-collision entry ratios after {insertions} insertions (l=1024, b=8)"
    );
    println!(
        "{:>4} {:>12} {:>12} {:>12} {:>12} {:>12}",
        "f", "ratio>=2", "ratio=2", "ratio>=3", "eps_analytic", "2b/2^f"
    );

    let results = run_cells(args.mode, &WIDTHS, |_, &f| {
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
        CollisionResult {
            ratio_collided: census.collision_ratio(),
            ratio_exactly_two: census.entries_with(2) as f64 / census.total_entries().max(1) as f64,
            ratio_heavy: census.heavy_collision_ratio(),
            eps_analytic: false_positive_rate(&params),
            approx: 16.0 / f64::from(1u32 << f),
        }
    });

    for (&f, r) in WIDTHS.iter().zip(&results) {
        println!(
            "{f:>4} {:>12.5} {:>12.5} {:>12.5} {:>12.5} {:>12.5}",
            r.ratio_collided, r.ratio_exactly_two, r.ratio_heavy, r.eps_analytic, r.approx
        );
    }
    println!();
    println!("paper at f=12: collision ratio 0.014, eps 0.004, >2-address entries ~ 0");

    let cells = WIDTHS
        .iter()
        .zip(&results)
        .map(|(&f, r)| {
            Json::object()
                .field("fingerprint_bits", f)
                .field("ratio_collided", r.ratio_collided)
                .field("ratio_exactly_two", r.ratio_exactly_two)
                .field("ratio_heavy", r.ratio_heavy)
                .field("eps_analytic", r.eps_analytic)
                .field("approx_2b_over_2f", r.approx)
        })
        .collect();
    let meta = Json::object()
        .field("insertions", insertions)
        .field("seed", SEED);
    emit_json(
        args.json.as_deref(),
        &sweep_document("fig4_collisions", args.mode, meta, cells),
    );
}
