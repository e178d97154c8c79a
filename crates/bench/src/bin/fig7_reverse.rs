//! Fig. 7 / §VI-B: defense-aware attacks on the Auto-Cuckoo filter.
//!
//! Paper results:
//! * brute force needs `b·l` fills in expectation (8192 for b=8, l=1024 —
//!   "the adversary needed 8192 memory accesses on average");
//! * a reverse-engineering eviction set must grow as `b^(MNK+1)` (32768 for
//!   b=8, MNK=4), making the targeted attack cost exceed brute force.
//!
//! The empirical reverse-attack sweep runs on a scaled-down filter (l=128,
//! b=8) at MNK 0–3, and on the paper's filter (l=1024, b=8) at MNK 0–4,
//! where 4 is the paper's MNK. The measured quantity is the cost of a
//! *random targeted flood* (addresses whose candidate buckets intersect the
//! target's). On the scaled filter it is lowest at MNK=0, rises at MNK=1 and
//! then stays roughly flat through MNK=3, several times below the
//! brute-force cost of the same filter (`b·l` = 1024 fills). Each MNK's
//! verdict compares its measured mean with the brute-force expectation of
//! its own filter (1024 scaled, 8192 paper), and one closing line per filter
//! summarises the verdicts. Deterministically steering the kick walk is what
//! requires the `b^(MNK+1)` eviction set the paper analyses; that bound is
//! printed alongside (and is the quantity Fig. 7 plots), but the random
//! flood does not build it.
//!
//! The brute-force measurement and the nine MNK sweep points are ten
//! sweep-engine cells evaluated together.
//!
//! Run: `cargo run --release -p pipo_bench --bin fig7_reverse -- \
//!       [trials] [--json PATH] [--sequential | --threads N]`

use auto_cuckoo::{brute_force_expected_fills, reverse_eviction_set_size, FilterParams};
use pipo_attacks::{brute_force_eviction, reverse_engineering_attack};
use pipo_bench::{emit_json, run_cells, sweep_document, HarnessArgs, Input, Json};

/// The most trials a run takes (its scale's bound): the brute-force cell
/// keeps every trial's fill count, 8 bytes each.
const MAX_TRIALS: u64 = 10_000_000;

/// The filters the reverse attack runs on.
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

enum Cell {
    BruteForce {
        trials: usize,
    },
    Reverse {
        geometry: Geometry,
        mnk: u32,
        trials: usize,
    },
}

enum CellResult {
    BruteForce {
        mean_fills: f64,
        analytic: u64,
    },
    Reverse {
        mean_fills: f64,
        /// Brute-force expected fills of the same filter.
        brute_force: u64,
        /// `b^(MNK+1)` of the same filter.
        eviction_set: u64,
        paper_set: u64,
    },
}

fn run_cell(cell: &Cell) -> CellResult {
    match *cell {
        Cell::BruteForce { trials } => {
            let paper = FilterParams::paper_default();
            let bf = brute_force_eviction(paper, trials, 7);
            CellResult::BruteForce {
                mean_fills: bf.mean_fills,
                analytic: brute_force_expected_fills(&paper),
            }
        }
        Cell::Reverse {
            geometry,
            mnk,
            trials,
        } => {
            let params = geometry.params(mnk);
            let result = reverse_engineering_attack(params, trials, 11);
            CellResult::Reverse {
                mean_fills: result.mean_fills,
                brute_force: brute_force_expected_fills(&params),
                eviction_set: reverse_eviction_set_size(&params),
                paper_set: reverse_eviction_set_size(&Geometry::Paper.params(mnk)),
            }
        }
    }
}

/// Prints one reverse-attack table (its heading, then a row and a verdict
/// against its filter's brute-force cost per MNK) and returns the MNKs at
/// which the flood was cheaper than brute force.
fn print_reverse_table(heading: &str, rows: &[(&Cell, &CellResult)]) -> Vec<String> {
    println!("{heading}");
    println!(
        "{:>5} {:>18} {:>22} {:>26}  verdict vs brute force",
        "MNK", "measured fills", "eviction set b^(MNK+1)", "paper-config set size"
    );
    let mut cheaper = Vec::new();
    for (cell, result) in rows {
        let (
            Cell::Reverse { mnk, .. },
            CellResult::Reverse {
                mean_fills,
                brute_force,
                eviction_set,
                paper_set,
            },
        ) = (cell, result)
        else {
            unreachable!("reverse rows hold reverse cells")
        };
        let verdict = if *mean_fills < *brute_force as f64 {
            cheaper.push(mnk.to_string());
            format!("cheaper than {brute_force}")
        } else {
            format!("not cheaper than {brute_force}")
        };
        println!("{mnk:>5} {mean_fills:>18.1} {eviction_set:>22} {paper_set:>26}  {verdict}");
    }
    cheaper
}

/// The closing verdict line of one reverse-attack table.
fn summary(cheaper: &[String]) -> String {
    if cheaper.is_empty() {
        "targeted attack cost reaches brute force at every MNK -> reverse engineering impractical"
            .to_string()
    } else {
        format!(
            "targeted flood is cheaper than brute force at MNK {} \
             -> the measurement does not show reverse engineering impractical",
            cheaper.join(", ")
        )
    }
}

fn main() {
    let args = HarnessArgs::parse(&[Input::Scale(MAX_TRIALS)]);
    let trials = args.scale_or(30) as usize;
    // Per-trial brute-force cost is geometric with mean b*l, so the sample
    // mean needs a few dozen trials to stabilise.
    let bf_trials = trials.max(50);

    // Cells 1–4 are the scaled filter's MNK 0–3 and cells 5–9 the paper
    // filter's MNK 0–4, so the `--json` of the scaled sweep keeps its
    // place.
    let mut cells = vec![Cell::BruteForce { trials: bf_trials }];
    for (geometry, mnks) in [(Geometry::Scaled, 0..=3u32), (Geometry::Paper, 0..=4)] {
        for mnk in mnks {
            cells.push(Cell::Reverse {
                geometry,
                mnk,
                trials,
            });
        }
    }
    let results = run_cells(args.mode, &cells, |_, cell| run_cell(cell));
    let rows: Vec<(&Cell, &CellResult)> = cells.iter().zip(&results).skip(1).collect();
    let (scaled_rows, paper_rows) = rows.split_at(4);

    // --- Brute force on the paper configuration ---
    println!("§VI-B brute force — paper configuration (l=1024, b=8), {bf_trials} trials");
    let CellResult::BruteForce {
        mean_fills,
        analytic,
    } = &results[0]
    else {
        unreachable!("cell 0 is the brute-force cell")
    };
    println!(
        "  measured mean fills to evict target: {mean_fills:.0} (analytic expectation {analytic})"
    );
    println!("  paper: 8192 memory accesses on average\n");

    // --- Reverse engineering sweep over MNK ---
    let scaled_cheaper = print_reverse_table(
        &format!("Fig. 7 reverse-engineering attack — scaled filter (l=128, b=8), {trials} trials"),
        scaled_rows,
    );
    let paper_mnk4 = reverse_eviction_set_size(&FilterParams::paper_default());
    println!("\npaper config (b=8, MNK=4): eviction set b^(MNK+1) = {paper_mnk4} (paper: 32768)");
    println!("{}", summary(&scaled_cheaper));

    println!();
    let paper_cheaper = print_reverse_table(
        &format!("Fig. 7 reverse-engineering attack — paper filter (l=1024, b=8), {trials} trials"),
        paper_rows,
    );
    println!("paper filter: {}", summary(&paper_cheaper));

    let json_cells = cells
        .iter()
        .zip(&results)
        .map(|(cell, result)| match (cell, result) {
            (
                Cell::BruteForce { trials },
                CellResult::BruteForce {
                    mean_fills,
                    analytic,
                },
            ) => Json::object()
                .field("kind", "brute_force")
                .field("trials", *trials)
                .field("mean_fills", *mean_fills)
                .field("analytic_expected_fills", *analytic),
            (
                Cell::Reverse {
                    geometry: Geometry::Scaled,
                    mnk,
                    trials,
                },
                CellResult::Reverse {
                    mean_fills,
                    eviction_set,
                    paper_set,
                    ..
                },
            ) => Json::object()
                .field("kind", "reverse")
                .field("mnk", *mnk)
                .field("trials", *trials)
                .field("mean_fills", *mean_fills)
                .field("eviction_set_scaled", *eviction_set)
                .field("eviction_set_paper", *paper_set),
            (
                Cell::Reverse {
                    geometry: Geometry::Paper,
                    mnk,
                    trials,
                },
                CellResult::Reverse {
                    mean_fills,
                    brute_force,
                    eviction_set,
                    ..
                },
            ) => Json::object()
                .field("kind", "reverse_paper")
                .field("mnk", *mnk)
                .field("trials", *trials)
                .field("mean_fills", *mean_fills)
                .field("eviction_set_paper", *eviction_set)
                .field("brute_force_expected_fills", *brute_force),
            _ => unreachable!("cell kind matches result kind"),
        })
        .collect();
    emit_json(
        args.json.as_deref(),
        &sweep_document("fig7_reverse", args.mode, Json::object(), json_cells),
    );
}
