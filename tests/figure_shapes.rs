//! Scaled-down shape checks for every figure of the paper, so `cargo test`
//! alone validates the reproduction (the full-size regenerators live in
//! `crates/bench/src/bin`).

use auto_cuckoo::{false_positive_rate, CuckooFilter, FilterParams, PatternStore};
use pipo_bench::{MixCell, MixRun};
use pipo_workloads::mixes::mix_by_name;
use pipomonitor::MonitorConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Fig. 3 shape: occupancy is insensitive to MNK and reaches 100 % shortly
/// after capacity-many insertions, even with MNK = 2.
#[test]
fn fig3_occupancy_insensitive_to_mnk() {
    let occupancy_curve = |mnk: u32| -> Vec<f64> {
        let params = FilterParams::builder()
            .buckets(256) // scaled: capacity 2048
            .max_kicks(mnk)
            .build()
            .expect("valid");
        let mut filter = CuckooFilter::auto(params).expect("valid");
        let mut rng = StdRng::seed_from_u64(5);
        let mut curve = Vec::new();
        for _ in 0..8 {
            for _ in 0..512 {
                filter.query(rng.gen::<u64>() | 1);
            }
            curve.push(filter.occupancy());
        }
        curve
    };
    let c2 = occupancy_curve(2);
    let c4 = occupancy_curve(4);
    let c8 = occupancy_curve(8);
    for i in 0..c2.len() {
        assert!(
            (c2[i] - c8[i]).abs() < 0.06,
            "MNK=2 vs MNK=8 diverge at point {i}: {} vs {}",
            c2[i],
            c8[i]
        );
    }
    // 2x capacity insertions: full for every MNK.
    assert!(c2.last().expect("nonempty") > &0.999);
    assert!(c4.last().expect("nonempty") > &0.999);
    assert!(c8.last().expect("nonempty") > &0.999);
    // Identical in the early, uncontended phase.
    assert!((c2[0] - c8[0]).abs() < 1e-9);
}

/// Fig. 4 shape: the collision-entry ratio halves per extra fingerprint bit
/// and tracks the analytic ε; ≥3-address entries are negligible at f = 12.
#[test]
fn fig4_collision_ratio_tracks_epsilon() {
    let ratio = |f: u32| -> (f64, f64) {
        let params = FilterParams::builder()
            .fingerprint_bits(f)
            .build()
            .expect("valid");
        let mut filter = CuckooFilter::auto(params).expect("valid");
        let mut rng = StdRng::seed_from_u64(17);
        for _ in 0..300_000u32 {
            filter.query(rng.gen::<u64>() | 1);
        }
        let census = filter.census();
        (census.collision_ratio(), census.heavy_collision_ratio())
    };
    let (r8, _) = ratio(8);
    let (r10, _) = ratio(10);
    let (r12, heavy12) = ratio(12);
    // Halving per bit => ~4x per 2 bits, with generous sampling slack.
    assert!(r8 / r10 > 2.0 && r8 / r10 < 8.0, "r8/r10 = {}", r8 / r10);
    assert!(
        r10 / r12 > 2.0 && r10 / r12 < 8.0,
        "r10/r12 = {}",
        r10 / r12
    );
    // Analytic tracking at f = 12 (paper: ratio 0.014 over 6M insertions;
    // steady-state resident ratio tracks eps*2b/... within a small factor).
    let params12 = FilterParams::paper_default();
    let eps = false_positive_rate(&params12);
    assert!(r12 < eps * 3.0, "ratio {r12} far above eps {eps}");
    assert!(
        heavy12 < 0.001,
        "heavy collisions must vanish at f=12: {heavy12}"
    );
}

/// One mix, baseline plus monitored, on the paper's system with seed 42.
fn run_mix(name: &str, monitor: MonitorConfig, instructions: u64) -> MixRun {
    let mix = mix_by_name(name).expect("known mix");
    MixCell::new(name, mix, monitor, instructions, 42).run()
}

/// Fig. 8 shape at reduced scale: the monitor never slows a mix down by more
/// than a small fraction of a percent, and the high-churn mixes produce far
/// more false positives than the quiet ones.
#[test]
fn fig8_shape_performance_and_false_positives() {
    let instructions = 300_000;
    let config = MonitorConfig::paper_default();
    let mix1 = run_mix("mix1", config, instructions);
    let mix3 = run_mix("mix3", config, instructions);
    let mix6 = run_mix("mix6", config, instructions);
    let mix7 = run_mix("mix7", config, instructions);

    for run in [&mix1, &mix3, &mix6, &mix7] {
        let np = run.normalized_performance();
        assert!(
            np > 0.995,
            "{}: monitor must not slow execution meaningfully ({np})",
            run.mix
        );
        assert!(np < 1.02, "{}: suspicious speedup {np}", run.mix);
    }
    // FP ordering: mix1 and mix7 well above mix3 and mix6 (paper: 97/71 vs <20).
    for hot in [&mix1, &mix7] {
        for cold in [&mix3, &mix6] {
            assert!(
                hot.false_positives_per_mi() > 2.0 * cold.false_positives_per_mi(),
                "{} ({:.1}) must dominate {} ({:.1})",
                hot.mix,
                hot.false_positives_per_mi(),
                cold.mix,
                cold.false_positives_per_mi()
            );
        }
    }
    // Prefetching the false-positive lines is a (small) benefit: captured
    // lines produce prefetch hits.
    assert!(mix1.prefetch_hits > 0);
}

/// §VII-C shape: a lower secThr captures more aggressively (more false
/// positives at threshold 1 than at 3).
#[test]
fn secthr_sensitivity_shape() {
    let instructions = 200_000;
    let run_thr = |thr: u8| {
        let filter = FilterParams::builder()
            .security_threshold(thr)
            .build()
            .expect("valid");
        run_mix(
            "mix1",
            MonitorConfig::paper_default().with_filter(filter),
            instructions,
        )
    };
    let t1 = run_thr(1);
    let t3 = run_thr(3);
    assert!(
        t1.false_positives_per_mi() > t3.false_positives_per_mi() * 1.5,
        "thr=1 ({:.1}) must capture far more than thr=3 ({:.1})",
        t1.false_positives_per_mi(),
        t3.false_positives_per_mi()
    );
}
