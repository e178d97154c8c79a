//! Criterion microbenchmarks of the Auto-Cuckoo filter's hardware-path
//! operations, including the MNK ablation (relocation work per insertion
//! grows with MNK — the hardware-cost side of the Fig. 3/Fig. 7 trade-off).

use auto_cuckoo::{CuckooFilter, FilterParams, PatternStore};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn query_empty_to_full(c: &mut Criterion) {
    let mut group = c.benchmark_group("auto_cuckoo_query");
    for mnk in [0u32, 2, 4, 8] {
        group.bench_with_input(BenchmarkId::new("fill_16k_mnk", mnk), &mnk, |b, &mnk| {
            let params = FilterParams::builder()
                .max_kicks(mnk)
                .build()
                .expect("valid");
            b.iter(|| {
                let mut filter = CuckooFilter::auto(params).expect("valid");
                for i in 0..16_384u64 {
                    filter.query(black_box(i.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1));
                }
                black_box(filter.len())
            });
        });
    }
    group.finish();
}

fn query_saturated(c: &mut Criterion) {
    // Steady-state query cost on a 100%-occupied filter (every insert
    // triggers the kick walk + autonomic deletion).
    let params = FilterParams::paper_default();
    let mut filter = CuckooFilter::auto(params).expect("valid");
    for i in 0..100_000u64 {
        filter.query(i.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1);
    }
    let mut x = 0u64;
    c.bench_function("auto_cuckoo_query_saturated", |b| {
        b.iter(|| {
            x = x.wrapping_add(0xa076_1d64_78bd_642f);
            black_box(filter.query(black_box(x | 1)))
        });
    });
}

fn lookup_hit_vs_miss(c: &mut Criterion) {
    let params = FilterParams::paper_default();
    let mut filter = CuckooFilter::auto(params).expect("valid");
    for i in 0..8_192u64 {
        filter.query(i * 64);
    }
    c.bench_function("auto_cuckoo_contains_hit", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 64) % (8_192 * 64);
            black_box(filter.contains(black_box(i)))
        });
    });
    c.bench_function("auto_cuckoo_contains_miss", |b| {
        let mut i = 1u64 << 40;
        b.iter(|| {
            i += 64;
            black_box(filter.contains(black_box(i)))
        });
    });
}

fn classic_vs_auto_insert(c: &mut Criterion) {
    let mut group = c.benchmark_group("insert_8k_random");
    group.bench_function("classic_mnk500", |b| {
        let params = FilterParams::builder()
            .max_kicks(500)
            .build()
            .expect("valid");
        b.iter(|| {
            let mut filter = CuckooFilter::classic(params).expect("valid");
            for i in 0..8_192u64 {
                filter.query(black_box(i.wrapping_mul(0x2545_f491_4f6c_dd1d) | 1));
            }
            black_box(filter.len())
        });
    });
    group.bench_function("auto_mnk4", |b| {
        let params = FilterParams::paper_default();
        b.iter(|| {
            let mut filter = CuckooFilter::auto(params).expect("valid");
            for i in 0..8_192u64 {
                filter.query(black_box(i.wrapping_mul(0x2545_f491_4f6c_dd1d) | 1));
            }
            black_box(filter.len())
        });
    });
    group.finish();
}

fn quick() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_secs(3))
        .warm_up_time(std::time::Duration::from_secs(1))
}

criterion_group!(
    name = benches;
    config = quick();
    targets =
    query_empty_to_full,
    query_saturated,
    lookup_hit_vs_miss,
    classic_vs_auto_insert
);
criterion_main!(benches);
