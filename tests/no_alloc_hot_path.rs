//! Proves the steady-state simulation hot path is allocation-free.
//!
//! A counting global allocator tallies every heap allocation. After a warm-up
//! (which sizes the prefetch queue, the drain buffer, and the report
//! vectors), two further equally sized monitored run windows
//! must allocate *exactly the same* amount — i.e. the per-run constant
//! (SimReport vectors, stats clone) is all that remains, and the per-access
//! allocation count is zero. A paired test pins the absolute per-window
//! number so a regression in either direction is caught. A last section
//! pins what building a machine allocates when one of the same
//! configuration was just dropped: none of its cache arrays.

use std::alloc::{GlobalAlloc, Layout, System as SystemAlloc};
use std::sync::atomic::{AtomicU64, Ordering};

use auto_cuckoo::{build_store, FilterBackend, FilterParams};
use cache_sim::{Access, Addr, CoreId, NullObserver, System, SystemConfig, LINE_SIZE};
use pipo_workloads::{benchmark, mixes::mix_by_name, ProfileSource, Trace};
use pipomonitor::{MonitorConfig, PiPoMonitor};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates directly to the system allocator; the counter is a
// relaxed atomic with no other side effects.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { SystemAlloc.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { SystemAlloc.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { SystemAlloc.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// A monitored `cores`-core system under a Prime+Probe-shaped workload, so
/// the observer path (filter queries, pEvicts, prefetch scheduling and
/// draining) is continuously exercised — not just the benign L1-hit fast
/// path. Cores past the victim and the attacker run mix7 benchmarks.
fn pingpong_system(cores: usize) -> System<PiPoMonitor> {
    let mut config = SystemConfig::paper_default();
    config.cores = cores;
    let sets = config.l3.sets as u64;
    let ways = config.l3.ways as u64;
    let line = LINE_SIZE;
    let monitor = PiPoMonitor::new(MonitorConfig::paper_default()).expect("valid config");
    let mut system = System::new(config, monitor);
    system.set_source(
        CoreId(0),
        Box::new(move || Some(Access::read(Addr(0)).after(50))),
    );
    let mut i = 0u64;
    system.set_source(
        CoreId(1),
        Box::new(move || {
            i += 1;
            let conflict = (i % (ways + 1) + 1) * sets * line;
            Some(Access::read(Addr(conflict)).after(5))
        }),
    );
    let mix = mix_by_name("mix7").expect("mix exists");
    for core in 2..cores {
        let bench = mix.benchmarks[core % mix.benchmarks.len()];
        system.set_source(CoreId(core), Box::new(ProfileSource::new(bench, core, 7)));
    }
    system
}

/// One test function (not several) so no other test thread's allocations
/// can land inside a measurement window.
#[test]
fn steady_state_run_allocates_nothing_per_access() {
    // The counting allocator tallies the whole process, and the libtest
    // runner's main thread is still live while this test runs: the first
    // time it parks in `recv` waiting for the test result it lazily
    // initializes its channel context — two small allocations at a racy
    // point in time. Sleep long enough for that one-time init to happen
    // before the first measurement window opens.
    std::thread::sleep(std::time::Duration::from_millis(200));

    // --- Monitored systems under the ping-pong workload ---
    // The paper's 4-core machine and a 32-core one, so the scheduler is
    // pinned at a size far past the paper configuration too.
    for cores in [4, 32] {
        let mut system = pingpong_system(cores);
        // Warm-up: grows every reusable structure to its steady-state
        // capacity. A resumed run restarts cores whose clocks lie far apart
        // (the victim retires its quota in a fraction of the attacker's
        // cycles), so the monitor's prefetch queue keeps deepening over the
        // first few resumed runs; warm up through several of them.
        let mut quota = 0;
        for _ in 0..8 {
            quota += 20_000;
            system.run(quota);
        }

        let before = allocations();
        system.run(quota + 20_000); // window 1: +20k instructions per live core
        let window1 = allocations() - before;
        system.run(quota + 40_000); // window 2: same size
        let window2 = allocations() - before - window1;

        // Identical windows must allocate identically: the per-run constant
        // (report vectors + stats clone) with a zero per-access component.
        assert_eq!(
            window1, window2,
            "{cores} cores: steady-state windows must have identical allocation counts"
        );

        // And that constant is small — a handful of report/stats vectors,
        // far below one allocation per simulated access (20k+ accesses per
        // window).
        assert!(
            window1 <= 8,
            "{cores} cores: per-run allocation constant too large: {window1} \
             allocations (expected ~3: the SimReport vectors)"
        );

        // Sanity: the monitor path really ran (captures + prefetches happened).
        let stats = system.observer().stats();
        assert!(stats.captures > 0, "workload must exercise the filter");
        assert!(
            stats.prefetches_scheduled > 0,
            "workload must exercise the prefetch queue"
        );
    }

    // --- Unmonitored baseline system ---
    let mut system = System::new(SystemConfig::paper_default(), NullObserver);
    let mut i = 0u64;
    system.set_source(
        CoreId(0),
        Box::new(move || {
            i += 1;
            Some(Access::read(Addr((i % 512) * 64)).after(3))
        }),
    );
    system.run(20_000);

    let before = allocations();
    system.run(40_000);
    let window1 = allocations() - before;
    system.run(60_000);
    let window2 = allocations() - before - window1;

    assert_eq!(window1, window2);
    assert!(window1 <= 8, "per-run constant too large: {window1}");

    // --- Batched generator refill path ---
    // `ProfileSource` overrides `AccessSource::refill`, so cores pre-draw
    // 64-access batches into their reusable batch buffer (sized at
    // construction). Steady-state windows over the batched path must stay
    // exactly as allocation-free as the closure-driven ones above.
    let mut system = System::new(SystemConfig::paper_default(), NullObserver);
    for (core, name) in ["gcc", "mcf", "libquantum", "hmmer"].iter().enumerate() {
        let profile = benchmark(name).expect("known benchmark");
        system.set_source(CoreId(core), Box::new(ProfileSource::new(profile, core, 7)));
    }
    system.run(20_000);

    let before = allocations();
    system.run(40_000);
    let window1 = allocations() - before;
    system.run(60_000);
    let window2 = allocations() - before - window1;

    assert_eq!(
        window1, window2,
        "batched-refill windows must have identical allocation counts"
    );
    assert!(
        window1 <= 8,
        "per-run batched constant too large: {window1}"
    );

    // --- Recorded-trace replay ---
    // A v2 trace is decoded once, up front, into a `Trace`; replaying it —
    // and the batched refill into the core's buffer — must allocate
    // nothing in steady state.
    let mut trace = Trace::new();
    for i in 0..40_000u64 {
        let access = if i % 5 == 0 {
            Access::write(Addr((i % 512) * 64))
        } else {
            Access::read(Addr(((i * 67) % 4096) * 64))
        };
        trace.push(access.after(2));
    }
    let decoded = Trace::from_v2(&trace.to_v2()).expect("own encoding decodes");
    let mut system = System::new(SystemConfig::paper_default(), NullObserver);
    system.set_source(CoreId(0), Box::new(decoded.replay()));
    // Cumulative windows stay well inside the trace (40k accesses at 3
    // retired instructions each outlast 120k instructions).
    system.run(20_000);

    let before = allocations();
    system.run(40_000);
    let window1 = allocations() - before;
    system.run(60_000);
    let window2 = allocations() - before - window1;

    assert_eq!(
        window1, window2,
        "trace-replay windows must have identical allocation counts"
    );
    assert!(
        window1 <= 8,
        "per-run trace replay constant too large: {window1}"
    );

    // --- Building a machine after dropping one of the same configuration ---
    // A dropped hierarchy leaves its caches to the next one of the same
    // configuration. So the rebuild allocates only the core vector and the
    // per-core statistics, and none of the cache arrays (fingerprints,
    // slots and LRU stamps: 2.75 MB for the paper machine). A core
    // allocates its batch buffer at its first refill, so the idle cores
    // that `set_source` replaces allocate nothing. The cores run first, so
    // the reused caches are not empty.
    let config = SystemConfig::paper_default();
    let mut system = System::new(config.clone(), NullObserver);
    for (core, name) in ["gcc", "mcf", "libquantum", "hmmer"].iter().enumerate() {
        let profile = benchmark(name).expect("known benchmark");
        system.set_source(CoreId(core), Box::new(ProfileSource::new(profile, core, 7)));
    }
    system.run(20_000);
    drop(system);
    let before = allocations();
    let rebuilt = System::new(config.clone(), NullObserver);
    let rebuild = allocations() - before;
    drop(rebuilt);
    assert_eq!(
        rebuild, 2,
        "building a machine after dropping one of the same configuration"
    );

    // --- Every PatternStore backend's query path, in isolation ---
    // The monitored-system sections above run the default (auto) backend;
    // this pins the stricter store-level contract for the whole zoo, the
    // directory comparison table included: after a
    // warm-up that reaches steady state (for `xor`, that includes several
    // live-window freezes, whose peeling runs in scratch preallocated at
    // construction), a window of queries allocates EXACTLY zero — not a
    // small constant, zero.
    for backend in FilterBackend::ALL
        .into_iter()
        .chain([FilterBackend::Directory])
    {
        let mut store = build_store(backend, FilterParams::paper_default()).expect("valid params");
        // Mixed traffic: a hot set being promoted plus a distinct-line
        // stream that keeps inserting (and, per backend, kicking,
        // autonomically deleting, sharing counters, or rebuilding).
        let mut query_window = |window: u64| {
            for i in 0..40_000u64 {
                let line = if i % 4 == 0 {
                    i % 64
                } else {
                    (window << 32) | (i * 0x9e37_79b9 + 1)
                };
                store.query(line);
            }
        };
        query_window(0); // warm-up
        let before = allocations();
        query_window(1);
        let window1 = allocations() - before;
        query_window(2);
        let window2 = allocations() - before - window1;
        assert_eq!(
            window1, 0,
            "{backend} backend allocated {window1} times in a steady-state query window"
        );
        assert_eq!(
            window2, 0,
            "{backend} backend allocated {window2} times in a steady-state query window"
        );
        // Sanity: the window really exercised the store.
        assert!(store.stats_snapshot().queries >= 120_000);
        assert!(!store.is_empty());
    }
}
