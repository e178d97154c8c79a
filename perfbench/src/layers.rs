//! Per-layer metrics: turning the shims' spans and counts into self times,
//! shares and per-event prices, plus the result-store replay.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use pipo_bench::ResultStore;

use crate::sim::{elapsed_ns, replay_filter, FilterReplay, MachineRun, MachineSpec};

/// Metric name → value, in the units `metrics.json` gives them.
pub type Metrics = BTreeMap<String, f64>;

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The machines of one timed op, with what the benchmark knows about how
/// they were executed.
pub struct TimedOp<'a> {
    pub specs: &'a [MachineSpec],
    pub runs: &'a [MachineRun],
    /// Grid cells (or jobs) the op answers.
    pub cells: usize,
    pub threads: usize,
    /// Wall time of the executor that ran all machines.
    pub wall_ns: u64,
}

/// Layer metrics of one timed op. Also returns the filter replays' failures
/// (a replay that does not reproduce the monitor's captures).
pub fn layer_metrics(op: &TimedOp<'_>) -> (Metrics, Vec<String>) {
    let mut m = Metrics::new();
    let mut failures = Vec::new();
    let mut put = |name: &str, value: f64| {
        m.insert(name.to_string(), value);
    };

    let spans: Vec<_> = op
        .runs
        .iter()
        .map(|r| r.spans.as_ref().expect("timed op runs carry spans"))
        .collect();
    let sum =
        |f: &dyn Fn(&crate::sim::Spans) -> u64| spans.iter().map(|s| f(s)).sum::<u64>() as f64;
    let run_ns: f64 = op.runs.iter().map(|r| r.run_ns as f64).sum();
    let refill_ns = sum(&|s| s.refill_ns);
    let observer_ns = sum(&|s| s.observer_ns());
    let generated = sum(&|s| s.generated);
    let accesses: f64 = op.runs.iter().map(|r| r.outcome.accesses() as f64).sum();

    put("workloads.accesses", generated);
    put("workloads.refill_calls", sum(&|s| s.refill_calls));
    put("workloads.ns_per_access", ratio(refill_ns, generated));
    put("workloads.share", ratio(refill_ns, run_ns));

    let cache_self_ns = run_ns - refill_ns - observer_ns;
    put(
        "cache_sim.self_ns_per_access",
        ratio(cache_self_ns, accesses),
    );
    put("cache_sim.share", ratio(cache_self_ns, run_ns));
    let stats = op.runs.iter().map(|r| &r.outcome.stats);
    let per_core = || stats.clone().flat_map(|s| s.per_core.iter());
    put(
        "cache_sim.l1_misses",
        per_core().map(|c| c.l1.misses).sum::<u64>() as f64,
    );
    put(
        "cache_sim.l2_misses",
        per_core().map(|c| c.l2.misses).sum::<u64>() as f64,
    );
    put(
        "cache_sim.llc_misses",
        per_core().map(|c| c.l3.misses).sum::<u64>() as f64,
    );
    put(
        "cache_sim.stall_cycles",
        per_core().map(|c| c.stall_cycles).sum::<u64>() as f64,
    );
    let total =
        |f: &dyn Fn(&cache_sim::HierarchyStats) -> u64| stats.clone().map(f).sum::<u64>() as f64;
    put("cache_sim.llc_evictions", total(&|s| s.llc_evictions));
    put(
        "cache_sim.back_invalidations",
        total(&|s| s.back_invalidations),
    );
    put(
        "cache_sim.coherence_invalidations",
        total(&|s| s.coherence_invalidations),
    );
    put("cache_sim.writebacks", total(&|s| s.writebacks));
    put("cache_sim.prefetch_fills", total(&|s| s.prefetch_fills));
    put("cache_sim.prefetch_hits", total(&|s| s.prefetch_hits));
    put(
        "cache_sim.dram_reads",
        op.runs.iter().map(|r| r.outcome.dram_reads).sum::<u64>() as f64,
    );
    put(
        "cache_sim.makespan_cycles",
        op.runs.iter().map(|r| r.outcome.makespan()).sum::<u64>() as f64,
    );

    // The monitor layer: only monitored machines time their observer.
    let monitored: Vec<usize> = (0..op.specs.len())
        .filter(|&i| op.specs[i].monitor.is_some())
        .collect();
    let msum = |f: &dyn Fn(&crate::sim::Spans) -> u64| {
        monitored.iter().map(|&i| f(spans[i])).sum::<u64>() as f64
    };
    let mstat = |f: &dyn Fn(&pipomonitor::MonitorStats) -> u64| {
        monitored
            .iter()
            .filter_map(|&i| op.runs[i].outcome.monitor.as_ref())
            .map(f)
            .sum::<u64>() as f64
    };
    let fetch_calls = msum(&|s| s.fetch_calls);
    let evict_calls = msum(&|s| s.evict_calls);
    let drain_calls = msum(&|s| s.drain_calls);
    put("monitor.fetch_calls", fetch_calls);
    put(
        "monitor.fetch_ns_per_call",
        ratio(msum(&|s| s.fetch_ns), fetch_calls),
    );
    put("monitor.evict_calls", evict_calls);
    put(
        "monitor.evict_ns_per_call",
        ratio(msum(&|s| s.evict_ns), evict_calls),
    );
    put("monitor.drain_calls", drain_calls);
    put(
        "monitor.drain_ns_per_call",
        ratio(msum(&|s| s.drain_ns), drain_calls),
    );
    put("monitor.share", ratio(observer_ns, run_ns));
    put("monitor.captures", mstat(&|s| s.captures));
    put("monitor.pevicts", mstat(&|s| s.pevicts));
    let scheduled = mstat(&|s| s.prefetches_scheduled);
    put("monitor.prefetches_scheduled", scheduled);
    put(
        "monitor.prefetches_suppressed",
        mstat(&|s| s.prefetches_suppressed),
    );
    let monitored_prefetch_hits: f64 = monitored
        .iter()
        .map(|&i| op.runs[i].outcome.stats.prefetch_hits as f64)
        .sum();
    put(
        "monitor.prefetch_useful_ratio",
        ratio(monitored_prefetch_hits, scheduled),
    );

    // The pattern store, priced by replaying each monitored run's fetches.
    let replays: Vec<FilterReplay> = monitored
        .iter()
        .filter_map(|&i| replay_filter(&op.specs[i], &op.runs[i]))
        .collect();
    for replay in &replays {
        if !replay.captures_match {
            failures.push("filter replay did not reproduce the monitor's captures".to_string());
        }
    }
    let replay_ns: f64 = replays.iter().map(|r| r.ns as f64).sum();
    let replay_queries: f64 = replays.iter().map(|r| r.queries as f64).sum();
    let fstat = |f: &dyn Fn(&auto_cuckoo::FilterStats) -> u64| {
        op.runs
            .iter()
            .filter_map(|r| r.outcome.filter.as_ref())
            .map(f)
            .sum::<u64>() as f64
    };
    let inserts = fstat(&|s| s.inserts);
    put("filter.queries", fstat(&|s| s.queries));
    put("filter.ns_per_query", ratio(replay_ns, replay_queries));
    put("filter.share", ratio(replay_ns, run_ns));
    put("filter.inserts", inserts);
    put("filter.merges", fstat(&|s| s.merges));
    put(
        "filter.kicks_per_insert",
        ratio(fstat(&|s| s.kicks), inserts),
    );
    put(
        "filter.autonomic_deletions",
        fstat(&|s| s.autonomic_deletions),
    );
    put(
        "filter.occupancy",
        ratio(
            replays.iter().map(|r| r.occupancy).sum(),
            replays.len() as f64,
        ),
    );

    put("sweep.cells", op.cells as f64);
    put("sweep.systems", op.runs.len() as f64);
    put("sweep.threads", op.threads as f64);
    put(
        "sweep.busy_share",
        ratio(run_ns, op.threads as f64 * op.wall_ns as f64),
    );
    (m, failures)
}

/// Replays a workload's result records through a fresh [`ResultStore`]:
/// every record `put`, one `flush`, a timed reopen of the final log, then
/// `gets_per_record` rounds of `get` over every record and one scan of the
/// whole store. Returns the `store.*` metrics and any record that did not
/// read back byte-identically.
pub fn store_replay(
    path: &Path,
    records: &[(String, String)],
    gets_per_record: usize,
) -> (Metrics, Vec<String>) {
    let mut failures = Vec::new();
    let _ = std::fs::remove_file(path);
    let mut store = ResultStore::open(path).expect("open a fresh result store");
    let start = Instant::now();
    for (key, payload) in records {
        store.put(key, payload);
    }
    let put_ns = elapsed_ns(start);
    let start = Instant::now();
    store.flush().expect("flush the result store");
    let flush_ns = elapsed_ns(start);
    drop(store);

    let start = Instant::now();
    let mut store = ResultStore::open(path).expect("reopen the result store");
    let open_ns = elapsed_ns(start);
    let mut gets = 0u64;
    let start = Instant::now();
    for _ in 0..gets_per_record {
        for (key, payload) in records {
            gets += 1;
            if store.get(std::hint::black_box(key)) != Some(payload.as_str()) {
                failures.push(format!("store did not return the record put under {key:?}"));
            }
        }
    }
    let get_ns = elapsed_ns(start);
    let scanned: usize = store.records().map(|(k, p)| k.len() + p.len()).sum();
    std::hint::black_box(scanned);
    if store.len() != records.len() {
        failures.push(format!(
            "store holds {} records after the replay, expected {}",
            store.len(),
            records.len()
        ));
    }

    let mut m = Metrics::new();
    m.insert("store.records".into(), records.len() as f64);
    m.insert("store.puts".into(), records.len() as f64);
    m.insert(
        "store.ns_per_put".into(),
        ratio(put_ns as f64, records.len() as f64),
    );
    m.insert("store.flush_ns".into(), flush_ns as f64);
    m.insert("store.open_ns".into(), open_ns as f64);
    m.insert("store.gets".into(), gets as f64);
    m.insert("store.ns_per_get".into(), ratio(get_ns as f64, gets as f64));
    m.insert("store.bytes".into(), store.bytes() as f64);
    drop(store);
    let _ = std::fs::remove_file(path);
    (m, failures)
}

/// Median of `values` (sorted copy; the mean of the middle pair for an
/// even count). `0.0` for no values.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// Nearest-rank percentile `p` (0–100) of `values`; `0.0` for no values.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Per-metric medians over several ops' metric maps.
pub fn median_of(samples: &[Metrics]) -> Metrics {
    let mut out = Metrics::new();
    if let Some(first) = samples.first() {
        for name in first.keys() {
            let values: Vec<f64> = samples
                .iter()
                .filter_map(|m| m.get(name).copied())
                .collect();
            out.insert(name.clone(), median(&values));
        }
    }
    out
}
