//! Records a workload source into a `pipo-trace` file — v2 binary when the
//! output path ends in `.trace2`, v1 text otherwise.
//!
//! This is the tool that generated the bundled corpus under
//! `crates/workloads/traces/`; rerun it to regenerate or extend the corpus:
//!
//! ```sh
//! cargo run --release --example record_trace -- stride 256 out.trace
//! cargo run --release --example record_trace -- pointer_chase 2048 out.trace2
//! cargo run --release --example record_trace -- profile:gcc 2000 out.trace2
//! cargo run --release --example record_trace -- occupancy 2048 out.trace2
//! cargo run --release --example record_trace -- noisy_neighbor 2048 out.trace2
//! cargo run --release --example record_trace -- bursty 2048 out.trace2
//! ```
//!
//! Sources are seeded deterministically (seed 42, core 0; scenario sources
//! use the parameters of the `trace_replay` harness), so the same
//! invocation always produces the same trace, byte for byte.

use pipo_attacks::OccupancyChannelSource;
use pipo_bench::args::{exit_with_error, write_stdout};
use pipo_workloads::{
    benchmark, BurstySource, NoisyNeighborSource, PointerChaseSource, ProfileSource, StrideSource,
    Trace,
};

const SEED: u64 = 42;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [source_name, count, path] = &args[..] else {
        exit_with_error(
            2,
            "expected 3 arguments\n\
             usage: record_trace <stride|pointer_chase|occupancy|noisy_neighbor|bursty|profile:NAME> \
             <count> <out.trace|out.trace2>",
        );
    };
    let count: usize = count
        .parse()
        .unwrap_or_else(|_| exit_with_error(2, format!("unparsable access count {count:?}")));

    let trace = match source_name.as_str() {
        "stride" => Trace::record(&mut StrideSource::new(0x4000, 64, 3), count),
        "pointer_chase" => {
            Trace::record(&mut PointerChaseSource::new(1 << 20, 4096, 5, SEED), count)
        }
        // The scenario-library sources, with the trace_replay harness's
        // parameters (paper LLC geometry: 4096 sets, 16 ways).
        "occupancy" => Trace::record(
            &mut OccupancyChannelSource::new(48 << 36, 4096, 16, 64, 2),
            count,
        ),
        "noisy_neighbor" => {
            let tenants = [
                benchmark("mcf").expect("known"),
                benchmark("gcc").expect("known"),
                benchmark("libquantum").expect("known"),
            ];
            Trace::record(&mut NoisyNeighborSource::new(&tenants, 16, 32, 2126), count)
        }
        "bursty" => Trace::record(
            &mut BurstySource::new(40 << 36, 1 << 16, 32, 4_000, 1, 2126),
            count,
        ),
        name => {
            let Some(bench) = name.strip_prefix("profile:").and_then(benchmark) else {
                exit_with_error(2, format!("unknown source {name:?}"));
            };
            Trace::record(&mut ProfileSource::new(bench, 0, SEED), count)
        }
    };

    let bytes = if path.ends_with(".trace2") {
        trace.to_v2()
    } else {
        let mut text =
            format!("# pipo-trace v1\n# source: {source_name} (seed {SEED}), {count} accesses\n");
        text.push_str(
            trace
                .to_text()
                .strip_prefix("# pipo-trace v1\n")
                .expect("serialiser writes the header"),
        );
        text.into_bytes()
    };
    // Atomic (temp + rename): a recording killed mid-write must never leave
    // a truncated trace behind for a later replay to trip over.
    pipo_bench::write_atomic(path, &bytes)
        .unwrap_or_else(|e| exit_with_error(1, format!("cannot write {path}: {e}")));
    write_stdout(&format!(
        "recorded {} accesses to {path} ({} bytes)\n",
        trace.len(),
        bytes.len()
    ));
}
