//! Simulator throughput harness: how many simulated memory accesses per
//! wall-clock second `System::run` sustains.
//!
//! Measured configurations:
//!
//! * `baseline` / `directory_monitor` / `pipomonitor` — the paper's 4-core
//!   Table II machine running mix7, with no observer, PiPoMonitor recording
//!   in the directory-table baseline, and PiPoMonitor respectively.
//! * `pipomonitor_8c` / `pipomonitor_16c` / `pipomonitor_32c` — the same
//!   monitored machine scaled to more cores (mix7 benchmarks assigned
//!   round-robin, each core with its own disjoint address region). They
//!   price how the simulator scales with core count. Private L1 hits run
//!   ahead of the schedule; the winner-tree scheduler charges one
//!   O(log cores) leaf-to-root replay per streak of in-order steps by one
//!   core, and each run-ahead hit another core's step disturbs is redone.
//!   With more cores fewer accesses run ahead (LLC back-invalidations
//!   shorten each core's run of L1 hits) while every in-order step still
//!   pays for the disturbance checks.
//!
//! End-to-end numbers come from the repo benchmark, `perfbench/` (workloads
//! `fig8_grid` and `serve_jobs` in `BENCHMARK.json`), whose runs are
//! recorded in `BENCH_cache_sim.md`; this binary prices one machine at a
//! time. The JSON document goes to stdout, and also to `--out PATH` when
//! given, so two runs can be diffed. Nothing is written unless asked for:
//! the committed `BENCH_cache_sim.json` is an early run kept as a record.
//!
//! Usage:
//!
//! ```text
//! throughput [total_instructions] [--label NAME] [--out PATH] [--compare PATH]
//!            [--samples N] [--help]
//! ```
//!
//! `--json PATH` is accepted as an alias of `--out PATH`, matching the flag
//! every figure harness shares.
//!
//! Each configuration is simulated `N` times (default 3, fresh system each
//! time) and the median elapsed time is reported, which tames scheduler and
//! frequency-scaling noise on shared machines. `--compare` reads a
//! previously emitted JSON file and appends a speedup section (this run vs.
//! the old file), which is how a PR records its before/after delta. The file
//! is read before anything is simulated: a missing file, or one without a
//! `configs` rate, is an `error:` line and exit status 2. An unwritable
//! `--out` path is an `error:` line and exit status 1.

use std::io::{self, Write};
use std::time::Instant;

use auto_cuckoo::FilterBackend;
use cache_sim::{
    Access, AccessSource, Addr, CoreId, NullObserver, SimReport, System, SystemConfig,
    TrafficObserver, LINE_SIZE,
};
use pipo_bench::args::{exit_with_error, parse_command_line, Tokens};
use pipo_bench::Json;
use pipo_workloads::{mixes::mix_by_name, ProfileSource};
use pipomonitor::{MonitorConfig, PiPoMonitor};

const DEFAULT_INSTRUCTIONS: u64 = 2_000_000;
const MIX: &str = "mix7";
const SEED: u64 = 42;

const USAGE: &str = "\
usage: throughput [total_instructions] [--label NAME] [--out PATH] [--compare PATH]
                  [--samples N] [--help]

  total_instructions  total simulated instructions, split across cores;
                      a positive integer (default 2000000)
  --label NAME        label stored in the emitted JSON (default \"current\")
  --out PATH          also write the JSON document to PATH;
                      --json PATH is an alias
  --compare PATH      read a previous JSON file and append a speedup section
  --samples N         samples per configuration, median reported (default 3)
  --help, -h          print this help and exit";

struct Measurement {
    name: String,
    cores: usize,
    accesses: u64,
    instructions: u64,
    makespan: u64,
    elapsed_s: f64,
}

impl Measurement {
    fn accesses_per_sec(&self) -> f64 {
        self.accesses as f64 / self.elapsed_s
    }
}

fn total_accesses(report: &SimReport) -> u64 {
    report.stats.per_core.iter().map(|c| c.l1.accesses()).sum()
}

/// Runs one configuration `samples` times (fresh system each time) and
/// reports the median elapsed time. `total_instructions` is split evenly
/// across cores so every configuration simulates comparable total work.
fn run_config<O: TrafficObserver>(
    name: &str,
    cores: usize,
    observer: impl Fn() -> O,
    total_instructions: u64,
    samples: usize,
) -> Measurement {
    let mix = mix_by_name(MIX).expect("mix exists");
    let mut elapsed = Vec::with_capacity(samples);
    let mut last = None;
    for _ in 0..samples {
        let mut config = SystemConfig::paper_default();
        config.cores = cores;
        let mut system = System::new(config, observer());
        for core in 0..cores {
            let bench = mix.benchmarks[core % mix.benchmarks.len()];
            system.set_source(
                CoreId(core),
                Box::new(ProfileSource::new(bench, core, SEED)),
            );
        }
        let start = Instant::now();
        let report = system.run(total_instructions / cores as u64);
        elapsed.push(start.elapsed().as_secs_f64());
        last = Some(report);
    }
    elapsed.sort_by(f64::total_cmp);
    let report = last.expect("at least one sample");
    Measurement {
        name: name.to_string(),
        cores,
        accesses: total_accesses(&report),
        instructions: report.total_instructions(),
        makespan: report.makespan(),
        elapsed_s: elapsed[elapsed.len() / 2],
    }
}

fn pipo() -> PiPoMonitor {
    PiPoMonitor::new(MonitorConfig::paper_default()).expect("valid config")
}

/// PiPoMonitor recording in the prior-work directory table.
fn directory() -> PiPoMonitor {
    let config = MonitorConfig::paper_default().with_backend(FilterBackend::Directory);
    PiPoMonitor::new(config).expect("valid config")
}

/// Prices access *generation* standalone: drains the four mix7
/// `ProfileSource`s (same benchmarks, cores, and seed as the simulated
/// configurations) through the batched `AccessSource::refill` path with no
/// simulator attached, until `accesses` accesses have been drawn. Returns
/// the median ns per generated access.
fn generation_ns_per_access(accesses: u64, samples: usize) -> f64 {
    let mix = mix_by_name(MIX).expect("mix exists");
    let mut per_access_ns = Vec::with_capacity(samples);
    for _ in 0..samples {
        let mut sources: Vec<ProfileSource> = (0..4)
            .map(|core| ProfileSource::new(mix.benchmarks[core % mix.benchmarks.len()], core, SEED))
            .collect();
        let mut buf: Vec<Access> = Vec::with_capacity(64);
        let mut drawn = 0u64;
        let mut sink = 0u64;
        let start = Instant::now();
        'outer: loop {
            for source in &mut sources {
                buf.clear();
                source.refill(&mut buf, 64);
                for access in &buf {
                    sink ^= access.addr.0;
                }
                drawn += buf.len() as u64;
                if drawn >= accesses {
                    break 'outer;
                }
            }
        }
        std::hint::black_box(sink);
        per_access_ns.push(start.elapsed().as_secs_f64() / drawn as f64 * 1e9);
    }
    per_access_ns.sort_by(f64::total_cmp);
    per_access_ns[per_access_ns.len() / 2]
}

/// Prices the *scheduler* phase: the 4-core machine run with constant
/// per-core addresses, so every access is a private L1 hit and runs ahead
/// of the schedule. The phase is the run-ahead loop (the L1 probe, the
/// recorded hit and its commit) plus one in-order step per batch, not tree
/// replays; the LLC probe kernel never runs, and generation is a closure
/// returning a constant. Returns the median ns per access.
fn scheduler_ns_per_access(total_instructions: u64, samples: usize) -> f64 {
    let mut per_access_ns = Vec::with_capacity(samples);
    for _ in 0..samples {
        let mut system = System::new(SystemConfig::paper_default(), NullObserver);
        for core in 0..4usize {
            system.set_source(
                CoreId(core),
                Box::new(move || Some(Access::read(Addr(core as u64 * LINE_SIZE)).after(3))),
            );
        }
        let start = Instant::now();
        let report = system.run(total_instructions / 4);
        let elapsed = start.elapsed().as_secs_f64();
        per_access_ns.push(elapsed / total_accesses(&report) as f64 * 1e9);
    }
    per_access_ns.sort_by(f64::total_cmp);
    per_access_ns[per_access_ns.len() / 2]
}

/// Reads each config's `accesses_per_sec` from a previously emitted
/// throughput document. Fails, naming the path, if the file is unreadable,
/// is not JSON, or holds no config with a numeric rate.
fn read_rates(path: &str) -> Result<Vec<(String, f64)>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read --compare file {path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("cannot parse --compare file {path}: {e}"))?;
    let rates: Vec<(String, f64)> = doc
        .get("configs")
        .and_then(Json::as_array)
        .unwrap_or_default()
        .iter()
        .filter_map(|config| {
            let name = config.get("name")?.as_str()?;
            Some((name.to_string(), config.get("accesses_per_sec")?.as_f64()?))
        })
        .collect();
    if rates.is_empty() {
        return Err(format!(
            "--compare file {path} has no configs entry with an accesses_per_sec rate"
        ));
    }
    Ok(rates)
}

fn main() {
    let mut instructions: Option<u64> = None;
    let mut label = String::from("current");
    let mut out_path: Option<String> = None;
    let mut compare_path: Option<String> = None;
    let mut samples = 3usize;
    parse_command_line(USAGE, |mut tokens| {
        while let Some(token) = tokens.next() {
            match token.as_str() {
                "--label" => label = tokens.value("--label", "a value")?,
                "--out" | "--json" => out_path = Some(tokens.value("--out", "a file path")?),
                "--compare" => compare_path = Some(tokens.value("--compare", "a file path")?),
                "--samples" => samples = tokens.positive("--samples", "a sample count")?,
                _ => Tokens::positional(&token, "total_instructions", &mut instructions)?,
            }
        }
        Ok(())
    });
    let instructions = instructions.unwrap_or(DEFAULT_INSTRUCTIONS);

    // Check the comparison input before spending minutes on measurements.
    let compare = compare_path.map(|path| match read_rates(&path) {
        Ok(rates) => (path, rates),
        Err(message) => exit_with_error(2, message),
    });

    let runs = [
        run_config("baseline", 4, || NullObserver, instructions, samples),
        run_config("directory_monitor", 4, directory, instructions, samples),
        run_config("pipomonitor", 4, pipo, instructions, samples),
        run_config("pipomonitor_8c", 8, pipo, instructions, samples),
        run_config("pipomonitor_16c", 16, pipo, instructions, samples),
        run_config("pipomonitor_32c", 32, pipo, instructions, samples),
    ];

    // Decimal places match the old hand-rolled emitter: 6 for seconds, 1 for
    // rates, 2 for speedup ratios.
    let round = |x: f64, places: i32| (x * 10f64.powi(places)).round() / 10f64.powi(places);
    let configs: Vec<Json> = runs
        .iter()
        .map(|m| {
            Json::object()
                .field("name", m.name.as_str())
                .field("cores", m.cores)
                .field("accesses", m.accesses)
                .field("instructions", m.instructions)
                .field("makespan_cycles", m.makespan)
                .field("elapsed_s", round(m.elapsed_s, 6))
                .field("accesses_per_sec", round(m.accesses_per_sec(), 1))
                .field("ns_per_access", round(1e9 / m.accesses_per_sec(), 1))
        })
        .collect();
    let mut doc = Json::object()
        .field("bench", "cache_sim_throughput")
        .field("label", label.as_str())
        .field("workload", MIX)
        .field("seed", SEED)
        .field("total_instructions", instructions)
        .field("configs", configs);

    // ns/access budget: where the monitored wall-clock goes, split into
    // generation / scheduler / probe / observer. Two phases are priced
    // directly (generation standalone, scheduler via an L1-hit-only run);
    // the other two fall out by subtraction from the measured baseline and
    // monitored rates. The split is approximate — each subtraction inherits
    // the noise of both operands — but it localizes regressions: a probe
    // regression moves `probe` without moving `generation` or `scheduler`.
    let rate = |name: &str| {
        runs.iter()
            .find(|m| m.name == name)
            .expect("config measured")
            .accesses_per_sec()
    };
    let gen_ns = generation_ns_per_access(runs[0].accesses, samples);
    let sched_ns = scheduler_ns_per_access(instructions, samples);
    let baseline_ns = 1e9 / rate("baseline");
    let monitored_ns = 1e9 / rate("pipomonitor");
    let probe_ns = (baseline_ns - gen_ns - sched_ns).max(0.0);
    let observer_ns = (monitored_ns - baseline_ns).max(0.0);
    doc = doc.field(
        "ns_per_access_budget",
        Json::object()
            .field("monitored_ns_per_access", round(monitored_ns, 1))
            .field("baseline_ns_per_access", round(baseline_ns, 1))
            .field(
                "phases",
                Json::object()
                    .field("generation", round(gen_ns, 1))
                    .field("scheduler", round(sched_ns, 1))
                    .field("probe", round(probe_ns, 1))
                    .field("observer", round(observer_ns, 1)),
            )
            .field(
                "method",
                "generation: mix7 ProfileSources drained standalone through the \
                 batched refill path; scheduler: L1-hit-only 4-core run (includes \
                 the L1 fast path); probe = baseline - generation - scheduler; \
                 observer = pipomonitor - baseline",
            ),
    );

    if let Some((path, old_rates)) = compare {
        let mut old_obj = Json::object();
        let mut speedup_obj = Json::object();
        for m in &runs {
            if let Some((_, old_rate)) = old_rates.iter().find(|(n, _)| n == &m.name) {
                old_obj = old_obj.field(m.name.as_str(), round(*old_rate, 1));
                speedup_obj =
                    speedup_obj.field(m.name.as_str(), round(m.accesses_per_sec() / old_rate, 2));
            }
        }
        doc = doc.field(
            "comparison",
            Json::object()
                .field("against", path.as_str())
                .field("old_accesses_per_sec", old_obj)
                .field("speedup", speedup_obj),
        );
    }

    pipo_bench::emit_json(out_path.as_deref(), &doc);
    println!("{}", doc.to_pretty());
    for m in &runs {
        let _ = writeln!(
            io::stderr(),
            "{:<20} {:>12.0} accesses/sec  ({} accesses in {:.3}s)",
            m.name,
            m.accesses_per_sec(),
            m.accesses,
            m.elapsed_s,
        );
    }
}
