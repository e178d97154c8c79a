//! `perfbench`: the repository benchmark.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
//! perfbench --self-test
//! ```
//!
//! Runs one workload (see `BENCHMARK.json` and `perfbench/metrics.json`)
//! for `S` seconds: a counted reference op with every output check, then
//! plain ops that give the end-to-end metrics and, with `--trace 1`, timed
//! ops between them that give the per-layer metrics. Every metric is
//! printed as a `metric NAME VALUE UNIT` line; the last line of standard
//! output is one JSON object with `correct`, `attempted`, `failed` and
//! `metrics` (the end-to-end metrics untraced, the per-layer ones traced).
//!
//! `--self-test` runs every workload at smoke scale, traced and untraced,
//! in child processes and checks that every named metric is emitted and
//! finite and that no op failed.

mod host;
mod layers;
mod serve;
mod sim;
mod workloads;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use pipo_bench::Json;

use crate::layers::{median, median_of, Metrics};
use crate::workloads::{Calibrated, PlainSample, TracedSample};

/// The benchmark's definition, compiled in so the binary and the file that
/// names its command and metrics can never disagree.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");
/// Every metric's unit, direction, layer and the end-to-end metric and
/// workload it should move.
const CATALOG_JSON: &str = include_str!("../metrics.json");

/// Plain ops a run makes at least, however long they take.
const MIN_OPS: usize = 3;
/// L1-hit-only scheduler runs per traced run (median reported).
const L1HIT_RUNS: usize = 3;
const L1HIT_ACCESSES: u64 = 2_000_000;

/// Scratch directory for result-store files, relative to the checkout.
pub fn run_dir() -> PathBuf {
    PathBuf::from(".bench_run")
}

const USAGE: &str = "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
       perfbench --self-test";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn usage_error(message: &str) -> ! {
    eprintln!("error: {message}\n{USAGE}");
    std::process::exit(2);
}

fn parse_args(args: &[String]) -> Args {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut smoke = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .unwrap_or_else(|| usage_error(&format!("{name} needs a value")))
        };
        match arg.as_str() {
            "--workload" => workload = Some(value("--workload")),
            "--seed" => {
                let raw = value("--seed");
                seed = Some(raw.parse().unwrap_or_else(|_| {
                    usage_error(&format!("--seed expects an unsigned integer, got {raw:?}"))
                }));
            }
            "--seconds" => {
                let raw = value("--seconds");
                seconds = Some(
                    raw.parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s > 0.0)
                        .unwrap_or_else(|| {
                            usage_error(&format!(
                                "--seconds expects a positive number, got {raw:?}"
                            ))
                        }),
                );
            }
            "--trace" => {
                trace = Some(match value("--trace").as_str() {
                    "0" => false,
                    "1" => true,
                    other => usage_error(&format!("--trace expects 0 or 1, got {other:?}")),
                });
            }
            "--smoke" => smoke = true,
            other => usage_error(&format!("unknown argument {other:?}")),
        }
    }
    Args {
        workload: workload.unwrap_or_else(|| usage_error("--workload is required")),
        seed: seed.unwrap_or_else(|| usage_error("--seed is required")),
        seconds: seconds.unwrap_or_else(|| usage_error("--seconds is required")),
        trace: trace.unwrap_or_else(|| usage_error("--trace is required")),
        smoke,
    }
}

/// A metric's definition: its unit, direction and which output it belongs
/// to.
struct MetricDef {
    unit: String,
    better: String,
    /// `end_to_end`, `per_layer` or `report`.
    kind: String,
    /// Workloads that emit it (`report` metrics only; the others are
    /// emitted by every workload).
    workloads: Vec<String>,
    /// A `report` metric emitted only by traced runs.
    traced: bool,
}

/// Metric definitions by name, from `metrics.json`.
fn catalog() -> BTreeMap<String, MetricDef> {
    let doc = Json::parse(CATALOG_JSON).expect("metrics.json is valid JSON");
    let mut defs = BTreeMap::new();
    for metric in doc
        .get("metrics")
        .and_then(Json::as_array)
        .expect("metrics.json has a metrics array")
    {
        let text = |key: &str| {
            metric
                .get(key)
                .and_then(Json::as_str)
                .unwrap_or_else(|| panic!("metrics.json entry lacks {key}: {}", metric.to_line()))
                .to_string()
        };
        let workloads = metric
            .get("workloads")
            .and_then(Json::as_array)
            .map(|ws| {
                ws.iter()
                    .filter_map(Json::as_str)
                    .map(String::from)
                    .collect()
            })
            .unwrap_or_default();
        defs.insert(
            text("name"),
            MetricDef {
                unit: text("unit"),
                better: text("better"),
                kind: text("kind"),
                workloads,
                traced: metric.get("traced").and_then(Json::as_bool) == Some(true),
            },
        );
    }
    defs
}

/// `BENCHMARK.json`'s metrics of one section, in file order.
fn benchmark_metrics(section: &str) -> Vec<Json> {
    let doc = Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json is valid JSON");
    doc.get(section)
        .and_then(Json::as_array)
        .expect("BENCHMARK.json lists its metrics")
        .to_vec()
}

/// `BENCHMARK.json`'s metric names of one section, in file order.
fn benchmark_names(section: &str) -> Vec<String> {
    benchmark_metrics(section)
        .iter()
        .filter_map(|m| m.get("name").and_then(Json::as_str).map(String::from))
        .collect()
}

/// Every way `BENCHMARK.json` and `metrics.json` disagree: a benchmark
/// metric missing from the catalog or given another section, unit or
/// direction there, or a catalog end-to-end or per-layer metric the
/// benchmark does not name.
fn catalog_disagreements(catalog: &BTreeMap<String, MetricDef>) -> Vec<String> {
    let mut problems = Vec::new();
    for section in ["end_to_end", "per_layer"] {
        for metric in benchmark_metrics(section) {
            let field = |key: &str| metric.get(key).and_then(Json::as_str).unwrap_or("");
            let name = field("name");
            let Some(def) = catalog.get(name) else {
                problems.push(format!("{section} metric {name} is not in metrics.json"));
                continue;
            };
            let ours = (section, field("unit"), field("better"));
            let theirs = (def.kind.as_str(), def.unit.as_str(), def.better.as_str());
            if ours != theirs {
                problems.push(format!(
                    "{name}: BENCHMARK.json has {ours:?}, metrics.json has {theirs:?}"
                ));
            }
        }
        let named = benchmark_names(section);
        for (name, def) in catalog {
            if def.kind == section && !named.contains(name) {
                problems.push(format!(
                    "metrics.json's {section} metric {name} is not in BENCHMARK.json"
                ));
            }
        }
    }
    problems
}

/// Reports every catalog disagreement; true when there is none.
fn catalog_agrees(catalog: &BTreeMap<String, MetricDef>) -> bool {
    let problems = catalog_disagreements(catalog);
    for problem in &problems {
        eprintln!("error: {problem}");
    }
    problems.is_empty()
}

fn ns_to_s(ns: f64) -> f64 {
    ns / 1e9
}

fn run(args: &Args) -> ExitCode {
    let catalog = catalog();
    if !catalog_agrees(&catalog) {
        return ExitCode::FAILURE;
    }
    let pinned = host::pin_to_one_cpu();
    let run_dir = run_dir();
    if let Err(e) = std::fs::create_dir_all(&run_dir) {
        eprintln!("error: cannot create {}: {e}", run_dir.display());
        return ExitCode::FAILURE;
    }
    let Some(mut workload) = workloads::build(&args.workload, args.seed, args.smoke) else {
        usage_error(&format!(
            "unknown workload {:?} (expected one of {})",
            args.workload,
            workloads::NAMES.join(", ")
        ));
    };
    println!(
        "# perfbench workload={} seed={} seconds={} trace={}{}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        if args.smoke { " smoke" } else { "" }
    );
    println!(
        "# host {}",
        host::context(&args.workload, args.seed, args.trace).to_line()
    );
    match pinned {
        Some(cpu) => println!("# pinned to cpu {cpu}"),
        None => println!("# not pinned: the kernel refused sched_setaffinity"),
    }

    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut note_failures = |attempted_now: u64, failed_now: u64, failures: &[String]| {
        attempted += attempted_now;
        failed += failed_now;
        for failure in failures {
            eprintln!("check failed: {failure}");
        }
    };
    let one_op = |failures: &[String]| u64::from(!failures.is_empty());

    let reference = workload.reference();
    note_failures(1, one_op(&reference.failures), &reference.failures);
    for note in &reference.notes {
        println!("# {note}");
    }

    let started = Instant::now();
    let mut plains: Vec<PlainSample> = Vec::new();
    let mut traced: Vec<TracedSample> = Vec::new();
    while plains.len() < MIN_OPS || started.elapsed().as_secs_f64() < args.seconds {
        let plain = workload.plain();
        note_failures(plain.attempted, plain.failed, &plain.failures);
        plains.push(plain);
        // Traced ops share the run's time: there is always one, and once
        // the time is up only plain ops are topped up to `MIN_OPS`.
        if args.trace && (traced.is_empty() || started.elapsed().as_secs_f64() < args.seconds) {
            let sample = workload.traced();
            note_failures(1, one_op(&sample.failures), &sample.failures);
            traced.push(sample);
        }
    }

    let values = |f: &dyn Fn(&PlainSample) -> u64| -> Vec<f64> {
        plains.iter().map(|p| f(p) as f64).collect()
    };
    let calibrated: Vec<_> = plains.iter().map(PlainSample::calibrated).collect();
    let calibrated_values = |f: &dyn Fn(&Calibrated) -> f64| -> Vec<f64> {
        calibrated.iter().map(f).collect()
    };
    let mut all = Metrics::new();
    // End-to-end metrics: medians over the plain ops of the calibrated
    // spans (see `host::Calibration`); the raw medians are report lines.
    all.insert(
        "wall_s".into(),
        ns_to_s(median(&calibrated_values(&|c| c.wall_ns))),
    );
    all.insert(
        "setup_s".into(),
        ns_to_s(median(&calibrated_values(&|c| c.setup_ns))),
    );
    all.insert(
        "sim_maccess_per_s".into(),
        reference.accesses as f64 / median(&calibrated_values(&|c| c.sim_ns)) * 1e3,
    );
    all.insert(
        "raw.wall_s".into(),
        ns_to_s(median(&values(&|p| p.wall_ns))),
    );
    all.insert(
        "raw.setup_s".into(),
        ns_to_s(median(&values(&|p| p.setup_ns))),
    );
    all.insert(
        "raw.sim_maccess_per_s".into(),
        reference.accesses as f64 / median(&values(&|p| p.sim_ns)) * 1e3,
    );
    all.insert(
        "bench.host_slowdown".into(),
        median(
            &plains
                .iter()
                .map(|p| p.calibration.slowdown())
                .collect::<Vec<_>>(),
        ),
    );
    all.insert("plain_ops".into(), plains.len() as f64);
    all.extend(reference.quality.clone());
    all.extend(workload.report());

    if args.trace {
        let layers: Vec<Metrics> = traced.iter().map(|t| t.layers.clone()).collect();
        all.extend(median_of(&layers));
        // The scheduler plus L1 fast path at both machine sizes, so the
        // growth from 4 to 32 cores splits into scheduling and miss handling.
        for cores in [4, 32] {
            let l1hit: Vec<f64> = (0..L1HIT_RUNS)
                .map(|_| sim::l1hit_ns_per_access(cores, L1HIT_ACCESSES))
                .collect();
            all.insert(
                format!("cache_sim.l1hit_ns_per_access_{cores}c"),
                median(&l1hit),
            );
        }
        let traced_wall = median(&traced.iter().map(|t| t.wall_ns as f64).collect::<Vec<_>>());
        let untraced: Vec<f64> = traced
            .iter()
            .filter_map(|t| t.untraced_wall_ns.map(|ns| ns as f64))
            .collect();
        let untraced_wall = if untraced.is_empty() {
            median(&values(&|p| p.wall_ns))
        } else {
            median(&untraced)
        };
        all.insert(
            "bench.tracing_overhead_pct".into(),
            (traced_wall / untraced_wall - 1.0) * 100.0,
        );
        all.insert("bench.traced_ops".into(), traced.len() as f64);
    }
    all.insert("peak_rss_mib".into(), host::peak_rss_mib());
    all.insert(
        "bench.failed_op_ratio".into(),
        failed as f64 / attempted.max(1) as f64,
    );

    let mut correct = failed == 0;
    for (name, value) in &all {
        let Some(def) = catalog.get(name) else {
            eprintln!("error: metric {name} is not defined in metrics.json");
            return ExitCode::FAILURE;
        };
        if !value.is_finite() {
            eprintln!("check failed: metric {name} is not finite");
            correct = false;
        }
        println!("metric {name} {value} {}", def.unit);
    }

    let section = if args.trace {
        "per_layer"
    } else {
        "end_to_end"
    };
    let mut metrics = Json::object();
    for name in benchmark_names(section) {
        let Some(&value) = all.get(&name) else {
            eprintln!("error: {section} metric {name} was not measured");
            return ExitCode::FAILURE;
        };
        let unit = catalog.get(&name).map_or("", |d| d.unit.as_str());
        metrics = metrics.field(
            &name,
            Json::object()
                .field("value", if value.is_finite() { value } else { 0.0 })
                .field("unit", unit),
        );
    }
    let _ = std::fs::remove_dir(&run_dir);
    println!(
        "{}",
        Json::object()
            .field("correct", correct)
            .field("attempted", attempted)
            .field("failed", failed)
            .field("metrics", metrics)
            .to_line()
    );
    ExitCode::SUCCESS
}

/// Runs every workload at smoke scale in a child process, untraced and
/// traced, and checks its output. Returns success when every check held.
fn self_test() -> ExitCode {
    let catalog = catalog();
    let exe = std::env::current_exe().expect("the benchmark's own path");
    let mut ok = catalog_agrees(&catalog);
    println!(
        "self-test BENCHMARK.json agrees with metrics.json: {}",
        if ok { "ok" } else { "FAILED" }
    );
    for name in workloads::NAMES {
        for trace in ["0", "1"] {
            let output = std::process::Command::new(&exe)
                .args(["--workload", name, "--seed", "7", "--seconds", "1"])
                .args(["--trace", trace, "--smoke"])
                .output()
                .expect("run the benchmark");
            let stdout = String::from_utf8_lossy(&output.stdout);
            let mut problems = Vec::new();
            if !output.status.success() {
                problems.push(format!("exit status {}", output.status));
            }
            let printed: BTreeMap<&str, f64> = stdout
                .lines()
                .filter_map(|l| l.strip_prefix("metric "))
                .filter_map(|l| {
                    let mut parts = l.split(' ');
                    Some((parts.next()?, parts.next()?.parse().ok()?))
                })
                .collect();
            let result = stdout.lines().last().and_then(|l| Json::parse(l).ok());
            match &result {
                Some(doc) => {
                    if doc.get("correct").and_then(Json::as_bool) != Some(true)
                        || doc.get("failed").and_then(Json::as_u64) != Some(0)
                    {
                        problems.push(format!("ops failed: {}", doc.to_line()));
                    }
                    let section = if trace == "1" {
                        "per_layer"
                    } else {
                        "end_to_end"
                    };
                    for metric in benchmark_names(section) {
                        let value = doc
                            .get("metrics")
                            .and_then(|m| m.get(&metric))
                            .and_then(|m| m.get("value"))
                            .and_then(Json::as_f64);
                        if !value.is_some_and(f64::is_finite) {
                            problems.push(format!("{metric} missing or not finite"));
                        }
                    }
                }
                None => problems.push("no result line".to_string()),
            }
            for (metric, def) in &catalog {
                let expected = match def.kind.as_str() {
                    "report" => {
                        def.workloads.iter().any(|w| w == name) && (!def.traced || trace == "1")
                    }
                    "per_layer" => trace == "1",
                    _ => true,
                };
                if expected && !printed.get(metric.as_str()).is_some_and(|v| v.is_finite()) {
                    problems.push(format!("metric line {metric} missing or not finite"));
                }
            }
            if printed.get("bench.failed_op_ratio") != Some(&0.0) {
                problems.push("failed_op_ratio is not 0".to_string());
            }
            let verdict = if problems.is_empty() { "ok" } else { "FAILED" };
            println!("self-test {name} trace={trace}: {verdict}");
            for problem in &problems {
                println!("  {problem}");
            }
            if !problems.is_empty() {
                eprint!("{}", String::from_utf8_lossy(&output.stderr));
            }
            ok &= problems.is_empty();
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    if args.len() == 1 && args[0] == "--self-test" {
        return self_test();
    }
    run(&parse_args(&args))
}
