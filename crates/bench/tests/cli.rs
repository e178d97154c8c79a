//! CLI contract tests for the harness binaries: which ones accept
//! `--filter` (they build pattern-store-backed monitors with a selectable
//! backend), `--trace` (they replay recorded trace files), and `--store`
//! (their sweeps are content-addressed result-store cells), and which
//! reject them with exit status 2 and an error that names the offending
//! flag. Conflicting execution-mode flags (`--sequential` with
//! `--threads`) must be rejected the same way, in either order. Every
//! binary's `--help` text is pinned, and so are `pipo_serve`'s refusals,
//! the `--help` and refusal exit codes when the reader has gone, the
//! capture attribution of `ablation_filter` and `trace_replay`, and every
//! figure binary's stdout and `--json` document at a smoke scale.
//!
//! Cargo exposes each binary's path to this integration test through the
//! `CARGO_BIN_EXE_<name>` environment variables, so these tests exercise
//! the real executables — the parser, the inputs each binary declares, and
//! exit codes — not a reimplementation.

use std::process::{Command, Output, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use pipo_bench::Json;
use pipo_workloads::Trace;

/// Every harness binary but `pipo_serve`. `throughput` has its own usage
/// text and flags, read through the same token walker, so it honours the
/// same reject/exit-2 contract.
const BINARIES: &[&str] = &[
    "ablation_delay",
    "ablation_filter",
    "ablation_replacement",
    "baseline_stateful",
    "fig3_occupancy",
    "fig4_collisions",
    "fig6_attack",
    "fig7_reverse",
    "fig8_performance",
    "overhead_table",
    "sensitivity_secthr",
    "throughput",
    "trace_replay",
];

/// Binaries that build monitors with a selectable pattern-store backend:
/// `--filter BACKEND` selects it. Each entry carries arguments that keep the
/// run tiny.
const ACCEPTS_FILTER: &[(&str, &[&str])] = &[
    ("fig8_performance", &["1", "--sequential"]),
    ("sensitivity_secthr", &["1", "--sequential"]),
    ("ablation_replacement", &["1", "--sequential"]),
    ("ablation_delay", &["1", "--sequential"]),
    ("fig6_attack", &["1", "--sequential"]),
    ("trace_replay", &["1", "--sequential"]),
];

/// Only `trace_replay` consumes recorded trace files; every other binary
/// must reject `--trace` by name with exit 2 (`throughput` as an unknown
/// flag).
const REJECTS_TRACE: &[&str] = &[
    "ablation_delay",
    "ablation_filter",
    "ablation_replacement",
    "baseline_stateful",
    "fig3_occupancy",
    "fig4_collisions",
    "fig6_attack",
    "fig7_reverse",
    "fig8_performance",
    "overhead_table",
    "sensitivity_secthr",
    "throughput",
];

/// Binaries with no backend choice: filter microbenchmarks drive the cuckoo
/// structures directly, `baseline_stateful`/`throughput` pin the paper's
/// monitor for comparability, and `ablation_filter` sweeps every backend by
/// construction. All must reject `--filter` by name with exit 2
/// (`throughput` as an unknown flag).
const REJECTS_FILTER: &[&str] = &[
    "ablation_filter",
    "baseline_stateful",
    "fig3_occupancy",
    "fig4_collisions",
    "fig7_reverse",
    "overhead_table",
    "throughput",
];

/// Binaries whose sweeps are content-addressed (every cell is a
/// `System::run` over inputs captured by the canonical cell key):
/// `--store PATH` answers repeat cells from the persistent result store.
const ACCEPTS_STORE: &[(&str, &[&str])] = &[
    ("fig8_performance", &["1", "--sequential"]),
    ("sensitivity_secthr", &["1", "--sequential"]),
    ("ablation_replacement", &["1", "--sequential"]),
];

/// Everything else must reject `--store` by name with exit 2: non-sweep
/// binaries because they do not declare it, `trace_replay` because
/// replayed traces are keyed by file path (not content) so caching them
/// would be unsound, and `throughput` as an unknown flag.
const REJECTS_STORE: &[&str] = &[
    "ablation_delay",
    "ablation_filter",
    "baseline_stateful",
    "fig3_occupancy",
    "fig4_collisions",
    "fig6_attack",
    "fig7_reverse",
    "overhead_table",
    "trace_replay",
    "throughput",
];

/// Binaries whose positional argument scales the run (instructions, probe
/// windows, trials, insertions or tracked lines); `throughput`'s is its
/// total instruction count. A scale of 0 must exit 2 before any work.
const TAKES_SCALE: &[&str] = &[
    "ablation_delay",
    "ablation_filter",
    "ablation_replacement",
    "fig4_collisions",
    "fig6_attack",
    "fig7_reverse",
    "fig8_performance",
    "sensitivity_secthr",
    "throughput",
    "trace_replay",
];

fn bin_path(name: &str) -> String {
    // CARGO_BIN_EXE_* is only resolvable via env! for statically known
    // names; build the lookup dynamically from the test environment Cargo
    // provides to integration tests.
    let key = format!("CARGO_BIN_EXE_{name}");
    std::env::var(&key).unwrap_or_else(|_| panic!("{key} not set — binary missing?"))
}

/// Runs `name` with `args`, killing it if it has not exited within 60 s: a
/// command line that should be refused but is not would otherwise start a
/// server or a run that never ends.
fn run_bounded(name: &str, args: &[&str]) -> Output {
    bounded(Command::new(bin_path(name)).args(args))
}

/// Runs `command` with its stdout and stderr captured, killing it if it has
/// not exited within 60 s.
fn bounded(command: &mut Command) -> Output {
    let mut child = command
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap_or_else(|e| panic!("failed to spawn {command:?}: {e}"));
    let deadline = Instant::now() + Duration::from_secs(60);
    while child.try_wait().expect("poll child").is_none() {
        if Instant::now() > deadline {
            child.kill().ok();
            panic!("{command:?} did not exit within 60 s");
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    child.wait_with_output().expect("collect child output")
}

/// 64-bit FNV-1a.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Every binary's `--help` text, byte for byte: the shared-parser binaries
/// print `pipo_bench::args::USAGE`, and `throughput` and `pipo_serve` print
/// their own usage, pinned by digest (regenerate by printing
/// `fnv1a64(&output.stdout)` after an intended edit).
#[test]
fn help_text_is_pinned() {
    const OWN_USAGE: &[(&str, u64)] = &[
        ("throughput", 0x4bf7_694e_3581_715f),
        ("pipo_serve", 0x8aad_b063_9bb6_0735),
    ];
    for name in BINARIES.iter().chain(["pipo_serve"].iter()) {
        let output = run_bounded(name, &["--help"]);
        assert_eq!(output.status.code(), Some(0), "{name} --help must exit 0");
        match OWN_USAGE.iter().find(|(own, _)| own == name) {
            Some(&(_, digest)) => assert_eq!(
                fnv1a64(&output.stdout),
                digest,
                "{name}'s --help text changed:\n{}",
                String::from_utf8_lossy(&output.stdout)
            ),
            None => assert_eq!(
                String::from_utf8_lossy(&output.stdout),
                format!("{}\n", pipo_bench::args::USAGE),
                "{name} must print the shared usage text"
            ),
        }
    }
}

#[test]
fn pipo_serve_help_documents_both_modes() {
    let output = run_bounded("pipo_serve", &["--help"]);
    assert_eq!(output.status.code(), Some(0), "--help must exit 0");
    let stdout = String::from_utf8_lossy(&output.stdout);
    for flag in ["--store", "--connect"] {
        assert!(stdout.contains(flag), "--help must document {flag}");
    }
}

/// `pipo_serve` is a server (`--store PATH`) or a client (`--connect ADDR
/// --request JSON`). A bad value, a stray argument or a flag of the other
/// mode exits 2 with an `error:` line naming it, before anything is bound,
/// opened or connected.
#[test]
fn pipo_serve_rejects_bad_command_lines() {
    // Nothing listens on the discard port; a client that got this far would
    // fail to connect (exit 1), not hang.
    const ADDR: &str = "127.0.0.1:9";
    let store = format!(
        "{}/cli_serve_{}.store",
        std::env::temp_dir().display(),
        std::process::id()
    );
    let cases: [(&[&str], &str); 7] = [
        (&["--bogus"], "--bogus"),
        (&["--store"], "--store"),
        (&["--workers", "0"], "--workers"),
        (&["stray"], "stray"),
        (&["--connect", ADDR], "--request"),
        (&["--store", &store, "--request", "{}"], "--request"),
        (
            &[
                "--max-instructions",
                "5",
                "--connect",
                ADDR,
                "--request",
                "{}",
            ],
            "--max-instructions",
        ),
    ];
    for (args, named) in cases {
        let output = run_bounded("pipo_serve", args);
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(
            output.status.code(),
            Some(2),
            "pipo_serve {args:?} must exit 2, got stderr:\n{stderr}"
        );
        let error = stderr
            .lines()
            .find(|line| line.starts_with("error:"))
            .unwrap_or_else(|| panic!("pipo_serve {args:?} printed no error line:\n{stderr}"));
        assert!(
            error.contains(named),
            "pipo_serve {args:?}'s error must name {named}, got:\n{error}"
        );
        assert!(
            output.stdout.is_empty(),
            "pipo_serve {args:?} must stop before serving or sending"
        );
    }
    assert!(
        !std::path::Path::new(&store).exists(),
        "a refused server must not create its store"
    );
}

#[test]
fn every_binary_helps_and_exits_zero() {
    for &name in BINARIES {
        let output = Command::new(bin_path(name))
            .arg("--help")
            .output()
            .unwrap_or_else(|e| panic!("failed to spawn {name}: {e}"));
        assert_eq!(output.status.code(), Some(0), "{name} --help must exit 0");
        let stdout = String::from_utf8_lossy(&output.stdout);
        assert!(
            stdout.contains("--json") || stdout.contains("--out"),
            "{name} --help must document its output flag"
        );
        // `throughput` documents its own flag surface; every shared-parser
        // binary's help must enumerate --filter and its backends.
        if name != "throughput" {
            assert!(
                stdout.contains("--filter"),
                "{name} --help must document --filter"
            );
            assert!(
                stdout.contains("--trace"),
                "{name} --help must document --trace"
            );
            assert!(
                stdout.contains("--store"),
                "{name} --help must document --store"
            );
            for backend in ["auto", "classic", "bloom", "xor"] {
                assert!(
                    stdout.contains(backend),
                    "{name} --help must enumerate the {backend} backend"
                );
            }
        }
    }
}

/// A reader that has already gone is no error: every binary's `--help`
/// still exits 0 with its stdout's reader closed, and with its stderr's
/// reader closed a refused command line still exits 2 and a run that
/// writes `--json` or `--store` still exits 0, without a panic.
#[test]
fn help_and_usage_errors_survive_a_closed_reader() {
    // A pipe whose reader is dropped before the child starts: every write
    // to it fails with a broken pipe.
    let closed_pipe = || {
        let (reader, writer) = std::io::pipe().expect("create a pipe");
        drop(reader);
        writer
    };
    for name in BINARIES.iter().chain(["pipo_serve"].iter()) {
        let output = Command::new(bin_path(name))
            .arg("--help")
            .stdout(closed_pipe())
            .stderr(Stdio::piped())
            .output()
            .unwrap_or_else(|e| panic!("failed to spawn {name}: {e}"));
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(
            output.status.code(),
            Some(0),
            "{name} --help into a closed pipe must exit 0, got stderr:\n{stderr}"
        );
        assert!(
            !stderr.contains("panicked"),
            "{name} --help into a closed pipe panicked:\n{stderr}"
        );
    }
    let stem = format!(
        "{}/cli_closed_{}",
        std::env::temp_dir().display(),
        std::process::id()
    );
    let (json, store) = (format!("{stem}.json"), format!("{stem}.store"));
    for (name, args, status) in [
        ("fig8_performance", &["--filter", "ribbon"][..], 2),
        ("fig3_occupancy", &["--sequential", "--json", &json], 0),
        (
            "trace_replay",
            &["1000", "--trace", "/nonexistent/nope.trace"],
            2,
        ),
        (
            "fig8_performance",
            &["2000", "--sequential", "--store", &store],
            0,
        ),
    ] {
        let output = Command::new(bin_path(name))
            .args(args)
            .stdout(Stdio::null())
            .stderr(closed_pipe())
            .output()
            .unwrap_or_else(|e| panic!("failed to spawn {name}: {e}"));
        assert_eq!(
            output.status.code(),
            Some(status),
            "{name} {args:?} must exit {status} with its stderr closed"
        );
    }
    for written in [json, store] {
        assert!(
            std::fs::remove_file(&written).is_ok(),
            "{written} was not written"
        );
    }
}

#[test]
fn zero_scale_exits_2_and_names_the_value() {
    for name in TAKES_SCALE {
        let output = Command::new(bin_path(name))
            .arg("0")
            .output()
            .unwrap_or_else(|e| panic!("failed to spawn {name}: {e}"));
        assert_eq!(
            output.status.code(),
            Some(2),
            "{name} must exit 2 on a zero scale"
        );
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            stderr.contains("error:")
                && stderr.contains("positive integer")
                && stderr.contains("\"0\""),
            "{name}'s error must name the value, got:\n{stderr}"
        );
        assert!(
            output.stdout.is_empty(),
            "{name} must stop before running, got:\n{}",
            String::from_utf8_lossy(&output.stdout)
        );
    }
}

/// Binaries that allocate per unit of scale (probe windows, trials, tracked
/// lines) bound it by a constant: a scale above the bound exits 2 naming the
/// value, like a zero scale, instead of failing an allocation.
#[test]
fn oversized_scale_exits_2_and_names_the_value() {
    const HUGE: &str = "18446744073709551615";
    for name in [
        "ablation_delay",
        "ablation_filter",
        "fig6_attack",
        "fig7_reverse",
    ] {
        let output = run_bounded(name, &[HUGE, "--sequential"]);
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(
            output.status.code(),
            Some(2),
            "{name} must exit 2 on an oversized scale, got:\n{stderr}"
        );
        assert!(
            stderr.contains("error:") && stderr.contains(&format!("\"{HUGE}\"")),
            "{name}'s error must name the value, got:\n{stderr}"
        );
        assert!(output.stdout.is_empty(), "{name} must stop before running");
    }
}

/// Each binary's module doc gives the command that runs it: the package is
/// `pipo_bench`, and the binary is the file's own. `throughput` documents
/// its own usage block instead.
#[test]
fn run_lines_name_the_package_and_the_binary() {
    for &name in BINARIES.iter().filter(|&&name| name != "throughput") {
        let path = format!("{}/src/bin/{name}.rs", env!("CARGO_MANIFEST_DIR"));
        let source = std::fs::read_to_string(&path).expect("read binary source");
        let line = source
            .lines()
            .find(|line| line.starts_with("//! Run:"))
            .unwrap_or_else(|| panic!("{path} has no `Run:` line"));
        assert!(
            line.contains(&format!("cargo run --release -p pipo_bench --bin {name} ")),
            "{path}'s `Run:` line must name `-p pipo_bench --bin {name}`, got:\n{line}"
        );
    }
}

#[test]
fn filter_accepting_binaries_run_with_a_backend() {
    for (name, scale_args) in ACCEPTS_FILTER {
        let output = Command::new(bin_path(name))
            .args(*scale_args)
            .args(["--filter", "bloom"])
            .output()
            .unwrap_or_else(|e| panic!("failed to spawn {name}: {e}"));
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(
            output.status.code(),
            Some(0),
            "{name} must accept --filter bloom (stderr: {stderr})"
        );
    }
}

#[test]
fn filter_rejecting_binaries_exit_2_and_name_the_flag() {
    for name in REJECTS_FILTER {
        let output = Command::new(bin_path(name))
            .args(["--filter", "bloom"])
            .output()
            .unwrap_or_else(|e| panic!("failed to spawn {name}: {e}"));
        assert_eq!(
            output.status.code(),
            Some(2),
            "{name} must exit 2 on --filter"
        );
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            stderr.contains("--filter"),
            "{name}'s rejection must name the offending flag, got:\n{stderr}"
        );
        assert!(
            stderr.contains("error:"),
            "{name}'s rejection must be an error line, got:\n{stderr}"
        );
    }
}

#[test]
fn bad_filter_backend_exits_2_and_names_the_value() {
    for (name, _) in ACCEPTS_FILTER {
        let output = Command::new(bin_path(name))
            .args(["--filter", "ribbon"])
            .output()
            .unwrap_or_else(|e| panic!("failed to spawn {name}: {e}"));
        assert_eq!(
            output.status.code(),
            Some(2),
            "{name} must exit 2 on a bad backend"
        );
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            stderr.contains("ribbon"),
            "{name}'s error must name the bad value, got:\n{stderr}"
        );
        assert!(
            stderr.contains("auto") && stderr.contains("xor"),
            "{name}'s error must enumerate valid backends, got:\n{stderr}"
        );
    }
}

#[test]
fn trace_rejecting_binaries_exit_2_and_name_the_flag() {
    for name in REJECTS_TRACE {
        let output = Command::new(bin_path(name))
            .args(["--trace", "some.trace"])
            .output()
            .unwrap_or_else(|e| panic!("failed to spawn {name}: {e}"));
        assert_eq!(
            output.status.code(),
            Some(2),
            "{name} must exit 2 on --trace"
        );
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            stderr.contains("--trace"),
            "{name}'s rejection must name the offending flag, got:\n{stderr}"
        );
        assert!(
            stderr.contains("error:"),
            "{name}'s rejection must be an error line, got:\n{stderr}"
        );
    }
}

/// The bundled corpus file of the given name (the corpus lives in the
/// workloads crate, next door to this one).
fn corpus_trace(name: &str) -> String {
    let path = format!("{}/../workloads/traces/{name}", env!("CARGO_MANIFEST_DIR"));
    assert!(
        std::path::Path::new(&path).exists(),
        "bundled corpus file missing: {path}"
    );
    path
}

#[test]
fn trace_replay_accepts_both_corpus_formats() {
    // One v1 text trace (the back-compat file) and one v2 binary trace.
    for trace in [
        corpus_trace("stride_l1.trace"),
        corpus_trace("mix_gcc_prefix.trace2"),
    ] {
        let output = Command::new(bin_path("trace_replay"))
            .args(["1", "--sequential", "--trace", &trace])
            .output()
            .unwrap_or_else(|e| panic!("failed to spawn trace_replay: {e}"));
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(
            output.status.code(),
            Some(0),
            "trace_replay must accept --trace {trace} (stderr: {stderr})"
        );
        let stdout = String::from_utf8_lossy(&output.stdout);
        assert!(
            stdout.contains(&trace),
            "the replayed trace must appear as a figure row, got:\n{stdout}"
        );
    }
}

#[test]
fn trace_replay_rejects_a_missing_or_corrupt_trace() {
    let output = Command::new(bin_path("trace_replay"))
        .args(["1", "--trace", "/nonexistent/nope.trace"])
        .output()
        .expect("spawn trace_replay");
    assert_eq!(
        output.status.code(),
        Some(2),
        "missing trace file must exit 2"
    );
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("/nonexistent/nope.trace"),
        "error must name the path, got:\n{stderr}"
    );

    // A file that is neither v2 binary nor parsable v1 text, and a v2 file
    // cut short (`Trace::from_v2` is the only check v2 input passes).
    let mut truncated =
        std::fs::read(corpus_trace("mix_gcc_prefix.trace2")).expect("read corpus file");
    truncated.truncate(truncated.len() / 2);
    for (extension, contents) in [
        ("trace", b"X 0xZZ not-a-trace\n".to_vec()),
        ("trace2", truncated),
    ] {
        let corrupt = format!(
            "{}/cli_corrupt_{}.{extension}",
            std::env::temp_dir().display(),
            std::process::id()
        );
        std::fs::write(&corrupt, contents).expect("write temp file");
        let output = Command::new(bin_path("trace_replay"))
            .args(["1", "--trace", &corrupt])
            .output()
            .expect("spawn trace_replay");
        std::fs::remove_file(&corrupt).ok();
        assert_eq!(
            output.status.code(),
            Some(2),
            "corrupt trace {corrupt} must exit 2"
        );
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            stderr.contains("error:") && stderr.contains(&corrupt),
            "corrupt-trace error must name the path, got:\n{stderr}"
        );
    }
}

/// A trace cell's results depend on the recorded accesses, not on the file
/// format: the v1 corpus file and its v2 re-encoding produce the same cell.
#[test]
fn trace_cell_does_not_depend_on_the_file_format() {
    let v1 = corpus_trace("stride_l1.trace");
    let trace = Trace::from_bytes(&std::fs::read(&v1).expect("read corpus file"))
        .expect("corpus file parses");
    let stem = format!(
        "{}/cli_format_{}",
        std::env::temp_dir().display(),
        std::process::id()
    );
    let v2 = format!("{stem}.trace2");
    std::fs::write(&v2, trace.to_v2()).expect("write temp file");

    // Runs `trace_replay` on `path`, checks the trace cell's `trace_format`,
    // and returns the cell's fields except that one and `scenario` (the
    // path).
    let trace_cell = |path: &str, format: &str| {
        let json = format!("{stem}_{format}.json");
        let output = Command::new(bin_path("trace_replay"))
            .args(["20000", "--sequential", "--trace", path, "--json", &json])
            .output()
            .expect("spawn trace_replay");
        assert_eq!(
            output.status.code(),
            Some(0),
            "trace_replay --trace {path} failed: {}",
            String::from_utf8_lossy(&output.stderr)
        );
        let text = std::fs::read_to_string(&json).expect("--json output");
        std::fs::remove_file(&json).ok();
        let doc = Json::parse(&text).expect("valid JSON document");
        let cell = doc
            .get("cells")
            .and_then(Json::as_array)
            .and_then(|cells| {
                cells
                    .iter()
                    .find(|c| c.get("kind").and_then(Json::as_str) == Some("trace"))
            })
            .cloned()
            .expect("a trace cell");
        assert_eq!(
            cell.get("trace_format").and_then(Json::as_str),
            Some(format),
            "{path}"
        );
        let Json::Object(fields) = cell else {
            panic!("cell is not an object: {cell:?}")
        };
        fields
            .into_iter()
            .filter(|(key, _)| key != "scenario" && key != "trace_format")
            .collect::<Vec<_>>()
    };
    let from_v1 = trace_cell(&v1, "v1");
    let from_v2 = trace_cell(&v2, "v2");
    std::fs::remove_file(&v2).ok();
    assert_eq!(
        from_v1, from_v2,
        "the trace cell must not depend on the format"
    );
}

#[test]
fn store_rejecting_binaries_exit_2_and_name_the_flag() {
    for name in REJECTS_STORE {
        let output = Command::new(bin_path(name))
            .args(["--store", "some.store"])
            .output()
            .unwrap_or_else(|e| panic!("failed to spawn {name}: {e}"));
        assert_eq!(
            output.status.code(),
            Some(2),
            "{name} must exit 2 on --store"
        );
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            stderr.contains("--store"),
            "{name}'s rejection must name the offending flag, got:\n{stderr}"
        );
        assert!(
            stderr.contains("error:"),
            "{name}'s rejection must be an error line, got:\n{stderr}"
        );
    }
}

#[test]
fn store_accepting_binaries_warm_rerun_is_byte_identical() {
    for (name, scale_args) in ACCEPTS_STORE {
        let stem = format!(
            "{}/cli_store_{}_{name}",
            std::env::temp_dir().display(),
            std::process::id()
        );
        let store = format!("{stem}.store");
        std::fs::remove_file(&store).ok();
        let run = |json: &str| {
            let output = Command::new(bin_path(name))
                .args(*scale_args)
                .args(["--store", &store, "--json", json])
                .output()
                .unwrap_or_else(|e| panic!("failed to spawn {name}: {e}"));
            let stderr = String::from_utf8_lossy(&output.stderr).into_owned();
            assert_eq!(
                output.status.code(),
                Some(0),
                "{name} must accept --store (stderr: {stderr})"
            );
            stderr
        };

        let cold_json = format!("{stem}_cold.json");
        let cold_stderr = run(&cold_json);
        assert!(
            cold_stderr.contains("0 warm"),
            "{name}'s first run must be all cold, got:\n{cold_stderr}"
        );

        let warm_json = format!("{stem}_warm.json");
        let warm_stderr = run(&warm_json);
        assert!(
            warm_stderr.contains("0 cold"),
            "{name}'s rerun must be answered from the store, got:\n{warm_stderr}"
        );
        // The cache's core contract: warm results are byte-identical to the
        // cold run's, down to the emitted JSON document.
        let cold = std::fs::read(&cold_json).expect("cold --json output");
        let warm = std::fs::read(&warm_json).expect("warm --json output");
        assert_eq!(
            cold, warm,
            "{name}'s warm --json document must be byte-identical to the cold one"
        );

        std::fs::remove_file(&store).ok();
        std::fs::remove_file(&cold_json).ok();
        std::fs::remove_file(&warm_json).ok();
    }
}

#[test]
fn conflicting_execution_mode_flags_exit_2_and_name_both() {
    // Every shared-parser binary rejects `--sequential --threads N`, in
    // either order, before doing any work.
    for name in ["fig8_performance", "ablation_delay", "trace_replay"] {
        for order in [
            ["--sequential", "--threads", "2"],
            ["--threads", "2", "--sequential"],
        ] {
            let output = Command::new(bin_path(name))
                .args(order)
                .output()
                .unwrap_or_else(|e| panic!("failed to spawn {name}: {e}"));
            assert_eq!(
                output.status.code(),
                Some(2),
                "{name} must exit 2 on {order:?}"
            );
            let stderr = String::from_utf8_lossy(&output.stderr);
            assert!(
                stderr.contains("--sequential") && stderr.contains("--threads"),
                "{name}'s conflict error must name both flags, got:\n{stderr}"
            );
            assert!(
                stderr.contains("error:"),
                "{name}'s rejection must be an error line, got:\n{stderr}"
            );
        }
    }
}

#[test]
fn throughput_rejects_an_unusable_compare_file_before_simulating() {
    let empty = format!(
        "{}/cli_compare_{}.json",
        std::env::temp_dir().display(),
        std::process::id()
    );
    std::fs::write(&empty, "{\"configs\": []}").expect("write temp file");
    for path in ["/nonexistent/old_bench.json", empty.as_str()] {
        let output = Command::new(bin_path("throughput"))
            .args(["1000", "--samples", "1", "--compare", path])
            .output()
            .expect("spawn throughput");
        assert_eq!(
            output.status.code(),
            Some(2),
            "an unusable --compare file must exit 2, not panic"
        );
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            stderr.contains("error:") && stderr.contains(path),
            "the error must name the path, got:\n{stderr}"
        );
        // Checked up front: no configuration was simulated or reported.
        assert!(
            output.stdout.is_empty() && !stderr.contains("accesses/sec"),
            "throughput must stop before measuring, got:\n{stderr}"
        );
    }
    std::fs::remove_file(&empty).ok();
}

#[test]
fn throughput_reports_an_unwritable_out_path() {
    let path = "/nonexistent/bench_out.json";
    let output = Command::new(bin_path("throughput"))
        .args(["1000", "--samples", "1", "--out", path])
        .output()
        .expect("spawn throughput");
    assert_eq!(
        output.status.code(),
        Some(1),
        "an unwritable --out must exit 1, not panic"
    );
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("error:") && stderr.contains(path),
        "the error must name the path, got:\n{stderr}"
    );
}

/// `throughput` writes a file only when `--out` asks for one: run in an
/// empty directory it leaves the directory empty, and its document goes to
/// stdout.
#[test]
fn throughput_writes_no_file_unless_asked() {
    let dir = std::env::temp_dir().join(format!("cli_throughput_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let output = bounded(
        Command::new(bin_path("throughput"))
            .current_dir(&dir)
            .args(["2000", "--samples", "1"]),
    );
    let left: Vec<_> = std::fs::read_dir(&dir)
        .expect("read temp dir")
        .map(|entry| entry.expect("dir entry").file_name())
        .collect();
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(
        output.status.code(),
        Some(0),
        "throughput failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    assert!(left.is_empty(), "throughput wrote {left:?}");
    let doc = Json::parse(&String::from_utf8_lossy(&output.stdout)).expect("a JSON document");
    let configs = doc.get("configs").and_then(Json::as_array);
    assert_eq!(configs.map(<[Json]>::len), Some(6), "{doc:?}");
}

/// `throughput` takes one positional count, like the shared parser: a second
/// one is an error naming it, not a silent override.
#[test]
fn throughput_rejects_an_extra_positional_argument() {
    let out = format!(
        "{}/cli_extra_{}.json",
        std::env::temp_dir().display(),
        std::process::id()
    );
    let output = run_bounded(
        "throughput",
        &["100", "200", "--samples", "1", "--out", &out],
    );
    let stderr = String::from_utf8_lossy(&output.stderr);
    let written = std::fs::remove_file(&out).is_ok();
    assert_eq!(
        output.status.code(),
        Some(2),
        "a second positional must exit 2, got:\n{stderr}"
    );
    assert!(
        stderr.contains("error:") && stderr.contains("\"200\""),
        "the error must name the extra argument, got:\n{stderr}"
    );
    assert!(
        output.stdout.is_empty() && !written,
        "throughput must stop before measuring"
    );
}

/// `fig7_reverse` also floods the paper's filter (l = 1024, b = 8): after
/// the brute-force cell and the scaled filter's four reverse cells come
/// five `reverse_paper` cells at MNK 0–4, each priced against that filter's
/// 8,192-fill brute-force cost, and stdout gives each a verdict.
#[test]
fn fig7_reports_the_paper_geometry_rows() {
    let json = format!(
        "{}/cli_fig7_{}.json",
        std::env::temp_dir().display(),
        std::process::id()
    );
    let output = Command::new(bin_path("fig7_reverse"))
        .args(["2", "--sequential", "--json", &json])
        .output()
        .expect("spawn fig7_reverse");
    assert_eq!(
        output.status.code(),
        Some(0),
        "fig7_reverse failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let text = std::fs::read_to_string(&json).expect("--json output");
    std::fs::remove_file(&json).ok();
    let doc = Json::parse(&text).expect("valid JSON document");
    let cells = doc
        .get("cells")
        .and_then(Json::as_array)
        .expect("a cells array");
    let kinds: Vec<&str> = cells
        .iter()
        .map(|cell| cell.get("kind").and_then(Json::as_str).unwrap_or(""))
        .collect();
    let mut expected = vec!["brute_force"];
    expected.extend(["reverse"; 4]);
    expected.extend(["reverse_paper"; 5]);
    assert_eq!(kinds, expected);
    for (mnk, cell) in (0u32..).zip(&cells[5..]) {
        let field = |name: &str| cell.get(name).and_then(Json::as_u64);
        assert_eq!(field("mnk"), Some(u64::from(mnk)));
        assert_eq!(field("brute_force_expected_fills"), Some(8192));
        assert_eq!(field("eviction_set_paper"), Some(8u64.pow(mnk + 1)));
        let fills = cell.get("mean_fills").and_then(Json::as_f64);
        assert!(fills.is_some_and(|f| f > 0.0), "MNK {mnk}: {fills:?}");
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        stdout.contains("paper filter (l=1024, b=8)"),
        "missing the paper table:\n{stdout}"
    );
    let verdicts = stdout.matches(" than 8192").count();
    assert_eq!(verdicts, 5, "one verdict per paper MNK:\n{stdout}");
}

/// Runs `name ARGS --sequential --json PATH` and returns the parsed
/// document. Each call writes its own file, so tests running one binary
/// side by side do not share one.
fn json_document(name: &str, args: &[&str]) -> Json {
    static CALLS: AtomicUsize = AtomicUsize::new(0);
    let json = format!(
        "{}/cli_{name}_{}_{}.json",
        std::env::temp_dir().display(),
        std::process::id(),
        CALLS.fetch_add(1, Ordering::Relaxed)
    );
    let output = Command::new(bin_path(name))
        .args(args)
        .args(["--sequential", "--json", &json])
        .output()
        .unwrap_or_else(|e| panic!("failed to spawn {name}: {e}"));
    assert_eq!(
        output.status.code(),
        Some(0),
        "{name} failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let text = std::fs::read_to_string(&json).expect("--json output");
    std::fs::remove_file(&json).ok();
    Json::parse(&text).expect("valid JSON document")
}

/// §VII-D's storage and area figures: every storage and area field of
/// `overhead_table`'s row for the paper's 1024×8 filter, and
/// `baseline_stateful`'s three storage rows (the filter, a tag table of the
/// same capacity, and a directory extension with one record per line of
/// the 4 MB LLC).
#[test]
fn overhead_figures_are_pinned() {
    let doc = json_document("overhead_table", &[]);
    let paper_row = doc
        .get("cells")
        .and_then(Json::as_array)
        .and_then(|cells| {
            cells.iter().find(|cell| {
                cell.get("l").and_then(Json::as_u64) == Some(1024)
                    && cell.get("b").and_then(Json::as_u64) == Some(8)
            })
        })
        .expect("a 1024x8 row");
    let field = |name: &str| paper_row.get(name).and_then(Json::as_f64);
    assert_eq!(paper_row.get("entries").and_then(Json::as_u64), Some(8192));
    assert_eq!(
        paper_row.get("bits_per_entry").and_then(Json::as_u64),
        Some(15)
    );
    assert_eq!(field("storage_kib"), Some(15.0));
    assert_eq!(field("storage_relative_to_llc"), Some(0.003_662_109_375));
    assert_eq!(field("area_mm2"), Some(0.013));
    assert_eq!(field("area_relative_to_llc"), Some(0.0031999999999999997));

    let doc = json_document("baseline_stateful", &[]);
    let rows: Vec<(&str, u64, f64, f64)> = doc
        .get("storage")
        .and_then(Json::as_array)
        .expect("a storage array")
        .iter()
        .map(|row| {
            (
                row.get("structure").and_then(Json::as_str).unwrap_or(""),
                row.get("entries").and_then(Json::as_u64).unwrap_or(0),
                row.get("kib").and_then(Json::as_f64).unwrap_or(0.0),
                row.get("relative_to_llc")
                    .and_then(Json::as_f64)
                    .unwrap_or(0.0),
            )
        })
        .collect();
    assert_eq!(
        rows,
        [
            (
                "Auto-Cuckoo filter (1024x8, f=12)",
                8192,
                15.0,
                0.003_662_109_375
            ),
            (
                "tag table, same capacity (1024x8)",
                8192,
                27.0,
                0.006_591_796_875
            ),
            (
                "directory extension (per LLC line)",
                65_536,
                168.0,
                0.041_015_625
            ),
        ]
    );
}

/// `--json` writes through a symlink to its target and keeps the link, and
/// refuses a path that is not a regular file, leaving it as it is. Both
/// paths live in a fresh temp dir; no test aims `--json` at a device.
#[cfg(unix)]
#[test]
fn json_output_keeps_a_symlink_and_refuses_a_fifo() {
    use std::os::unix::fs::FileTypeExt;

    let dir = std::env::temp_dir().join(format!("cli_links_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let (target, link, fifo) = (
        dir.join("target.json"),
        dir.join("link.json"),
        dir.join("fifo.json"),
    );
    std::fs::write(&target, "stale").expect("write target");
    std::os::unix::fs::symlink("target.json", &link).expect("create symlink");
    let made = Command::new("mkfifo").arg(&fifo).status();
    assert!(made.is_ok_and(|status| status.success()), "mkfifo failed");

    let run = |path: &std::path::Path| {
        let path = path.to_str().expect("UTF-8 temp path");
        run_bounded("overhead_table", &["--sequential", "--json", path])
    };
    let output = run(&link);
    assert_eq!(
        output.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let output = run(&fifo);
    let stderr = String::from_utf8_lossy(&output.stderr).into_owned();
    let kind = |path: &std::path::Path| std::fs::symlink_metadata(path).map(|m| m.file_type());
    let (link_kind, fifo_kind) = (kind(&link), kind(&fifo));
    let document = std::fs::read_to_string(&target).unwrap_or_default();
    let entries = std::fs::read_dir(&dir).map_or(0, Iterator::count);
    std::fs::remove_dir_all(&dir).ok();

    assert!(
        link_kind.is_ok_and(|kind| kind.is_symlink()),
        "the link is gone"
    );
    let doc = Json::parse(&document).expect("the target holds the new document");
    assert_eq!(
        doc.get("bench").and_then(Json::as_str),
        Some("overhead_table")
    );
    assert_eq!(output.status.code(), Some(1), "a FIFO must be refused");
    assert!(
        stderr.contains("error:") && stderr.contains("fifo.json"),
        "the error must name the path, got:\n{stderr}"
    );
    assert!(
        fifo_kind.is_ok_and(|kind| kind.is_fifo()),
        "the FIFO was replaced"
    );
    assert_eq!(entries, 3, "a temporary file was left behind");
}

/// CI's security-figure checks at each binary's default scale: Fig. 6's
/// baseline attacker reads the key and PiPoMonitor blinds it, every
/// prefetch delay below the 5000-cycle probe interval floods the probe,
/// and the table flush bypasses the directory table but not PiPoMonitor.
#[test]
fn security_figures_meet_their_thresholds() {
    let cells = |name: &str| -> Vec<Json> {
        json_document(name, &[])
            .get("cells")
            .and_then(Json::as_array)
            .expect("a cells array")
            .to_vec()
    };
    let number = |cell: &Json, name: &str| {
        cell.get(name)
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("{name} missing from {cell:?}"))
    };

    let fig6 = cells("fig6_attack");
    let panel = |name: &str| {
        let cell = fig6
            .iter()
            .find(|cell| cell.get("panel").and_then(Json::as_str) == Some(name))
            .unwrap_or_else(|| panic!("no {name} panel in {fig6:?}"));
        number(cell, "distinguishability")
    };
    let (baseline, defended) = (panel("baseline"), panel("pipomonitor"));
    assert!(baseline > 0.99, "baseline distinguishability {baseline}");
    assert!(
        defended < baseline - 0.3,
        "pipomonitor distinguishability {defended} vs baseline {baseline}"
    );

    let flooding: Vec<Json> = cells("ablation_delay")
        .into_iter()
        .filter(|cell| number(cell, "prefetch_delay") < 5000.0)
        .collect();
    assert!(
        !flooding.is_empty(),
        "no delay cell below the probe interval"
    );
    for cell in &flooding {
        assert!(number(cell, "distinguishability") < 0.1, "{cell:?}");
    }

    let stateful = cells("baseline_stateful");
    let column = |name: &str| -> Vec<Json> {
        stateful
            .iter()
            .map(|cell| cell.get(name).cloned().unwrap_or(Json::Null))
            .collect()
    };
    assert_eq!(
        column("defense"),
        [Json::from("directory"), Json::from("pipomonitor")]
    );
    assert_eq!(column("bypassed"), [Json::Bool(true), Json::Bool(false)]);
}

/// The attribution checks of CI's filter-ablation and trace-replay smoke
/// steps: every `ablation_filter` backend and every `trace_replay`
/// scenario splits its captures into exact captures and false positives,
/// and an undetected scenario's latency is its whole region's fetch count.
#[test]
fn filter_and_trace_figures_attribute_every_capture() {
    let cells = |doc: &Json| -> Vec<Json> {
        doc.get("cells")
            .and_then(Json::as_array)
            .expect("a cells array")
            .to_vec()
    };
    let count = |cell: &Json, name: &str| {
        cell.get(name)
            .and_then(Json::as_u64)
            .unwrap_or_else(|| panic!("{name} missing from {cell:?}"))
    };
    let finite = |cell: &Json, name: &str| {
        let value = cell.get(name).and_then(Json::as_f64);
        assert!(
            value.is_some_and(f64::is_finite),
            "{name} is not a finite number in {cell:?}"
        );
        value.unwrap_or_default()
    };
    let attributed = |cell: &Json| {
        assert_eq!(
            count(cell, "captures"),
            count(cell, "exact_captures") + count(cell, "fp_captures"),
            "capture attribution must add up in {cell:?}"
        );
    };

    let filter = cells(&json_document("ablation_filter", &["20000"]));
    let backends: Vec<&str> = filter
        .iter()
        .map(|cell| cell.get("backend").and_then(Json::as_str).unwrap_or(""))
        .collect();
    assert_eq!(backends, ["auto", "classic", "bloom", "xor"]);
    for cell in &filter {
        for name in [
            "false_alarms_per_mi",
            "detection_latency_accesses",
            "occupancy",
        ] {
            finite(cell, name);
        }
        assert!(finite(cell, "memory_bytes") > 0.0, "{cell:?}");
        assert!(finite(cell, "ns_per_access") > 0.0, "{cell:?}");
        attributed(cell);
    }

    let trace = corpus_trace("mix_gcc_prefix.trace2");
    let replay = cells(&json_document(
        "trace_replay",
        &["100000", "--trace", &trace],
    ));
    let scenarios: Vec<&str> = replay
        .iter()
        .map(|cell| cell.get("scenario").and_then(Json::as_str).unwrap_or(""))
        .collect();
    assert_eq!(
        scenarios[..3],
        ["occupancy_channel", "noisy_neighbor", "bursty"]
    );
    assert!(
        replay
            .iter()
            .any(|cell| cell.get("kind").and_then(Json::as_str) == Some("trace")),
        "no trace cell recorded"
    );
    for cell in &replay {
        finite(cell, "overhead_percent");
        attributed(cell);
        let detected = cell
            .get("detected")
            .and_then(Json::as_bool)
            .unwrap_or_else(|| panic!("detected missing from {cell:?}"));
        let latency = count(cell, "detection_latency_fetches");
        assert!(
            detected || latency == count(cell, "scenario_fetches"),
            "an undetected scenario's latency must equal its region fetches: {cell:?}"
        );
    }
}

/// The figure golden's runs: every figure binary at a scale where its
/// tables still print non-degenerate values, with the FNV-1a digests of its
/// stdout and of its `--json` document (`--sequential` is added to each).
/// Every run starts in the workloads crate, so `trace_replay`'s relative
/// trace path, which it prints, does not depend on the checkout's location.
const FIGURE_GOLDEN: &[(&str, &[&str], u64, u64)] = &[
    (
        "fig3_occupancy",
        &[],
        0x308e_46d3_12cc_1c0b,
        0xec50_d7af_636d_8e21,
    ),
    (
        "fig4_collisions",
        &["200000"],
        0xe8bf_219a_3ee0_2355,
        0xe0b1_d3e1_7416_a229,
    ),
    (
        "fig6_attack",
        &[],
        0x7c3e_e864_8b14_cf15,
        0xac34_b54b_6e43_c740,
    ),
    (
        "fig7_reverse",
        &["1"],
        0xeedc_1fc2_1b88_5cd0,
        0xee48_9d19_9210_9326,
    ),
    (
        "fig8_performance",
        &["100000"],
        0x677e_a89d_5140_8cd1,
        0x3bec_f200_9bff_2a7f,
    ),
    (
        "sensitivity_secthr",
        &["100000"],
        0x7cb8_7339_4fc2_1328,
        0x60c2_8808_f34f_aa08,
    ),
    (
        "ablation_delay",
        &[],
        0x52ad_2904_e89a_5018,
        0xe428_65a6_a8ec_d8b0,
    ),
    (
        "ablation_filter",
        &["20000"],
        0xae4d_7cf3_b8fa_ba2c,
        0xf625_d821_d9a5_6c38,
    ),
    (
        "ablation_replacement",
        &["100000"],
        0xbd5d_2e1b_5a7a_9f62,
        0xe9bc_d9da_c175_8504,
    ),
    (
        "baseline_stateful",
        &[],
        0x0a2a_e47b_b3de_686a,
        0xe464_613b_55c4_2262,
    ),
    (
        "overhead_table",
        &[],
        0x23ee_3080_b5c2_b7f8,
        0x4f12_76f8_dec4_60f2,
    ),
    (
        "trace_replay",
        &["100000", "--trace", "traces/mix_gcc_prefix.trace2"],
        0x8be4_5950_4a7c_288a,
        0x8ca0_d6fe_3674_3a43,
    ),
];

/// `text` without `ablation_filter`'s wall-clock figures: the last field of
/// every row under the table header that ends in `ns/access`, and the value
/// of every `"ns_per_access"` field.
fn mask_wall_clock(text: &str) -> String {
    let mut out = String::new();
    let mut in_table = false;
    for line in text.lines() {
        if line.trim_start().starts_with("\"ns_per_access\":") {
            out.push_str("\"ns_per_access\": masked");
        } else if in_table {
            let row = line.rsplit_once(' ').map_or(line, |(row, _)| row);
            out.push_str(row.trim_end());
        } else {
            out.push_str(line);
        }
        out.push('\n');
        in_table = (in_table || line.ends_with("ns/access")) && !line.is_empty();
    }
    out
}

/// Every figure binary's stdout and `--json` document, byte for byte (by
/// digest), so "outputs are byte-identical" is a test rather than a diff
/// against a build of the parent commit. Only `ablation_filter`'s wall-clock
/// `ns/access` column and `ns_per_access` field are masked. After an
/// intended change, print the new digests with `GOLDEN_PRINT=1 cargo test
/// -p pipo_bench --test cli figure_outputs_are_pinned -- --nocapture`.
#[test]
fn figure_outputs_are_pinned() {
    let workloads = format!("{}/../workloads", env!("CARGO_MANIFEST_DIR"));
    let mut changed = Vec::new();
    for &(name, args, pinned_stdout, pinned_json) in FIGURE_GOLDEN {
        let json = format!(
            "{}/cli_golden_{name}_{}.json",
            std::env::temp_dir().display(),
            std::process::id()
        );
        let output = bounded(
            Command::new(bin_path(name))
                .current_dir(&workloads)
                .args(args)
                .args(["--sequential", "--json", &json]),
        );
        assert_eq!(
            output.status.code(),
            Some(0),
            "{name} {args:?} failed: {}",
            String::from_utf8_lossy(&output.stderr)
        );
        let document = std::fs::read(&json).expect("--json output");
        std::fs::remove_file(&json).ok();
        let (stdout, document) = if name == "ablation_filter" {
            let mask = |bytes: &[u8]| mask_wall_clock(&String::from_utf8_lossy(bytes)).into_bytes();
            (mask(&output.stdout), mask(&document))
        } else {
            (output.stdout, document)
        };
        let (stdout, document) = (fnv1a64(&stdout), fnv1a64(&document));
        if std::env::var("GOLDEN_PRINT").is_ok() {
            println!("    (\"{name}\", &{args:?}, {stdout:#018x}, {document:#018x}),");
        }
        if (stdout, document) != (pinned_stdout, pinned_json) {
            changed.push(format!(
                "{name}: stdout {stdout:#018x} (pinned {pinned_stdout:#018x}), \
                 --json {document:#018x} (pinned {pinned_json:#018x})"
            ));
        }
    }
    assert!(
        changed.is_empty(),
        "figure outputs changed:\n{}",
        changed.join("\n")
    );
}
