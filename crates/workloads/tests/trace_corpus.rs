//! The bundled trace corpus under `traces/` must stay loadable, round-trip
//! through both serialisers, replay deterministically through the simulator,
//! and — for the v2 files — hit the compression target that justifies the
//! binary format. (The files were recorded with `examples/record_trace.rs`
//! — see its doc comment to regenerate them.)
//!
//! Corpus layout contract: `.trace` files are v1 text (at least one is kept
//! for back-compat coverage of the v1 reader), `.trace2` files are v2
//! binary, and both load through the same magic-sniffing entry point.

use std::path::PathBuf;

use cache_sim::{CoreId, NullObserver, System, SystemConfig};
use pipo_workloads::{is_v2, Trace};

fn corpus() -> Vec<(String, Vec<u8>)> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("traces");
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(&dir)
        .expect("traces/ directory is bundled with the crate")
        .map(|entry| {
            let path = entry.expect("readable directory entry").path();
            let name = path
                .file_name()
                .expect("file name")
                .to_string_lossy()
                .into_owned();
            let bytes = std::fs::read(&path).expect("readable trace file");
            (name, bytes)
        })
        .collect();
    files.sort();
    files
}

#[test]
fn corpus_is_bundled_and_well_formed() {
    let files = corpus();
    let v1 = files.iter().filter(|(n, _)| n.ends_with(".trace")).count();
    let v2 = files.iter().filter(|(n, _)| n.ends_with(".trace2")).count();
    assert!(
        v1 >= 1,
        "keep at least one v1 file for back-compat coverage"
    );
    assert!(v2 >= 4, "expected a v2 corpus, found {v2} .trace2 files");
    for (name, bytes) in &files {
        if name.ends_with(".trace2") {
            assert!(is_v2(bytes), "{name} must carry the v2 magic");
        } else {
            assert!(name.ends_with(".trace"), "unexpected file {name}");
            assert!(!is_v2(bytes), "{name} is v1 text, not binary");
            let text = std::str::from_utf8(bytes).expect("v1 traces are UTF-8");
            assert!(
                text.starts_with("# pipo-trace v1\n"),
                "{name} missing the format header"
            );
        }
        let trace = Trace::from_bytes(bytes).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(!trace.is_empty(), "{name} holds no accesses");
        assert!(trace.len() >= 100, "{name} is too short to exercise replay");
    }
}

#[test]
fn corpus_round_trips_through_both_serialisers() {
    for (name, bytes) in corpus() {
        let trace = Trace::from_bytes(&bytes).unwrap_or_else(|e| panic!("{name}: {e}"));
        // v1 text round trip.
        let reparsed: Trace = trace
            .to_text()
            .parse()
            .unwrap_or_else(|e| panic!("{name} v1 re-parse: {e}"));
        assert_eq!(trace, reparsed, "{name} v1 round trip");
        // v2 binary round trip (v1→v2→v1 losslessness for the text files).
        let rebuilt = Trace::from_v2(&trace.to_v2()).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(trace, rebuilt, "{name} v2 round trip");
        // v2 files must re-encode byte-identically (the encoder is canonical,
        // so `record_trace` regeneration is reproducible).
        if name.ends_with(".trace2") {
            assert_eq!(trace.to_v2(), bytes, "{name} re-encode");
        }
    }
}

/// The acceptance target for the binary format: the v2 corpus is at least
/// 4× smaller than the same traces serialised as v1 text, per file and in
/// aggregate (numbers reported in `BENCH_cache_sim.md`).
#[test]
fn v2_corpus_compresses_at_least_4x_vs_v1_text() {
    let mut v1_total = 0usize;
    let mut v2_total = 0usize;
    for (name, bytes) in corpus() {
        if !name.ends_with(".trace2") {
            continue;
        }
        let trace = Trace::from_bytes(&bytes).unwrap_or_else(|e| panic!("{name}: {e}"));
        let v1_len = trace.to_text().len();
        let ratio = v1_len as f64 / bytes.len() as f64;
        assert!(
            ratio >= 4.0,
            "{name}: v1 {v1_len} B vs v2 {} B is only {ratio:.2}x",
            bytes.len()
        );
        v1_total += v1_len;
        v2_total += bytes.len();
    }
    assert!(v2_total > 0, "no v2 files measured");
    let aggregate = v1_total as f64 / v2_total as f64;
    assert!(
        aggregate >= 4.0,
        "aggregate compression {aggregate:.2}x below the 4x target"
    );
}

#[test]
fn corpus_replays_deterministically_through_the_simulator() {
    for (name, bytes) in corpus() {
        let trace = Trace::from_bytes(&bytes).unwrap_or_else(|e| panic!("{name}: {e}"));
        let replay_once = || {
            let mut system = System::new(SystemConfig::small_test(), NullObserver);
            system.set_source(CoreId(0), Box::new(trace.replay()));
            // More instructions than the trace holds: the run ends when the
            // replay is exhausted, covering the full file.
            let report = system.run(u64::MAX);
            (report.completion_cycles.clone(), report.stats.llc_evictions)
        };
        let first = replay_once();
        assert_eq!(first, replay_once(), "{name} must replay identically");
        assert!(first.0[0] > 0, "{name} replay advanced the core clock");
    }
}
