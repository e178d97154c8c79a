//! Integration tests for the persistent content-addressed result store.
//!
//! `src/store.rs` carries targeted unit tests (FNV vectors, canonical-key
//! pins, basic round trips); this suite attacks the log format the way the
//! trace_v2 suite attacks the trace decoder:
//!
//! * randomized record sets — keys and payloads mixing newlines, quotes,
//!   frame-magic lookalikes and multi-byte UTF-8 — must round-trip through
//!   flush + reopen with last-put-wins semantics;
//! * recovery must tolerate truncation at **every** byte offset and byte
//!   flips at every offset without panicking, and must never resurrect a
//!   record that differs from what was written;
//! * a flushed file must depend only on the records it holds: the same
//!   puts in another order, with lookups between them, write the same
//!   bytes, frames in key order;
//! * an interrupted atomic write (temp file present, rename never happened)
//!   must leave the previous log fully readable.

use std::collections::HashMap;
use std::path::PathBuf;

use pipo_bench::ResultStore;
use proptest::collection::vec;
use proptest::prelude::*;

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("pipo_store_it_{}_{name}.log", std::process::id()))
}

/// Builds a string over a deliberately hostile alphabet: record-frame
/// lookalikes, newlines, JSON metacharacters, NUL, multi-byte UTF-8.
fn hostile_string(picks: Vec<u8>) -> String {
    const PIECES: [&str; 12] = [
        "rec ",
        "\n",
        "pipo-store v1",
        "\"",
        "\\",
        " ",
        "é",
        "😀",
        "k",
        "0",
        "{\"v\": 1}",
        "\u{0}",
    ];
    picks
        .into_iter()
        .map(|p| PIECES[p as usize % PIECES.len()])
        .collect()
}

fn arb_records() -> impl Strategy<Value = Vec<(String, String)>> {
    vec(
        (
            vec(any::<u8>(), 1..12).prop_map(hostile_string),
            vec(any::<u8>(), 0..20).prop_map(hostile_string),
        ),
        0..16,
    )
}

proptest! {
    #[test]
    fn arbitrary_records_round_trip_through_flush_and_reopen(
        records in arb_records(),
        case in 0u64..u64::MAX,
    ) {
        let path = temp_path(&format!("roundtrip_{case}"));
        std::fs::remove_file(&path).ok();
        let mut store = ResultStore::open(&path).expect("open fresh");
        let mut expected: HashMap<&str, &str> = HashMap::new();
        for (key, payload) in &records {
            store.put(key, payload);
            expected.insert(key, payload);
        }
        store.flush().expect("flush");

        let reopened = ResultStore::open(&path).expect("reopen");
        prop_assert_eq!(reopened.len(), expected.len());
        prop_assert_eq!(reopened.telemetry().dropped_tail_bytes, 0);
        for (key, payload) in &expected {
            prop_assert_eq!(reopened.get(key), Some(*payload));
        }
        std::fs::remove_file(&path).ok();
    }
}

/// The canonical on-disk fixture the corruption tests chew on: a few
/// records with distinct sizes and contents.
fn write_fixture(path: &PathBuf) -> Vec<(String, String)> {
    std::fs::remove_file(path).ok();
    let records: Vec<(String, String)> = (0..5)
        .map(|i| {
            (
                format!("pipo/v1 test key {i}"),
                format!(
                    "{{\n  \"value\": {i},\n  \"pad\": \"{}\"\n}}\n",
                    "x".repeat(i * 7)
                ),
            )
        })
        .collect();
    let mut store = ResultStore::open(path).expect("open fresh");
    for (key, payload) in &records {
        store.put(key, payload);
    }
    store.flush().expect("flush");
    records
}

#[test]
fn recovery_survives_truncation_at_every_byte() {
    const HEADER_LEN: usize = "pipo-store v1\n".len();
    let path = temp_path("truncate");
    let records = write_fixture(&path);
    let image = std::fs::read(&path).expect("read log");
    let cut_path = temp_path("truncate_cut");
    for cut in 0..=image.len() {
        std::fs::write(&cut_path, &image[..cut]).expect("write truncated log");
        // Every cut must open: a torn tail is data loss, never an error or
        // a panic.
        let store = ResultStore::open(&cut_path)
            .unwrap_or_else(|e| panic!("cut at {cut} failed to open: {e}"));
        let telemetry = store.telemetry();
        if cut < HEADER_LEN {
            // A torn header recovers as an empty store.
            assert_eq!(store.len(), 0, "cut {cut}");
            assert_eq!(telemetry.dropped_tail_bytes, cut as u64, "cut {cut}");
        } else {
            // Recovered log bytes + dropped tail bytes account for the
            // whole truncated file — nothing silently vanishes.
            assert_eq!(
                store.bytes() + telemetry.dropped_tail_bytes,
                cut as u64,
                "cut {cut}: bytes accounted for"
            );
        }
        // Records were flushed in key order, which is the fixture's order,
        // so what survives is a prefix: each record is intact until the
        // first missing one, none after.
        let survived: Vec<bool> = records
            .iter()
            .map(|(key, payload)| match store.get(key) {
                Some(got) => {
                    assert_eq!(got, payload, "cut {cut}: served payload intact");
                    true
                }
                None => false,
            })
            .collect();
        let prefix_len = survived.iter().take_while(|&&s| s).count();
        assert!(
            survived[prefix_len..].iter().all(|&s| !s),
            "cut {cut}: survivors form a prefix, got {survived:?}"
        );
        assert_eq!(
            telemetry.recovered_records as usize, prefix_len,
            "cut {cut}"
        );
    }
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&cut_path).ok();
}

#[test]
fn recovery_survives_a_flip_at_every_byte_without_resurrecting_garbage() {
    let path = temp_path("flip");
    let records = write_fixture(&path);
    let image = std::fs::read(&path).expect("read log");
    let flip_path = temp_path("flip_cut");
    for offset in 0..image.len() {
        let mut corrupt = image.clone();
        corrupt[offset] ^= 0x20;
        std::fs::write(&flip_path, &corrupt).expect("write corrupt log");
        // A flipped byte may drop records (checksum mismatch ends the scan)
        // or reject the file outright (header damage) — but every record
        // that *does* come back must be byte-identical to one we wrote.
        let Ok(store) = ResultStore::open(&flip_path) else {
            continue;
        };
        let recovered = store.len();
        assert!(
            recovered <= records.len(),
            "flip at {offset} resurrected extra records"
        );
        let mut matched = 0;
        for (key, payload) in &records {
            if let Some(got) = store.get(key) {
                assert_eq!(got, payload, "flip at {offset} corrupted a served payload");
                matched += 1;
            }
        }
        assert_eq!(
            matched, recovered,
            "flip at {offset}: every recovered record matches an original"
        );
    }
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&flip_path).ok();
}

#[test]
fn flushed_file_depends_only_on_the_records() {
    // Put order is not key order, so neither store's put order can pass
    // for the key order checked below.
    let records: Vec<(String, String)> = ["key-c", "key-a", "key-e", "key-b", "key-d"]
        .iter()
        .enumerate()
        .map(|(i, key)| (key.to_string(), format!("{{\"v\": {i}}}")))
        .collect();
    let forward_path = temp_path("order_forward");
    let reverse_path = temp_path("order_reverse");
    std::fs::remove_file(&forward_path).ok();
    std::fs::remove_file(&reverse_path).ok();

    let mut forward = ResultStore::open(&forward_path).expect("open fresh");
    for (key, payload) in &records {
        forward.put(key, payload);
    }
    forward.flush().expect("flush");

    // The same puts in reverse, reading back the first key put after each
    // one.
    let mut reverse = ResultStore::open(&reverse_path).expect("open fresh");
    let (first_key, first_payload) = records.last().expect("records");
    for (key, payload) in records.iter().rev() {
        reverse.put(key, payload);
        assert_eq!(reverse.get(first_key), Some(first_payload.as_str()));
    }
    reverse.flush().expect("flush");

    let forward_image = std::fs::read_to_string(&forward_path).expect("read log");
    let reverse_image = std::fs::read_to_string(&reverse_path).expect("read log");
    std::fs::remove_file(&forward_path).ok();
    std::fs::remove_file(&reverse_path).ok();
    assert_eq!(
        forward_image, reverse_image,
        "the file must not depend on put or lookup order"
    );
    let offsets: Vec<usize> = ["key-a", "key-b", "key-c", "key-d", "key-e"]
        .iter()
        .map(|key| forward_image.find(key).expect("every key is in the file"))
        .collect();
    assert!(
        offsets.windows(2).all(|pair| pair[0] < pair[1]),
        "frames must be in key order:\n{forward_image}"
    );
}

#[test]
fn interrupted_atomic_write_leaves_the_old_log_readable() {
    let path = temp_path("torn");
    let records = write_fixture(&path);
    let old_image = std::fs::read(&path).expect("read log");

    // Simulate another writer killed mid-`write_atomic`: its temp file
    // exists (with a torn half-image) but the rename never happened.
    let tmp = PathBuf::from(format!("{}.tmp.99999", path.display()));
    std::fs::write(&tmp, &old_image[..old_image.len() / 2]).expect("write torn temp");

    let mut store = ResultStore::open(&path).expect("old log opens untouched");
    assert_eq!(store.len(), records.len());
    for (key, payload) in &records {
        assert_eq!(store.get(key), Some(payload.as_str()));
    }
    // A subsequent successful flush replaces the log wholesale.
    store.put("fresh", "{\"v\": 9}");
    store.flush().expect("flush over torn state");
    let reopened = ResultStore::open(&path).expect("reopen");
    assert_eq!(reopened.len(), records.len() + 1);
    assert_eq!(reopened.get("fresh"), Some("{\"v\": 9}"));
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&tmp).ok();
}
