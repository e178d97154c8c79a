//! `pipo-store`: a persistent, content-addressed result cache.
//!
//! The sweep engine's in-memory baseline memoization dies with the process;
//! this module generalises it into an on-disk cache shared by every figure
//! binary (`--store PATH`) and the long-running `pipo-serve` service:
//!
//! * **Content addressing** — a record's address is its *canonical cell
//!   key*: a single-line ASCII rendering of every input that determines a
//!   cell's result (`SystemConfig`, mix + component benchmarks,
//!   `MonitorConfig` including filter geometry and backend, instructions,
//!   seed) prefixed with a schema version. Execution knobs
//!   (the cell label, `--threads`/`--sequential`) are deliberately
//!   **excluded**: they never change a result, so every run of a cell
//!   shares one record. The index compares full keys, so two keys whose
//!   FNV-1a hashes collide are two records, never a wrong answer; each
//!   frame on disk carries its key's hash.
//! * **Append-only log, validated on open** — the file is a header line
//!   followed by framed records (`rec <hash> <keylen> <paylen> <checksum>`
//!   then the raw key and payload bytes). Recovery follows the trace_v2
//!   decoder's validate-everything discipline: every frame's lengths,
//!   hash, checksum and terminator are checked, and the first malformed
//!   byte ends the scan — a truncated or torn tail is dropped (and counted
//!   in telemetry), never trusted and never a panic.
//! * **Atomic persistence** — [`ResultStore::flush`] rewrites the compacted
//!   log through [`write_atomic`]
//!   (write-temp-then-rename), so readers see either the previous log or
//!   the complete new one even if a flush is killed mid-write.
//! * **Key order** — the index is a map from canonical key to payload, and
//!   flush writes it in key order, so a store's file depends only on the
//!   records it holds, not on the order they were put or read.
//! * **One record format** — [`ResultStore::record`] and
//!   [`ResultStore::lookup`] are the only writer and reader of a sweep
//!   cell's record: its key is [`mix_cell_key`] and its payload the
//!   cell's [`MixRun::to_json`] document, pretty-printed.
//!
//! The store is single-writer: concurrent processes should go through
//! `pipo-serve`, which serialises access behind one store.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};

use cache_sim::{
    Replacement, SystemConfig, DRAM_LATENCY, L1_LATENCY, L2_LATENCY, LINE_SIZE, LLC_LATENCY,
};
use pipo_workloads::Mix;
use pipomonitor::MonitorConfig;

use crate::json::{write_atomic, Json};
use crate::sweep::MixCell;
use crate::MixRun;

/// Version stamped into both the canonical key prefix and the log header.
/// Bump it whenever the simulation semantics or the payload schema change:
/// old records then simply never match, instead of being served stale.
pub const STORE_SCHEMA_VERSION: u32 = 1;

/// First line of every store file.
const HEADER: &str = "pipo-store v1\n";

/// Upper bound on one record's framing line (`rec ` + 16-digit hash +
/// two decimal lengths + 16-digit checksum + spaces + newline). Used to
/// bound the newline scan so a corrupt tail cannot make recovery quadratic.
const MAX_FRAME_LINE: usize = 96;

/// FNV-1a 64-bit: the store's stable content hash. Hand-rolled because the
/// standard library's hasher is explicitly unstable across releases, and
/// on-disk addresses must outlive the binary that wrote them.
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_continue(0xcbf2_9ce4_8422_2325, bytes)
}

/// Continues an FNV-1a hash state over more bytes: `fnv1a64(a ++ b)` is
/// `fnv1a64_continue(fnv1a64(a), b)`.
fn fnv1a64_continue(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn replacement_part(replacement: &Replacement) -> String {
    match replacement {
        Replacement::Random { seed } => format!("{}:{seed}", replacement.name()),
        _ => replacement.name().to_string(),
    }
}

/// The machine's fixed timing is spelled out too (`@2`, `dram:200`), so a
/// change to a Table II constant changes every key instead of serving
/// stale records.
fn system_part(system: &SystemConfig) -> String {
    format!(
        "cores:{},line:{},l1:{}x{}@{},l2:{}x{}@{},l3:{}x{}@{},dram:{},repl:{}",
        system.cores,
        LINE_SIZE,
        system.l1.sets,
        system.l1.ways,
        L1_LATENCY,
        system.l2.sets,
        system.l2.ways,
        L2_LATENCY,
        system.l3.sets,
        system.l3.ways,
        LLC_LATENCY,
        DRAM_LATENCY,
        replacement_part(&system.replacement),
    )
}

fn mix_part(mix: &Mix) -> String {
    let mut benches = String::new();
    for (i, bench) in mix.benchmarks.iter().enumerate() {
        if i > 0 {
            benches.push('+');
        }
        benches.push_str(bench.name);
    }
    format!("{}:{benches}", mix.name)
}

fn monitor_part(monitor: &MonitorConfig) -> String {
    format!(
        "backend:{},l:{},b:{},f:{},mnk:{},thr:{},fseed:{:#x},delay:{}",
        monitor.backend.name(),
        monitor.filter.buckets(),
        monitor.filter.entries_per_bucket(),
        monitor.filter.fingerprint_bits(),
        monitor.filter.max_kicks(),
        monitor.filter.security_threshold(),
        monitor.filter.seed(),
        monitor.prefetch_delay,
    )
}

/// Canonical key of a baseline (unprotected) run: everything that
/// determines its result. Also the key the sweep engine dedups baselines
/// on.
#[must_use]
pub fn baseline_cell_key(system: &SystemConfig, mix: &Mix, instructions: u64, seed: u64) -> String {
    format!(
        "pipo/v{STORE_SCHEMA_VERSION} sys={} mix={} instr={instructions} seed={seed}",
        system_part(system),
        mix_part(mix),
    )
}

/// Canonical key of a monitored sweep cell: the baseline key plus the full
/// monitor configuration. This is the content address of one
/// [`MixRun`] record.
#[must_use]
pub fn mix_cell_key(cell: &MixCell) -> String {
    format!(
        "{} mon={}",
        baseline_cell_key(&cell.system, &cell.mix, cell.instructions, cell.seed),
        monitor_part(&cell.monitor),
    )
}

/// What recovery found when the store was opened.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreTelemetry {
    /// Valid records recovered when the store was opened.
    pub recovered_records: u64,
    /// Bytes of invalid/truncated tail dropped when the store was opened.
    pub dropped_tail_bytes: u64,
}

/// A record's framing line: the key's FNV-1a hash, the two lengths, and
/// the integrity checksum, FNV-1a over the key and payload bytes together.
fn record_frame(key: &str, payload: &str) -> String {
    let key_hash = fnv1a64(key.as_bytes());
    format!(
        "rec {key_hash:016x} {} {} {:016x}\n",
        key.len(),
        payload.len(),
        fnv1a64_continue(key_hash, payload.as_bytes()),
    )
}

fn record_size(key: &str, payload: &str) -> u64 {
    (record_frame(key, payload).len() + key.len() + payload.len() + 1) as u64
}

/// The persistent content-addressed result store (see module docs).
#[derive(Debug)]
pub struct ResultStore {
    path: PathBuf,
    /// Canonical key → payload.
    records: BTreeMap<String, String>,
    /// Encoded size of the live log (header + all live records).
    live_bytes: u64,
    /// In-memory state differs from the file on disk.
    dirty: bool,
    telemetry: StoreTelemetry,
}

impl ResultStore {
    /// Opens (or initialises) the store at `path`. The file is not created
    /// until the first [`flush`](Self::flush).
    ///
    /// # Errors
    ///
    /// I/O errors reading an existing file, or a file whose header is not a
    /// `pipo-store v1` header (truncated tails — including a torn header
    /// prefix — recover instead of erroring; see module docs).
    pub fn open(path: impl AsRef<Path>) -> io::Result<Self> {
        let mut store = Self {
            path: path.as_ref().to_path_buf(),
            records: BTreeMap::new(),
            live_bytes: HEADER.len() as u64,
            dirty: false,
            telemetry: StoreTelemetry::default(),
        };
        let bytes = match std::fs::read(&store.path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(store),
            Err(e) => return Err(e),
        };
        store.recover(&bytes)?;
        Ok(store)
    }

    /// Rebuilds the in-memory index from a log image, dropping the first
    /// malformed byte onward (truncation-tolerant, never panics).
    fn recover(&mut self, bytes: &[u8]) -> io::Result<()> {
        if !bytes.starts_with(HEADER.as_bytes()) {
            // A strict prefix of the header is a torn write of a fresh
            // store: recover it as empty. Anything else is not ours.
            if HEADER.as_bytes().starts_with(bytes) {
                self.telemetry.dropped_tail_bytes = bytes.len() as u64;
                self.dirty = !bytes.is_empty();
                return Ok(());
            }
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{} is not a pipo-store v1 file", self.path.display()),
            ));
        }
        let mut offset = HEADER.len();
        let mut superseded = false;
        while offset < bytes.len() {
            let Some((key, payload, next)) = parse_record(bytes, offset) else {
                break;
            };
            // Later records supersede earlier ones (append-only updates).
            superseded |= self.insert(key, payload);
            offset = next;
        }
        self.telemetry.dropped_tail_bytes = (bytes.len() - offset) as u64;
        self.telemetry.recovered_records = self.len() as u64;
        // A dropped tail or superseded duplicate records mean the file and
        // the index disagree; rewrite on the next flush.
        self.dirty = self.telemetry.dropped_tail_bytes > 0 || superseded;
        Ok(())
    }

    /// Makes `payload` the record of `key`. Returns whether it replaced a
    /// record already held under `key`.
    fn insert(&mut self, key: String, payload: String) -> bool {
        self.live_bytes += record_size(&key, &payload);
        match self.records.entry(key) {
            Entry::Occupied(mut record) => {
                self.live_bytes -= record_size(record.key(), record.get());
                record.insert(payload);
                true
            }
            Entry::Vacant(record) => {
                record.insert(payload);
                false
            }
        }
    }

    /// Looks up a record by its canonical key.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&str> {
        self.records.get(key).map(String::as_str)
    }

    /// Inserts (or overwrites) a record. Nothing touches disk until
    /// [`flush`](Self::flush).
    pub fn put(&mut self, key: &str, payload: &str) {
        self.insert(key.to_string(), payload.to_string());
        self.dirty = true;
    }

    /// The stored run of `cell`: the record under its [`mix_cell_key`],
    /// decoded bit-identically to the run [`record`](Self::record) wrote.
    /// A missing record, or one that does not parse or whose recorded mix
    /// is not the cell's, returns `None`, which the sweep engine treats as
    /// a cache miss (validate-everything: a corrupt record degrades to
    /// recomputation, never to a wrong figure).
    #[must_use]
    pub fn lookup(&self, cell: &MixCell) -> Option<MixRun> {
        let doc = Json::parse(self.get(&mix_cell_key(cell))?).ok()?;
        let mix = cell.mix.name;
        if doc.get("mix")?.as_str()? != mix {
            return None;
        }
        let field = |name: &str| doc.get(name).and_then(Json::as_u64);
        Some(MixRun {
            mix,
            baseline_cycles: field("baseline_cycles")?,
            monitored_cycles: field("monitored_cycles")?,
            instructions: field("instructions")?,
            captures: field("captures")?,
            prefetches: field("prefetches")?,
            prefetch_hits: field("prefetch_hits")?,
        })
    }

    /// Records `run` as the result of `cell`: its [`MixRun::to_json`]
    /// document, pretty-printed, under the cell's [`mix_cell_key`].
    pub fn record(&mut self, cell: &MixCell, run: &MixRun) {
        self.put(&mix_cell_key(cell), &run.to_json().to_pretty());
    }

    /// Writes the compacted log atomically (temp file + rename) if anything
    /// changed since the last flush. Live records are written in key order.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error; the previous on-disk log is
    /// untouched on failure.
    pub fn flush(&mut self) -> io::Result<()> {
        if !self.dirty {
            return Ok(());
        }
        let mut image = String::with_capacity(self.live_bytes as usize);
        image.push_str(HEADER);
        for (key, payload) in &self.records {
            image.push_str(&record_frame(key, payload));
            image.push_str(key);
            image.push_str(payload);
            image.push('\n');
        }
        debug_assert_eq!(image.len() as u64, self.live_bytes);
        write_atomic(&self.path, image.as_bytes())?;
        self.dirty = false;
        Ok(())
    }

    /// Number of live records.
    #[must_use]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the store holds no records.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Encoded size of the live log in bytes (header + records).
    #[must_use]
    pub fn bytes(&self) -> u64 {
        self.live_bytes
    }

    /// The store's file path.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// What recovery found when the store was opened.
    #[must_use]
    pub fn telemetry(&self) -> StoreTelemetry {
        self.telemetry
    }

    /// Iterates `(key, payload)` over live records in key order (the
    /// `pipo-serve` dashboard aggregates these).
    pub fn records(&self) -> impl Iterator<Item = (&str, &str)> {
        self.records
            .iter()
            .map(|(key, payload)| (key.as_str(), payload.as_str()))
    }
}

/// Flushes a figure binary's `--store` (when present) and reports the
/// warm/cold split on stderr. Stderr, deliberately: store telemetry varies
/// between cold and warm invocations, and the `--json` documents must stay
/// byte-identical with and without a store.
pub fn finish_store(
    store: Option<&mut ResultStore>,
    outcome: crate::sweep::SweepStoreOutcome,
    elapsed: std::time::Duration,
) {
    let Some(store) = store else { return };
    if let Err(e) = store.flush() {
        eprintln!(
            "error: cannot flush result store {}: {e}",
            store.path().display()
        );
        std::process::exit(1);
    }
    eprintln!(
        "store {}: {} warm / {} cold cells in {elapsed:.1?} ({} records, {} bytes)",
        store.path().display(),
        outcome.hits,
        outcome.misses,
        store.len(),
        store.bytes(),
    );
}

/// Parses one record frame at `offset`. Returns `(key, payload, next
/// offset)` or `None` on any malformation — short frame, bad magic, bad
/// lengths, checksum/hash mismatch, invalid UTF-8, missing terminator.
fn parse_record(bytes: &[u8], offset: usize) -> Option<(String, String, usize)> {
    let rest = &bytes[offset..];
    let line_end = rest.iter().take(MAX_FRAME_LINE).position(|&b| b == b'\n')?;
    let line = std::str::from_utf8(&rest[..line_end]).ok()?;
    let mut fields = line.split(' ');
    if fields.next()? != "rec" {
        return None;
    }
    let hash = u64::from_str_radix(fields.next()?, 16).ok()?;
    let keylen: usize = fields.next()?.parse().ok()?;
    let paylen: usize = fields.next()?.parse().ok()?;
    let check = u64::from_str_radix(fields.next()?, 16).ok()?;
    if fields.next().is_some() {
        return None;
    }
    let body_start = line_end + 1;
    let body_end = body_start.checked_add(keylen)?.checked_add(paylen)?;
    if body_end.checked_add(1)? > rest.len() {
        return None;
    }
    if rest[body_end] != b'\n' {
        return None;
    }
    let key_bytes = &rest[body_start..body_start + keylen];
    let payload_bytes = &rest[body_start + keylen..body_end];
    let key_hash = fnv1a64(key_bytes);
    if key_hash != hash || fnv1a64_continue(key_hash, payload_bytes) != check {
        return None;
    }
    let key = std::str::from_utf8(key_bytes).ok()?.to_string();
    let payload = std::str::from_utf8(payload_bytes).ok()?.to_string();
    Some((key, payload, offset + body_end + 1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipo_workloads::all_mixes;

    fn temp_store(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("pipo_store_unit_{}_{name}.log", std::process::id()))
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a test vectors; a silent change here would orphan
        // every record ever written.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn canonical_keys_are_stable() {
        let cell = MixCell::new(
            "k",
            all_mixes()[0],
            MonitorConfig::paper_default(),
            2_000_000,
            42,
        );
        let key = mix_cell_key(&cell);
        // Pin the exact canonical rendering: any accidental change silently
        // orphans all previously stored records.
        let expected = concat!(
            "pipo/v1 sys=cores:4,line:64,l1:256x4@2,l2:512x8@18,l3:4096x16@35,dram:200,repl:lru",
            " mix=mix1:libquantum+mcf+sphinx3+gobmk instr=2000000 seed=42",
            " mon=backend:auto,l:1024,b:8,f:12,mnk:4,thr:3,fseed:0x5151c0de,delay:50",
        );
        assert_eq!(
            key, expected,
            "canonical key changed — bump STORE_SCHEMA_VERSION if intended"
        );
        assert!(key.starts_with(&baseline_cell_key(
            &cell.system,
            &cell.mix,
            cell.instructions,
            cell.seed
        )));
    }

    #[test]
    fn put_get_flush_reopen_round_trip() {
        let path = temp_store("roundtrip");
        std::fs::remove_file(&path).ok();
        let mut store = ResultStore::open(&path).expect("open fresh");
        assert!(store.is_empty());
        store.put("key-a", "{\"v\": 1}");
        store.put("key-b", "{\"v\": 2}");
        assert_eq!(store.get("key-a"), Some("{\"v\": 1}"));
        assert_eq!(store.get("missing"), None);
        store.flush().expect("flush");
        store.flush().expect("idempotent flush");

        let reopened = ResultStore::open(&path).expect("reopen");
        assert_eq!(reopened.len(), 2);
        assert_eq!(reopened.telemetry().recovered_records, 2);
        assert_eq!(reopened.telemetry().dropped_tail_bytes, 0);
        assert_eq!(reopened.get("key-b"), Some("{\"v\": 2}"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn flushed_record_bytes_are_pinned() {
        // Pin the whole on-disk frame: header, `rec` line (key hash,
        // lengths, checksum), key, payload and terminator. Any change here
        // orphans every store already written.
        let path = temp_store("pinned_bytes");
        std::fs::remove_file(&path).ok();
        let mut store = ResultStore::open(&path).expect("open fresh");
        store.put("key-a", "{\"v\": 1}");
        store.flush().expect("flush");
        let bytes = std::fs::read(&path).expect("read back");
        std::fs::remove_file(&path).ok();
        assert_eq!(
            String::from_utf8(bytes).expect("utf-8"),
            concat!(
                "pipo-store v1\n",
                "rec 71132af295f22d16 5 8 52a0d8c4627432ef\n",
                "key-a{\"v\": 1}\n",
            )
        );
    }

    #[test]
    fn later_puts_supersede_and_update_size() {
        let path = temp_store("supersede");
        std::fs::remove_file(&path).ok();
        let mut store = ResultStore::open(&path).expect("open");
        store.put("k", "short");
        let small = store.bytes();
        store.put("k", "a considerably longer payload");
        assert!(store.bytes() > small);
        assert_eq!(store.len(), 1);
        store.put("k", "short");
        assert_eq!(store.bytes(), small);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn recovery_keeps_the_last_duplicate_and_compacts_it_away() {
        let path = temp_store("duplicates");
        let record = |payload: &str| format!("{}k{payload}\n", record_frame("k", payload));
        let log = format!("{HEADER}{}{}", record("old"), record("new"));
        std::fs::write(&path, &log).expect("write");
        let mut store = ResultStore::open(&path).expect("open");
        assert_eq!(store.len(), 1);
        assert_eq!(store.bytes(), (HEADER.len() + record("new").len()) as u64);
        assert_eq!(store.get("k"), Some("new"));
        store.flush().expect("flush");
        let compacted = std::fs::read_to_string(&path).expect("read back");
        std::fs::remove_file(&path).ok();
        assert_eq!(compacted, format!("{HEADER}{}", record("new")));
    }

    #[test]
    fn rejects_a_foreign_file() {
        let path = temp_store("foreign");
        std::fs::write(&path, "definitely not a store\n").expect("write");
        let err = ResultStore::open(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_file(&path).ok();
    }
}
