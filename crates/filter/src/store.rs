//! The pluggable pattern-store boundary between the monitor and its filter.
//!
//! PiPoMonitor's defense quality is decided by one structure: the pattern
//! store that remembers which lines were fetched from memory and how often
//! they were re-fetched. The paper evaluates a single design (the
//! Auto-Cuckoo filter); [`PatternStore`] opens that axis up so the monitor
//! can run on any backend that implements the paper's *query-with-promotion*
//! contract:
//!
//! * [`query`](PatternStore::query) — the combined lookup/insert/count
//!   operation of §IV: look the item up, create a record when absent, and
//!   *promote* (increment the saturating `Security` counter of) an existing
//!   record. The outcome reports whether the item's counter reached `secThr`
//!   (a Ping-Pong capture).
//! * [`contains`](PatternStore::contains) /
//!   [`security_of`](PatternStore::security_of) — read-only probes, subject
//!   to each backend's false-positive behaviour.
//! * [`stats_snapshot`](PatternStore::stats_snapshot) /
//!   [`memory_bytes`](PatternStore::memory_bytes) — uniform observability so
//!   harnesses can compare backends on false alarms vs. memory vs. speed.
//!   `memory_bytes` is the only storage model: the §VII-D overhead figures
//!   read it from a built store.
//!
//! Every backend's `query` ends in one shared promotion step, which counts
//! the query, decides the capture (`security >= secThr`) and builds the
//! outcome; a backend only finds and updates its own record.
//!
//! Four selectable backends implement the trait, each in its own module:
//! the paper's Auto-Cuckoo filter and the vulnerable classic baseline (one
//! [`CuckooFilter`] table under two overflow policies), a blocked spectral
//! Bloom store ([`BloomPatternStore`](crate::BloomPatternStore)), and a
//! xor-filter store with periodic rebuild
//! ([`XorPatternStore`](crate::XorPatternStore)). A fifth, the prior-work
//! directory table ([`DirectoryPatternStore`](crate::DirectoryPatternStore)),
//! is the recording structure PiPoMonitor is compared against.
//! [`build_store`] constructs any of them from a [`FilterBackend`] tag plus
//! the shared [`FilterParams`] geometry.

use std::fmt;
use std::str::FromStr;

use crate::cuckoo::CuckooFilter;
use crate::params::{FilterParams, ParamsError};
use crate::stats::FilterStats;

/// Result of a single [`PatternStore::query`].
///
/// `Response` in the paper's terms is the [`security`](Self::security) field;
/// the monitor treats `security == secThr` (i.e. [`captured`](Self::captured))
/// as "this line behaves in a Ping-Pong pattern".
///
/// The [`kicks`](Self::kicks) and
/// [`autonomic_deletion`](Self::autonomic_deletion) fields describe cuckoo
/// relocation mechanics; backends without relocation (Bloom, xor, directory)
/// report `0` / `None`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryOutcome {
    /// `Security` value of the record after this query.
    pub security: u8,
    /// Whether the query found no record and inserted a fresh one. A
    /// classic cuckoo filter's refused insertion reports neither this nor
    /// [`merged`](Self::merged).
    pub inserted: bool,
    /// Whether the query found an existing record (a re-access, or a
    /// false-positive collision with another address).
    pub merged: bool,
    /// Whether `security` has reached `secThr`: the line is captured as a
    /// Ping-Pong line.
    pub captured: bool,
    /// Number of relocations performed to make room for an insertion.
    pub kicks: u32,
    /// Fingerprint of the record a relocation walk dropped on reaching MNK:
    /// the Auto-Cuckoo filter's autonomic deletion, or the resident a
    /// classic refusal lost (`None` when the classic walk made no kick and
    /// only the new record was refused).
    pub autonomic_deletion: Option<u16>,
}

/// Identifies a [`PatternStore`] implementation; the `--filter` CLI value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum FilterBackend {
    /// The paper's Auto-Cuckoo filter, [`CuckooFilter::auto`] (insertion
    /// never fails).
    Auto,
    /// The classic software Cuckoo filter, [`CuckooFilter::classic`]
    /// (insertions can fail when full).
    Classic,
    /// Blocked spectral Bloom store (per-line counters, no deletion).
    Bloom,
    /// Xor-filter store: exact recent window + periodically rebuilt
    /// xor-compressed history.
    Xor,
    /// The prior-work full-tag directory table,
    /// [`DirectoryPatternStore`](crate::DirectoryPatternStore). It is the
    /// comparison target, not a PiPoMonitor design, so it is not in
    /// [`ALL`](Self::ALL) and does not parse from a CLI name.
    Directory,
}

impl FilterBackend {
    /// All selectable backends, in CLI enumeration order
    /// ([`Directory`](Self::Directory) is not selectable).
    pub const ALL: [FilterBackend; 4] = [
        FilterBackend::Auto,
        FilterBackend::Classic,
        FilterBackend::Bloom,
        FilterBackend::Xor,
    ];

    /// The backend's CLI name (`auto`, `classic`, `bloom`, `xor`), or
    /// `directory` for the comparison table.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            FilterBackend::Auto => "auto",
            FilterBackend::Classic => "classic",
            FilterBackend::Bloom => "bloom",
            FilterBackend::Xor => "xor",
            FilterBackend::Directory => "directory",
        }
    }
}

impl fmt::Display for FilterBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Error parsing a [`FilterBackend`] from its CLI name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseBackendError {
    /// The rejected input.
    pub input: String,
}

impl fmt::Display for ParseBackendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown backend {:?} (expected one of {})",
            self.input,
            FilterBackend::ALL.map(|backend| backend.name()).join(", ")
        )
    }
}

impl std::error::Error for ParseBackendError {}

impl FromStr for FilterBackend {
    type Err = ParseBackendError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        FilterBackend::ALL
            .into_iter()
            .find(|backend| backend.name() == s)
            .ok_or_else(|| ParseBackendError {
                input: s.to_string(),
            })
    }
}

/// The query-with-promotion pattern store behind [`PiPoMonitor`].
///
/// Implementations must keep the *query path* — [`query`](Self::query),
/// [`contains`](Self::contains) — free of heap allocations, including any
/// periodic internal maintenance (the xor backend's rebuild runs entirely out
/// of buffers preallocated at construction); `tests/no_alloc_hot_path.rs` at
/// the workspace root pins this for every backend.
///
/// [`PiPoMonitor`]: https://docs.rs/pipomonitor
pub trait PatternStore: fmt::Debug + Send {
    /// The combined lookup/insert/promote operation (paper §IV): increments
    /// an existing record's `Security` counter (saturating at `secThr`) or
    /// inserts a fresh record with `Security = 0`.
    fn query(&mut self, item: u64) -> QueryOutcome;

    /// Whether a record matching the item is present. Subject to the
    /// backend's false-positive rate; a `true` may be a collision.
    fn contains(&self, item: u64) -> bool;

    /// Current `Security` value of the item's record, if present. Backends
    /// whose counters saturate below the query count report the saturated
    /// value.
    fn security_of(&self, item: u64) -> Option<u8>;

    /// The `secThr` capture threshold this store promotes toward.
    fn security_threshold(&self) -> u8 {
        self.params().security_threshold()
    }

    /// Number of records (or, for counter-based backends, distinct inserts)
    /// currently tracked.
    fn len(&self) -> usize;

    /// Whether no records are tracked.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Fraction of the store's capacity in use, in `0.0..=1.0`.
    fn occupancy(&self) -> f64;

    /// Bytes of state a hardware implementation of this backend would hold
    /// (tables and filters only; not Rust bookkeeping or scratch).
    fn memory_bytes(&self) -> usize;

    /// Snapshot of the cumulative operation statistics.
    fn stats_snapshot(&self) -> FilterStats;

    /// Removes every record and resets statistics.
    fn clear(&mut self);

    /// Which backend this store is.
    fn backend(&self) -> FilterBackend;

    /// The shared geometry/policy parameters the store was built from.
    fn params(&self) -> &FilterParams;
}

/// The promotion step every backend's [`PatternStore::query`] ends in
/// (paper §IV). A backend finds and updates its own record, then reports
/// what happened here: [`merge`](Self::merge) for a promoted record,
/// [`insert`](Self::insert) for a fresh one, [`refuse`](Self::refuse) when
/// it placed none. The step counts the query, decides the capture, builds
/// the outcome and owns the store's statistics.
#[derive(Debug, Clone)]
pub(crate) struct Promotion {
    threshold: u8,
    stats: FilterStats,
}

impl Promotion {
    pub(crate) fn new(params: &FilterParams) -> Self {
        Self {
            threshold: params.security_threshold(),
            stats: FilterStats::default(),
        }
    }

    /// The query found a record and promoted its `Security` to `security`;
    /// the line is captured once that reaches `secThr`.
    #[inline]
    pub(crate) fn merge(&mut self, security: u8) -> QueryOutcome {
        let captured = security >= self.threshold;
        self.stats.queries += 1;
        self.stats.merges += 1;
        self.stats.captures += u64::from(captured);
        QueryOutcome {
            security,
            inserted: false,
            merged: true,
            captured,
            kicks: 0,
            autonomic_deletion: None,
        }
    }

    /// The query found no record and placed a fresh one with `Security = 0`,
    /// after `kicks` relocations that dropped the record whose fingerprint
    /// is `autonomic_deletion`, if any.
    #[inline]
    pub(crate) fn insert(&mut self, kicks: u32, autonomic_deletion: Option<u16>) -> QueryOutcome {
        self.stats.queries += 1;
        self.stats.inserts += 1;
        self.stats.kicks += u64::from(kicks);
        self.stats.autonomic_deletions += u64::from(autonomic_deletion.is_some());
        QueryOutcome {
            security: 0,
            inserted: true,
            merged: false,
            captured: false,
            kicks,
            autonomic_deletion,
        }
    }

    /// The query found no record and placed none after `kicks` relocations,
    /// losing the resident whose fingerprint is `lost`, if any.
    pub(crate) fn refuse(&mut self, kicks: u32, lost: Option<u16>) -> QueryOutcome {
        self.stats.queries += 1;
        QueryOutcome {
            security: 0,
            inserted: false,
            merged: false,
            captured: false,
            kicks,
            autonomic_deletion: lost,
        }
    }

    /// Counts a resident record dropped to place a new one when the outcome
    /// names no fingerprint for it (the directory table's LRU eviction).
    pub(crate) fn count_eviction(&mut self) {
        self.stats.autonomic_deletions += 1;
    }

    pub(crate) fn stats(&self) -> FilterStats {
        self.stats.clone()
    }

    pub(crate) fn reset(&mut self) {
        self.stats = FilterStats::default();
    }
}

/// Builds a boxed store of the requested backend from the shared parameters.
///
/// # Errors
///
/// Returns [`ParamsError`] when `params` fails validation.
///
/// # Examples
///
/// ```
/// use auto_cuckoo::{build_store, FilterBackend, FilterParams};
///
/// # fn main() -> Result<(), auto_cuckoo::ParamsError> {
/// for backend in FilterBackend::ALL {
///     let mut store = build_store(backend, FilterParams::paper_default())?;
///     assert!(store.query(0x40).inserted);
///     assert!(store.contains(0x40));
///     assert_eq!(store.backend(), backend);
/// }
/// # Ok(())
/// # }
/// ```
pub fn build_store(
    backend: FilterBackend,
    params: FilterParams,
) -> Result<Box<dyn PatternStore>, ParamsError> {
    Ok(match backend {
        FilterBackend::Auto => Box::new(CuckooFilter::auto(params)?),
        FilterBackend::Classic => Box::new(CuckooFilter::classic(params)?),
        FilterBackend::Bloom => Box::new(crate::bloom::BloomPatternStore::new(params)?),
        FilterBackend::Xor => Box::new(crate::xor::XorPatternStore::new(params)?),
        FilterBackend::Directory => Box::new(crate::directory::DirectoryPatternStore::new(params)?),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_names_round_trip() {
        for backend in FilterBackend::ALL {
            assert_eq!(backend.name().parse::<FilterBackend>(), Ok(backend));
            assert_eq!(backend.to_string(), backend.name());
        }
        // The comparison table has a name but is not a CLI value.
        assert_eq!(FilterBackend::Directory.to_string(), "directory");
        assert!(!FilterBackend::ALL.contains(&FilterBackend::Directory));
        assert!("directory".parse::<FilterBackend>().is_err());
        let err = "blom".parse::<FilterBackend>().unwrap_err();
        assert!(err.to_string().contains("blom"));
        assert!(err.to_string().contains("bloom"));
    }

    #[test]
    fn build_store_constructs_every_backend() {
        for backend in FilterBackend::ALL
            .into_iter()
            .chain([FilterBackend::Directory])
        {
            let mut store =
                build_store(backend, FilterParams::paper_default()).expect("valid params");
            assert_eq!(store.backend(), backend);
            assert!(store.is_empty());
            let out = store.query(0x40);
            assert!(out.inserted && !out.merged && !out.captured);
            assert!(store.contains(0x40));
            assert!(!store.is_empty());
            assert!(store.memory_bytes() > 0);
            assert_eq!(store.stats_snapshot().queries, 1);
            store.clear();
            assert!(store.is_empty());
            assert_eq!(store.stats_snapshot().queries, 0);
        }
    }

    #[test]
    fn promotion_reaches_capture_on_every_backend() {
        for backend in FilterBackend::ALL
            .into_iter()
            .chain([FilterBackend::Directory])
        {
            let mut store =
                build_store(backend, FilterParams::paper_default()).expect("valid params");
            let thr = store.security_threshold();
            let mut captured_at = None;
            for n in 1..=8u32 {
                if store.query(0x1234_5678).captured {
                    captured_at = Some(n);
                    break;
                }
            }
            // thr re-accesses after the insert: capture on query thr + 1.
            assert_eq!(
                captured_at,
                Some(u32::from(thr) + 1),
                "backend {backend} capture latency"
            );
        }
    }
}
