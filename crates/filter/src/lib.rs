//! The cuckoo table behind PiPoMonitor's pattern store, modelled after the
//! hardware structure in *PiPoMonitor: Mitigating Cross-core Cache Attacks
//! Using the Auto-Cuckoo Filter* (DATE 2021), and the alternative backends it
//! is compared against.
//!
//! A Cuckoo filter stores short *fingerprints* of items in an `l × b` matrix
//! of buckets. Each item has two candidate buckets related by the partial-key
//! cuckoo-hashing identity `h2 = h1 ^ hash(fingerprint)`, so a stored
//! fingerprint is enough to relocate a record to its alternate bucket.
//!
//! One table, [`CuckooFilter`], serves both of the paper's filters. They
//! differ only in what a relocation walk does when it reaches the maximal
//! number of kicks (MNK):
//!
//! * [`CuckooFilter::auto`] — the paper's Auto-Cuckoo filter: insertion
//!   never fails, because reaching MNK triggers an *autonomic deletion* of
//!   the last displaced record.
//! * [`CuckooFilter::classic`] — the software structure of Fan et al.
//!   (CoNEXT 2014): reaching MNK refuses the insertion. Its manual
//!   [`delete`](CuckooFilter::delete) is the vulnerability PiPoMonitor's
//!   adversary exploits.
//!
//! Every entry carries a saturating `Security` re-access counter used to
//! detect Ping-Pong patterns. The monitor drives any backend through the
//! [`PatternStore`] trait; [`BloomPatternStore`] and [`XorPatternStore`] are
//! the non-cuckoo alternatives, [`DirectoryPatternStore`] is the prior-work
//! full-tag table the paper compares against, and [`build_store`] builds any
//! of them from a [`FilterBackend`] tag.
//!
//! # Examples
//!
//! Detecting a Ping-Pong pattern (a line re-accessed from memory `secThr`
//! times):
//!
//! ```
//! use auto_cuckoo::{CuckooFilter, FilterParams, PatternStore};
//!
//! # fn main() -> Result<(), auto_cuckoo::ParamsError> {
//! let params = FilterParams::paper_default(); // l=1024, b=8, f=12, MNK=4, secThr=3
//! let mut filter = CuckooFilter::auto(params)?;
//!
//! let line = 0xdead_beef_00;
//! assert!(!filter.query(line).captured); // first access: inserted, Security = 0
//! filter.query(line);                    // Security = 1
//! filter.query(line);                    // Security = 2
//! assert!(filter.query(line).captured);  // Security = 3 == secThr: Ping-Pong!
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod bloom;
pub mod cuckoo;
pub mod directory;
pub mod entry;
pub mod hash;
pub mod params;
pub mod stats;
pub mod store;
pub mod xor;

pub use analysis::{brute_force_expected_fills, false_positive_rate, reverse_eviction_set_size};
pub use bloom::BloomPatternStore;
pub use cuckoo::{CuckooFilter, DeleteOutcome};
pub use directory::DirectoryPatternStore;
pub use entry::Entry;
pub use hash::{fingerprint_of, DetRng, IndexPair};
pub use params::{FilterParams, FilterParamsBuilder, ParamsError};
pub use stats::{CollisionCensus, FilterStats};
pub use store::{build_store, FilterBackend, ParseBackendError, PatternStore, QueryOutcome};
pub use xor::XorPatternStore;
