//! Synthetic SPEC CPU2006-like workloads for the PiPoMonitor evaluation.
//!
//! The paper runs 10 four-benchmark mixes of SPEC CPU2006 (Table III) on a
//! quad-core system. SPEC binaries and reference inputs are not available
//! here, so each benchmark is modelled as a deterministic stochastic address
//! stream with three locality tiers:
//!
//! * a **hot** set that fits in the private caches (hits),
//! * a **churn** set at LLC scale whose lines are repeatedly evicted and
//!   re-fetched (the benign traffic that produces PiPoMonitor's false
//!   positives),
//! * a **stream** footprint much larger than the LLC (cold misses).
//!
//! Tier probabilities, footprint sizes, write fractions, and the compute gap
//! between accesses are calibrated per benchmark from published SPEC CPU2006
//! memory characterisations (miss rates, footprints), so the *relative*
//! memory intensity across the 13 benchmarks used by the paper's mixes is
//! preserved. See `EXPERIMENTS.md` (Recorded substitutions) for the
//! substitution rationale.
//!
//! # Examples
//!
//! ```
//! use pipo_workloads::{all_mixes, ProfileSource};
//! use cache_sim::AccessSource;
//!
//! let mix1 = &all_mixes()[0];
//! assert_eq!(mix1.name, "mix1");
//! let mut source = ProfileSource::new(mix1.benchmarks[0], 0, 42);
//! let access = source.next_access().expect("infinite stream");
//! assert!(access.addr.0 > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod generator;
pub mod mixes;
pub mod profile;
pub mod scenarios;
pub mod spec;
pub mod synthetic;
pub mod trace;
pub mod trace_v2;

pub use generator::ProfileSource;
pub use mixes::{all_mixes, Mix};
pub use profile::BenchProfile;
pub use scenarios::{BurstySource, NoisyNeighborSource};
pub use spec::{benchmark, benchmark_names};
pub use synthetic::{PointerChaseSource, StrideSource};
pub use trace::{ParseTraceError, Trace, TraceReplay};
pub use trace_v2::{is_v2, DecodeTraceError, LoadTraceError, TRACE_V2_MAGIC};
