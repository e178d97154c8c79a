//! Attacks against the simulated system and against PiPoMonitor itself.
//!
//! Three attack families from the paper:
//!
//! * **Prime+Probe** (§VI-A, Fig. 6): a cross-core attacker primes the LLC
//!   sets of a square-and-multiply victim's `square`/`multiply` lines,
//!   lets the victim run, and probes for evictions every 5000 cycles to read
//!   the key bit by bit. An [`AttackCell`] runs it, or Evict+Reload, with
//!   or without a per-window record [`Flush`], against an unprotected or a
//!   defended machine.
//! * **Brute force** (§VI-B): a defense-aware adversary floods the
//!   Auto-Cuckoo filter with fresh addresses to evict the victim's record
//!   before it shapes into a Ping-Pong. Expected cost: `b·l` fills.
//! * **Reverse engineering** (§VI-B, Fig. 7): the adversary tries to build a
//!   deterministic eviction set for one filter record; autonomic deletion
//!   inflates the needed set to `b^(MNK+1)` addresses.
//!
//! Beyond the paper, the scenario library adds an **occupancy-channel
//! attacker** ([`OccupancyChannelSource`]): a whole-cache occupancy probe
//! whose repeating over-associativity sweep is the adversarial input to the
//! `trace_replay` harness.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod attack;
pub mod defense_aware;
pub mod eviction;
pub mod occupancy;
pub mod victim;

pub use analysis::{infer_key_bits, KeyRecovery, ProbeTrace};
pub use attack::{Attack, AttackCell, AttackConfig, AttackOutcome, AttackRun, Flush};
pub use defense_aware::{
    brute_force_eviction, reverse_engineering_attack, BruteForceResult, ReverseAttackResult,
    TableFlusher,
};
pub use eviction::EvictionSet;
pub use occupancy::OccupancyChannelSource;
pub use victim::{SquareAndMultiply, VictimLayout};
