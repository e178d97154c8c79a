//! The memory-controller traffic hook where detection-based defenses attach.
//!
//! PiPoMonitor "locates inside the on-chip memory controller and observes the
//! memory access requests from LLC without extra network traffic" (paper
//! §IV). The [`TrafficObserver`] trait is exactly that vantage point: it sees
//! every LLC→memory demand fetch and every LLC eviction, and may inject
//! prefetches back into the LLC.
//!
//! # Allocation-free draining
//!
//! Prefetch draining is a sink-style API: the system hands the observer a
//! reusable buffer ([`drain_due_prefetches`](TrafficObserver::drain_due_prefetches))
//! instead of receiving a freshly allocated `Vec` per call, and first asks
//! [`next_prefetch_due`](TrafficObserver::next_prefetch_due) so it only
//! drains when something is actually due. Steady-state simulation therefore
//! performs no per-access heap allocation on the observer path.

use crate::types::{Cycle, LineAddr};

/// Observes LLC↔memory traffic and optionally requests protections.
///
/// Implementations must be deterministic for reproducible experiments, and
/// `Send` so whole systems can be moved to (or built inside) worker threads
/// of a parallel sweep. All observers are plain owned data, so this costs
/// nothing in practice.
pub trait TrafficObserver: Send {
    /// Called when the LLC misses and a demand fetch goes to memory.
    ///
    /// Returns `true` when the incoming line must be tagged as a protected
    /// (Ping-Pong) line in the LLC. The default implementation never tags.
    fn on_memory_fetch(&mut self, line: LineAddr, now: Cycle) -> bool {
        let _ = (line, now);
        false
    }

    /// Called when the LLC evicts a line. `protected` and `accessed` are the
    /// line's tag bits (the `pEvict` message carries them to the monitor).
    fn on_llc_eviction(&mut self, line: LineAddr, protected: bool, accessed: bool, now: Cycle) {
        let _ = (line, protected, accessed, now);
    }

    /// The release time of the next issuable prefetch, or `None` when
    /// nothing can issue.
    ///
    /// "Next issuable" is the observer's call: a FIFO-ordered implementation
    /// (like `PrefetchQueue`) reports its head entry even when a later entry
    /// has an earlier release time — prefetches then issue strictly in
    /// schedule order.
    ///
    /// [`System::run`](crate::System::run) caches this value and only
    /// invokes [`drain_due_prefetches`](Self::drain_due_prefetches) once the
    /// earliest release time has been reached — the event-driven alternative
    /// to draining before every simulation step. It re-reads the value after
    /// every [`on_llc_eviction`](Self::on_llc_eviction) and every drain, so
    /// an observer may only change its answer inside those two calls. Its
    /// run-ahead relies on this too: cores run private L1 hits ahead only up
    /// to the cached due time. A due time moved earlier anywhere else would
    /// go unnoticed, and its drain would land after hits it must precede.
    ///
    /// Deliberately *not* defaulted: draining is gated on this method, so an
    /// observer that queued prefetches but reported `None` here would
    /// silently never have them drained. Observers that never prefetch
    /// simply return `None`.
    fn next_prefetch_due(&self) -> Option<Cycle>;

    /// Appends every prefetch issuable at or before `now` into `out`, in
    /// schedule order, removing them from the pending queue.
    ///
    /// `out` is a reusable buffer owned by the caller; implementations must
    /// only `push` (never read stale contents — the caller clears it). The
    /// system inserts each drained line into the LLC via the memory fetch
    /// queue.
    ///
    /// Not defaulted, for the same reason as
    /// [`next_prefetch_due`](Self::next_prefetch_due): an observer that
    /// reported a due time but inherited a no-op drain would silently never
    /// issue its prefetches. Observers that never prefetch leave `out`
    /// untouched.
    fn drain_due_prefetches(&mut self, now: Cycle, out: &mut Vec<LineAddr>);
}

/// An observer that does nothing: the unprotected baseline system.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullObserver;

impl TrafficObserver for NullObserver {
    fn next_prefetch_due(&self) -> Option<Cycle> {
        None
    }

    fn drain_due_prefetches(&mut self, _now: Cycle, _out: &mut Vec<LineAddr>) {}
}

/// A recording observer for tests: remembers every event it saw.
#[derive(Debug, Clone, Default)]
pub struct RecordingObserver {
    /// Lines fetched from memory, in order.
    pub fetches: Vec<(LineAddr, Cycle)>,
    /// LLC evictions `(line, protected, accessed, cycle)`, in order.
    pub evictions: Vec<(LineAddr, bool, bool, Cycle)>,
    /// Lines to tag on fetch.
    pub tag_lines: Vec<LineAddr>,
}

impl TrafficObserver for RecordingObserver {
    fn on_memory_fetch(&mut self, line: LineAddr, now: Cycle) -> bool {
        self.fetches.push((line, now));
        self.tag_lines.contains(&line)
    }

    fn on_llc_eviction(&mut self, line: LineAddr, protected: bool, accessed: bool, now: Cycle) {
        self.evictions.push((line, protected, accessed, now));
    }

    fn next_prefetch_due(&self) -> Option<Cycle> {
        None
    }

    fn drain_due_prefetches(&mut self, _now: Cycle, _out: &mut Vec<LineAddr>) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_observer_never_tags_or_prefetches() {
        let mut o = NullObserver;
        assert!(!o.on_memory_fetch(LineAddr(1), 0));
        o.on_llc_eviction(LineAddr(1), true, true, 5);
        assert_eq!(o.next_prefetch_due(), None);
        let mut out = Vec::new();
        o.drain_due_prefetches(100, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn recording_observer_records_and_tags() {
        let mut o = RecordingObserver::default();
        o.tag_lines.push(LineAddr(7));
        assert!(!o.on_memory_fetch(LineAddr(1), 10));
        assert!(o.on_memory_fetch(LineAddr(7), 20));
        o.on_llc_eviction(LineAddr(7), true, false, 30);
        assert_eq!(o.fetches.len(), 2);
        assert_eq!(o.evictions, vec![(LineAddr(7), true, false, 30)]);
    }
}
