//! The exact-count capture oracle.
//!
//! A pattern store keeps approximate per-line state (short fingerprints,
//! shared counters), so one line's record can raise another line's
//! capture. The oracle keeps every line's true memory-fetch count beside
//! it and sorts each capture by cause: *exact* when the line was really
//! fetched more than secThr times (a genuine capture needs secThr
//! re-fetches after the insert), and *collision-driven* otherwise.
//! `trace_replay` runs it beside a whole monitored system, and
//! `ablation_filter` beside each backend's fetch stream.

use std::collections::HashMap;

/// Per-line fetch counts, and the captures split into exact and
/// collision-driven.
#[derive(Debug, Clone, Default)]
pub struct CaptureOracle {
    security_threshold: u32,
    counts: HashMap<u64, u32>,
    exact: u64,
    collisions: u64,
}

impl CaptureOracle {
    /// An oracle for a store whose security counters saturate at
    /// `security_threshold` (secThr).
    #[must_use]
    pub fn new(security_threshold: u8) -> Self {
        Self {
            security_threshold: u32::from(security_threshold),
            ..Self::default()
        }
    }

    /// Records one memory fetch of `line`; `captured` says whether the
    /// store captured the line on this fetch.
    pub fn record(&mut self, line: u64, captured: bool) {
        let count = self.counts.entry(line).or_insert(0);
        *count += 1;
        if captured {
            if *count > self.security_threshold {
                self.exact += 1;
            } else {
                self.collisions += 1;
            }
        }
    }

    /// Captures of lines fetched more than secThr times.
    #[must_use]
    pub fn exact_captures(&self) -> u64 {
        self.exact
    }

    /// Captures of lines fetched at most secThr times: another line's
    /// record (a fingerprint collision, a shared counter) raised them.
    #[must_use]
    pub fn collision_captures(&self) -> u64 {
        self.collisions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_capture_is_exact_only_after_more_than_sec_thr_fetches() {
        let mut oracle = CaptureOracle::new(3);
        for fetch in 1..=3 {
            oracle.record(7, fetch == 3);
        }
        assert_eq!(
            (oracle.exact_captures(), oracle.collision_captures()),
            (0, 1),
            "the third fetch is at secThr: collision-driven"
        );
        oracle.record(7, true);
        oracle.record(8, false);
        assert_eq!(
            (oracle.exact_captures(), oracle.collision_captures()),
            (1, 1)
        );
    }
}
