//! Fixed-latency DRAM model behind the memory controller.

use crate::types::{Cycle, DRAM_LATENCY};

/// Main memory with a constant access latency ([`DRAM_LATENCY`], Table II)
/// and read/write accounting.
///
/// # Examples
///
/// ```
/// use cache_sim::Dram;
///
/// let mut dram = Dram::default();
/// assert_eq!(dram.read(), 200);
/// dram.write();
/// assert_eq!(dram.reads(), 1);
/// assert_eq!(dram.writes(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Dram {
    reads: u64,
    writes: u64,
    prefetch_reads: u64,
}

impl Dram {
    /// Performs a demand read; returns its latency.
    pub fn read(&mut self) -> Cycle {
        self.reads += 1;
        DRAM_LATENCY
    }

    /// Performs a prefetch read (issued by the monitor); returns its latency.
    pub fn prefetch_read(&mut self) -> Cycle {
        self.prefetch_reads += 1;
        DRAM_LATENCY
    }

    /// Performs a writeback. Writebacks are posted (off the critical path),
    /// so no latency is returned.
    pub fn write(&mut self) {
        self.writes += 1;
    }

    /// Demand reads served.
    #[must_use]
    pub fn reads(&self) -> u64 {
        self.reads
    }

    /// Prefetch reads served.
    #[must_use]
    pub fn prefetch_reads(&self) -> u64 {
        self.prefetch_reads
    }

    /// Writebacks absorbed.
    #[must_use]
    pub fn writes(&self) -> u64 {
        self.writes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_returns_latency_and_counts() {
        let mut d = Dram::default();
        assert_eq!(d.read(), 200);
        assert_eq!(d.read(), 200);
        assert_eq!(d.reads(), 2);
        assert_eq!(d.writes(), 0);
    }

    #[test]
    fn writes_are_posted() {
        let mut d = Dram::default();
        d.write();
        d.write();
        d.write();
        assert_eq!(d.writes(), 3);
    }

    #[test]
    fn prefetch_reads_counted_separately() {
        let mut d = Dram::default();
        d.read();
        d.prefetch_read();
        assert_eq!(d.reads(), 1);
        assert_eq!(d.prefetch_reads(), 1);
    }
}
