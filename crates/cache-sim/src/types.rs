//! Fundamental value types shared across the simulator.

use std::fmt;

/// A simulation timestamp in core clock cycles.
pub type Cycle = u64;

/// The cache-line size in bytes at every level (paper Table II): a
/// constant of the modelled machine, not a
/// [`SystemConfig`](crate::SystemConfig) setting.
pub const LINE_SIZE: u64 = 64;

/// L1 hit latency in cycles (paper Table II). Like [`LINE_SIZE`], each
/// latency is a constant of the modelled machine, not a
/// [`SystemConfig`](crate::SystemConfig) setting.
pub const L1_LATENCY: Cycle = 2;
/// L2 hit latency in cycles (paper Table II).
pub const L2_LATENCY: Cycle = 18;
/// LLC (L3) hit latency in cycles (paper Table II).
pub const LLC_LATENCY: Cycle = 35;
/// DRAM access latency in cycles (paper Table II).
pub const DRAM_LATENCY: Cycle = 200;

/// A byte-granular physical address.
///
/// # Examples
///
/// ```
/// use cache_sim::{Addr, LineAddr};
///
/// let a = Addr(0x12345);
/// assert_eq!(a.line(), LineAddr(0x12345 >> 6));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Addr(pub u64);

impl Addr {
    /// The cache line containing this address.
    #[must_use]
    pub const fn line(self) -> LineAddr {
        LineAddr(self.0 / LINE_SIZE)
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl fmt::LowerHex for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl From<u64> for Addr {
    fn from(raw: u64) -> Self {
        Addr(raw)
    }
}

/// A line-granular address (byte address divided by [`LINE_SIZE`]).
///
/// This is the unit the caches, the memory controller, and PiPoMonitor's
/// Auto-Cuckoo filter operate on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct LineAddr(pub u64);

impl fmt::Display for LineAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {:#x}", self.0)
    }
}

impl From<u64> for LineAddr {
    fn from(raw: u64) -> Self {
        LineAddr(raw)
    }
}

/// Identifier of a processor core (0-based).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct CoreId(pub usize);

impl fmt::Display for CoreId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "core{}", self.0)
    }
}

/// Whether an access reads or writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A load.
    Read,
    /// A store.
    Write,
}

impl AccessKind {
    /// Whether this is a store.
    #[must_use]
    pub fn is_write(self) -> bool {
        matches!(self, AccessKind::Write)
    }
}

/// The cache level (or memory) that served an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Level {
    /// Private level-1 data cache.
    L1,
    /// Private level-2 cache.
    L2,
    /// Shared last-level cache.
    L3,
    /// Main memory.
    Memory,
}

impl fmt::Display for Level {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Level::L1 => "L1",
            Level::L2 => "L2",
            Level::L3 => "L3",
            Level::Memory => "memory",
        };
        f.write_str(s)
    }
}

/// Outcome of a single hierarchy access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessResult {
    /// Total access latency in cycles.
    pub latency: Cycle,
    /// The level that supplied the data.
    pub served_by: Level,
    /// Whether the access was served by a line that was brought into the LLC
    /// by a (PiPoMonitor) prefetch and had not been demand-touched since.
    pub prefetch_hit: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addr_to_line_uses_line_size() {
        assert_eq!(Addr(0).line(), LineAddr(0));
        assert_eq!(Addr(63).line(), LineAddr(0));
        assert_eq!(Addr(64).line(), LineAddr(1));
        assert_eq!(Addr(0x1_0040).line(), LineAddr(0x401));
    }

    #[test]
    fn access_kind_is_write() {
        assert!(AccessKind::Write.is_write());
        assert!(!AccessKind::Read.is_write());
    }

    #[test]
    fn display_formats() {
        assert_eq!(Addr(255).to_string(), "0xff");
        assert_eq!(CoreId(2).to_string(), "core2");
        assert_eq!(Level::L3.to_string(), "L3");
        assert_eq!(Level::Memory.to_string(), "memory");
        assert_eq!(LineAddr(16).to_string(), "line 0x10");
    }

    #[test]
    fn conversions_from_raw() {
        assert_eq!(Addr::from(7u64), Addr(7));
        assert_eq!(LineAddr::from(7u64), LineAddr(7));
    }
}
