//! System and per-level cache configuration (paper Table II).

use std::error::Error;
use std::fmt;

use crate::replacement::Replacement;
use crate::types::LINE_SIZE;

/// Error produced when validating a [`CacheGeometry`] or [`SystemConfig`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ConfigError {
    /// A set or way count was zero, a set count not a power of two, or a
    /// way count not a power of two under Tree-PLRU replacement. From
    /// [`SystemConfig::validate`], the text begins with the level (`L1`,
    /// `L2` or `L3`).
    BadGeometry(&'static str),
    /// The system needs at least one core.
    NoCores,
    /// The directory's [`SharerSet`](crate::SharerSet) bitmap tracks at most
    /// 64 cores.
    TooManyCores(usize),
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::BadGeometry(what) => write!(f, "invalid cache geometry: {what}"),
            ConfigError::NoCores => write!(f, "system must have at least one core"),
            ConfigError::TooManyCores(cores) => write!(
                f,
                "system has {cores} cores but the sharer bitmap supports at most 64"
            ),
        }
    }
}

impl Error for ConfigError {}

/// Geometry of one cache level. Its hit latency is a Table II constant
/// ([`L1_LATENCY`](crate::L1_LATENCY) and the others), not a field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheGeometry {
    /// Number of sets. Power of two.
    pub sets: usize,
    /// Associativity (ways per set).
    pub ways: usize,
}

impl CacheGeometry {
    /// Builds a geometry from a total capacity in bytes of
    /// [`LINE_SIZE`]-byte lines.
    ///
    /// # Panics
    ///
    /// Panics if the capacity is not divisible into a power-of-two number of
    /// sets, or any argument is zero.
    #[must_use]
    pub fn from_capacity(bytes: usize, ways: usize) -> Self {
        assert!(bytes > 0 && ways > 0, "zero geometry argument");
        let lines = bytes / LINE_SIZE as usize;
        assert!(
            lines.is_multiple_of(ways),
            "capacity must divide into whole sets"
        );
        let sets = lines / ways;
        assert!(
            sets.is_power_of_two(),
            "set count {sets} must be a power of two"
        );
        Self { sets, ways }
    }

    /// Total line capacity (`sets × ways`).
    #[must_use]
    pub fn lines(&self) -> usize {
        self.sets * self.ways
    }

    /// Total byte capacity (`lines × LINE_SIZE`).
    #[must_use]
    pub fn capacity_bytes(&self) -> usize {
        self.lines() * LINE_SIZE as usize
    }

    /// Validates the geometry.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::BadGeometry`] for zero or non-power-of-two
    /// sets, or zero ways.
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.check(["zero sets", "sets not a power of two", "zero ways"])
    }

    /// [`validate`](Self::validate), reporting the error texts given, in
    /// the order of its checks.
    fn check(
        &self,
        [zero_sets, odd_sets, zero_ways]: [&'static str; 3],
    ) -> Result<(), ConfigError> {
        let error = if self.sets == 0 {
            zero_sets
        } else if !self.sets.is_power_of_two() {
            odd_sets
        } else if self.ways == 0 {
            zero_ways
        } else {
            return Ok(());
        };
        Err(ConfigError::BadGeometry(error))
    }
}

/// Full system configuration.
///
/// # Examples
///
/// The paper's baseline (Table II): quad-core, 64 KB 4-way L1, 256 KB
/// 8-way L2, shared 4 MB 16-way L3. The table's latencies are the crate's
/// constants ([`L1_LATENCY`](crate::L1_LATENCY) and the others).
///
/// ```
/// use cache_sim::SystemConfig;
///
/// let cfg = SystemConfig::paper_default();
/// assert_eq!(cfg.cores, 4);
/// assert_eq!(cfg.l3.sets, 4096);
/// assert_eq!(cfg.l3.ways, 16);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SystemConfig {
    /// Number of cores.
    pub cores: usize,
    /// Private L1 data cache geometry.
    pub l1: CacheGeometry,
    /// Private L2 cache geometry.
    pub l2: CacheGeometry,
    /// Shared inclusive L3 geometry.
    pub l3: CacheGeometry,
    /// Replacement policy used at every level.
    pub replacement: Replacement,
}

impl SystemConfig {
    /// The paper's Table II configuration.
    #[must_use]
    pub fn paper_default() -> Self {
        Self {
            cores: 4,
            l1: CacheGeometry::from_capacity(64 << 10, 4),
            l2: CacheGeometry::from_capacity(256 << 10, 8),
            l3: CacheGeometry::from_capacity(4 << 20, 16),
            replacement: Replacement::Lru,
        }
    }

    /// A scaled-down configuration for fast unit tests: 2 cores, tiny caches.
    #[must_use]
    pub fn small_test() -> Self {
        Self {
            cores: 2,
            l1: CacheGeometry::from_capacity(2 << 10, 2),
            l2: CacheGeometry::from_capacity(8 << 10, 4),
            l3: CacheGeometry::from_capacity(64 << 10, 8),
            replacement: Replacement::Lru,
        }
    }

    /// LLC capacity in bytes (what PiPoMonitor's overhead is measured
    /// against).
    #[must_use]
    pub fn llc_bytes(&self) -> u64 {
        self.l3.capacity_bytes() as u64
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] for zero or more than 64 cores (the sharer
    /// bitmap's limit), invalid per-level geometry, or Tree-PLRU
    /// replacement on a level whose way count is not a power of two. A
    /// geometry error names its level.
    pub fn validate(&self) -> Result<(), ConfigError> {
        // One level's geometry error texts: `CacheGeometry::check`'s three,
        // then Tree-PLRU's.
        macro_rules! level_errors {
            ($level:literal) => {
                [
                    concat!($level, " has zero sets"),
                    concat!($level, " sets not a power of two"),
                    concat!($level, " has zero ways"),
                    concat!($level, " ways not a power of two, as tree-PLRU requires"),
                ]
            };
        }

        if self.cores == 0 {
            return Err(ConfigError::NoCores);
        }
        // The LLC directory tracks sharers in a 64-bit bitmap, and eviction
        // back-invalidation trusts it: a 65th core would silently alias.
        if self.cores > 64 {
            return Err(ConfigError::TooManyCores(self.cores));
        }
        for (geometry, [zero_sets, odd_sets, zero_ways, odd_ways]) in [
            (self.l1, level_errors!("L1")),
            (self.l2, level_errors!("L2")),
            (self.l3, level_errors!("L3")),
        ] {
            geometry.check([zero_sets, odd_sets, zero_ways])?;
            // Tree-PLRU's decision tree has one leaf per way.
            if self.replacement == Replacement::TreePlru && !geometry.ways.is_power_of_two() {
                return Err(ConfigError::BadGeometry(odd_ways));
            }
        }
        Ok(())
    }
}

impl Default for SystemConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_geometry() {
        let cfg = SystemConfig::paper_default();
        cfg.validate().expect("valid");
        assert_eq!(cfg.l1.sets, 256);
        assert_eq!(cfg.l1.ways, 4);
        assert_eq!(cfg.l2.sets, 512);
        assert_eq!(cfg.l2.ways, 8);
        assert_eq!(cfg.l3.sets, 4096);
        assert_eq!(cfg.l3.ways, 16);
        assert_eq!(cfg.llc_bytes(), 4 << 20);
    }

    #[test]
    fn small_test_config_is_valid() {
        SystemConfig::small_test().validate().expect("valid");
    }

    #[test]
    fn geometry_capacity_round_trip() {
        let g = CacheGeometry::from_capacity(4 << 20, 16);
        assert_eq!(g.capacity_bytes(), 4 << 20);
        assert_eq!(g.lines(), 65536);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn geometry_rejects_weird_capacity() {
        let _ = CacheGeometry::from_capacity(3 * 1024, 4);
    }

    #[test]
    fn validate_rejects_zero_cores() {
        let mut cfg = SystemConfig::paper_default();
        cfg.cores = 0;
        assert_eq!(cfg.validate().unwrap_err(), ConfigError::NoCores);
    }

    #[test]
    fn validate_rejects_more_cores_than_sharer_bits() {
        let mut cfg = SystemConfig::paper_default();
        cfg.cores = 64;
        cfg.validate().expect("64 cores is the limit, not past it");
        cfg.cores = 65;
        assert_eq!(cfg.validate().unwrap_err(), ConfigError::TooManyCores(65));
        assert!(cfg.validate().unwrap_err().to_string().contains("64"));
    }

    #[test]
    fn validate_rejects_zero_ways() {
        let mut cfg = SystemConfig::paper_default();
        cfg.l2.ways = 0;
        assert!(matches!(
            cfg.validate().unwrap_err(),
            ConfigError::BadGeometry(_)
        ));
    }

    #[test]
    fn validate_names_the_level_of_a_geometry_error() {
        let mut cfg = SystemConfig::paper_default();
        cfg.l2.ways = 0;
        let err = cfg.validate().unwrap_err();
        assert!(matches!(err, ConfigError::BadGeometry(what) if what.starts_with("L2 ")));
        assert!(err.to_string().contains("zero ways"), "{err}");
        let mut cfg = SystemConfig::paper_default();
        cfg.l3.sets = 0;
        let err = cfg.validate().unwrap_err();
        assert!(matches!(err, ConfigError::BadGeometry(what) if what.starts_with("L3 ")));
        cfg.l3.sets = 3;
        let err = cfg.validate().unwrap_err();
        assert!(matches!(err, ConfigError::BadGeometry(what) if what.starts_with("L3 ")));
    }

    #[test]
    fn validate_rejects_tree_plru_with_non_power_of_two_ways() {
        let mut cfg = SystemConfig::paper_default();
        cfg.l3 = CacheGeometry::from_capacity(3 << 20, 12);
        cfg.validate().expect("a 12-way LLC is valid under LRU");
        cfg.replacement = Replacement::TreePlru;
        let err = cfg.validate().unwrap_err();
        assert!(matches!(err, ConfigError::BadGeometry(what) if what.starts_with("L3 ")));
        let mut cfg = SystemConfig::small_test();
        cfg.replacement = Replacement::TreePlru;
        cfg.validate().expect("power-of-two ways at every level");
        cfg.l1.ways = 3;
        cfg.l1.sets = 8;
        let err = cfg.validate().unwrap_err();
        assert!(matches!(err, ConfigError::BadGeometry(what) if what.starts_with("L1 ")));
    }

    #[test]
    fn config_error_display() {
        assert!(ConfigError::NoCores.to_string().contains("core"));
        assert!(ConfigError::BadGeometry("zero sets")
            .to_string()
            .contains("zero sets"));
    }
}
