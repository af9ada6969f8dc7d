//! Cache geometry.

use crate::CacheError;

/// Geometry of a set-associative cache: total entry count and ways per set.
///
/// `entries / ways` sets are used; a fully associative cache is
/// `ways == entries`. Direct mapped is `ways == 1`. Every set replaces its
/// least recently used line, the policy of the paper's simulations (§5).
///
/// ```
/// use com_cache::CacheConfig;
/// let cfg = CacheConfig::new(512, 2).unwrap();
/// assert_eq!(cfg.sets(), 256);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheConfig {
    entries: usize,
    ways: usize,
}

impl CacheConfig {
    /// Creates a geometry of `entries` total lines, `ways` per set, LRU.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::BadGeometry`] when `entries` is zero, `ways` is
    /// zero, or `ways` does not divide `entries`.
    pub fn new(entries: usize, ways: usize) -> Result<Self, CacheError> {
        if entries == 0 || ways == 0 || !entries.is_multiple_of(ways) {
            return Err(CacheError::BadGeometry { entries, ways });
        }
        Ok(CacheConfig { entries, ways })
    }

    /// Creates a fully associative geometry of `entries` lines.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::BadGeometry`] when `entries` is zero.
    pub fn fully_associative(entries: usize) -> Result<Self, CacheError> {
        Self::new(entries, entries.max(1))
    }

    /// Total number of lines.
    pub fn entries(self) -> usize {
        self.entries
    }

    /// Lines per set (associativity).
    pub fn ways(self) -> usize {
        self.ways
    }

    /// Number of sets (`entries / ways`).
    pub fn sets(self) -> usize {
        self.entries / self.ways
    }
}

impl core::fmt::Display for CacheConfig {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}x{}-way lru", self.entries, self.ways)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_derives_sets() {
        let c = CacheConfig::new(4096, 4).unwrap();
        assert_eq!(c.sets(), 1024);
        assert_eq!(c.ways(), 4);
        let fa = CacheConfig::fully_associative(32).unwrap();
        assert_eq!(fa.sets(), 1);
        assert_eq!(fa.ways(), 32);
    }

    #[test]
    fn rejects_bad_geometry() {
        assert!(CacheConfig::new(0, 1).is_err());
        assert!(CacheConfig::new(8, 0).is_err());
        assert!(CacheConfig::new(10, 4).is_err());
    }

    #[test]
    fn display_is_informative() {
        let c = CacheConfig::new(512, 2).unwrap();
        assert_eq!(c.to_string(), "512x2-way lru");
    }
}
