//! A presence-only set-associative cache over address keys, backed by flat
//! arrays — the hot-path sibling of [`SetAssocCache`](crate::SetAssocCache).
//!
//! The COM's instruction cache is probed once per simulated instruction; a
//! generic key/value cache with per-set `Vec`s and a hashing indexer is
//! measurable overhead there. `AddrSet` models exactly the same cache —
//! identical geometry semantics (`addr % sets` indexing, LRU replacement,
//! identical hit/miss/fill/eviction accounting as
//! [`SetAssocCache::with_indexer`] with the identity indexer) — but stores
//! only tags, in one flat allocation.

use crate::{CacheConfig, CacheStats};

/// Sentinel tag for an invalid line. Word addresses in the COM are at most
/// 36-bit, so the all-ones tag can never collide with a real address.
const EMPTY: u64 = u64::MAX;

/// A presence set over `u64` address keys with set-associative geometry.
///
/// ```
/// use com_cache::{AddrSet, CacheConfig};
///
/// # fn main() -> Result<(), com_cache::CacheError> {
/// let mut ic = AddrSet::new(CacheConfig::new(4096, 2)?);
/// assert!(!ic.lookup(0x40));     // compulsory miss
/// ic.fill(0x40);
/// assert!(ic.lookup(0x40));
/// assert_eq!(ic.stats().hits, 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct AddrSet {
    config: CacheConfig,
    sets: usize,
    /// `sets - 1` when the set count is a power of two, else 0 (fall back
    /// to the modulo). `addr & mask == addr % sets` in the former case, so
    /// indexing is identical to `SetAssocCache` either way.
    mask: u64,
    ways: usize,
    tags: Vec<u64>,
    last_used: Vec<u64>,
    clock: u64,
    stats: CacheStats,
}

impl AddrSet {
    /// Creates an empty set with the given geometry.
    pub fn new(config: CacheConfig) -> Self {
        let sets = config.sets();
        let ways = config.ways();
        AddrSet {
            config,
            sets,
            mask: if sets.is_power_of_two() {
                sets as u64 - 1
            } else {
                0
            },
            ways,
            tags: vec![EMPTY; sets * ways],
            last_used: vec![0; sets * ways],
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    /// The cache geometry.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// Statistics accumulated since construction or the last
    /// [`reset_stats`](Self::reset_stats).
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Clears counters but keeps contents (warmup boundary).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Number of valid lines currently resident.
    pub fn len(&self) -> usize {
        self.tags.iter().filter(|t| **t != EMPTY).count()
    }

    /// Whether no lines are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    #[inline]
    fn set_base(&self, addr: u64) -> usize {
        let set = if self.mask != 0 {
            (addr & self.mask) as usize
        } else {
            (addr % self.sets as u64) as usize
        };
        set * self.ways
    }

    /// Probes for `addr`, recording a hit or miss and refreshing recency.
    #[inline]
    pub fn lookup(&mut self, addr: u64) -> bool {
        self.clock += 1;
        let base = self.set_base(addr);
        for w in 0..self.ways {
            if self.tags[base + w] == addr {
                self.last_used[base + w] = self.clock;
                self.stats.hits += 1;
                return true;
            }
        }
        self.stats.misses += 1;
        false
    }

    /// Inserts `addr`, evicting the LRU line if the set is full. Returns
    /// the evicted address, if any.
    pub fn fill(&mut self, addr: u64) -> Option<u64> {
        self.clock += 1;
        self.stats.fills += 1;
        let base = self.set_base(addr);
        for w in 0..self.ways {
            if self.tags[base + w] == addr {
                self.last_used[base + w] = self.clock;
                return None;
            }
        }
        for w in 0..self.ways {
            if self.tags[base + w] == EMPTY {
                self.tags[base + w] = addr;
                self.last_used[base + w] = self.clock;
                return None;
            }
        }
        let victim = (0..self.ways)
            .min_by_key(|w| self.last_used[base + w])
            .expect("ways >= 1");
        self.stats.evictions += 1;
        let old = self.tags[base + victim];
        self.tags[base + victim] = addr;
        self.last_used[base + victim] = self.clock;
        Some(old)
    }

    /// Drops all contents (statistics are kept).
    pub fn clear(&mut self) {
        self.tags.iter_mut().for_each(|t| *t = EMPTY);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SetAssocCache;

    fn cfg(entries: usize, ways: usize) -> CacheConfig {
        CacheConfig::new(entries, ways).unwrap()
    }

    #[test]
    fn hit_after_fill() {
        let mut c = AddrSet::new(cfg(8, 2));
        assert!(!c.lookup(1));
        c.fill(1);
        assert!(c.lookup(1));
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn direct_mapped_conflicts() {
        let mut c = AddrSet::new(cfg(2, 1));
        c.fill(0);
        assert_eq!(c.fill(2), Some(0), "0 evicted by conflicting 2");
        c.fill(1);
        assert!(c.lookup(1));
        assert!(c.lookup(2));
        assert!(!c.lookup(0));
    }

    #[test]
    fn matches_set_assoc_cache_access_for_access() {
        // The architectural contract: identical hit/miss/eviction stats to
        // SetAssocCache with the identity indexer, on an arbitrary
        // reference stream with reuse and conflicts.
        let mut a = AddrSet::new(cfg(16, 2));
        let mut b: SetAssocCache<u64, ()> = SetAssocCache::with_indexer(cfg(16, 2), |k| *k);
        let mut rng = crate::Rng::new(12345);
        for i in 0..10_000u64 {
            // Mix a hot working set with a sweeping stream.
            let addr = if i % 3 == 0 { i % 24 } else { rng.below(64) };
            let ha = a.lookup(addr);
            let hb = b.lookup(&addr).is_some();
            assert_eq!(ha, hb, "divergence at access {i} addr {addr}");
            if !ha {
                a.fill(addr);
                b.fill(addr, ());
            }
        }
        assert_eq!(a.stats(), b.stats());
        assert_eq!(a.len(), b.len());
    }

    #[test]
    fn clear_keeps_stats() {
        let mut c = AddrSet::new(cfg(4, 4));
        c.fill(9);
        c.lookup(9);
        c.clear();
        assert!(!c.lookup(9));
        assert_eq!(c.stats().hits, 1);
        assert!(c.is_empty());
    }
}
