//! A flat-array set-associative cache for hot-path key/value translation.
//!
//! Same architectural semantics as [`SetAssocCache`](crate::SetAssocCache)
//! — configured geometry, per-set LRU replacement, hit/miss/fill/
//! eviction accounting — but all lines live in one flat allocation, the
//! set index comes from the [`FxHasher`](crate::FxHasher) fold instead of
//! SipHash, and the ways of a set are probed in place. Use it for caches
//! probed on (nearly) every simulated instruction or memory reference:
//! the ATLB, and any future per-access translation structure.

use std::hash::{Hash, Hasher};

use crate::{CacheConfig, CacheStats, FxHasher};

#[derive(Debug, Clone)]
struct FlatLine<K, V> {
    key: K,
    value: V,
    /// Monotonic counter value at last use (LRU).
    last_used: u64,
}

/// A set-associative key/value cache in one flat allocation.
///
/// ```
/// use com_cache::{CacheConfig, FlatCache};
///
/// # fn main() -> Result<(), com_cache::CacheError> {
/// let mut atlb: FlatCache<(u16, u64), u64> = FlatCache::new(CacheConfig::new(64, 2)?);
/// assert!(atlb.lookup(&(0, 7)).is_none());
/// atlb.fill((0, 7), 0x4000);
/// assert_eq!(atlb.lookup(&(0, 7)), Some(&0x4000));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct FlatCache<K, V> {
    config: CacheConfig,
    sets: usize,
    /// `sets - 1` when the set count is a power of two, else 0 (fall back
    /// to the modulo).
    mask: u64,
    ways: usize,
    lines: Vec<Option<FlatLine<K, V>>>,
    clock: u64,
    stats: CacheStats,
}

impl<K: Copy + Eq + Hash, V> FlatCache<K, V> {
    /// Creates an empty cache with the given geometry.
    pub fn new(config: CacheConfig) -> Self {
        let sets = config.sets();
        let ways = config.ways();
        let mut lines = Vec::new();
        lines.resize_with(sets * ways, || None);
        FlatCache {
            config,
            sets,
            mask: if sets.is_power_of_two() {
                sets as u64 - 1
            } else {
                0
            },
            ways,
            lines,
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
        self.lines.iter().filter(|l| l.is_some()).count()
    }

    /// Whether no lines are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    #[inline]
    fn set_base(&self, key: &K) -> usize {
        let mut h = FxHasher::default();
        key.hash(&mut h);
        let h = h.finish();
        let set = if self.mask != 0 {
            (h & self.mask) as usize
        } else {
            (h % self.sets as u64) as usize
        };
        set * self.ways
    }

    /// Looks `key` up, recording a hit or miss and refreshing recency.
    #[inline]
    pub fn lookup(&mut self, key: &K) -> Option<&V> {
        self.clock += 1;
        let base = self.set_base(key);
        let mut hit = None;
        for w in 0..self.ways {
            if let Some(l) = &self.lines[base + w] {
                if l.key == *key {
                    hit = Some(base + w);
                    break;
                }
            }
        }
        match hit {
            Some(i) => {
                self.stats.hits += 1;
                let l = self.lines[i].as_mut().expect("hit line is valid");
                l.last_used = self.clock;
                Some(&self.lines[i].as_ref().expect("hit line is valid").value)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Inserts `key → value`, evicting the LRU line if the set is full.
    /// Returns the evicted pair, if any. Filling an already-present key
    /// replaces its value in place (no eviction).
    pub fn fill(&mut self, key: K, value: V) -> Option<(K, V)> {
        self.clock += 1;
        self.stats.fills += 1;
        let base = self.set_base(&key);
        for w in 0..self.ways {
            if let Some(l) = &mut self.lines[base + w] {
                if l.key == key {
                    l.value = value;
                    l.last_used = self.clock;
                    return None;
                }
            }
        }
        for w in 0..self.ways {
            if self.lines[base + w].is_none() {
                self.lines[base + w] = Some(FlatLine {
                    key,
                    value,
                    last_used: self.clock,
                });
                return None;
            }
        }
        let victim = (0..self.ways)
            .min_by_key(|w| {
                self.lines[base + w]
                    .as_ref()
                    .expect("set is full")
                    .last_used
            })
            .expect("ways >= 1");
        self.stats.evictions += 1;
        let old = self.lines[base + victim].replace(FlatLine {
            key,
            value,
            last_used: self.clock,
        });
        old.map(|l| (l.key, l.value))
    }

    /// Removes `key` if present, returning its value.
    pub fn invalidate(&mut self, key: &K) -> Option<V> {
        let base = self.set_base(key);
        for w in 0..self.ways {
            if matches!(&self.lines[base + w], Some(l) if l.key == *key) {
                self.stats.invalidations += 1;
                return self.lines[base + w].take().map(|l| l.value);
            }
        }
        None
    }

    /// Drops all contents (statistics are kept).
    pub fn clear(&mut self) {
        self.lines.iter_mut().for_each(|l| *l = None);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(entries: usize, ways: usize) -> CacheConfig {
        CacheConfig::new(entries, ways).unwrap()
    }

    #[test]
    fn hit_after_fill_and_invalidate() {
        let mut c: FlatCache<u64, u64> = FlatCache::new(cfg(8, 2));
        assert_eq!(c.lookup(&1), None);
        c.fill(1, 10);
        assert_eq!(c.lookup(&1), Some(&10));
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.invalidate(&1), Some(10));
        assert_eq!(c.lookup(&1), None);
        assert_eq!(c.stats().invalidations, 1);
    }

    #[test]
    fn refill_replaces_in_place() {
        let mut c: FlatCache<u64, u64> = FlatCache::new(cfg(2, 2));
        c.fill(1, 10);
        assert_eq!(c.fill(1, 20), None);
        assert_eq!(c.lookup(&1), Some(&20));
        assert_eq!(c.len(), 1);
        assert_eq!(c.stats().evictions, 0);
    }

    #[test]
    fn lru_evicts_least_recent_in_full_set() {
        // Fully associative, 2 entries.
        let mut c: FlatCache<u64, ()> = FlatCache::new(cfg(2, 2));
        c.fill(1, ());
        c.fill(2, ());
        c.lookup(&1); // 1 more recent than 2
        let evicted = c.fill(3, ());
        assert_eq!(evicted, Some((2, ())));
        assert!(c.lookup(&1).is_some());
        assert!(c.lookup(&3).is_some());
    }

    #[test]
    fn tuple_keys_work() {
        let mut c: FlatCache<(u16, u64), u64> = FlatCache::new(cfg(64, 2));
        for i in 0..100u64 {
            c.fill((1, i), i * 2);
        }
        let mut present = 0;
        for i in 0..100u64 {
            if c.lookup(&(1, i)) == Some(&(i * 2)) {
                present += 1;
            }
        }
        assert!(present >= 50, "only {present} survived in a 64-entry cache");
        assert!(c.len() <= 64);
    }
}
