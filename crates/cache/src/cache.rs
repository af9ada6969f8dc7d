//! The generic set-associative cache.

use std::hash::{DefaultHasher, Hash, Hasher};

use crate::{CacheConfig, CacheStats};

/// One line of a set.
#[derive(Debug, Clone)]
struct Line<K, V> {
    key: K,
    value: V,
    /// Monotonic counter value at last use (LRU).
    last_used: u64,
}

/// A set-associative key/value cache with hit/miss accounting.
///
/// Keys are mapped to a set either by the default hash indexer or by a
/// custom indexing function (address-bit indexing for instruction caches,
/// for example — see [`SetAssocCache::with_indexer`]); within a set, the
/// least recently used line is the victim.
///
/// This is a *simulation* structure: it models the COM's associative
/// memories (ITLB, ATLB, instruction cache, cache levels of physical
/// memory). It deliberately exposes the miss path to the caller — a miss
/// returns `None` and the caller performs the authoritative lookup (method
/// dictionaries, segment tables…) and then [`fill`](SetAssocCache::fill)s.
#[derive(Clone)]
pub struct SetAssocCache<K, V> {
    config: CacheConfig,
    sets: Vec<Vec<Line<K, V>>>,
    clock: u64,
    stats: CacheStats,
    indexer: Option<fn(&K) -> u64>,
}

impl<K, V> std::fmt::Debug for SetAssocCache<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SetAssocCache")
            .field("config", &self.config)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl<K: Hash + Eq + Clone, V> SetAssocCache<K, V> {
    /// Creates an empty cache with hash-based set indexing.
    pub fn new(config: CacheConfig) -> Self {
        SetAssocCache {
            config,
            sets: (0..config.sets()).map(|_| Vec::new()).collect(),
            clock: 0,
            stats: CacheStats::default(),
            indexer: None,
        }
    }

    /// Creates an empty cache whose set index is `indexer(key) % sets`.
    ///
    /// Use address-bit indexing for caches that are indexed by low address
    /// bits in hardware (the instruction cache), and leave the default
    /// hashing for key tuples (the ITLB).
    pub fn with_indexer(config: CacheConfig, indexer: fn(&K) -> u64) -> Self {
        let mut c = Self::new(config);
        c.indexer = Some(indexer);
        c
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

    /// Clears counters but keeps contents — call at the warmup/measurement
    /// boundary, as in the paper's §5 methodology.
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Number of valid lines currently resident.
    pub fn len(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }

    /// Whether no lines are resident.
    pub fn is_empty(&self) -> bool {
        self.sets.iter().all(Vec::is_empty)
    }

    fn set_index(&self, key: &K) -> usize {
        let h = match self.indexer {
            Some(f) => f(key),
            None => {
                let mut hasher = DefaultHasher::new();
                key.hash(&mut hasher);
                hasher.finish()
            }
        };
        (h % self.config.sets() as u64) as usize
    }

    /// Looks `key` up, recording a hit or miss and refreshing recency.
    pub fn lookup(&mut self, key: &K) -> Option<&V> {
        self.clock += 1;
        let clock = self.clock;
        let set = self.set_index(key);
        let lines = &mut self.sets[set];
        if let Some(line) = lines.iter_mut().find(|l| l.key == *key) {
            line.last_used = clock;
            self.stats.hits += 1;
            Some(&line.value)
        } else {
            self.stats.misses += 1;
            None
        }
    }

    /// Non-recording, non-mutating probe (for diagnostics and tests).
    pub fn peek(&self, key: &K) -> Option<&V> {
        let set = self.set_index(key);
        self.sets[set]
            .iter()
            .find(|l| l.key == *key)
            .map(|l| &l.value)
    }

    /// Inserts `key → value`, evicting the LRU line if the set is full.
    /// Returns the evicted pair, if any. Filling an already-present key
    /// replaces its value in place (no eviction).
    pub fn fill(&mut self, key: K, value: V) -> Option<(K, V)> {
        self.clock += 1;
        let clock = self.clock;
        self.stats.fills += 1;
        let set = self.set_index(&key);
        let ways = self.config.ways();
        let lines = &mut self.sets[set];

        if let Some(line) = lines.iter_mut().find(|l| l.key == key) {
            line.value = value;
            line.last_used = clock;
            return None;
        }
        if lines.len() < ways {
            lines.push(Line {
                key,
                value,
                last_used: clock,
            });
            return None;
        }
        let victim = lines
            .iter()
            .enumerate()
            .min_by_key(|(_, l)| l.last_used)
            .map(|(i, _)| i)
            .expect("set is full, so nonempty");
        self.stats.evictions += 1;
        let old = std::mem::replace(
            &mut lines[victim],
            Line {
                key,
                value,
                last_used: clock,
            },
        );
        Some((old.key, old.value))
    }

    /// Looks up, and on a miss computes the value with `f` and fills it.
    /// Returns the value and whether the access hit.
    pub fn lookup_or_insert_with(&mut self, key: K, f: impl FnOnce() -> V) -> (&V, bool) {
        // Split borrow: lookup first (records stats), then fill on miss.
        let hit = self.lookup(&key).is_some();
        if !hit {
            let v = f();
            self.fill(key.clone(), v);
        }
        let set = self.set_index(&key);
        let v = self.sets[set]
            .iter()
            .find(|l| l.key == key)
            .map(|l| &l.value)
            .expect("just filled");
        (v, hit)
    }

    /// Removes `key` if present, returning its value.
    pub fn invalidate(&mut self, key: &K) -> Option<V> {
        let set = self.set_index(key);
        let lines = &mut self.sets[set];
        let pos = lines.iter().position(|l| l.key == *key)?;
        self.stats.invalidations += 1;
        Some(lines.swap_remove(pos).value)
    }

    /// Drops all contents (statistics are kept; pair with
    /// [`reset_stats`](Self::reset_stats) for a full reset).
    pub fn clear(&mut self) {
        for set in &mut self.sets {
            set.clear();
        }
    }

    /// Iterates over all resident `(key, value)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.sets
            .iter()
            .flat_map(|s| s.iter().map(|l| (&l.key, &l.value)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CacheError;

    fn cfg(entries: usize, ways: usize) -> CacheConfig {
        CacheConfig::new(entries, ways).unwrap()
    }

    #[test]
    fn hit_after_fill() {
        let mut c: SetAssocCache<u64, u64> = SetAssocCache::new(cfg(8, 2));
        assert_eq!(c.lookup(&1), None);
        c.fill(1, 10);
        assert_eq!(c.lookup(&1), Some(&10));
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn lru_evicts_least_recent() {
        // Fully associative, 2 entries.
        let mut c: SetAssocCache<u64, ()> = SetAssocCache::new(cfg(2, 2));
        c.fill(1, ());
        c.fill(2, ());
        c.lookup(&1); // 1 is now more recent than 2
        let evicted = c.fill(3, ());
        assert_eq!(evicted, Some((2, ())));
        assert!(c.peek(&1).is_some());
        assert!(c.peek(&3).is_some());
    }

    #[test]
    fn refill_replaces_in_place() {
        let mut c: SetAssocCache<u64, u64> = SetAssocCache::new(cfg(2, 2));
        c.fill(1, 10);
        assert_eq!(c.fill(1, 20), None);
        assert_eq!(c.peek(&1), Some(&20));
        assert_eq!(c.len(), 1);
        assert_eq!(c.stats().evictions, 0);
    }

    #[test]
    fn direct_mapped_conflicts() {
        // 2 sets, 1 way, address-bit indexing: keys 0 and 2 collide.
        let mut c: SetAssocCache<u64, u64> = SetAssocCache::with_indexer(cfg(2, 1), |k| *k);
        c.fill(0, 100);
        c.fill(2, 102);
        assert_eq!(c.peek(&0), None, "0 evicted by conflicting 2");
        assert_eq!(c.peek(&2), Some(&102));
        c.fill(1, 101);
        assert_eq!(c.peek(&1), Some(&101), "odd keys use the other set");
        assert_eq!(c.peek(&2), Some(&102));
    }

    #[test]
    fn lookup_or_insert_with_runs_once() {
        let mut c: SetAssocCache<u64, u64> = SetAssocCache::new(cfg(4, 4));
        let mut calls = 0;
        let (v, hit) = c.lookup_or_insert_with(9, || {
            calls += 1;
            99
        });
        assert_eq!((*v, hit), (99, false));
        let (v, hit) = c.lookup_or_insert_with(9, || {
            calls += 1;
            0
        });
        assert_eq!((*v, hit), (99, true));
        assert_eq!(calls, 1);
    }

    #[test]
    fn invalidate_removes() {
        let mut c: SetAssocCache<u64, u64> = SetAssocCache::new(cfg(4, 4));
        c.fill(5, 50);
        assert_eq!(c.invalidate(&5), Some(50));
        assert_eq!(c.invalidate(&5), None);
        assert_eq!(c.lookup(&5), None);
        assert_eq!(c.stats().invalidations, 1);
    }

    #[test]
    fn reset_stats_keeps_contents() {
        let mut c: SetAssocCache<u64, u64> = SetAssocCache::new(cfg(4, 4));
        c.fill(5, 50);
        c.lookup(&5);
        c.reset_stats();
        assert_eq!(c.stats(), CacheStats::default());
        assert_eq!(c.lookup(&5), Some(&50));
        assert_eq!(c.stats().hits, 1);
    }

    #[test]
    fn len_counts_resident_lines() {
        let mut c: SetAssocCache<u64, ()> = SetAssocCache::new(cfg(8, 2));
        assert!(c.is_empty());
        for k in 0..5 {
            c.fill(k, ());
        }
        assert!(c.len() <= 5);
        c.clear();
        assert!(c.is_empty());
    }

    #[test]
    fn geometry_error_is_reported() {
        assert_eq!(
            CacheConfig::new(6, 4).unwrap_err(),
            CacheError::BadGeometry {
                entries: 6,
                ways: 4
            }
        );
    }
}
