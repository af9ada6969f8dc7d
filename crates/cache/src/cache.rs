//! The set-associative cache.

use crate::{CacheConfig, CacheStats};

/// A set-associative cache from tags to values, with per-set LRU
/// replacement and hit/miss accounting.
///
/// The lines live in three parallel arrays — tags, recency stamps and
/// values — and a probe compares the ways of one set in place, as the
/// hardware's comparators would. The caller picks the set: every probe
/// passes a `hash` of its key, which the cache reduces modulo the set
/// count (a mask when the count is a power of two). So each structure
/// keeps its own indexing — the instruction cache the address itself, the
/// ITLB a multiplicative hash of its packed key, the ATLB the
/// [`FxHasher`](crate::FxHasher) of its key, the Figure 10/11 replays
/// SipHash — and all of them share one probe, one fill order and one LRU
/// choice.
///
/// A line whose stamp is zero is empty, so every bit pattern of `T` is a
/// usable tag. This is a *simulation* structure: a miss returns `None`,
/// the caller performs the authoritative lookup (method dictionaries,
/// segment tables…) and then [`fill`](Self::fill)s.
#[derive(Debug, Clone)]
pub struct SetAssocCache<T, V> {
    sets: usize,
    /// `sets - 1` when the set count is a power of two (one AND), else 0
    /// (fall back to the modulo).
    mask: u64,
    ways: usize,
    /// Each line's tag, meaningful only while its stamp is non-zero.
    tags: Vec<T>,
    /// The clock at each line's last use (LRU), or 0 for an empty line.
    stamps: Vec<u64>,
    /// Each line's value.
    values: Vec<V>,
    clock: u64,
    stats: CacheStats,
}

impl<T: Copy + Eq + Default, V: Copy + Default> SetAssocCache<T, V> {
    /// Creates an empty cache with the given geometry.
    pub fn new(config: CacheConfig) -> Self {
        let sets = config.sets();
        let lines = config.entries();
        SetAssocCache {
            sets,
            mask: if sets.is_power_of_two() {
                sets as u64 - 1
            } else {
                0
            },
            ways: config.ways(),
            tags: vec![T::default(); lines],
            stamps: vec![0; lines],
            values: vec![V::default(); lines],
            clock: 0,
            stats: CacheStats::default(),
        }
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
        self.stamps.iter().filter(|&&s| s != 0).count()
    }

    /// Whether no lines are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The first line of the set `hash` selects.
    #[inline]
    fn set_base(&self, hash: u64) -> usize {
        let set = if self.mask != 0 {
            (hash & self.mask) as usize
        } else {
            (hash % self.sets as u64) as usize
        };
        set * self.ways
    }

    /// The valid line of the set starting at `base` whose tag is `tag`.
    #[inline]
    fn find(&self, base: usize, tag: T) -> Option<usize> {
        let ways = base..base + self.ways;
        self.tags[ways.clone()]
            .iter()
            .zip(&self.stamps[ways])
            .position(|(&t, &s)| t == tag && s != 0)
            .map(|way| base + way)
    }

    /// Looks `tag` up in the set `hash` selects, recording a hit or miss
    /// and refreshing recency.
    #[inline]
    pub fn lookup(&mut self, hash: u64, tag: T) -> Option<V> {
        self.clock += 1;
        match self.find(self.set_base(hash), tag) {
            Some(line) => {
                self.stamps[line] = self.clock;
                self.stats.hits += 1;
                Some(self.values[line])
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Installs `tag → value` in the set `hash` selects. A resident `tag`
    /// is refilled in place; otherwise the first empty way is taken, and
    /// in a full set the least recently used line is evicted.
    pub fn fill(&mut self, hash: u64, tag: T, value: V) {
        self.clock += 1;
        self.stats.fills += 1;
        let base = self.set_base(hash);
        let line = match self.find(base, tag) {
            Some(line) => line,
            None => {
                // An empty line's zero stamp is its set's minimum, and
                // `min_by_key` keeps the first minimum: one scan takes the
                // first empty way, or else the LRU line.
                let victim = (base..base + self.ways)
                    .min_by_key(|&l| self.stamps[l])
                    .expect("sets are nonempty");
                if self.stamps[victim] != 0 {
                    self.stats.evictions += 1;
                }
                victim
            }
        };
        self.tags[line] = tag;
        self.stamps[line] = self.clock;
        self.values[line] = value;
    }

    /// Removes `tag` from the set `hash` selects, if resident.
    pub fn invalidate(&mut self, hash: u64, tag: T) {
        if let Some(line) = self.find(self.set_base(hash), tag) {
            self.stamps[line] = 0;
            self.stats.invalidations += 1;
        }
    }

    /// Drops all contents (statistics are kept; pair with
    /// [`reset_stats`](Self::reset_stats) for a full reset).
    pub fn clear(&mut self) {
        self.stamps.fill(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CacheError, Rng};

    fn cfg(entries: usize, ways: usize) -> CacheConfig {
        CacheConfig::new(entries, ways).unwrap()
    }

    /// A fully associative cache: the set hash is irrelevant.
    fn full<V: Copy + Default>(entries: usize) -> SetAssocCache<u64, V> {
        SetAssocCache::new(CacheConfig::fully_associative(entries).unwrap())
    }

    #[test]
    fn hit_after_fill() {
        let mut c = full::<u64>(8);
        assert_eq!(c.lookup(0, 1), None);
        c.fill(0, 1, 10);
        assert_eq!(c.lookup(0, 1), Some(10));
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = full::<()>(2);
        c.fill(0, 1, ());
        c.fill(0, 2, ());
        c.lookup(0, 1); // 1 is now more recent than 2
        c.fill(0, 3, ());
        assert_eq!(c.stats().evictions, 1);
        assert!(c.lookup(0, 1).is_some());
        assert!(c.lookup(0, 3).is_some());
        assert!(c.lookup(0, 2).is_none(), "the LRU victim was 2");
    }

    #[test]
    fn refill_replaces_in_place() {
        let mut c = full::<u64>(2);
        c.fill(0, 1, 10);
        c.fill(0, 1, 20);
        assert_eq!(c.lookup(0, 1), Some(20));
        assert_eq!(c.len(), 1);
        assert_eq!(c.stats().evictions, 0);
        assert_eq!(c.stats().fills, 2);
    }

    #[test]
    fn direct_mapped_conflicts() {
        // 2 sets, 1 way, the address as the hash: keys 0 and 2 collide.
        let mut c: SetAssocCache<u64, u64> = SetAssocCache::new(cfg(2, 1));
        c.fill(0, 0, 100);
        c.fill(2, 2, 102);
        c.fill(1, 1, 101);
        assert_eq!(c.stats().evictions, 1);
        assert_eq!(c.lookup(1, 1), Some(101), "odd keys use the other set");
        assert_eq!(c.lookup(2, 2), Some(102));
        assert_eq!(c.lookup(0, 0), None, "0 evicted by conflicting 2");
    }

    #[test]
    fn any_tag_bit_pattern_is_a_key() {
        // Empty lines are marked by their stamp, not a reserved tag: the
        // zero tag misses in a fresh cache, and the all-ones and
        // all-zero tuple tags (the ATLB's key shape) hold values.
        let mut c: SetAssocCache<(u16, u64), u64> = SetAssocCache::new(cfg(64, 2));
        assert_eq!(c.lookup(0, (0, 0)), None);
        c.fill(0, (0, 0), 1);
        c.fill(u64::MAX, (u16::MAX, u64::MAX), 2);
        assert_eq!(c.lookup(0, (0, 0)), Some(1));
        assert_eq!(c.lookup(u64::MAX, (u16::MAX, u64::MAX)), Some(2));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn invalidate_removes() {
        let mut c = full::<u64>(4);
        c.fill(0, 5, 50);
        c.invalidate(0, 5);
        c.invalidate(0, 5);
        assert_eq!(c.lookup(0, 5), None);
        assert_eq!(c.stats().invalidations, 1, "only a resident line counts");
        c.fill(0, 6, 60);
        assert_eq!(c.stats().evictions, 0, "an invalidated line is empty");
    }

    #[test]
    fn reset_stats_keeps_contents() {
        let mut c = full::<u64>(4);
        c.fill(0, 5, 50);
        c.lookup(0, 5);
        c.reset_stats();
        assert_eq!(c.stats(), CacheStats::default());
        assert_eq!(c.lookup(0, 5), Some(50));
        assert_eq!(c.stats().hits, 1);
    }

    #[test]
    fn len_counts_resident_lines() {
        let mut c: SetAssocCache<u64, ()> = SetAssocCache::new(cfg(8, 2));
        assert!(c.is_empty());
        for k in 0..5 {
            c.fill(k, k, ());
        }
        assert_eq!(c.len(), 5);
        c.lookup(1, 1);
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.lookup(1, 1), None);
        assert_eq!(c.stats().hits, 1, "clear keeps the counters");
    }

    #[test]
    fn matches_recency_list_model_access_for_access() {
        // An independent LRU model: per set, the resident tags in recency
        // order, most recent last. On a stream with reuse and conflicts
        // the cache and the model must agree on every hit, miss and
        // eviction.
        let (sets, ways) = (8, 2);
        let mut cache: SetAssocCache<u64, u64> = SetAssocCache::new(cfg(sets * ways, ways));
        let mut model: Vec<Vec<u64>> = vec![Vec::new(); sets];
        let mut evictions = 0;
        let mut rng = Rng::new(12345);
        for i in 0..10_000u64 {
            let addr = if i % 3 == 0 { i % 24 } else { rng.below(64) };
            let set = &mut model[addr as usize % sets];
            let hit = set.iter().position(|&t| t == addr).map(|at| set.remove(at));
            assert_eq!(cache.lookup(addr, addr), hit.map(|t| t * 7), "access {i}");
            if hit.is_none() {
                cache.fill(addr, addr, addr * 7);
                if set.len() == ways {
                    set.remove(0);
                    evictions += 1;
                }
            }
            set.push(addr);
        }
        let s = cache.stats();
        assert_eq!(s.evictions, evictions);
        assert_eq!(s.misses, s.fills);
        assert_eq!(cache.len(), model.iter().map(Vec::len).sum::<usize>());
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
