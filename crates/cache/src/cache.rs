//! The set-associative cache.

use crate::{CacheConfig, CacheStats};

/// A set-associative cache from tags to values, with per-set LRU
/// replacement and hit/miss accounting.
///
/// Each set keeps its valid lines in recency order, most recently used
/// first, with a count of them: a hit moves its line to the front, a fill
/// puts the new line there, and in a full set the last line, the least
/// recently used, is the one that drops out. The order is all LRU needs,
/// so a line holds only its tag and value. A probe compares the valid
/// ways of one set in place, as the hardware's comparators would. The
/// caller picks the set: every probe passes a `hash` of its key, which
/// the cache reduces modulo the set count (a mask when the count is a
/// power of two). So each structure keeps its own indexing — the
/// instruction cache the address itself, the ITLB a multiplicative hash
/// of its packed key, the ATLB the [`FxHasher`](crate::FxHasher) of its
/// key, the Figure 10/11 replays SipHash — and all of them share one
/// probe, one fill order and one LRU choice.
///
/// Validity is the count, not a reserved tag, so every bit pattern of `T`
/// is a usable tag. This is a *simulation* structure: a miss returns
/// `None`, the caller performs the authoritative lookup (method
/// dictionaries, segment tables…) and then [`fill`](Self::fill)s.
#[derive(Debug, Clone)]
pub struct SetAssocCache<T, V> {
    sets: usize,
    /// `sets - 1` when the set count is a power of two (one AND), else 0
    /// (fall back to the modulo).
    mask: u64,
    ways: usize,
    /// Set `s` owns the `ways` lines from `s * ways`; the first
    /// `valid[s]` of them are resident, most recently used first.
    lines: Vec<(T, V)>,
    /// Each set's count of resident lines.
    valid: Vec<u32>,
    stats: CacheStats,
}

impl<T: Copy + Eq + Default, V: Copy + Default> SetAssocCache<T, V> {
    /// Creates an empty cache with the given geometry.
    pub fn new(config: CacheConfig) -> Self {
        let sets = config.sets();
        SetAssocCache {
            sets,
            mask: if sets.is_power_of_two() {
                sets as u64 - 1
            } else {
                0
            },
            ways: config.ways(),
            lines: vec![(T::default(), V::default()); config.entries()],
            valid: vec![0; sets],
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
        self.valid.iter().map(|&n| n as usize).sum()
    }

    /// Whether no lines are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The set `hash` selects.
    #[inline]
    fn set_of(&self, hash: u64) -> usize {
        if self.mask != 0 {
            (hash & self.mask) as usize
        } else {
            (hash % self.sets as u64) as usize
        }
    }

    /// Looks `tag` up in the set `hash` selects, recording a hit or miss
    /// and making a hit the most recently used line of its set.
    #[inline]
    pub fn lookup(&mut self, hash: u64, tag: T) -> Option<V> {
        let set = self.set_of(hash);
        let (base, valid) = (set * self.ways, self.valid[set] as usize);
        let ways = &mut self.lines[base..base + valid];
        match ways.iter().position(|&(t, _)| t == tag) {
            Some(way) => {
                let value = ways[way].1;
                to_front(ways, way);
                self.stats.hits += 1;
                Some(value)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Installs `tag → value` as the most recently used line of the set
    /// `hash` selects. A resident `tag` is refilled; otherwise the new
    /// line takes a free way, and in a full set it takes the least
    /// recently used line's, evicting it.
    pub fn fill(&mut self, hash: u64, tag: T, value: V) {
        self.stats.fills += 1;
        let set = self.set_of(hash);
        let (base, valid) = (set * self.ways, self.valid[set] as usize);
        let ways = &mut self.lines[base..base + self.ways];
        let way = match ways[..valid].iter().position(|&(t, _)| t == tag) {
            Some(way) => way,
            None if valid == ways.len() => {
                self.stats.evictions += 1;
                valid - 1
            }
            None => {
                self.valid[set] += 1;
                valid
            }
        };
        ways[way] = (tag, value);
        to_front(ways, way);
    }

    /// Removes `tag` from the set `hash` selects, if resident. The lines
    /// behind it move up one, keeping their order.
    pub fn invalidate(&mut self, hash: u64, tag: T) {
        let set = self.set_of(hash);
        let (base, valid) = (set * self.ways, self.valid[set] as usize);
        let ways = &mut self.lines[base..base + valid];
        if let Some(way) = ways.iter().position(|&(t, _)| t == tag) {
            ways[way..].rotate_left(1);
            self.valid[set] -= 1;
            self.stats.invalidations += 1;
        }
    }

    /// Drops all contents (statistics are kept; pair with
    /// [`reset_stats`](Self::reset_stats) for a full reset).
    pub fn clear(&mut self) {
        self.valid.fill(0);
    }
}

/// Moves the line at `way` to the front of `ways`, the lines before it
/// each moving back one. A line already in front stays where it is, and a
/// 2-way set's second line swaps with its first, in line: only a set of
/// more ways goes through the general rotation.
#[inline]
fn to_front<L>(ways: &mut [L], way: usize) {
    match way {
        0 => {}
        1 => ways.swap(0, 1),
        _ => ways[..=way].rotate_right(1),
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
        // Empty lines are marked by their set's count, not a reserved tag: the
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

    /// An independent LRU model: per set, the resident `(tag, value)`
    /// lines in recency order, most recent last, and the counters each
    /// operation should move.
    struct RecencyModel {
        sets: Vec<Vec<(u64, u64)>>,
        ways: usize,
        stats: CacheStats,
    }

    impl RecencyModel {
        fn new(sets: usize, ways: usize) -> Self {
            RecencyModel {
                sets: vec![Vec::new(); sets],
                ways,
                stats: CacheStats::default(),
            }
        }

        fn set(&mut self, hash: u64) -> &mut Vec<(u64, u64)> {
            let n = self.sets.len() as u64;
            &mut self.sets[(hash % n) as usize]
        }

        /// Takes `tag`'s line out of its set, if resident.
        fn take(&mut self, hash: u64, tag: u64) -> Option<(u64, u64)> {
            let set = self.set(hash);
            set.iter()
                .position(|&(t, _)| t == tag)
                .map(|at| set.remove(at))
        }

        fn lookup(&mut self, hash: u64, tag: u64) -> Option<u64> {
            let hit = self.take(hash, tag);
            match hit {
                Some(line) => {
                    self.stats.hits += 1;
                    self.set(hash).push(line);
                }
                None => self.stats.misses += 1,
            }
            hit.map(|(_, v)| v)
        }

        fn fill(&mut self, hash: u64, tag: u64, value: u64) {
            self.stats.fills += 1;
            if self.take(hash, tag).is_none() && self.set(hash).len() == self.ways {
                self.set(hash).remove(0);
                self.stats.evictions += 1;
            }
            self.set(hash).push((tag, value));
        }

        fn invalidate(&mut self, hash: u64, tag: u64) {
            if self.take(hash, tag).is_some() {
                self.stats.invalidations += 1;
            }
        }

        fn len(&self) -> usize {
            self.sets.iter().map(Vec::len).sum()
        }
    }

    #[test]
    fn matches_recency_list_model_access_for_access() {
        // On a stream of every operation, with reuse and conflicts, the
        // cache and the model must agree after each step on the value
        // returned, the resident count and all five counters: over 1-, 2-
        // and 4-way sets, a set count that is not a power of two (the
        // modulo path) and one fully associative set.
        for (sets, ways) in [(8, 1), (8, 2), (4, 4), (6, 2), (1, 8)] {
            let mut cache: SetAssocCache<u64, u64> = SetAssocCache::new(cfg(sets * ways, ways));
            let mut model = RecencyModel::new(sets, ways);
            let mut rng = Rng::new(12345 + (sets * ways) as u64);
            // Scrambled, so the set index comes from the hash's high bits
            // as well as its low ones.
            let hash = |tag: u64| tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            for i in 0..20_000u64 {
                let tag = if i % 3 == 0 { i % 24 } else { rng.below(64) };
                let (h, value) = (hash(tag), rng.next_u64());
                match rng.below(1000) {
                    // The replay loop: look up, fill on a miss.
                    0..=649 => {
                        let got = cache.lookup(h, tag);
                        assert_eq!(got, model.lookup(h, tag), "{sets}x{ways}, step {i}");
                        if got.is_none() {
                            cache.fill(h, tag, value);
                            model.fill(h, tag, value);
                        }
                    }
                    // A fill whatever is resident, half the time a refill
                    // of a line the model holds in that set.
                    650..=849 => {
                        let set = model.set(h);
                        let tag = if !set.is_empty() && rng.below(2) == 0 {
                            set[rng.below(set.len() as u64) as usize].0
                        } else {
                            tag
                        };
                        cache.fill(hash(tag), tag, value);
                        model.fill(hash(tag), tag, value);
                    }
                    850..=989 => {
                        cache.invalidate(h, tag);
                        model.invalidate(h, tag);
                    }
                    990..=994 => {
                        cache.reset_stats();
                        model.stats = CacheStats::default();
                    }
                    _ => {
                        cache.clear();
                        model.sets.iter_mut().for_each(Vec::clear);
                    }
                }
                assert_eq!(cache.stats(), model.stats, "{sets}x{ways}, step {i}");
                assert_eq!(cache.len(), model.len(), "{sets}x{ways}, step {i}");
                assert_eq!(
                    cache.is_empty(),
                    model.len() == 0,
                    "{sets}x{ways}, step {i}"
                );
            }
        }
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
