//! Property-based tests for cache-simulator invariants.

use com_cache::{CacheConfig, SetAssocCache};
use proptest::prelude::*;

fn run_trace(entries: usize, ways: usize, trace: &[u64]) -> (u64, u64) {
    let mut c: SetAssocCache<u64, ()> =
        SetAssocCache::with_indexer(CacheConfig::new(entries, ways).unwrap(), |k| *k);
    for &k in trace {
        if c.lookup(&k).is_none() {
            c.fill(k, ());
        }
    }
    (c.stats().hits, c.stats().misses)
}

proptest! {
    /// LRU inclusion: with the number of sets fixed, adding ways never
    /// increases misses on any trace (the classic stack property applied
    /// per set).
    #[test]
    fn lru_ways_monotone(trace in prop::collection::vec(0u64..64, 1..600)) {
        let sets = 4;
        let (_, m1) = run_trace(sets, 1, &trace);
        let (_, m2) = run_trace(sets * 2, 2, &trace);
        let (_, m4) = run_trace(sets * 4, 4, &trace);
        prop_assert!(m2 <= m1, "2-way missed more than 1-way: {m2} > {m1}");
        prop_assert!(m4 <= m2, "4-way missed more than 2-way: {m4} > {m2}");
    }

    /// A fully associative LRU cache of N entries never misses on a key
    /// that is among the N most recently used distinct keys.
    #[test]
    fn fully_assoc_working_set(n in 1usize..16, reps in 1usize..8) {
        let mut c: SetAssocCache<u64, ()> =
            SetAssocCache::new(CacheConfig::fully_associative(n).unwrap());
        // Cycle over exactly n keys: after the first pass, every access hits.
        for _ in 0..=reps {
            for k in 0..n as u64 {
                if c.lookup(&k).is_none() {
                    c.fill(k, ());
                }
            }
        }
        let s = c.stats();
        prop_assert_eq!(s.misses, n as u64, "only compulsory misses expected");
        prop_assert_eq!(s.hits, ((reps + 1) * n) as u64 - n as u64);
    }

    /// Occupancy never exceeds capacity, and every filled key is either
    /// resident or was evicted (conservation).
    #[test]
    fn occupancy_bounded(
        entries_pow in 1u32..6,
        ways_pow in 0u32..3,
        trace in prop::collection::vec(0u64..256, 1..400),
    ) {
        let ways = 1usize << ways_pow;
        let entries = (1usize << entries_pow) * ways;
        let mut c: SetAssocCache<u64, ()> =
            SetAssocCache::new(CacheConfig::new(entries, ways).unwrap());
        let mut evicted = 0u64;
        let mut filled = std::collections::HashSet::new();
        for &k in &trace {
            if c.lookup(&k).is_none() && c.fill(k, ()).is_some() {
                evicted += 1;
            }
            filled.insert(k);
        }
        prop_assert!(c.len() <= entries);
        prop_assert_eq!(c.len() as u64 + evicted, c.stats().fills - duplicate_fills(&c));
        // every resident key was filled at some point
        for (k, _) in c.iter() {
            prop_assert!(filled.contains(k));
        }
    }

    /// Stats identities: accesses = hits + misses; hit_ratio ∈ [0, 1].
    #[test]
    fn stats_identities(trace in prop::collection::vec(0u64..32, 1..200)) {
        let mut c: SetAssocCache<u64, ()> =
            SetAssocCache::new(CacheConfig::new(8, 2).unwrap());
        for &k in &trace {
            if c.lookup(&k).is_none() {
                c.fill(k, ());
            }
        }
        let s = c.stats();
        prop_assert_eq!(s.accesses(), trace.len() as u64);
        let r = s.hit_ratio().unwrap();
        prop_assert!((0.0..=1.0).contains(&r));
    }

    /// LRU replacement keeps the cache consistent (resident keys always
    /// return their own value).
    #[test]
    fn value_integrity(trace in prop::collection::vec(0u64..64, 1..300)) {
        let mut c: SetAssocCache<u64, u64> =
            SetAssocCache::new(CacheConfig::new(16, 4).unwrap());
        for &k in &trace {
            match c.lookup(&k) {
                Some(v) => prop_assert_eq!(*v, k * 31),
                None => {
                    c.fill(k, k * 31);
                }
            }
        }
    }
}

/// In these traces we never refill a resident key, so duplicate fills are 0;
/// kept as a named helper to make the conservation identity readable.
fn duplicate_fills<V>(_c: &SetAssocCache<u64, V>) -> u64 {
    0
}
