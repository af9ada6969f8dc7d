//! Randomized cache-simulator invariants, over traces drawn from the
//! workspace's seeded generator.

use com_cache::{CacheConfig, Rng, SetAssocCache};

const CASES: u32 = 256;

/// A trace of 1 to `max_len` keys drawn from `0..keys`.
fn trace(rng: &mut Rng, keys: u64, max_len: u64) -> Vec<u64> {
    (0..1 + rng.below(max_len))
        .map(|_| rng.below(keys))
        .collect()
}

fn misses(entries: usize, ways: usize, trace: &[u64]) -> u64 {
    let mut c: SetAssocCache<u64, ()> =
        SetAssocCache::new(CacheConfig::new(entries, ways).unwrap());
    for &k in trace {
        if c.lookup(k, k).is_none() {
            c.fill(k, k, ());
        }
    }
    c.stats().misses
}

/// LRU inclusion: with the number of sets fixed, adding ways never
/// increases misses on any trace (the classic stack property applied per
/// set).
#[test]
fn lru_ways_monotone() {
    let mut rng = Rng::new(1);
    for _ in 0..CASES {
        let trace = trace(&mut rng, 64, 600);
        let sets = 4;
        let m1 = misses(sets, 1, &trace);
        let m2 = misses(sets * 2, 2, &trace);
        let m4 = misses(sets * 4, 4, &trace);
        assert!(m2 <= m1, "2-way missed more than 1-way: {m2} > {m1}");
        assert!(m4 <= m2, "4-way missed more than 2-way: {m4} > {m2}");
    }
}

/// A fully associative LRU cache of N entries cycling over exactly N keys
/// takes only the compulsory misses.
#[test]
fn fully_assoc_working_set() {
    for n in 1..16u64 {
        for reps in 1..8u64 {
            let mut c: SetAssocCache<u64, ()> =
                SetAssocCache::new(CacheConfig::fully_associative(n as usize).unwrap());
            for _ in 0..=reps {
                for k in 0..n {
                    if c.lookup(k, k).is_none() {
                        c.fill(k, k, ());
                    }
                }
            }
            let s = c.stats();
            assert_eq!(s.misses, n, "only compulsory misses expected");
            assert_eq!(s.hits, reps * n);
        }
    }
}

/// Over arbitrary geometries and traces, with a scrambled set hash: every
/// lookup counts as exactly one hit or miss, occupancy never exceeds
/// capacity, resident plus evicted lines equal fills (conservation), only
/// filled keys hit, and a hit always returns the value filled for its key.
#[test]
fn occupancy_bounded() {
    let mut rng = Rng::new(2);
    for _ in 0..CASES {
        let ways = 1usize << rng.below(3);
        let entries = (1usize << (1 + rng.below(5))) * ways;
        let trace = trace(&mut rng, 256, 400);
        let mut c: SetAssocCache<u64, u64> =
            SetAssocCache::new(CacheConfig::new(entries, ways).unwrap());
        let hash = |k: u64| k.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 7;
        for &k in &trace {
            match c.lookup(hash(k), k) {
                Some(v) => assert_eq!(v, k * 31),
                None => c.fill(hash(k), k, k * 31),
            }
        }
        let s = c.stats();
        assert_eq!(s.accesses(), trace.len() as u64);
        assert!(c.len() <= entries);
        assert_eq!(c.len() as u64 + s.evictions, s.fills);
        for k in 0..256 {
            if c.lookup(hash(k), k).is_some() {
                assert!(trace.contains(&k));
            }
        }
    }
}
