//! Instruction traces and cache replay (§5 of the paper).
//!
//! "Traces of large Fith programs were produced by instrumenting the Fith
//! interpreter … to record for each instruction interpreted: the address of
//! the instruction, the opcode, and the type of object on the top of the
//! stack. … For each trace, the instruction cache hit ratio and ITLB hit
//! ratio was recorded for several cache sizes and associativities. A warmup
//! trace was run before the measurement trace to avoid biasing the results."
//!
//! This crate holds the trace record type, the warmup/measure replay, and
//! the sweep helpers the Figure 10/11 harnesses use.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::hash::{DefaultHasher, Hash, Hasher};

use com_cache::{CacheConfig, CacheError, CacheStats, SetAssocCache};
use com_mem::ClassId;

/// One traced instruction: exactly the three fields the paper records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceEvent {
    /// The instruction's address.
    pub addr: u64,
    /// The opcode executed.
    pub opcode: u16,
    /// The class of the object on top of the stack (the receiver-side
    /// datatype the ITLB keys on).
    pub tos_class: ClassId,
}

/// An instruction trace.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    events: Vec<TraceEvent>,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Trace::default()
    }

    /// Appends an event.
    pub fn record(&mut self, ev: TraceEvent) {
        self.events.push(ev);
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The events.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Concatenates another trace onto this one.
    pub fn extend(&mut self, other: &Trace) {
        self.events.extend_from_slice(&other.events);
    }
}

impl FromIterator<TraceEvent> for Trace {
    fn from_iter<T: IntoIterator<Item = TraceEvent>>(iter: T) -> Self {
        Trace {
            events: iter.into_iter().collect(),
        }
    }
}

/// Replays `keys` — each with the hash that selects its set — through
/// `cache`, treating the first `warmup` accesses as warmup (counters
/// reset at the boundary, §5).
///
/// Returns the measurement-phase statistics.
pub fn replay_keys<K, I>(mut cache: SetAssocCache<K, ()>, keys: I, warmup: usize) -> CacheStats
where
    K: Copy + Eq + Default,
    I: IntoIterator<Item = (u64, K)>,
{
    for (i, (hash, k)) in keys.into_iter().enumerate() {
        if i == warmup {
            cache.reset_stats();
        }
        if cache.lookup(hash, k).is_none() {
            cache.fill(hash, k, ());
        }
    }
    cache.stats()
}

/// One row of a Figure-10/11-style sweep: cache size, per-associativity hit
/// ratios.
#[derive(Debug, Clone)]
pub struct SweepRow {
    /// Total cache entries.
    pub entries: usize,
    /// `(ways, hit_ratio)` pairs.
    pub ratios: Vec<(usize, Option<f64>)>,
}

/// Sweeps cache sizes × associativities over a trace with the given key
/// extraction, reproducing the §5 methodology.
///
/// Every cache picks a key's set by its SipHash, whatever the key: Fith's
/// trace addresses are synthetic (`method_idx << 20 | pc`), so their low
/// bits would crowd a few sets, where the COM machine's own icache indexes
/// by real low address bits.
///
/// # Errors
///
/// Propagates [`CacheError`] when `ways` does not divide a size.
pub fn sweep<K: Hash + Eq + Copy + Default>(
    trace: &Trace,
    sizes: &[usize],
    ways_list: &[usize],
    warmup_fraction: f64,
    key: impl Fn(&TraceEvent) -> K,
) -> Result<Vec<SweepRow>, CacheError> {
    let warmup = (trace.len() as f64 * warmup_fraction) as usize;
    // Hash each key once, not once per key and geometry.
    let keys: Vec<(u64, K)> = trace
        .events()
        .iter()
        .map(|e| {
            let k = key(e);
            let mut h = DefaultHasher::new();
            k.hash(&mut h);
            (h.finish(), k)
        })
        .collect();
    let mut rows = Vec::new();
    for &entries in sizes {
        let mut ratios = Vec::new();
        for &ways in ways_list {
            if entries % ways != 0 || ways > entries {
                ratios.push((ways, None));
                continue;
            }
            let cache = SetAssocCache::new(CacheConfig::new(entries, ways)?);
            let stats = replay_keys(cache, keys.iter().copied(), warmup);
            ratios.push((ways, stats.hit_ratio()));
        }
        rows.push(SweepRow { entries, ratios });
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(addr: u64, opcode: u16, class: u16) -> TraceEvent {
        TraceEvent {
            addr,
            opcode,
            tos_class: ClassId(class),
        }
    }

    #[test]
    fn replay_counts_only_after_warmup() {
        // 4 distinct keys repeated: with warmup covering the first pass,
        // measurement sees only hits.
        let keys = (0..4).chain(0..4).chain(0..4).map(|k: u64| (k, k));
        let cfg = CacheConfig::new(8, 2).unwrap();
        let stats = replay_keys(SetAssocCache::new(cfg), keys, 4);
        assert_eq!(stats.misses, 0);
        assert_eq!(stats.hits, 8);
    }

    #[test]
    fn itlb_ratio_improves_with_size() {
        // 64 distinct (opcode, class) pairs cycled repeatedly.
        let mut t = Trace::new();
        for rep in 0..50 {
            for i in 0..64u16 {
                t.record(ev(rep * 64 + i as u64, i, i % 8));
            }
        }
        // Cyclic reuse is LRU's adversarial case: sets holding more keys
        // than ways thrash. Capacity must still help monotonically, over-
        // provisioned caches must do well, and a fully associative cache
        // with capacity >= working set must be perfect after warmup.
        let itlb = |entries, ways| {
            sweep(&t, &[entries], &[ways], 0.2, |e| (e.opcode, e.tos_class)).unwrap()[0].ratios[0]
                .1
                .unwrap()
        };
        let small = itlb(8, 2);
        let large = itlb(512, 2);
        let full = itlb(64, 64);
        assert!(large > small, "large {large} <= small {small}");
        assert!(large > 0.90, "8x headroom absorbs hash collisions: {large}");
        assert!(
            (full - 1.0).abs() < 1e-12,
            "fully associative 64 holds all 64 keys: {full}"
        );
    }

    #[test]
    fn icache_keys_on_addresses() {
        let mut t = Trace::new();
        // A tight loop: 16 addresses repeated.
        for _ in 0..100 {
            for a in 0..16u64 {
                t.record(ev(a, 0, 1));
            }
        }
        let r = sweep(&t, &[64], &[2], 0.1, |e| e.addr).unwrap()[0].ratios[0]
            .1
            .unwrap();
        assert!(r > 0.99);
    }

    #[test]
    fn sweep_produces_monotone_rows() {
        let mut t = Trace::new();
        for rep in 0..20 {
            for i in 0..32u16 {
                t.record(ev(i as u64 * 7 + rep, i, i % 4));
            }
        }
        let rows = sweep(&t, &[8, 32, 128], &[1, 2], 0.2, |e| (e.opcode, e.tos_class)).unwrap();
        assert_eq!(rows.len(), 3);
        let r8 = rows[0].ratios[1].1.unwrap();
        let r128 = rows[2].ratios[1].1.unwrap();
        assert!(r128 >= r8);
    }

    #[test]
    fn trace_collects_and_extends() {
        let mut a: Trace = (0..5).map(|i| ev(i, 0, 0)).collect();
        let b: Trace = (5..8).map(|i| ev(i, 0, 0)).collect();
        a.extend(&b);
        assert_eq!(a.len(), 8);
        assert!(!a.is_empty());
    }
}
