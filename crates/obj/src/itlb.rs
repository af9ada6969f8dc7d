//! The instruction translation lookaside buffer (§2.1).
//!
//! "Abstract instruction decoding, although slow in software can be
//! mitigated by the use of an associative mechanism in the instruction
//! translation step which bears remarkable similarity to virtual address
//! translation. This is an instruction translation lookaside buffer (ITLB),
//! in which an opcode and the set of operand object datatypes are associated
//! to a method."
//!
//! The first level is a fixed-size probe array — the direct-mapped /
//! set-associative RAM the hardware actually describes: the key is packed
//! into one word, a multiplicative hash selects the set, and the ways of
//! that set are probed in place, replacing the least recently used line.
//! No per-lookup heap hashing is involved, which matters because *every*
//! COM instruction translates through this structure.

use com_cache::{CacheConfig, CacheError, CacheStats, SetAssocCache};
use com_isa::Opcode;
use com_mem::ClassId;

use crate::{DefinedMethod, Translation};

/// The associative key: "an opcode and a set of operand classes" (§2.1).
///
/// The two slots carry the classes of the source operands (receiver first);
/// absent operands use [`ClassId::NONE`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ItlbKey {
    /// The abstract opcode (message selector).
    pub opcode: Opcode,
    /// Classes of the source operands, receiver first.
    pub classes: [ClassId; 2],
}

impl ItlbKey {
    /// Builds a key for a receiver-only send.
    pub fn unary(opcode: Opcode, receiver: ClassId) -> Self {
        ItlbKey {
            opcode,
            classes: [receiver, ClassId::NONE],
        }
    }

    /// Builds a key for a receiver + argument send.
    pub fn binary(opcode: Opcode, receiver: ClassId, arg: ClassId) -> Self {
        ItlbKey {
            opcode,
            classes: [receiver, arg],
        }
    }

    /// Packs the key into one tag word: opcode in bits 0..16, receiver
    /// class in 16..32, argument class in 32..48. The packing is injective,
    /// so tag equality is key equality.
    fn pack(self) -> u64 {
        self.opcode.0 as u64 | (self.classes[0].0 as u64) << 16 | (self.classes[1].0 as u64) << 32
    }

    /// Inverse of [`pack`](Self::pack).
    fn unpack(tag: u64) -> Self {
        ItlbKey {
            opcode: Opcode(tag as u16),
            classes: [ClassId((tag >> 16) as u16), ClassId((tag >> 32) as u16)],
        }
    }
}

impl core::fmt::Display for ItlbKey {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "({} {} {})",
            self.opcode, self.classes[0], self.classes[1]
        )
    }
}

/// Geometry of the ITLB, optionally with a second level.
///
/// §5: "If this hit ratio is insufficient, a larger second level ITLB can be
/// implemented in main memory and accessed by miss processing hardware. Only
/// a miss in both caches would result in a trap."
#[derive(Debug, Clone, Copy)]
pub struct ItlbConfig {
    /// First-level geometry.
    pub l1: CacheConfig,
    /// Optional second-level geometry (in main memory; slower but larger).
    pub l2: Option<CacheConfig>,
}

impl ItlbConfig {
    /// The paper's recommended first level: 512 entries, 2-way ("a 99% hit
    /// ratio can be realized with a 512 entry 2-way associative cache").
    ///
    /// # Errors
    ///
    /// Never fails for the built-in geometry; the `Result` mirrors
    /// [`CacheConfig::new`] so callers can build variants uniformly.
    pub fn paper_default() -> Result<Self, CacheError> {
        Ok(ItlbConfig {
            l1: CacheConfig::new(512, 2)?,
            l2: None,
        })
    }

    /// Adds a second level of `entries` × `ways`.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::BadGeometry`] for inconsistent geometry.
    pub fn with_l2(mut self, entries: usize, ways: usize) -> Result<Self, CacheError> {
        self.l2 = Some(CacheConfig::new(entries, ways)?);
        Ok(self)
    }
}

/// Where an ITLB lookup was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ItlbHit {
    /// Found in the first level.
    L1,
    /// Found in the second level (promoted to L1).
    L2,
    /// Missed everywhere: full method lookup required.
    Miss,
}

/// The fixed-size probe array backing the first level: `sets × ways` lines
/// indexed by a multiplicative hash of the packed key. `ways == 1` is the
/// direct-mapped case; larger `ways` probe the set's lines linearly,
/// exactly as the hardware comparators would.
///
/// The lines are stored as three parallel arrays: a probe scans the set's
/// contiguous tags and, on a hit, reads one 8-byte [`Translation`] and
/// writes one recency stamp. A line costs 24 bytes.
#[derive(Debug)]
struct ProbeArray {
    sets: usize,
    /// `sets - 1` when the set count is a power of two (single AND), else 0
    /// (fall back to modulo).
    mask: u64,
    ways: usize,
    /// Packed key per line, or [`EMPTY`](Self::EMPTY) for an invalid line.
    tags: Vec<u64>,
    /// Clock value at each line's last use (LRU).
    stamps: Vec<u64>,
    /// Each line's method field.
    targets: Vec<Translation>,
    clock: u64,
    stats: CacheStats,
}

impl ProbeArray {
    /// The tag of an invalid line. [`ItlbKey::pack`] fills only the low 48
    /// bits, so no key packs to it.
    const EMPTY: u64 = u64::MAX;

    fn new(config: CacheConfig) -> Self {
        let sets = config.sets();
        let ways = config.ways();
        let lines = sets * ways;
        ProbeArray {
            sets,
            mask: if sets.is_power_of_two() {
                sets as u64 - 1
            } else {
                0
            },
            ways,
            tags: vec![Self::EMPTY; lines],
            stamps: vec![0; lines],
            targets: vec![Translation::Code(DefinedMethod::UNRESOLVED); lines],
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    #[inline]
    fn set_base(&self, tag: u64) -> usize {
        // Fibonacci hashing: one multiply, top bits mod the set count.
        let h = tag.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
        let set = if self.mask != 0 {
            (h & self.mask) as usize
        } else {
            h as usize % self.sets
        };
        set * self.ways
    }

    /// The line of the set starting at `base` whose tag is `tag`.
    #[inline]
    fn find(&self, base: usize, tag: u64) -> Option<usize> {
        self.tags[base..base + self.ways]
            .iter()
            .position(|&t| t == tag)
            .map(|way| base + way)
    }

    #[inline]
    fn lookup(&mut self, key: ItlbKey) -> Option<Translation> {
        self.clock += 1;
        let tag = key.pack();
        match self.find(self.set_base(tag), tag) {
            Some(line) => {
                self.stamps[line] = self.clock;
                self.stats.hits += 1;
                Some(self.targets[line])
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    fn fill(&mut self, key: ItlbKey, value: Translation) -> Option<(ItlbKey, Translation)> {
        self.clock += 1;
        self.stats.fills += 1;
        let tag = key.pack();
        let base = self.set_base(tag);
        // Refill in place, else take the first invalid way, else evict the
        // least recently used line.
        let (line, evicted) = match self.find(base, tag) {
            Some(line) => (line, None),
            None => match self.find(base, Self::EMPTY) {
                Some(line) => (line, None),
                None => {
                    let line = (base..base + self.ways)
                        .min_by_key(|&l| self.stamps[l])
                        .expect("sets are nonempty");
                    self.stats.evictions += 1;
                    let old = (ItlbKey::unpack(self.tags[line]), self.targets[line]);
                    (line, Some(old))
                }
            },
        };
        self.tags[line] = tag;
        self.stamps[line] = self.clock;
        self.targets[line] = value;
        evicted
    }

    fn clear(&mut self) {
        self.tags.fill(Self::EMPTY);
    }

    /// Resident line count (diagnostics).
    fn len(&self) -> usize {
        self.tags.iter().filter(|&&t| t != Self::EMPTY).count()
    }
}

/// The ITLB: a (possibly two-level) cache from [`ItlbKey`] to the one-word
/// [`Translation`] of a method. [`fill`](Self::fill) takes a
/// [`MethodRef`](crate::MethodRef) (or a translation) and keeps only its
/// translation.
///
/// ```
/// use com_cache::CacheConfig;
/// use com_isa::{Opcode, PrimOp};
/// use com_mem::ClassId;
/// use com_obj::{Itlb, ItlbConfig, ItlbKey, MethodRef, Translation};
///
/// # fn main() -> Result<(), com_cache::CacheError> {
/// let mut itlb = Itlb::new(ItlbConfig::paper_default()?);
/// let key = ItlbKey::binary(Opcode::ADD, ClassId::SMALL_INT, ClassId::SMALL_INT);
/// assert!(itlb.lookup(key).is_none());
/// itlb.fill(key, MethodRef::Primitive(PrimOp::Add));
/// assert_eq!(itlb.lookup(key), Some(Translation::Primitive(PrimOp::Add)));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Itlb {
    l1: ProbeArray,
    l2: Option<SetAssocCache<ItlbKey, Translation>>,
    last_hit: ItlbHit,
}

impl Itlb {
    /// Creates an ITLB with the given geometry.
    pub fn new(config: ItlbConfig) -> Self {
        Itlb {
            l1: ProbeArray::new(config.l1),
            l2: config.l2.map(SetAssocCache::new),
            last_hit: ItlbHit::Miss,
        }
    }

    /// Looks up a key; L2 hits are promoted into L1 (victims demoted).
    #[inline]
    pub fn lookup(&mut self, key: ItlbKey) -> Option<Translation> {
        if let Some(m) = self.l1.lookup(key) {
            self.last_hit = ItlbHit::L1;
            return Some(m);
        }
        if let Some(l2) = &mut self.l2 {
            if let Some(m) = l2.lookup(&key).copied() {
                self.last_hit = ItlbHit::L2;
                if let Some((vk, vv)) = self.l1.fill(key, m) {
                    l2.fill(vk, vv);
                }
                return Some(m);
            }
        }
        self.last_hit = ItlbHit::Miss;
        None
    }

    /// Where the most recent lookup hit.
    pub fn last_hit(&self) -> ItlbHit {
        self.last_hit
    }

    /// Installs a resolution after a miss; L1 victims demote to L2. A
    /// defined method must be resolved to a slab slot first (see
    /// [`Translation`]).
    pub fn fill(&mut self, key: ItlbKey, method: impl Into<Translation>) {
        let method = method.into();
        if let Some((vk, vv)) = self.l1.fill(key, method) {
            if let Some(l2) = &mut self.l2 {
                l2.fill(vk, vv);
            }
        }
        if let Some(l2) = &mut self.l2 {
            l2.fill(key, method);
        }
    }

    /// Invalidates every cached resolution (required when a method is
    /// redefined — "no object code need ever be modified", §2.1, but stale
    /// translations must go).
    pub fn flush(&mut self) {
        self.l1.clear();
        if let Some(l2) = &mut self.l2 {
            l2.clear();
        }
    }

    /// Number of resolutions resident in the first level.
    pub fn l1_len(&self) -> usize {
        self.l1.len()
    }

    /// First-level statistics.
    pub fn l1_stats(&self) -> CacheStats {
        self.l1.stats
    }

    /// Second-level statistics, if a second level exists.
    pub fn l2_stats(&self) -> Option<CacheStats> {
        self.l2.as_ref().map(|c| c.stats())
    }

    /// Resets statistics on both levels (warmup boundary, §5).
    pub fn reset_stats(&mut self) {
        self.l1.stats = CacheStats::default();
        if let Some(l2) = &mut self.l2 {
            l2.reset_stats();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MethodRef;
    use com_isa::PrimOp;

    fn key(op: u16, r: u16) -> ItlbKey {
        ItlbKey::binary(Opcode(op), ClassId(r), ClassId::SMALL_INT)
    }

    fn add() -> MethodRef {
        MethodRef::Primitive(PrimOp::Add)
    }

    fn paper_itlb() -> Itlb {
        Itlb::new(ItlbConfig::paper_default().unwrap())
    }

    #[test]
    fn fill_then_hit() {
        let mut itlb = paper_itlb();
        assert_eq!(itlb.lookup(key(1, 1)), None);
        assert_eq!(itlb.last_hit(), ItlbHit::Miss);
        itlb.fill(key(1, 1), add());
        assert_eq!(
            itlb.lookup(key(1, 1)),
            Some(Translation::Primitive(PrimOp::Add))
        );
        assert_eq!(itlb.last_hit(), ItlbHit::L1);
        assert_eq!(itlb.l1_stats().hits, 1);
    }

    #[test]
    fn defined_methods_translate_to_their_slab_slot() {
        let mut itlb = paper_itlb();
        let code = com_fpa::Fpa::from_raw(0x40, com_fpa::FpaFormat::COM).unwrap();
        let m = MethodRef::Defined(DefinedMethod::new(code, 2).resolved(5));
        itlb.fill(key(1, 1), m);
        assert_eq!(itlb.lookup(key(1, 1)), Some(Translation::Code(5)));
        itlb.fill(key(1, 1), Translation::Code(6));
        assert_eq!(itlb.lookup(key(1, 1)), Some(Translation::Code(6)));
    }

    #[test]
    fn key_packing_is_injective() {
        let keys = [
            key(1, 1),
            key(1, 2),
            key(2, 1),
            ItlbKey::unary(Opcode(1), ClassId(1)),
            ItlbKey::unary(Opcode(0x3FF), ClassId(0xFFFF)),
        ];
        for a in keys {
            assert_eq!(ItlbKey::unpack(a.pack()), a);
            for b in keys {
                assert_eq!(a.pack() == b.pack(), a == b);
            }
        }
    }

    #[test]
    fn distinct_class_signatures_are_distinct_entries() {
        let mut itlb = paper_itlb();
        itlb.fill(key(1, 1), add());
        assert_eq!(itlb.lookup(key(1, 2)), None, "different receiver class");
        assert_eq!(
            itlb.lookup(ItlbKey::unary(Opcode(1), ClassId(1))),
            None,
            "different arity signature"
        );
    }

    #[test]
    fn l2_promotes_on_hit() {
        let cfg = ItlbConfig {
            l1: CacheConfig::new(2, 2).unwrap(),
            l2: Some(CacheConfig::new(64, 2).unwrap()),
        };
        let mut itlb = Itlb::new(cfg);
        // Fill three keys: one must be evicted from the tiny L1 into L2.
        for i in 0..3 {
            itlb.fill(key(i, 1), add());
        }
        let mut l2_hits = 0;
        for i in 0..3 {
            match itlb.lookup(key(i, 1)) {
                Some(_) => {
                    if itlb.last_hit() == ItlbHit::L2 {
                        l2_hits += 1;
                    }
                }
                None => panic!("entry {i} lost from both levels"),
            }
        }
        assert!(l2_hits >= 1, "expected at least one L2 promotion");
    }

    #[test]
    fn flush_clears_everything() {
        let mut itlb = paper_itlb();
        itlb.fill(key(1, 1), add());
        itlb.flush();
        assert_eq!(itlb.lookup(key(1, 1)), None);
        assert_eq!(itlb.l1_len(), 0);
    }
}
