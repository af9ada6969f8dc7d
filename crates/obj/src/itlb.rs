//! The instruction translation lookaside buffer (§2.1).
//!
//! "Abstract instruction decoding, although slow in software can be
//! mitigated by the use of an associative mechanism in the instruction
//! translation step which bears remarkable similarity to virtual address
//! translation. This is an instruction translation lookaside buffer (ITLB),
//! in which an opcode and the set of operand object datatypes are associated
//! to a method."
//!
//! The buffer is a [`SetAssocCache`] — the direct-mapped /
//! set-associative RAM the hardware describes, the same structure as the
//! ATLB and the instruction cache: the key is packed into one tag word, a
//! multiplicative hash of the tag selects the set, and the ways of that
//! set are probed in place, replacing the least recently used line. No
//! per-lookup heap hashing is involved, which matters because *every* COM
//! instruction translates through this structure, and the Fith machine's
//! sends do too.

use com_cache::{CacheConfig, CacheError, CacheStats, SetAssocCache};
use com_isa::Opcode;
use com_mem::ClassId;

use crate::Translation;

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

/// Geometry of the ITLB.
///
/// §5 also sketches "a larger second level ITLB … implemented in main
/// memory" for when the hit ratio is insufficient. At the paper's
/// geometry every miss on the workloads here is compulsory, so the model
/// has one level.
#[derive(Debug, Clone, Copy)]
pub struct ItlbConfig {
    /// The buffer's geometry.
    pub geometry: CacheConfig,
}

impl ItlbConfig {
    /// The paper's recommended geometry: 512 entries, 2-way ("a 99% hit
    /// ratio can be realized with a 512 entry 2-way associative cache").
    ///
    /// # Errors
    ///
    /// Never fails for the built-in geometry; the `Result` mirrors
    /// [`CacheConfig::new`] so callers can build variants uniformly.
    pub fn paper_default() -> Result<Self, CacheError> {
        Ok(ItlbConfig {
            geometry: CacheConfig::new(512, 2)?,
        })
    }
}

/// The ITLB: a cache from [`ItlbKey`] to the one-word [`Translation`] of
/// a method. [`fill`](Self::fill) takes a [`MethodRef`](crate::MethodRef)
/// (or a translation) and keeps only its translation.
///
/// It packs each key into a tag, hashes the tag to pick a set, and leaves
/// the probe, the fill order and the LRU choice to its [`SetAssocCache`].
/// `ways == 1` is the direct-mapped case. A clone copies the contents,
/// the LRU stamps, the clock and the counters, so it goes on exactly as
/// the original would.
///
/// ```
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
#[derive(Debug, Clone)]
pub struct Itlb {
    lines: SetAssocCache<u64, Translation>,
}

impl Itlb {
    /// Creates an ITLB with the given geometry.
    pub fn new(config: ItlbConfig) -> Self {
        Itlb {
            lines: SetAssocCache::new(config.geometry),
        }
    }

    /// The set hash of a packed key. Fibonacci hashing: one multiply, and
    /// the top bits go to the set index.
    #[inline]
    fn hash(tag: u64) -> u64 {
        tag.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32
    }

    /// Looks up a key.
    #[inline]
    pub fn lookup(&mut self, key: ItlbKey) -> Option<Translation> {
        let tag = key.pack();
        self.lines.lookup(Self::hash(tag), tag)
    }

    /// Installs a resolution after a miss. A defined method must be
    /// resolved to a slab slot first (see [`Translation`]).
    pub fn fill(&mut self, key: ItlbKey, method: impl Into<Translation>) {
        let tag = key.pack();
        self.lines.fill(Self::hash(tag), tag, method.into());
    }

    /// Invalidates every cached resolution (required when a method is
    /// redefined — "no object code need ever be modified", §2.1, but stale
    /// translations must go).
    pub fn flush(&mut self) {
        self.lines.clear();
    }

    /// Number of resolutions resident.
    pub fn len(&self) -> usize {
        self.lines.len()
    }

    /// Whether no resolution is resident.
    pub fn is_empty(&self) -> bool {
        self.lines.is_empty()
    }

    /// Hit, miss, fill and eviction counts.
    pub fn stats(&self) -> CacheStats {
        self.lines.stats()
    }

    /// Resets the statistics (warmup boundary, §5).
    pub fn reset_stats(&mut self) {
        self.lines.reset_stats();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DefinedMethod, MethodRef};
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
        itlb.fill(key(1, 1), add());
        assert_eq!(
            itlb.lookup(key(1, 1)),
            Some(Translation::Primitive(PrimOp::Add))
        );
        assert_eq!(itlb.stats().hits, 1);
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
    fn flush_clears_everything() {
        let mut itlb = paper_itlb();
        itlb.fill(key(1, 1), add());
        itlb.flush();
        assert_eq!(itlb.lookup(key(1, 1)), None);
        assert!(itlb.is_empty());
    }
}
