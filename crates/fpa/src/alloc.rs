//! Allocation of fresh segment names within a team's virtual space.

use std::collections::BTreeMap;

use crate::{Fpa, FpaError, FpaFormat, SegmentName};

/// Allocates virtual segment names per exponent class.
///
/// Naming is separated from storage (§3.1): this allocator hands out *names*
/// only; binding a name to absolute storage is the segment table's job
/// (`com-mem`). Each exponent class is an independent pool: a bump cursor
/// plus a free list, so names released by the garbage collector are reused
/// before the class exhausts.
///
/// ```
/// use com_fpa::{FpaFormat, NameAllocator};
/// let mut names = NameAllocator::new(FpaFormat::DEMO16);
/// let a = names.alloc_for_size(100).unwrap(); // needs exponent 7
/// assert_eq!(a.segment().exponent(), 7);
/// let b = names.alloc_for_size(100).unwrap();
/// assert_ne!(a.segment(), b.segment());
/// ```
#[derive(Debug, Clone)]
pub struct NameAllocator {
    format: FpaFormat,
    /// Next never-used index per exponent class.
    cursors: BTreeMap<u8, u64>,
    /// Recycled indices per exponent class.
    free: BTreeMap<u8, Vec<u64>>,
    allocated: u64,
    recycled: u64,
    freed: u64,
}

impl NameAllocator {
    /// Creates an allocator for `format` with all names free.
    pub fn new(format: FpaFormat) -> Self {
        NameAllocator {
            format,
            cursors: BTreeMap::new(),
            free: BTreeMap::new(),
            allocated: 0,
            recycled: 0,
            freed: 0,
        }
    }

    /// The address format names are drawn from.
    pub fn format(&self) -> FpaFormat {
        self.format
    }

    /// Allocates a fresh base address (offset 0) in exponent class `exp`.
    ///
    /// # Errors
    ///
    /// Returns [`FpaError::ExponentOutOfRange`] for an impossible class or
    /// [`FpaError::ClassExhausted`] when every name in the class is live.
    pub fn alloc(&mut self, exp: u8) -> Result<Fpa, FpaError> {
        if exp > self.format.max_exponent() {
            return Err(FpaError::ExponentOutOfRange {
                exponent: exp,
                max: self.format.max_exponent(),
            });
        }
        if let Some(list) = self.free.get_mut(&exp) {
            if let Some(idx) = list.pop() {
                self.allocated += 1;
                self.recycled += 1;
                return Fpa::from_segment(SegmentName::new(exp, idx), 0, self.format);
            }
        }
        let cursor = self.cursors.entry(exp).or_insert(0);
        if *cursor >= self.format.segments_in_class(exp) {
            return Err(FpaError::ClassExhausted { exponent: exp });
        }
        let idx = *cursor;
        *cursor += 1;
        self.allocated += 1;
        Fpa::from_segment(SegmentName::new(exp, idx), 0, self.format)
    }

    /// Allocates a fresh base address whose segment holds at least `words`.
    ///
    /// # Errors
    ///
    /// Returns [`FpaError::ObjectTooLarge`] or [`FpaError::ClassExhausted`].
    pub fn alloc_for_size(&mut self, words: u64) -> Result<Fpa, FpaError> {
        let exp = self.format.exponent_for(words)?;
        self.alloc(exp)
    }

    /// Returns a name to its class's free list.
    ///
    /// Freeing a name that was never allocated is permitted (the garbage
    /// collector may free speculatively created aliases); double-frees are
    /// the caller's responsibility, as in the hardware free list.
    pub fn free(&mut self, segment: SegmentName) {
        self.freed += 1;
        self.free
            .entry(segment.exponent())
            .or_default()
            .push(segment.index());
    }

    /// Total successful allocations performed.
    pub fn allocated(&self) -> u64 {
        self.allocated
    }

    /// How many allocations were served from free lists.
    pub fn recycled(&self) -> u64 {
        self.recycled
    }

    /// Names currently sitting in free lists.
    pub fn free_count(&self) -> usize {
        self.free.values().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocates_distinct_names() {
        let mut a = NameAllocator::new(FpaFormat::DEMO16);
        let x = a.alloc(4).unwrap();
        let y = a.alloc(4).unwrap();
        let z = a.alloc(5).unwrap();
        assert_ne!(x.segment(), y.segment());
        assert_ne!(x.segment(), z.segment());
        assert_eq!(x.offset(), 0);
    }

    #[test]
    fn size_based_allocation_picks_tight_exponent() {
        let mut a = NameAllocator::new(FpaFormat::COM);
        assert_eq!(a.alloc_for_size(1).unwrap().segment().exponent(), 0);
        assert_eq!(a.alloc_for_size(2).unwrap().segment().exponent(), 1);
        assert_eq!(a.alloc_for_size(33).unwrap().segment().exponent(), 6);
        assert_eq!(a.alloc_for_size(4096).unwrap().segment().exponent(), 12);
    }

    #[test]
    fn exhaustion_is_detected() {
        // DEMO16 class 11 has 2^(12-11) = 2 names.
        let mut a = NameAllocator::new(FpaFormat::DEMO16);
        a.alloc(11).unwrap();
        a.alloc(11).unwrap();
        assert_eq!(a.alloc(11), Err(FpaError::ClassExhausted { exponent: 11 }));
    }

    #[test]
    fn freeing_recycles_names() {
        let mut a = NameAllocator::new(FpaFormat::DEMO16);
        let x = a.alloc(11).unwrap();
        let y = a.alloc(11).unwrap();
        a.free(x.segment());
        let z = a.alloc(11).unwrap();
        assert_eq!(z.segment(), x.segment());
        assert_ne!(z.segment(), y.segment());
        assert_eq!(a.recycled(), 1);
    }

    #[test]
    fn rejects_bad_class() {
        let mut a = NameAllocator::new(FpaFormat::DEMO16);
        assert!(a.alloc(16).is_err());
        assert!(a.alloc_for_size(1 << 40).is_err());
    }
}
