//! Absolute space: the global name space backed by a buddy allocator.

use std::collections::{BTreeMap, HashMap};

use com_cache::FxBuildHasher;

use crate::{MemError, Word};

/// An address in absolute space — "a unique name identifying a particular
/// object" (§3.1). Word-granular.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct AbsAddr(pub u64);

impl AbsAddr {
    /// This address advanced by `delta` words.
    pub fn offset(self, delta: u64) -> AbsAddr {
        AbsAddr(self.0 + delta)
    }
}

impl core::fmt::Display for AbsAddr {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "abs:{:#x}", self.0)
    }
}

/// A power-of-two buddy allocator over absolute space.
///
/// Buddy allocation guarantees the paper's alignment invariant: "All
/// segments are aligned on absolute addresses which are multiples of their
/// sizes so no add is required" (§3.1) — the virtual offset can be OR-ed
/// into the base instead of added.
///
/// ```
/// use com_mem::BuddyAllocator;
/// let mut buddy = BuddyAllocator::new(10); // 2^10 words of absolute space
/// let a = buddy.alloc(5).unwrap();         // a 32-word block
/// assert_eq!(a.0 % 32, 0);                 // aligned to its size
/// buddy.free(a, 5).unwrap();
/// ```
#[derive(Debug, Clone)]
pub struct BuddyAllocator {
    space_log2: u8,
    /// Free block base addresses per order (order = log2 of block words).
    free_lists: Vec<Vec<u64>>,
    /// Base address → order, for every live allocation.
    live: HashMap<u64, u8, FxBuildHasher>,
    allocated_words: u64,
    peak_words: u64,
}

impl BuddyAllocator {
    /// Creates an allocator managing `2^space_log2` words (max 62).
    ///
    /// # Panics
    ///
    /// Panics if `space_log2 > 62`.
    pub fn new(space_log2: u8) -> Self {
        assert!(space_log2 <= 62, "absolute space too large to simulate");
        let mut free_lists = vec![Vec::new(); space_log2 as usize + 1];
        free_lists[space_log2 as usize].push(0);
        BuddyAllocator {
            space_log2,
            free_lists,
            live: HashMap::default(),
            allocated_words: 0,
            peak_words: 0,
        }
    }

    /// Allocates a block of `2^order` words aligned to its size.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::OutOfAbsoluteSpace`] when no block of sufficient
    /// order can be carved out.
    pub fn alloc(&mut self, order: u8) -> Result<AbsAddr, MemError> {
        if order > self.space_log2 {
            return Err(MemError::OutOfAbsoluteSpace {
                words: 1u64 << order.min(62),
            });
        }
        // Find the smallest order ≥ requested with a free block.
        let mut from = None;
        for o in order..=self.space_log2 {
            if !self.free_lists[o as usize].is_empty() {
                from = Some(o);
                break;
            }
        }
        let mut o = from.ok_or(MemError::OutOfAbsoluteSpace {
            words: 1u64 << order,
        })?;
        let base = self.free_lists[o as usize].pop().expect("nonempty");
        // Split down to the requested order, pushing upper buddies free.
        while o > order {
            o -= 1;
            let buddy = base + (1u64 << o);
            self.free_lists[o as usize].push(buddy);
        }
        self.live.insert(base, order);
        self.allocated_words += 1u64 << order;
        self.peak_words = self.peak_words.max(self.allocated_words);
        Ok(AbsAddr(base))
    }

    /// Frees a block previously returned by [`alloc`](Self::alloc) with the
    /// same `order`, coalescing buddies greedily.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::UnmappedAbsolute`] when `base` is not a live
    /// allocation of that order.
    pub fn free(&mut self, base: AbsAddr, order: u8) -> Result<(), MemError> {
        match self.live.get(&base.0) {
            Some(&o) if o == order => {}
            _ => return Err(MemError::UnmappedAbsolute(base)),
        }
        self.live.remove(&base.0);
        self.allocated_words -= 1u64 << order;
        let mut base = base.0;
        let mut order = order;
        // Coalesce while the buddy is free.
        while order < self.space_log2 {
            let buddy = base ^ (1u64 << order);
            let list = &mut self.free_lists[order as usize];
            match list.iter().position(|&b| b == buddy) {
                Some(i) => {
                    list.swap_remove(i);
                    base = base.min(buddy);
                    order += 1;
                }
                None => break,
            }
        }
        self.free_lists[order as usize].push(base);
        Ok(())
    }

    /// Words currently allocated.
    pub fn allocated_words(&self) -> u64 {
        self.allocated_words
    }

    /// High-water mark of allocated words.
    pub fn peak_words(&self) -> u64 {
        self.peak_words
    }

    /// Total words managed.
    pub fn capacity_words(&self) -> u64 {
        1u64 << self.space_log2
    }

    /// Number of live allocations.
    pub fn live_blocks(&self) -> usize {
        self.live.len()
    }
}

/// One live block's backing store.
#[derive(Debug, Clone)]
struct Block {
    /// Power-of-two size in words.
    words: u64,
    /// The block's contents, dense. Allocated with the block (absolute
    /// space is sparse at block granularity, not word granularity).
    data: Vec<Word>,
}

/// The global absolute memory: a sparse word store plus the buddy allocator
/// that places segments in it. Storage is dense *per block* (one `Vec` per
/// live block) in a slot-stable slab; the ordered base index only resolves
/// a containing block on a bounds-check memo miss, so word access is O(1)
/// — slot index plus offset — after the memoized lookup, and bulk fills
/// are a straight copy.
///
/// Reads and writes are bounds-checked against live blocks — the simulator
/// equivalent of "it is impossible to express an erroneous operation".
#[derive(Debug, Clone)]
pub struct AbsoluteMemory {
    buddy: BuddyAllocator,
    /// base → slab slot; BTreeMap so a containing block can be found by
    /// range query.
    index: BTreeMap<u64, u32>,
    /// Slot-stable block storage (freed slots are recycled, with their
    /// data dropped).
    slots: Vec<Block>,
    free_slots: Vec<u32>,
    /// The last block a bounds check hit: `(base, words, slot)`. Accesses
    /// have strong block locality (context words, the current method), so
    /// this memo removes the tree walk from nearly every access.
    /// Invalidated on any free (a memo hit must imply liveness;
    /// allocation only adds blocks, so it cannot stale the memo).
    last_block: std::cell::Cell<(u64, u64, u32)>,
    reads: u64,
    writes: u64,
}

impl AbsoluteMemory {
    /// Creates a memory of `2^space_log2` words.
    pub fn new(space_log2: u8) -> Self {
        AbsoluteMemory {
            buddy: BuddyAllocator::new(space_log2),
            index: BTreeMap::new(),
            slots: Vec::new(),
            free_slots: Vec::new(),
            last_block: std::cell::Cell::new((0, 0, 0)),
            reads: 0,
            writes: 0,
        }
    }

    /// Allocates a block of at least `words` words (rounded up to a power
    /// of two); contents read as [`Word::Uninit`].
    ///
    /// # Errors
    ///
    /// Returns [`MemError::OutOfAbsoluteSpace`] when absolute space is full.
    pub fn alloc_block(&mut self, words: u64) -> Result<AbsAddr, MemError> {
        let order = order_for(words);
        let base = self.buddy.alloc(order)?;
        let words = 1u64 << order;
        let block = Block {
            words,
            data: vec![Word::Uninit; words as usize],
        };
        let slot = match self.free_slots.pop() {
            Some(slot) => {
                self.slots[slot as usize] = block;
                slot
            }
            None => {
                let slot = u32::try_from(self.slots.len()).expect("slab outgrew u32");
                self.slots.push(block);
                slot
            }
        };
        self.index.insert(base.0, slot);
        Ok(base)
    }

    /// Frees a block returned by [`alloc_block`](Self::alloc_block) and
    /// clears its contents.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::UnmappedAbsolute`] if `base` is not a live block.
    pub fn free_block(&mut self, base: AbsAddr) -> Result<(), MemError> {
        let slot = *self
            .index
            .get(&base.0)
            .ok_or(MemError::UnmappedAbsolute(base))?;
        let block = &mut self.slots[slot as usize];
        let order = order_for(block.words);
        self.buddy.free(base, order)?;
        *block = Block {
            words: 0,
            data: Vec::new(),
        };
        self.index.remove(&base.0);
        self.free_slots.push(slot);
        self.last_block.set((0, 0, 0));
        Ok(())
    }

    /// The power-of-two size of the live block at `base`.
    pub fn block_words(&self, base: AbsAddr) -> Option<u64> {
        self.index
            .get(&base.0)
            .map(|&slot| self.slots[slot as usize].words)
    }

    /// Bounds-checks `addr` and returns its containing block's base and
    /// slab slot (the word's storage index is `addr - base`).
    #[inline]
    fn locate(&self, addr: AbsAddr) -> Result<(u64, u32), MemError> {
        let (base, words, slot) = self.last_block.get();
        if addr.0.wrapping_sub(base) < words {
            return Ok((base, slot));
        }
        match self.index.range(..=addr.0).next_back() {
            Some((&base, &slot)) if addr.0 < base + self.slots[slot as usize].words => {
                self.last_block
                    .set((base, self.slots[slot as usize].words, slot));
                Ok((base, slot))
            }
            _ => Err(MemError::UnmappedAbsolute(addr)),
        }
    }

    /// The base of the live block containing `addr`, if any. Shares the
    /// bounds-check memo with [`read`](Self::read)/[`write`](Self::write),
    /// so the write barrier's block lookup is O(1) on the hot path.
    pub fn containing_base(&self, addr: AbsAddr) -> Option<AbsAddr> {
        self.locate(addr).ok().map(|(base, _)| AbsAddr(base))
    }

    /// Reads the word at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::UnmappedAbsolute`] outside any live block.
    pub fn read(&mut self, addr: AbsAddr) -> Result<Word, MemError> {
        let (base, slot) = self.locate(addr)?;
        self.reads += 1;
        Ok(self.slots[slot as usize].data[(addr.0 - base) as usize])
    }

    /// Writes the word at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::UnmappedAbsolute`] outside any live block.
    pub fn write(&mut self, addr: AbsAddr, word: Word) -> Result<(), MemError> {
        let (base, slot) = self.locate(addr)?;
        self.writes += 1;
        self.slots[slot as usize].data[(addr.0 - base) as usize] = word;
        Ok(())
    }

    /// Writes a run of consecutive words starting at `base` — the bulk
    /// path for loading whole objects (code stores). One bounds check
    /// covers the run, which must lie inside a single live block (runs
    /// are only ever written into a block that was just allocated for
    /// them).
    ///
    /// # Errors
    ///
    /// Returns [`MemError::UnmappedAbsolute`] if the run is not fully
    /// inside one live block.
    pub fn write_run(&mut self, base: AbsAddr, run: &[Word]) -> Result<(), MemError> {
        if run.is_empty() {
            return Ok(());
        }
        let (block_base, slot) = self.locate(base)?;
        let block = &mut self.slots[slot as usize];
        let start = (base.0 - block_base) as usize;
        let end = start + run.len();
        if end as u64 > block.words {
            return Err(MemError::UnmappedAbsolute(AbsAddr(
                base.0 + run.len() as u64 - 1,
            )));
        }
        self.writes += run.len() as u64;
        block.data[start..end].copy_from_slice(run);
        Ok(())
    }

    /// Non-recording read used by the garbage collector and diagnostics.
    pub fn peek(&self, addr: AbsAddr) -> Result<Word, MemError> {
        let (base, slot) = self.locate(addr)?;
        Ok(self.slots[slot as usize].data[(addr.0 - base) as usize])
    }

    /// Clears a whole block to [`Word::Uninit`] (the context cache's
    /// single-operation block clear, §3.6).
    ///
    /// # Errors
    ///
    /// Returns [`MemError::UnmappedAbsolute`] if `base` is not a live block.
    pub fn clear_block(&mut self, base: AbsAddr) -> Result<(), MemError> {
        let slot = *self
            .index
            .get(&base.0)
            .ok_or(MemError::UnmappedAbsolute(base))?;
        self.slots[slot as usize].data.fill(Word::Uninit);
        Ok(())
    }

    /// The buddy allocator (for occupancy statistics).
    pub fn buddy(&self) -> &BuddyAllocator {
        &self.buddy
    }

    /// Total recorded reads.
    pub fn reads(&self) -> u64 {
        self.reads
    }

    /// Total recorded writes.
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// Iterates over live block bases and sizes.
    pub fn blocks(&self) -> impl Iterator<Item = (AbsAddr, u64)> + '_ {
        self.index
            .iter()
            .map(|(&b, &slot)| (AbsAddr(b), self.slots[slot as usize].words))
    }
}

/// Smallest order whose block holds `words` words.
fn order_for(words: u64) -> u8 {
    let words = words.max(1);
    (64 - (words - 1).leading_zeros()).min(62) as u8
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buddy_alignment_invariant() {
        let mut b = BuddyAllocator::new(12);
        for order in [0u8, 3, 5, 7] {
            let a = b.alloc(order).unwrap();
            assert_eq!(a.0 % (1 << order), 0, "block not aligned to its size");
        }
    }

    #[test]
    fn buddy_coalesces_back_to_full_space() {
        let mut b = BuddyAllocator::new(8);
        let blocks: Vec<_> = (0..8).map(|_| b.alloc(5).unwrap()).collect();
        assert_eq!(b.allocated_words(), 256);
        assert!(b.alloc(0).is_err(), "space must be full");
        for a in blocks {
            b.free(a, 5).unwrap();
        }
        assert_eq!(b.allocated_words(), 0);
        // After freeing everything the full-space block must be allocatable.
        assert!(b.alloc(8).is_ok());
    }

    #[test]
    fn buddy_rejects_double_free() {
        let mut b = BuddyAllocator::new(8);
        let a = b.alloc(3).unwrap();
        b.free(a, 3).unwrap();
        assert!(b.free(a, 3).is_err());
    }

    #[test]
    fn buddy_rejects_wrong_order_free() {
        let mut b = BuddyAllocator::new(8);
        let a = b.alloc(3).unwrap();
        assert!(b.free(a, 4).is_err());
        b.free(a, 3).unwrap();
    }

    #[test]
    fn buddy_tracks_peak() {
        let mut b = BuddyAllocator::new(8);
        let a = b.alloc(6).unwrap(); // 64 words
        let c = b.alloc(6).unwrap();
        b.free(a, 6).unwrap();
        b.free(c, 6).unwrap();
        assert_eq!(b.peak_words(), 128);
        assert_eq!(b.allocated_words(), 0);
    }

    #[test]
    fn memory_read_write_roundtrip() {
        let mut m = AbsoluteMemory::new(10);
        let base = m.alloc_block(10).unwrap(); // rounds to 16
        assert_eq!(m.block_words(base), Some(16));
        m.write(base.offset(3), Word::Int(42)).unwrap();
        assert_eq!(m.read(base.offset(3)).unwrap(), Word::Int(42));
        assert_eq!(m.read(base.offset(4)).unwrap(), Word::Uninit);
        assert_eq!(m.reads(), 2);
        assert_eq!(m.writes(), 1);
    }

    #[test]
    fn memory_rejects_unmapped_access() {
        let mut m = AbsoluteMemory::new(10);
        let base = m.alloc_block(4).unwrap();
        assert!(m.read(base.offset(4)).is_err(), "one past the block");
        assert!(m.write(AbsAddr(999), Word::Int(1)).is_err());
        m.free_block(base).unwrap();
        assert!(m.read(base).is_err(), "freed blocks are unmapped");
    }

    #[test]
    fn containing_base_finds_the_block() {
        let mut m = AbsoluteMemory::new(10);
        let a = m.alloc_block(8).unwrap();
        let b = m.alloc_block(8).unwrap();
        assert_eq!(m.containing_base(a.offset(7)), Some(a));
        assert_eq!(m.containing_base(b), Some(b));
        // Repeated queries hit the memo; a different block still resolves.
        assert_eq!(m.containing_base(a.offset(1)), Some(a));
        m.free_block(a).unwrap();
        assert_eq!(m.containing_base(a), None);
        assert_eq!(m.containing_base(AbsAddr(1 << 20)), None);
    }

    #[test]
    fn clear_block_resets_words() {
        let mut m = AbsoluteMemory::new(10);
        let base = m.alloc_block(8).unwrap();
        m.write(base, Word::Int(1)).unwrap();
        m.clear_block(base).unwrap();
        assert_eq!(m.read(base).unwrap(), Word::Uninit);
    }

    #[test]
    fn freed_storage_is_reusable() {
        let mut m = AbsoluteMemory::new(6); // 64 words
        let a = m.alloc_block(32).unwrap();
        m.write(a, Word::Int(7)).unwrap();
        m.free_block(a).unwrap();
        let b = m.alloc_block(64).unwrap();
        // stale data must not leak into the new block
        assert_eq!(m.read(b).unwrap(), Word::Uninit);
    }

    #[test]
    fn order_for_rounds_up() {
        assert_eq!(order_for(0), 0);
        assert_eq!(order_for(1), 0);
        assert_eq!(order_for(2), 1);
        assert_eq!(order_for(3), 2);
        assert_eq!(order_for(32), 5);
        assert_eq!(order_for(33), 6);
    }
}
