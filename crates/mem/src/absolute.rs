//! Absolute space: the global name space backed by a buddy allocator.

use std::collections::{BTreeMap, HashMap};

use com_cache::FxBuildHasher;

use com_fpa::SegmentName;

use crate::{MemError, TeamId, Word};

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
    /// Their order decides which address each allocation gets.
    free_lists: Vec<Vec<u64>>,
    /// Each free block's position in its order's list, so a free finds its
    /// buddy without scanning the list.
    free_at: HashMap<u64, usize, FxBuildHasher>,
    live_blocks: usize,
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
            free_at: [(0, 0)].into_iter().collect(),
            live_blocks: 0,
            allocated_words: 0,
            peak_words: 0,
        }
    }

    fn push_free(&mut self, order: u8, base: u64) {
        let list = &mut self.free_lists[usize::from(order)];
        self.free_at.insert(base, list.len());
        list.push(base);
    }

    /// Takes `base` off `order`'s free list, if it is free at that order.
    fn take_free(&mut self, order: u8, base: u64) -> bool {
        let list = &mut self.free_lists[usize::from(order)];
        match self.free_at.get(&base) {
            Some(&i) if list.get(i) == Some(&base) => {
                self.free_at.remove(&base);
                list.swap_remove(i);
                if let Some(&moved) = list.get(i) {
                    self.free_at.insert(moved, i);
                }
                true
            }
            _ => false, // not free, or free at another order
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
        // The smallest order ≥ requested with a free block.
        let mut o = (order..=self.space_log2)
            .find(|&o| !self.free_lists[usize::from(o)].is_empty())
            .ok_or(MemError::OutOfAbsoluteSpace {
                words: 1u64 << order,
            })?;
        let base = self.free_lists[usize::from(o)].pop().expect("nonempty");
        self.free_at.remove(&base);
        // Split down to the requested order, pushing upper buddies free.
        while o > order {
            o -= 1;
            self.push_free(o, base + (1u64 << o));
        }
        self.live_blocks += 1;
        self.allocated_words += 1u64 << order;
        self.peak_words = self.peak_words.max(self.allocated_words);
        Ok(AbsAddr(base))
    }

    /// Frees a block previously returned by [`alloc`](Self::alloc) with the
    /// same `order`, coalescing buddies greedily. The allocator keeps no
    /// record of live blocks, so a double or wrong-order free is its
    /// caller's to refuse: [`AbsoluteMemory::free_block`] frees each block
    /// at the order its record gives, and refuses a base that holds none.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::UnmappedAbsolute`] when `base` is not aligned to
    /// `order` or the block lies outside the space.
    pub fn free(&mut self, base: AbsAddr, order: u8) -> Result<(), MemError> {
        if order > self.space_log2
            || !base.0.is_multiple_of(1u64 << order)
            || base.0 >= self.capacity_words()
        {
            return Err(MemError::UnmappedAbsolute(base));
        }
        self.live_blocks -= 1;
        self.allocated_words -= 1u64 << order;
        let (mut base, mut order) = (base.0, order);
        // Coalesce while the buddy is free.
        while order < self.space_log2 && self.take_free(order, base ^ (1u64 << order)) {
            base &= !(1u64 << order);
            order += 1;
        }
        self.push_free(order, base);
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
        self.live_blocks
    }
}

/// The names sharing a block, canonical first: one inline, or a list once
/// a grow leaves aliases.
#[derive(Debug, Clone, Default)]
pub(crate) enum BlockNames {
    #[default]
    Unnamed,
    One(SegmentName),
    Many(Vec<SegmentName>),
}

impl BlockNames {
    pub(crate) fn as_slice(&self) -> &[SegmentName] {
        match self {
            BlockNames::Unnamed => &[],
            BlockNames::One(name) => std::slice::from_ref(name),
            BlockNames::Many(names) => names,
        }
    }
}

/// One live block's record: its words, its generation and the names that
/// share it.
#[derive(Debug, Clone, Default)]
pub(crate) struct Block {
    /// The block's contents, dense: exactly the words the block was
    /// allocated for. The buddy rounding reserves addresses, not host
    /// memory (absolute space is sparse at block granularity, not word
    /// granularity); the block's order is derived from this length.
    data: Box<[Word]>,
    /// The team whose names share the block.
    pub(crate) team: TeamId,
    /// Allocated since its team's last collection.
    pub(crate) young: bool,
    /// The canonical (widest, newest) name first, then every alias a grow
    /// re-pointed here. The block is freed when its last name dies.
    pub(crate) names: BlockNames,
}

impl Block {
    fn order(&self) -> u8 {
        order_for(self.data.len() as u64)
    }

    /// Drops `team`'s `name` from the block; whether that was its last
    /// name.
    pub(crate) fn drop_name(&mut self, team: TeamId, name: SegmentName) -> bool {
        let names = self.names.as_slice();
        if self.team != team || !names.contains(&name) {
            return false;
        }
        let rest: Vec<_> = names.iter().copied().filter(|n| *n != name).collect();
        self.names = BlockNames::Many(rest);
        self.names.as_slice().is_empty()
    }
}

/// The global absolute memory: a sparse word store plus the buddy allocator
/// that places segments in it. Each live block has one record in a
/// slot-stable slab — its words (dense per block), its generation and the
/// names sharing it; the ordered base index only resolves a containing
/// block on a bounds-check memo miss, so word access is O(1) — slot index
/// plus offset — after the memoized lookup, and bulk fills are a straight
/// copy.
///
/// Reads and writes are bounds-checked against the words live blocks
/// hold — the simulator equivalent of "it is impossible to express an
/// erroneous operation".
#[derive(Debug, Clone)]
pub struct AbsoluteMemory {
    buddy: BuddyAllocator,
    /// base → slab slot; BTreeMap so a containing block can be found by
    /// range query.
    index: BTreeMap<u64, u32>,
    /// Slot-stable block records (freed slots are recycled, with their
    /// data dropped).
    slots: Vec<Block>,
    free_slots: Vec<u32>,
    /// The last block a bounds check hit: `(base, held words, slot)`. Accesses
    /// have strong block locality (context words, the current method), so
    /// this memo removes the tree walk from nearly every access.
    /// Invalidated on any free (a memo hit must imply liveness;
    /// allocation only adds blocks, so it cannot stale the memo).
    last_block: std::cell::Cell<(u64, u64, u32)>,
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
        }
    }

    /// Allocates a block of at least `words` words: absolute space
    /// rounded up to a power of two, holding `words` words (at least one)
    /// that read as [`Word::Uninit`]. Addresses past them in the rounded
    /// block are unmapped.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::OutOfAbsoluteSpace`] when absolute space is full.
    pub fn alloc_block(&mut self, words: u64) -> Result<AbsAddr, MemError> {
        let base = self.buddy.alloc(order_for(words))?;
        let block = Block {
            data: vec![Word::Uninit; words.max(1) as usize].into_boxed_slice(),
            ..Block::default()
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

    /// Frees a block returned by [`alloc_block`](Self::alloc_block), at the
    /// order its record gives, and drops its contents.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::UnmappedAbsolute`] if `base` is not a live block.
    pub fn free_block(&mut self, base: AbsAddr) -> Result<(), MemError> {
        let slot = self
            .index
            .remove(&base.0)
            .ok_or(MemError::UnmappedAbsolute(base))?;
        let block = std::mem::take(&mut self.slots[slot as usize]);
        self.free_slots.push(slot);
        self.last_block.set((0, 0, 0));
        self.buddy.free(base, block.order())
    }

    /// The power-of-two size of the live block at `base`: the absolute
    /// space it reserves, of which the words it was allocated for are held.
    pub fn block_words(&self, base: AbsAddr) -> Option<u64> {
        self.block(base).map(|block| 1u64 << block.order())
    }

    /// Bounds-checks `addr` and returns its containing block's base and
    /// slab slot (the word's storage index is `addr - base`).
    #[inline]
    fn locate(&self, addr: AbsAddr) -> Result<(u64, u32), MemError> {
        let (base, held, slot) = self.last_block.get();
        if addr.0.wrapping_sub(base) < held {
            return Ok((base, slot));
        }
        match self.index.range(..=addr.0).next_back() {
            Some((&base, &slot)) if addr.0 - base < self.slots[slot as usize].data.len() as u64 => {
                self.last_block
                    .set((base, self.slots[slot as usize].data.len() as u64, slot));
                Ok((base, slot))
            }
            _ => Err(MemError::UnmappedAbsolute(addr)),
        }
    }

    /// The record of the live block containing `addr`, with its base.
    /// Shares the bounds-check memo with [`read`](Self::read) and
    /// [`write`](Self::write), so the write barrier's block lookup is O(1)
    /// on the hot path.
    pub(crate) fn block_containing(&self, addr: AbsAddr) -> Option<(AbsAddr, &Block)> {
        let (base, slot) = self.locate(addr).ok()?;
        Some((AbsAddr(base), &self.slots[slot as usize]))
    }

    /// The record of the live block based at `base`.
    pub(crate) fn block(&self, base: AbsAddr) -> Option<&Block> {
        let slot = *self.index.get(&base.0)?;
        Some(&self.slots[slot as usize])
    }

    /// The record of the live block based at `base`, mutably.
    pub(crate) fn block_mut(&mut self, base: AbsAddr) -> Option<&mut Block> {
        let slot = *self.index.get(&base.0)?;
        Some(&mut self.slots[slot as usize])
    }

    /// The base of the live block containing `addr`, if any.
    pub fn containing_base(&self, addr: AbsAddr) -> Option<AbsAddr> {
        self.block_containing(addr).map(|(base, _)| base)
    }

    /// Reads the word at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::UnmappedAbsolute`] outside any live block.
    pub fn read(&self, addr: AbsAddr) -> Result<Word, MemError> {
        let (base, slot) = self.locate(addr)?;
        Ok(self.slots[slot as usize].data[(addr.0 - base) as usize])
    }

    /// Writes the word at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::UnmappedAbsolute`] outside any live block.
    pub fn write(&mut self, addr: AbsAddr, word: Word) -> Result<(), MemError> {
        let (base, slot) = self.locate(addr)?;
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
        if end > block.data.len() {
            return Err(MemError::UnmappedAbsolute(AbsAddr(
                base.0 + run.len() as u64 - 1,
            )));
        }
        block.data[start..end].copy_from_slice(run);
        Ok(())
    }

    /// The held words of the live block containing `addr`, from `addr` to
    /// the last of them: one bounds check for a run of reads (the collector
    /// scans a segment through this, and a grow copies one). `None` outside
    /// every live block.
    pub(crate) fn words_from(&self, addr: AbsAddr) -> Option<&[Word]> {
        let (base, slot) = self.locate(addr).ok()?;
        Some(&self.slots[slot as usize].data[(addr.0 - base) as usize..])
    }

    /// The buddy allocator (for occupancy statistics).
    pub fn buddy(&self) -> &BuddyAllocator {
        &self.buddy
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

    /// The block records hold the check the buddy allocator does not: a
    /// freed base holds no block.
    #[test]
    fn buddy_rejects_double_free() {
        let mut m = AbsoluteMemory::new(8);
        let a = m.alloc_block(8).unwrap();
        m.free_block(a).unwrap();
        assert!(m.free_block(a).is_err());
        assert_eq!(m.buddy().allocated_words(), 0);
    }

    /// A block is freed at the order its record gives: a base inside it is
    /// refused, and freeing it leaves its live buddy allocated.
    #[test]
    fn buddy_rejects_wrong_order_free() {
        let mut m = AbsoluteMemory::new(8);
        let a = m.alloc_block(8).unwrap();
        let b = m.alloc_block(8).unwrap();
        assert_eq!(b.0, a.0 ^ 8, "the second block is the first's buddy");
        assert!(m.free_block(a.offset(4)).is_err());
        m.free_block(a).unwrap();
        assert_eq!(m.buddy().allocated_words(), 8);
        assert_eq!(m.read(b).unwrap(), Word::Uninit);
        m.free_block(b).unwrap();
        assert_eq!(m.buddy().allocated_words(), 0);
    }

    /// Every address a seeded run of allocations and out-of-order frees
    /// gets. Each free list keeps its order, so later allocations get the
    /// same addresses whatever way the buddy is found.
    #[test]
    fn buddy_addresses_of_a_seeded_run_are_pinned() {
        let mut rng = com_cache::Rng::new(26);
        let mut b = BuddyAllocator::new(11);
        let mut live: Vec<(AbsAddr, u8)> = Vec::new();
        let mut got = Vec::new();
        for _ in 0..200 {
            if rng.below(5) < 2 && !live.is_empty() {
                let (a, o) = live.swap_remove(rng.below(live.len() as u64) as usize);
                b.free(a, o).unwrap();
            } else {
                let order = rng.below(6) as u8;
                let a = b.alloc(order).unwrap();
                got.push(a.0);
                live.push((a, order));
            }
        }
        let pinned: [u64; 118] = [
            0, 0, 0, 0, 0, 8, 12, 16, 32, 14, 14, 0, 32, 16, 64, 96, 8, 10, 16, 12, 8, 16, 20, 20,
            24, 32, 96, 128, 16, 160, 28, 48, 25, 10, 160, 96, 11, 26, 52, 54, 192, 0, 56, 60, 32,
            96, 58, 192, 200, 32, 208, 216, 128, 59, 216, 8, 224, 32, 60, 40, 8, 52, 10, 48, 64,
            224, 160, 24, 40, 24, 8, 224, 56, 128, 24, 256, 288, 59, 304, 60, 320, 8, 216, 28, 12,
            208, 58, 10, 54, 25, 160, 8, 53, 32, 26, 212, 64, 27, 304, 26, 12, 192, 96, 54, 10,
            112, 256, 272, 16, 224, 59, 0, 288, 320, 214, 28, 224, 60,
        ];
        assert_eq!(got, pinned);
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
        // The rounding reserves addresses, not words.
        assert!(m.write(base.offset(10), Word::Int(1)).is_err());
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
