//! The context cache (§2.3, §3.6 Figure 7).
//!
//! "The Context Cache consists of two parts: the directory and the data
//! memory. Our scheme achieves speed by bypassing the directory on accesses
//! to the current or next context." Four access vectors govern the blocks:
//! *current* and *next* (singleton sets), *free* (unused blocks), and
//! *match* (directory hit). The directory associates on **absolute**
//! addresses, so the cache "need not be invalidated on a process switch",
//! can hold **non-contiguous** (non-LIFO) contexts, and "provides a
//! mechanism to automatically initialise a new context" (block clear in a
//! single operation).
//!
//! Each cached word carries its 16-bit class tag (§3.2): "When a word is
//! cached in the context cache, a 16-bit tag identifying the class of the
//! object is cached with it."

use com_mem::{AbsAddr, ClassId, Word};

use crate::CONTEXT_WORDS;

/// Words in one context block.
const WORDS: usize = CONTEXT_WORDS as usize;

/// Counters for the context cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CtxCacheStats {
    /// Fast-path reads through the current/next vectors.
    pub reads: u64,
    /// Fast-path writes through the current/next vectors.
    pub writes: u64,
    /// Directory (match vector) accesses.
    pub directory_lookups: u64,
    /// Directory hits.
    pub directory_hits: u64,
    /// Blocks faulted in from memory (misses on resident-required access).
    pub faults: u64,
    /// Blocks copied back to memory by the copyback engine.
    pub copybacks: u64,
    /// Blocks cleared for fresh contexts (single-operation clear).
    pub clears: u64,
    /// Blocks released to the free vector.
    pub releases: u64,
}

/// One cached context block plus its directory entry.
#[derive(Debug, Clone)]
struct Block {
    /// Directory entry: the absolute base address of the cached context,
    /// or `None` when the block is in the free vector.
    abs: Option<AbsAddr>,
    /// The 32 words, and in a parallel array each word's cached class
    /// tag: fixed inline arrays, so the per-instruction operand accesses
    /// do not chase a heap pointer per block, and a word with its tag
    /// takes 18 bytes (576 a block) instead of a padded pair's 32.
    words: [Word; WORDS],
    classes: [ClassId; WORDS],
    /// Bit `i` set ⇒ word `i` has been written since the last block clear.
    /// The single-operation clear (§2.3) then re-initialises only those
    /// words instead of storing all 32.
    written: u32,
    dirty: bool,
    last_used: u64,
}

impl Block {
    /// The §2.3 single-operation block clear: only words actually written
    /// since the previous clear are re-initialised.
    #[inline]
    fn clear_words(&mut self) {
        let mut m = self.written;
        while m != 0 {
            let i = m.trailing_zeros() as usize;
            self.words[i] = Word::Uninit;
            self.classes[i] = ClassId::UNINIT;
            m &= m - 1;
        }
        self.written = 0;
    }

    fn empty() -> Self {
        Block {
            abs: None,
            words: [Word::Uninit; WORDS],
            classes: [ClassId::UNINIT; WORDS],
            written: 0,
            dirty: false,
            last_used: 0,
        }
    }
}

/// The context cache. The machine orchestrates fills and write-backs (it
/// owns the memory); the cache owns residency, the access vectors and LRU.
#[derive(Debug)]
pub struct ContextCache {
    blocks: Vec<Block>,
    current: Option<usize>,
    next: Option<usize>,
    /// The free vector as a stack of block indices: allocation pops,
    /// release pushes — no scan. Its length is the free count the
    /// per-instruction copyback low-water check reads.
    free_stack: Vec<usize>,
    /// The match vector's associative directory: compact `(absolute base,
    /// block index)` pairs, maintained on every residency change. A probe
    /// (which happens on every indirect context access — notably every
    /// returning instruction's result store) scans at most `blocks`
    /// contiguous words instead of walking the ~600-byte blocks
    /// themselves, and maintenance is push/swap-remove — cheaper than a
    /// hash map at context-cache sizes.
    directory: Vec<(u64, u32)>,
    clock: u64,
    stats: CtxCacheStats,
}

/// A block evicted to make room: the machine must write it back if dirty.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Eviction {
    /// Absolute base of the evicted context.
    pub abs: AbsAddr,
    /// The block's words at eviction time (memory words carry their own
    /// tag, so the cached class tags are not written back).
    pub words: [Word; WORDS],
    /// Whether the block held unwritten modifications.
    pub dirty: bool,
}

impl ContextCache {
    /// Creates a cache of `blocks` context-sized blocks (the paper uses 32).
    ///
    /// # Panics
    ///
    /// Panics if `blocks < 3` — call linkage needs current + next + one
    /// free block to make progress.
    pub fn new(blocks: usize) -> Self {
        assert!(blocks >= 3, "context cache needs at least 3 blocks");
        ContextCache {
            blocks: vec![Block::empty(); blocks],
            current: None,
            next: None,
            free_stack: (0..blocks).rev().collect(),
            directory: Vec::with_capacity(blocks),
            clock: 0,
            stats: CtxCacheStats::default(),
        }
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CtxCacheStats {
        self.stats
    }

    /// Resets counters (contents retained).
    pub fn reset_stats(&mut self) {
        self.stats = CtxCacheStats::default();
    }

    /// Number of blocks in the free vector.
    pub fn free_count(&self) -> usize {
        debug_assert_eq!(
            self.free_stack.len(),
            self.blocks.iter().filter(|b| b.abs.is_none()).count()
        );
        self.free_stack.len()
    }

    /// Absolute bases of all resident contexts (for GC pinning).
    pub fn resident(&self) -> Vec<AbsAddr> {
        self.blocks.iter().filter_map(|b| b.abs).collect()
    }

    #[inline]
    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// Directory lookup (the match vector): the block caching `abs`, if any.
    pub fn find(&mut self, abs: AbsAddr) -> Option<usize> {
        self.stats.directory_lookups += 1;
        let hit = self.peek_find(abs);
        if hit.is_some() {
            self.stats.directory_hits += 1;
        }
        hit
    }

    /// Non-recording directory probe.
    #[inline]
    pub fn peek_find(&self, abs: AbsAddr) -> Option<usize> {
        let hit = self
            .directory
            .iter()
            .find(|(a, _)| *a == abs.0)
            .map(|(_, i)| *i as usize);
        debug_assert_eq!(hit, self.blocks.iter().position(|b| b.abs == Some(abs)));
        hit
    }

    fn directory_insert(&mut self, abs: AbsAddr, block: usize) {
        debug_assert!(self.directory.iter().all(|(a, _)| *a != abs.0));
        self.directory.push((abs.0, block as u32));
    }

    fn directory_remove(&mut self, abs: AbsAddr) {
        if let Some(i) = self.directory.iter().position(|(a, _)| *a == abs.0) {
            self.directory.swap_remove(i);
        }
    }

    /// Picks a victim block: a free one if available, else the LRU block
    /// that is neither current nor next. Returns `(index, eviction)`.
    fn victim(&mut self) -> (usize, Option<Eviction>) {
        if let Some(i) = self.free_stack.pop() {
            // The caller occupies the block immediately.
            return (i, None);
        }
        let i = self
            .blocks
            .iter()
            .enumerate()
            .filter(|(i, _)| Some(*i) != self.current && Some(*i) != self.next)
            .min_by_key(|(_, b)| b.last_used)
            .map(|(i, _)| i)
            .expect("≥3 blocks, so a victim exists");
        let b = &mut self.blocks[i];
        let ev = Eviction {
            abs: b.abs.expect("occupied"),
            words: b.words,
            dirty: b.dirty,
        };
        b.abs = None;
        b.dirty = false;
        self.directory_remove(ev.abs);
        (i, Some(ev))
    }

    /// Installs a context read from memory, its words and their class
    /// tags, into a block (a *fault*). Returns the block index and any
    /// eviction the machine must handle.
    pub fn install(
        &mut self,
        abs: AbsAddr,
        words: [Word; WORDS],
        classes: [ClassId; WORDS],
    ) -> (usize, Option<Eviction>) {
        self.stats.faults += 1;
        let clock = self.tick();
        let (i, ev) = self.victim();
        self.directory_insert(abs, i);
        let b = &mut self.blocks[i];
        b.abs = Some(abs);
        b.words = words;
        b.classes = classes;
        b.written = u32::MAX;
        b.dirty = false;
        b.last_used = clock;
        (i, ev)
    }

    /// Allocates a *cleared* block for a brand-new context at `abs`
    /// ("a new context … can be immediately placed in a block of the context
    /// cache and that block can be cleared. With this approach a new context
    /// does not have to be faulted in", §2.3). Marks it the next context.
    pub fn alloc_next(&mut self, abs: AbsAddr) -> (usize, Option<Eviction>) {
        self.stats.clears += 1;
        let clock = self.tick();
        let (i, ev) = self.victim();
        self.directory_insert(abs, i);
        let b = &mut self.blocks[i];
        b.abs = Some(abs);
        b.clear_words();
        // The cleared block is dirty by construction: memory still holds
        // stale words until copyback.
        b.dirty = true;
        b.last_used = clock;
        self.next = Some(i);
        (i, ev)
    }

    /// The current-vector block index.
    pub fn current(&self) -> Option<usize> {
        self.current
    }

    /// The next-vector block index.
    pub fn next(&self) -> Option<usize> {
        self.next
    }

    /// Points the current vector at `block`.
    pub fn set_current(&mut self, block: Option<usize>) {
        self.current = block;
    }

    /// Points the next vector at `block`.
    pub fn set_next(&mut self, block: Option<usize>) {
        self.next = block;
    }

    /// Reads word `off` of `block` (fast path — no directory access).
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range offset; operand fields cannot express one
    /// beyond 63 and contexts are 32 words, so this is a machine bug.
    #[inline(always)]
    pub fn read(&mut self, block: usize, off: u64) -> (Word, ClassId) {
        let clock = self.tick();
        self.stats.reads += 1;
        let b = &mut self.blocks[block];
        b.last_used = clock;
        (b.words[off as usize], b.classes[off as usize])
    }

    /// Writes word `off` of `block` with its class tag.
    #[inline(always)]
    pub fn write(&mut self, block: usize, off: u64, word: Word, class: ClassId) {
        let clock = self.tick();
        self.stats.writes += 1;
        let b = &mut self.blocks[block];
        b.last_used = clock;
        b.words[off as usize] = word;
        b.classes[off as usize] = class;
        b.written |= 1 << off;
        b.dirty = true;
    }

    /// The absolute base the block caches.
    #[inline]
    pub fn block_abs(&self, block: usize) -> Option<AbsAddr> {
        self.blocks.get(block).and_then(|b| b.abs)
    }

    /// Releases `block` directly (caller already knows the block index —
    /// the validated fast path of [`release`](Self::release)).
    #[inline]
    pub fn release_block(&mut self, block: usize) {
        let Some(abs) = self.blocks[block].abs else {
            return;
        };
        self.stats.releases += 1;
        self.free_stack.push(block);
        self.directory_remove(abs);
        self.blocks[block].abs = None;
        self.blocks[block].dirty = false;
        if self.current == Some(block) {
            self.current = None;
        }
        if self.next == Some(block) {
            self.next = None;
        }
    }

    /// Writes the three §3.5 linkage words (arg0, arg1, arg2) of `block`
    /// in one directory-bypassing access: one recency update, three word
    /// writes, three counted references.
    #[inline]
    pub fn write_linkage(
        &mut self,
        block: usize,
        arg0: (Word, ClassId),
        arg1: (Word, ClassId),
        arg2: (Word, ClassId),
    ) {
        let clock = self.tick();
        self.stats.writes += 3;
        let b = &mut self.blocks[block];
        b.last_used = clock;
        for (off, (word, class)) in [
            (crate::CTX_ARG0, arg0),
            (crate::CTX_ARG1, arg1),
            (crate::CTX_ARG1 + 1, arg2),
        ] {
            b.words[off as usize] = word;
            b.classes[off as usize] = class;
        }
        b.written |= (1 << crate::CTX_ARG0) | (0b11 << crate::CTX_ARG1);
        b.dirty = true;
    }

    /// Releases a block to the free vector *without* write-back (used when
    /// the context it holds is freed — its contents are dead).
    pub fn release(&mut self, abs: AbsAddr) {
        if let Some(i) = self.peek_find(abs) {
            self.stats.releases += 1;
            self.free_stack.push(i);
            self.directory_remove(abs);
            self.blocks[i].abs = None;
            self.blocks[i].dirty = false;
            if self.current == Some(i) {
                self.current = None;
            }
            if self.next == Some(i) {
                self.next = None;
            }
        }
    }

    /// Recycles an occupied block as the (cleared) next context: on method
    /// return "the current vector is moved back to the next vector" and the
    /// block is re-initialised for the next call.
    pub fn recycle_as_next(&mut self, block: usize) {
        self.stats.clears += 1;
        let clock = self.tick();
        let b = &mut self.blocks[block];
        b.clear_words();
        b.dirty = true;
        b.last_used = clock;
        self.next = Some(block);
        if self.current == Some(block) {
            self.current = None;
        }
    }

    /// Whether the copyback engine should run: free blocks at or below the
    /// low-water mark (§2.3 uses two).
    pub fn needs_copyback(&self, low_water: usize) -> bool {
        self.free_count() <= low_water
    }

    /// Takes the LRU non-current/non-next block for copyback, returning its
    /// contents for the machine to write to memory. The block becomes free.
    pub fn copyback_victim(&mut self) -> Option<Eviction> {
        let i = self
            .blocks
            .iter()
            .enumerate()
            .filter(|(i, b)| b.abs.is_some() && Some(*i) != self.current && Some(*i) != self.next)
            .min_by_key(|(_, b)| b.last_used)
            .map(|(i, _)| i)?;
        self.stats.copybacks += 1;
        self.free_stack.push(i);
        let b = &mut self.blocks[i];
        let ev = Eviction {
            abs: b.abs.take().expect("filtered on occupied"),
            words: b.words,
            dirty: b.dirty,
        };
        b.dirty = false;
        self.directory_remove(ev.abs);
        Some(ev)
    }

    /// Takes the contents of every dirty resident block for write-back, in
    /// block order and in one pass, leaving each block resident and clean.
    /// Draining it is required before garbage collection scans contexts.
    pub fn drain_dirty(&mut self) -> impl Iterator<Item = Eviction> + '_ {
        self.blocks.iter_mut().filter_map(|b| {
            let abs = b.abs.filter(|_| b.dirty)?;
            b.dirty = false;
            Some(Eviction {
                abs,
                words: b.words,
                dirty: true,
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cc() -> ContextCache {
        ContextCache::new(4)
    }

    #[test]
    fn alloc_next_clears_block() {
        let mut c = cc();
        let (i, ev) = c.alloc_next(AbsAddr(0x100));
        assert!(ev.is_none());
        assert_eq!(c.next(), Some(i));
        assert_eq!(c.read(i, 5), (Word::Uninit, ClassId::UNINIT));
        assert_eq!(c.stats().clears, 1);
    }

    #[test]
    fn read_after_write_with_class_tag() {
        let mut c = cc();
        let (i, _) = c.alloc_next(AbsAddr(0x100));
        c.write(i, 3, Word::Int(7), ClassId::SMALL_INT);
        assert_eq!(c.read(i, 3), (Word::Int(7), ClassId::SMALL_INT));
    }

    #[test]
    fn directory_match_vector() {
        let mut c = cc();
        let (i, _) = c.alloc_next(AbsAddr(0x100));
        assert_eq!(c.find(AbsAddr(0x100)), Some(i));
        assert_eq!(c.find(AbsAddr(0x200)), None);
        let s = c.stats();
        assert_eq!(s.directory_lookups, 2);
        assert_eq!(s.directory_hits, 1);
    }

    #[test]
    fn eviction_prefers_free_then_lru_excluding_vectors() {
        let mut c = cc();
        let (a, _) = c.alloc_next(AbsAddr(0x100));
        c.set_current(Some(a));
        let (b, _) = c.alloc_next(AbsAddr(0x200)); // next
        let (x, _) = c.install(AbsAddr(0x300), [Word::Int(1); 32], [ClassId::SMALL_INT; 32]);
        let (y, _) = c.install(AbsAddr(0x400), [Word::Int(2); 32], [ClassId::SMALL_INT; 32]);
        assert_eq!(c.free_count(), 0);
        // Touch x so y is LRU among non-vector blocks.
        c.read(x, 0);
        let (_, ev) = c.install(AbsAddr(0x500), [Word::Uninit; 32], [ClassId::UNINIT; 32]);
        let ev = ev.expect("cache full, must evict");
        assert_eq!(ev.abs, AbsAddr(0x400));
        // current and next must never be evicted
        assert_eq!(c.block_abs(a), Some(AbsAddr(0x100)));
        assert_eq!(c.block_abs(b), Some(AbsAddr(0x200)));
        let _ = y;
    }

    #[test]
    fn release_frees_without_writeback() {
        let mut c = cc();
        let (i, _) = c.alloc_next(AbsAddr(0x100));
        c.write(i, 0, Word::Int(1), ClassId::SMALL_INT);
        c.release(AbsAddr(0x100));
        assert_eq!(c.free_count(), 4);
        assert_eq!(c.next(), None, "released block leaves the next vector");
        assert!(c.drain_dirty().next().is_none(), "released dirt is dead");
    }

    #[test]
    fn copyback_picks_lru_and_frees() {
        let mut c = cc();
        let (a, _) = c.alloc_next(AbsAddr(0x100));
        c.set_current(Some(a));
        c.alloc_next(AbsAddr(0x200));
        c.install(AbsAddr(0x300), [Word::Int(3); 32], [ClassId::SMALL_INT; 32]);
        c.install(AbsAddr(0x400), [Word::Int(4); 32], [ClassId::SMALL_INT; 32]);
        assert!(c.needs_copyback(2));
        let ev = c.copyback_victim().unwrap();
        assert_eq!(ev.abs, AbsAddr(0x300), "LRU non-vector block");
        assert_eq!(c.free_count(), 1);
        assert!(!c.needs_copyback(0));
    }

    #[test]
    fn dirty_blocks_drain_once() {
        let mut c = cc();
        let (i, _) = c.alloc_next(AbsAddr(0x100));
        c.write(i, 1, Word::Int(5), ClassId::SMALL_INT);
        let d = c.drain_dirty().next().expect("one dirty block");
        assert_eq!(d.abs, AbsAddr(0x100));
        assert_eq!(d.words[1], Word::Int(5));
        assert!(c.drain_dirty().next().is_none(), "second drain is empty");
    }

    #[test]
    #[should_panic(expected = "at least 3 blocks")]
    fn too_small_cache_panics() {
        let _ = ContextCache::new(2);
    }
}
