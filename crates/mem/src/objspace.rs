//! The object allocation and access API used by the machines.

use com_fpa::{Fpa, SegmentName};

use crate::absolute::BlockNames;
use crate::{
    AbsAddr, AbsoluteMemory, ClassId, MemError, Mmu, SegmentDescriptor, TeamId, Translation, Word,
};

/// What an allocation is for — drives the T5 statistics ("85% of all object
/// allocations and deallocations involve contexts", §2.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AllocKind {
    /// A method activation record (32-word context).
    Context,
    /// An ordinary data object.
    Object,
    /// A compiled-method code object.
    Code,
}

impl AllocKind {
    /// All kinds, for iteration in reports.
    pub const ALL: [AllocKind; 3] = [AllocKind::Context, AllocKind::Object, AllocKind::Code];
}

impl core::fmt::Display for AllocKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            AllocKind::Context => write!(f, "context"),
            AllocKind::Object => write!(f, "object"),
            AllocKind::Code => write!(f, "code"),
        }
    }
}

/// Allocation / deallocation / reference counters per [`AllocKind`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocStats {
    /// Allocations performed.
    pub allocs: [u64; 3],
    /// Deallocations performed.
    pub frees: [u64; 3],
    /// Words allocated.
    pub words: [u64; 3],
    /// Reads + writes through each kind's segments.
    pub references: [u64; 3],
}

impl AllocStats {
    fn idx(kind: AllocKind) -> usize {
        match kind {
            AllocKind::Context => 0,
            AllocKind::Object => 1,
            AllocKind::Code => 2,
        }
    }

    /// Allocations of `kind`.
    pub fn allocs_of(&self, kind: AllocKind) -> u64 {
        self.allocs[Self::idx(kind)]
    }

    /// References (reads + writes) through segments of `kind`.
    pub fn references_of(&self, kind: AllocKind) -> u64 {
        self.references[Self::idx(kind)]
    }

    /// Fraction of all allocations that are contexts (paper cites 85%).
    pub fn context_alloc_fraction(&self) -> Option<f64> {
        let total: u64 = self.allocs.iter().sum();
        if total == 0 {
            None
        } else {
            Some(self.allocs_of(AllocKind::Context) as f64 / total as f64)
        }
    }

    /// Fraction of all references that touch contexts (paper cites 91%).
    pub fn context_reference_fraction(&self) -> Option<f64> {
        let total: u64 = self.references.iter().sum();
        if total == 0 {
            None
        } else {
            Some(self.references_of(AllocKind::Context) as f64 / total as f64)
        }
    }
}

/// Read-only snapshot of the generational bookkeeping (reports, benches).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BarrierStats {
    /// Live nursery segments.
    pub nursery_segments: usize,
    /// Tenured segments currently in the remembered set.
    pub remembered_segments: usize,
    /// Pointer stores that consulted the write barrier.
    pub pointer_stores: u64,
    /// Stores (and grows of tenured objects) that newly remembered a
    /// tenured segment.
    pub remembers: u64,
}

/// The storage system the machines allocate from: absolute memory + MMU,
/// with per-kind accounting and automatic growth forwarding.
///
/// ```
/// use com_fpa::FpaFormat;
/// use com_mem::{AllocKind, ClassId, ObjectSpace, TeamId, Word};
///
/// # fn main() -> Result<(), com_mem::MemError> {
/// let mut space = ObjectSpace::new(24, FpaFormat::COM);
/// let team = TeamId(0);
/// let obj = space.create(team, ClassId(9), 10, AllocKind::Object)?;
/// space.write(team, obj.with_offset(3)?, Word::Int(7))?;
/// assert_eq!(space.read(team, obj.with_offset(3)?)?, Word::Int(7));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ObjectSpace {
    mem: AbsoluteMemory,
    mmu: Mmu,
    stats: AllocStats,
    /// Pointers repaired by following growth forwards during read/write.
    repairs: u64,
}

impl ObjectSpace {
    /// Creates a space of `2^space_log2` absolute words with one team
    /// (`TeamId(0)`) pre-created.
    pub fn new(space_log2: u8, format: com_fpa::FpaFormat) -> Self {
        let mut mmu = Mmu::new(format);
        mmu.create_team(TeamId(0));
        ObjectSpace {
            mem: AbsoluteMemory::new(space_log2),
            mmu,
            stats: AllocStats::default(),
            repairs: 0,
        }
    }

    /// The MMU and memory, split for the collector.
    pub(crate) fn gc_parts(&mut self) -> (&mut Mmu, &mut AbsoluteMemory) {
        (&mut self.mmu, &mut self.mem)
    }

    /// Write-barrier and generation counters, summed over the teams.
    pub fn barrier_stats(&self) -> BarrierStats {
        let mut stats = BarrierStats::default();
        for ts in self.mmu.teams() {
            for (_, slot) in ts.table.slots() {
                stats.nursery_segments += usize::from(slot.young);
                stats.remembered_segments += usize::from(slot.remembered);
            }
            stats.pointer_stores += ts.book.barrier_stores;
            stats.remembers += ts.book.barrier_remembers;
        }
        stats
    }

    /// The canonical (widest, newest) live segment based at absolute block
    /// `base` — how the machine maps a context-cache-resident block back to
    /// the segment it pins at collection time.
    pub fn segment_at_base(&self, base: AbsAddr) -> Option<SegmentName> {
        self.mem.block(base)?.names.as_slice().first().copied()
    }

    /// The write barrier: a pointer word was stored at absolute address
    /// `abs`. Stores into young blocks need no record (a minor collection
    /// traverses them in full); a store into a tenured block puts the
    /// block's canonical segment on its team's remembered list so a minor
    /// collection scans it.
    #[inline]
    fn note_pointer_store(&mut self, abs: AbsAddr) {
        let Some((_, block)) = self.mem.block_containing(abs) else {
            return;
        };
        let (team, young) = (block.team, block.young);
        let canon = block.names.as_slice().first().copied();
        let Ok(ts) = self.mmu.team_mut(team) else {
            return;
        };
        ts.book.barrier_stores += 1;
        if let Some(canon) = canon.filter(|_| !young) {
            ts.remember(canon);
        }
    }

    /// The underlying MMU (teams, ATLB, trap counters).
    pub fn mmu(&self) -> &Mmu {
        &self.mmu
    }

    /// Mutable access to the MMU (team creation, invalidation).
    pub fn mmu_mut(&mut self) -> &mut Mmu {
        &mut self.mmu
    }

    /// The underlying absolute memory.
    pub fn memory(&self) -> &AbsoluteMemory {
        &self.mem
    }

    /// Mutable access to the absolute memory: a write through it bypasses
    /// the write barrier.
    pub fn memory_mut(&mut self) -> &mut AbsoluteMemory {
        &mut self.mem
    }

    /// Allocation statistics for experiment T5.
    pub fn stats(&self) -> AllocStats {
        self.stats
    }

    /// Pointers repaired by growth forwarding during reads/writes.
    pub fn repairs(&self) -> u64 {
        self.repairs
    }

    /// Creates an object of `words` words and class `class` in `team`,
    /// returning its base capability.
    ///
    /// # Errors
    ///
    /// Returns naming errors from `com-fpa` or
    /// [`MemError::OutOfAbsoluteSpace`].
    pub fn create(
        &mut self,
        team: TeamId,
        class: ClassId,
        words: u64,
        kind: AllocKind,
    ) -> Result<Fpa, MemError> {
        let words = words.max(1);
        let (addr, _) = self.new_segment(team, class, words)?;
        let i = AllocStats::idx(kind);
        self.stats.allocs[i] += 1;
        self.stats.words[i] += words;
        Ok(addr)
    }

    /// Allocates a block of `words` words and a fresh name for it in
    /// `team`, both young, returning the name's base capability and the
    /// block's base.
    fn new_segment(
        &mut self,
        team: TeamId,
        class: ClassId,
        words: u64,
    ) -> Result<(Fpa, AbsAddr), MemError> {
        let ts = self.mmu.team_mut(team)?;
        let base = self.mem.alloc_block(words)?;
        let addr = match ts.names.alloc_for_size(words) {
            Ok(a) => a,
            Err(e) => {
                self.mem.free_block(base)?;
                return Err(e.into());
            }
        };
        let name = addr.segment();
        ts.table
            .insert(name, SegmentDescriptor::new(base, words, class));
        ts.table.slot_mut(name).expect("inserted above").young = true;
        ts.book.young_names.push(name);
        let block = self.mem.block_mut(base).expect("allocated above");
        (block.team, block.young, block.names) = (team, true, BlockNames::One(name));
        Ok((addr, base))
    }

    /// Creates an object of `words` words and fills its first
    /// `contents.len()` words in one pass — the bulk load path (code
    /// stores, image boot). One translation and one bounds check cover the
    /// whole fill; reference accounting and the pointer-store barrier
    /// behave exactly as the equivalent sequence of per-word
    /// [`write_kind`](Self::write_kind) calls would.
    ///
    /// # Errors
    ///
    /// Propagates allocation and mapping errors; `contents` longer than
    /// `words` is a bounds error.
    pub fn create_filled(
        &mut self,
        team: TeamId,
        class: ClassId,
        words: u64,
        kind: AllocKind,
        contents: &[Word],
    ) -> Result<Fpa, MemError> {
        let addr = self.create(team, class, words, kind)?;
        if contents.is_empty() {
            return Ok(addr);
        }
        if contents.len() as u64 > words.max(1) {
            // Undo the allocation before reporting: the caller gets no
            // handle back, so an object left behind here would be
            // unfreeable.
            self.free(team, addr, kind)?;
            return Err(MemError::Bounds {
                addr,
                offset: contents.len() as u64 - 1,
                length: words.max(1),
            });
        }
        let abs = self.translate(team, addr)?.abs;
        self.mem.write_run(abs, contents)?;
        self.stats.references[AllocStats::idx(kind)] += contents.len() as u64;
        for (i, w) in contents.iter().enumerate() {
            if w.as_ptr().is_some() {
                self.note_pointer_store(abs.offset(i as u64));
            }
        }
        Ok(addr)
    }

    /// Frees the object named by `addr` (which must be a base capability),
    /// releasing its storage and descriptor.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::UnknownSegment`] for dangling names.
    pub fn free(&mut self, team: TeamId, addr: Fpa, kind: AllocKind) -> Result<(), MemError> {
        let segment = addr.segment();
        let ts = self.mmu.team_mut(team)?;
        let desc = ts
            .table
            .remove(segment)
            .ok_or(MemError::UnknownSegment { team, segment })?;
        ts.names.free(segment);
        self.mmu.invalidate(team, segment);
        // Aliased (forwarded-from) names may still reference this block; the
        // storage is freed only if this descriptor still owns a live block
        // at its base (forwarded old names share the new block).
        if let Some(block) = self.mem.block_mut(desc.base) {
            block.drop_name(team, segment);
            if desc.forward.is_none() {
                self.mem.free_block(desc.base)?;
            }
        }
        self.stats.frees[AllocStats::idx(kind)] += 1;
        Ok(())
    }

    /// Grows the object at `addr` to `new_words`, returning its new (wider)
    /// capability. Implements §2.2: a new segment is allocated, both old and
    /// new descriptors point at it, and the old descriptor forwards.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::GrowTooLarge`], naming errors, or
    /// [`MemError::UnknownSegment`].
    pub fn grow(&mut self, team: TeamId, addr: Fpa, new_words: u64) -> Result<Fpa, MemError> {
        let segment = addr.segment();
        let old_desc = {
            let ts = self.mmu.team(team)?;
            *ts.table
                .get(segment)
                .ok_or(MemError::UnknownSegment { team, segment })?
        };
        if new_words <= old_desc.length {
            return Ok(addr); // nothing to do
        }
        let (new_addr, new_abs) = match self.new_segment(team, old_desc.class, new_words) {
            Err(MemError::Address(com_fpa::FpaError::ObjectTooLarge { .. })) => {
                return Err(MemError::GrowTooLarge { addr, new_words })
            }
            made => made?,
        };
        let old_base = old_desc.base;
        let words = (self.mem.words_from(old_base)).and_then(|w| w.get(..old_desc.length as usize));
        let words = words.ok_or(MemError::UnmappedAbsolute(old_base))?.to_vec();
        self.mem.write_run(new_abs, &words)?;
        // "The segment descriptors of both the old and the new pointers are
        // set to point to the new segment." Every name of the old block —
        // aliases left behind by earlier grows included — is re-pointed and
        // forwarded to the newest name, so no alias can observe the freed
        // storage, and follows it into the new block's record after the
        // new canonical name. Each alias now forwards into the young
        // generation, so a tenured alias is a tenured segment holding a
        // young pointer and joins the remembered list: a minor collection
        // that reaches it only through a tenured holder never scans that
        // holder, and would otherwise sweep the new name.
        let aliases = self
            .mem
            .block_mut(old_base)
            .filter(|block| block.team == team)
            .map(|block| std::mem::take(&mut block.names))
            .unwrap_or_default();
        let ts = self.mmu.team_mut(team)?;
        for &name in aliases.as_slice() {
            if let Some(slot) = ts.table.slot_mut(name) {
                slot.desc.base = new_abs;
                slot.desc.forward = Some(new_addr);
                if !slot.young {
                    ts.remember(name);
                }
            }
        }
        for &name in aliases.as_slice() {
            self.mmu.invalidate(team, name);
        }
        let names = std::iter::once(new_addr.segment()).chain(aliases.as_slice().iter().copied());
        let block = self.mem.block_mut(new_abs).expect("allocated above");
        block.names = BlockNames::Many(names.collect());
        self.mem.free_block(old_base)?;
        Ok(new_addr)
    }

    /// Translates an address, following growth forwarding transparently.
    ///
    /// # Errors
    ///
    /// Propagates translation errors other than recoverable forwarding.
    pub fn translate(&mut self, team: TeamId, addr: Fpa) -> Result<Translation, MemError> {
        let (t, repaired) = self.mmu.translate_following(team, addr)?;
        if repaired.is_some() {
            self.repairs += 1;
        }
        Ok(t)
    }

    /// Reads the word at `addr`, counting the reference against `kind`
    /// when known (contexts vs objects for T5).
    ///
    /// # Errors
    ///
    /// Propagates translation and mapping errors.
    pub fn read_kind(
        &mut self,
        team: TeamId,
        addr: Fpa,
        kind: AllocKind,
    ) -> Result<Word, MemError> {
        let t = self.translate(team, addr)?;
        self.stats.references[AllocStats::idx(kind)] += 1;
        self.mem.read(t.abs)
    }

    /// Reads the word at `addr` (counted as an object reference).
    ///
    /// # Errors
    ///
    /// Propagates translation and mapping errors.
    pub fn read(&mut self, team: TeamId, addr: Fpa) -> Result<Word, MemError> {
        self.read_kind(team, addr, AllocKind::Object)
    }

    /// Writes the word at `addr`, counting the reference against `kind`.
    ///
    /// # Errors
    ///
    /// Propagates translation and mapping errors.
    pub fn write_kind(
        &mut self,
        team: TeamId,
        addr: Fpa,
        word: Word,
        kind: AllocKind,
    ) -> Result<(), MemError> {
        let t = self.translate(team, addr)?;
        self.stats.references[AllocStats::idx(kind)] += 1;
        self.mem.write(t.abs, word)?;
        if word.as_ptr().is_some() {
            self.note_pointer_store(t.abs);
        }
        Ok(())
    }

    /// Writes the word at `addr` (counted as an object reference).
    ///
    /// # Errors
    ///
    /// Propagates translation and mapping errors.
    pub fn write(&mut self, team: TeamId, addr: Fpa, word: Word) -> Result<(), MemError> {
        self.write_kind(team, addr, word, AllocKind::Object)
    }

    /// Reads a word by absolute address (for callers that already hold a
    /// translation), counting the reference against `kind`.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::UnmappedAbsolute`] outside any live block.
    pub fn read_abs(&mut self, abs: crate::AbsAddr, kind: AllocKind) -> Result<Word, MemError> {
        self.stats.references[AllocStats::idx(kind)] += 1;
        self.mem.read(abs)
    }

    /// Writes a word by absolute address, counting the reference against
    /// `kind`.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::UnmappedAbsolute`] outside any live block.
    pub fn write_abs(
        &mut self,
        abs: crate::AbsAddr,
        word: Word,
        kind: AllocKind,
    ) -> Result<(), MemError> {
        self.stats.references[AllocStats::idx(kind)] += 1;
        self.mem.write(abs, word)?;
        if word.as_ptr().is_some() {
            self.note_pointer_store(abs);
        }
        Ok(())
    }

    /// The class of the object at `addr` (one descriptor access).
    ///
    /// # Errors
    ///
    /// Propagates descriptor-lookup errors.
    pub fn class_of(&mut self, team: TeamId, addr: Fpa) -> Result<ClassId, MemError> {
        let (d, _) = self.mmu.descriptor(team, addr.segment())?;
        Ok(d.class)
    }

    /// The length in words of the object at `addr`.
    ///
    /// # Errors
    ///
    /// Propagates descriptor-lookup errors.
    pub fn length_of(&mut self, team: TeamId, addr: Fpa) -> Result<u64, MemError> {
        let (d, _) = self.mmu.descriptor(team, addr.segment())?;
        Ok(d.length)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use com_fpa::FpaFormat;

    const TEAM: TeamId = TeamId(0);

    fn space() -> ObjectSpace {
        ObjectSpace::new(20, FpaFormat::COM)
    }

    #[test]
    fn create_read_write_free() {
        let mut s = space();
        let obj = s.create(TEAM, ClassId(9), 8, AllocKind::Object).unwrap();
        s.write(TEAM, obj.with_offset(2).unwrap(), Word::Int(5))
            .unwrap();
        assert_eq!(
            s.read(TEAM, obj.with_offset(2).unwrap()).unwrap(),
            Word::Int(5)
        );
        assert_eq!(s.class_of(TEAM, obj).unwrap(), ClassId(9));
        assert_eq!(s.length_of(TEAM, obj).unwrap(), 8);
        s.free(TEAM, obj, AllocKind::Object).unwrap();
        assert!(s.read(TEAM, obj).is_err());
    }

    #[test]
    fn stats_track_kinds() {
        let mut s = space();
        let ctx = s.create(TEAM, ClassId(8), 32, AllocKind::Context).unwrap();
        let obj = s.create(TEAM, ClassId(9), 4, AllocKind::Object).unwrap();
        s.write_kind(TEAM, ctx, Word::Int(1), AllocKind::Context)
            .unwrap();
        s.write_kind(
            TEAM,
            ctx.with_offset(1).unwrap(),
            Word::Int(2),
            AllocKind::Context,
        )
        .unwrap();
        s.read_kind(TEAM, obj, AllocKind::Object).unwrap();
        let st = s.stats();
        assert_eq!(st.allocs_of(AllocKind::Context), 1);
        assert_eq!(st.allocs_of(AllocKind::Object), 1);
        assert_eq!(st.references_of(AllocKind::Context), 2);
        assert_eq!(st.references_of(AllocKind::Object), 1);
        assert!((st.context_alloc_fraction().unwrap() - 0.5).abs() < 1e-9);
        assert!((st.context_reference_fraction().unwrap() - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn grow_preserves_contents_and_forwards() {
        let mut s = space();
        let obj = s.create(TEAM, ClassId(9), 4, AllocKind::Object).unwrap();
        for i in 0..4 {
            s.write(TEAM, obj.with_offset(i).unwrap(), Word::Int(i as i64 * 10))
                .unwrap();
        }
        let new = s.grow(TEAM, obj, 100).unwrap();
        assert!(new.capacity() >= 100);
        // Old data visible through both names.
        for i in 0..4 {
            assert_eq!(
                s.read(TEAM, new.with_offset(i).unwrap()).unwrap(),
                Word::Int(i as i64 * 10)
            );
            assert_eq!(
                s.read(TEAM, obj.with_offset(i).unwrap()).unwrap(),
                Word::Int(i as i64 * 10)
            );
        }
        // Writing through the old name is visible through the new one.
        s.write(TEAM, obj.with_offset(1).unwrap(), Word::Int(-1))
            .unwrap();
        assert_eq!(
            s.read(TEAM, new.with_offset(1).unwrap()).unwrap(),
            Word::Int(-1)
        );
    }

    #[test]
    fn stale_pointer_is_repaired_on_out_of_bounds_access() {
        let mut s = space();
        let obj = s.create(TEAM, ClassId(9), 4, AllocKind::Object).unwrap();
        let new = s.grow(TEAM, obj, 40).unwrap();
        s.write(TEAM, new.with_offset(20).unwrap(), Word::Int(99))
            .unwrap();
        // A stale pointer cannot even *encode* offset 20 (old capacity 4);
        // but offsets inside the old capacity beyond old length trap+forward.
        assert_eq!(s.repairs(), 0);
        // offset 3 < old length 4: no repair needed.
        s.read(TEAM, obj.with_offset(3).unwrap()).unwrap();
        assert_eq!(s.repairs(), 0);
    }

    #[test]
    fn grow_too_large_is_reported() {
        let mut s = ObjectSpace::new(20, FpaFormat::DEMO16);
        let obj = s.create(TEAM, ClassId(9), 4, AllocKind::Object).unwrap();
        // DEMO16 max segment = 2^12 words; growing beyond must fail.
        assert!(matches!(
            s.grow(TEAM, obj, 1 << 13),
            Err(MemError::GrowTooLarge { .. })
        ));
        // The object must remain intact after the failed grow.
        assert_eq!(s.length_of(TEAM, obj).unwrap(), 4);
    }

    #[test]
    fn an_unknown_team_gets_no_block() {
        let mut s = space();
        let unknown = TeamId(9);
        let made = s.create(unknown, ClassId(9), 8, AllocKind::Object);
        assert_eq!(made, Err(MemError::UnknownTeam(unknown)));
        assert_eq!(s.memory().buddy().allocated_words(), 0);
    }

    #[test]
    fn grow_to_smaller_is_noop() {
        let mut s = space();
        let obj = s.create(TEAM, ClassId(9), 16, AllocKind::Object).unwrap();
        let same = s.grow(TEAM, obj, 8).unwrap();
        assert_eq!(same, obj);
    }

    #[test]
    fn freeing_grown_object_via_new_name_releases_storage() {
        let mut s = space();
        let obj = s.create(TEAM, ClassId(9), 4, AllocKind::Object).unwrap();
        let new = s.grow(TEAM, obj, 64).unwrap();
        let live_before = s.memory().buddy().allocated_words();
        s.free(TEAM, new, AllocKind::Object).unwrap();
        assert!(s.memory().buddy().allocated_words() < live_before);
        // The stale alias now dangles; reads through it fail rather than
        // returning freed storage.
        assert!(s.read(TEAM, new).is_err());
    }
}
