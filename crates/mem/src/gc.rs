//! Generational garbage collection over absolute space.
//!
//! §3.1: "All object management, for example garbage collection, is
//! performed in absolute space." §2.3 motivates the cost model: "In current
//! Smalltalk implementations garbage collecting consumes approximately one
//! third of the execution time. Of this time, 82% of all allocations and
//! deallocations occur for contexts." The machine (`com-core`) frees LIFO
//! contexts eagerly; everything else — including captured (non-LIFO)
//! contexts — is reclaimed here.
//!
//! # Two generations
//!
//! Because most garbage dies young (the §2.3 context/allocation churn), the
//! collector splits each team's heap in two:
//!
//! * The **nursery** — every segment allocated since the team's last
//!   collection. [`collect_minor`] traverses and sweeps *only* the nursery,
//!   plus the roots, any pinned segments, and the **remembered** segments —
//!   tenured segments the [`ObjectSpace`] write barrier saw a pointer stored
//!   into. Its cost is proportional to young data, not to heap size.
//! * The **tenured** space — survivors of any collection. Only [`collect`]
//!   (a full mark-sweep) reclaims tenured garbage.
//!
//! Every collection ends with a *promotion*: all the team's survivors become
//! tenured, its nursery and remembered list empty, and the barrier
//! invariant — "no unremembered tenured segment points into the nursery" —
//! is re-established vacuously. Other teams' generations are untouched.
//!
//! # One record per name, one per block
//!
//! A name's descriptor and collector state (young, remembered, its mark)
//! are one slot of its team's descriptor table, in a row per exponent class
//! indexed by in-class index; a live block's words, young bit and names
//! (canonical first) are one record in [`AbsoluteMemory`]'s slab. A name
//! read from a word is only looked up, never added: image words and a
//! privileged `as:` can name any index of a class. Each reached segment is
//! scanned as one slice of its block, and the names marked are unmarked
//! when the sweep begins.
//!
//! The full sweep goes in the table's (exponent, index) order, the minor
//! sweep in the young list's order. That is the order blocks go back to the
//! buddy allocator and names to their free lists, so it decides the
//! absolute addresses and names later allocations get. The instruction
//! cache keys on absolute addresses and the ATLB on names, so a sweep in
//! another order could move simulated counts while freeing the same
//! objects.

use com_fpa::{Fpa, SegmentName};

use crate::segment::Slot;
use crate::{AbsoluteMemory, AllocKind, MemError, Mmu, ObjectSpace, TeamId, TeamSpace, Word};

/// Which generation a collection covered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GcKind {
    /// Nursery-only collection ([`collect_minor`]).
    Minor,
    /// Full mark-sweep over both generations ([`collect`]).
    Full,
}

impl core::fmt::Display for GcKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            GcKind::Minor => write!(f, "minor"),
            GcKind::Full => write!(f, "full"),
        }
    }
}

/// Statistics from one collection.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcStats {
    /// Whether this was a minor (nursery-only) collection.
    pub minor: bool,
    /// Segments found reachable (traversed).
    pub marked_segments: u64,
    /// Segment descriptors reclaimed.
    pub swept_segments: u64,
    /// Absolute blocks returned to the buddy allocator.
    pub blocks_freed: u64,
    /// Words of storage freed.
    pub words_freed: u64,
    /// Words scanned during marking (the dominant cost term).
    pub words_scanned: u64,
    /// Remembered-set entries seeded into the scan (minor collections).
    pub remembered_scanned: u64,
    /// Nursery survivors promoted to the tenured generation.
    pub promoted_segments: u64,
}

impl GcStats {
    /// A simulated cycle cost for this collection: one cycle per word
    /// scanned plus ten per descriptor swept (table surgery).
    pub fn cost_cycles(&self) -> u64 {
        self.words_scanned + 10 * self.swept_segments
    }
}

/// A segment name's mark in the current collection, kept in its slot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) enum Mark {
    /// Not reached (every name, between collections).
    #[default]
    Unseen,
    /// Reached and its words scanned: it survives the sweep.
    Scanned,
    /// Reached by a minor mark, tenured and unforced: it survives by
    /// generation and is not scanned.
    SeenTenured,
}

/// What the collector keeps with a team's descriptor table besides each
/// name's own state in its slot: the lists that drive its iteration, and
/// the team's write-barrier counters. A listed name that was freed, or
/// freed and allocated again, keeps its entry until the collection, which
/// goes by the slot's state.
#[derive(Debug, Clone, Default)]
pub(crate) struct GcBook {
    /// Names allocated since the team's last collection, in allocation
    /// order: the minor sweep's candidates.
    pub(crate) young_names: Vec<SegmentName>,
    /// Tenured names that may hold a pointer to a young segment, dirtied by
    /// the write barrier or left as aliases by a grow since the last
    /// collection: the minor mark's forced seeds.
    pub(crate) remembered_names: Vec<SegmentName>,
    /// The names marked in the current collection.
    marked_names: Vec<SegmentName>,
    /// The mark's work list (empty between collections).
    work: Vec<(SegmentName, bool)>,
    /// Pointer stores into the team's blocks that consulted the barrier.
    pub(crate) barrier_stores: u64,
    /// Barrier consultations and grows that newly remembered a tenured
    /// segment.
    pub(crate) barrier_remembers: u64,
}

/// Pops the team's work list until empty, scanning each segment's words
/// for pointers. `scan_all` selects the full mark (every reached segment is
/// traversed); otherwise only forced entries and young names are traversed
/// (the minor mark: tenured segments terminate the walk, their young
/// pointers being covered by the remembered list / pinning — a tenured
/// alias that a grow re-pointed into a young block is remembered). Leaves
/// the survivors marked [`Mark::Scanned`].
fn mark(ts: &mut TeamSpace, mem: &AbsoluteMemory, scan_all: bool, stats: &mut GcStats) {
    while let Some((seg, force)) = ts.book.work.pop() {
        let Some(slot) = ts.table.slot_mut(seg) else {
            continue; // dangling root/remembered entry: skip
        };
        if slot.mark == Mark::Scanned {
            continue;
        }
        let desc = slot.desc;
        if slot.mark == Mark::Unseen {
            ts.book.marked_names.push(seg);
        }
        if !(scan_all || force || slot.young) {
            // Tenured, unforced: the segment survives by generation; its
            // outgoing young pointers are covered by the remembered list.
            slot.mark = Mark::SeenTenured;
            continue;
        }
        slot.mark = Mark::Scanned;
        stats.marked_segments += 1;
        if let Some(fwd) = desc.forward {
            ts.book.work.push((fwd.segment(), false));
        }
        // One slice per live block the segment's words lie in: one, unless
        // a stale alias's block was freed and its addresses reused.
        let mut off = 0;
        while off < desc.length {
            let Some(words) = mem.words_from(desc.base.offset(off)) else {
                // The block may have been freed through an alias; the
                // first unmapped word is counted and ends the scan.
                stats.words_scanned += 1;
                break;
            };
            let words = &words[..(words.len() as u64).min(desc.length - off) as usize];
            stats.words_scanned += words.len() as u64;
            off += words.len() as u64;
            for word in words {
                if let Word::Ptr(p) = word {
                    let target = p.segment();
                    if ts
                        .table
                        .slot(target)
                        .is_some_and(|t| t.mark == Mark::Unseen)
                    {
                        ts.book.work.push((target, false));
                    }
                }
            }
        }
    }
}

/// Unmarks the names marked in this collection, sweeps `dead` in order —
/// each name's descriptor goes, and a block goes when its last name does —
/// then promotes the team's young survivors to the tenured generation.
fn sweep(
    mmu: &mut Mmu,
    mem: &mut AbsoluteMemory,
    team: TeamId,
    mut dead: Vec<SegmentName>,
    stats: &mut GcStats,
) -> Result<(), MemError> {
    let ts = mmu.team_mut(team)?;
    for name in ts.book.marked_names.drain(..) {
        if let Some(slot) = ts.table.slot_mut(name) {
            slot.mark = Mark::Unseen;
        }
    }
    let mut free_bases = Vec::new();
    dead.retain(|&name| {
        let Some(desc) = ts.table.remove(name) else {
            return false; // listed twice
        };
        ts.names.free(name);
        if mem
            .block_mut(desc.base)
            .is_some_and(|block| block.drop_name(team, name))
        {
            free_bases.push(desc.base);
        }
        true
    });
    stats.swept_segments = dead.len() as u64;
    for name in ts.book.young_names.drain(..) {
        let Some(slot) = ts.table.slot_mut(name).filter(|slot| slot.young) else {
            continue;
        };
        slot.young = false;
        stats.promoted_segments += 1;
        // A name that forwards nowhere is its block's canonical name.
        if slot.desc.forward.is_none() {
            if let Some(block) = mem.block_mut(slot.desc.base) {
                block.young = false;
            }
        }
    }
    for name in dead {
        mmu.invalidate(team, name);
    }
    for base in free_bases {
        if let Some(words) = mem.block_words(base) {
            mem.free_block(base)?;
            stats.blocks_freed += 1;
            stats.words_freed += words;
        }
    }
    Ok(())
}

/// Runs a stop-the-world **full** mark-sweep collection of `team`, treating
/// `roots` (plus any additional `pinned` segments, e.g. contexts resident
/// in the context cache) as live. Ends with a promotion: all of the team's
/// survivors are tenured afterwards. Other teams' generations are left as
/// they are.
///
/// # Errors
///
/// Returns [`MemError::UnknownTeam`] for a bad team id; dangling roots are
/// ignored rather than failing the collection.
pub fn collect<'a>(
    space: &mut ObjectSpace,
    team: TeamId,
    roots: impl IntoIterator<Item = &'a Fpa>,
    pinned: &[SegmentName],
) -> Result<GcStats, MemError> {
    collect_kind(space, team, GcKind::Full, roots, pinned)
}

/// Runs a **minor** (young-generation) collection of `team`: marks from
/// `roots`, the `pinned` segments (scanned unconditionally — the machine
/// pins context-cache residents here, whose stores bypass the write
/// barrier), and the team's remembered list; sweeps only its unreached
/// young segments; then promotes the survivors.
///
/// Tenured segments are never reclaimed here — that is [`collect`]'s job —
/// so the cost is proportional to young data plus the remembered list, not
/// to the live heap.
///
/// # Errors
///
/// Same as [`collect`].
pub fn collect_minor<'a>(
    space: &mut ObjectSpace,
    team: TeamId,
    roots: impl IntoIterator<Item = &'a Fpa>,
    pinned: &[SegmentName],
) -> Result<GcStats, MemError> {
    collect_kind(space, team, GcKind::Minor, roots, pinned)
}

/// One collection of `team`: seeds the mark with `roots`, then `pinned`
/// (forced), then — minor only — the remembered list (forced), which
/// every collection empties (the barrier invariant holds vacuously after
/// the promotion); marks; and sweeps every unreached name, or only the
/// young ones in a minor collection.
fn collect_kind<'a>(
    space: &mut ObjectSpace,
    team: TeamId,
    kind: GcKind,
    roots: impl IntoIterator<Item = &'a Fpa>,
    pinned: &[SegmentName],
) -> Result<GcStats, MemError> {
    let minor = kind == GcKind::Minor;
    let mut stats = GcStats {
        minor,
        ..GcStats::default()
    };
    let (mmu, mem) = space.gc_parts();
    let ts = mmu.team_mut(team)?;
    let work = &mut ts.book.work;
    work.extend(roots.into_iter().map(|root| (root.segment(), false)));
    work.extend(pinned.iter().map(|name| (*name, true)));
    for name in ts.book.remembered_names.drain(..) {
        if let Some(slot) = ts.table.slot_mut(name).filter(|slot| slot.remembered) {
            slot.remembered = false;
            if minor {
                stats.remembered_scanned += 1;
                ts.book.work.push((name, true));
            }
        }
    }
    mark(ts, mem, !minor, &mut stats);
    let unreached = |slot: &Slot| slot.mark != Mark::Scanned;
    let dead = if minor {
        let young = ts.book.young_names.iter().copied();
        young
            .filter(|name| {
                ts.table
                    .slot(*name)
                    .is_some_and(|s| s.young && unreached(s))
            })
            .collect()
    } else {
        let slots = ts.table.slots().filter(|(_, slot)| unreached(slot));
        slots.map(|(name, _)| name).collect()
    };
    sweep(mmu, mem, team, dead, &mut stats)?;
    Ok(stats)
}

/// Convenience: full collection with object roots only.
///
/// # Errors
///
/// Same as [`collect`].
pub fn collect_simple(
    space: &mut ObjectSpace,
    team: TeamId,
    roots: &[Fpa],
) -> Result<GcStats, MemError> {
    collect(space, team, roots, &[])
}

/// Builds a linked list of `n` objects for tests and benchmarks: each node
/// is `[next_ptr, payload]` of class `class`.
///
/// # Errors
///
/// Propagates allocation errors.
pub fn build_list(
    space: &mut ObjectSpace,
    team: TeamId,
    class: crate::ClassId,
    n: usize,
) -> Result<Vec<Fpa>, MemError> {
    let mut nodes = Vec::with_capacity(n);
    let mut prev: Option<Fpa> = None;
    for i in 0..n {
        let node = space.create(team, class, 2, AllocKind::Object)?;
        space.write(team, node.with_offset(1)?, Word::Int(i as i64))?;
        if let Some(p) = prev {
            space.write(team, node, Word::Ptr(p))?;
        }
        prev = Some(node);
        nodes.push(node);
    }
    Ok(nodes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ClassId;
    use com_cache::Rng;
    use com_fpa::FpaFormat;

    const TEAM: TeamId = TeamId(0);
    const CLS: ClassId = ClassId(9);

    fn space() -> ObjectSpace {
        ObjectSpace::new(20, FpaFormat::COM)
    }

    #[test]
    fn unreachable_objects_are_swept() {
        let mut s = space();
        let keep = s.create(TEAM, CLS, 4, AllocKind::Object).unwrap();
        let garbage = s.create(TEAM, CLS, 4, AllocKind::Object).unwrap();
        let st = collect_simple(&mut s, TEAM, &[keep]).unwrap();
        assert_eq!(st.marked_segments, 1);
        assert_eq!(st.swept_segments, 1);
        assert_eq!(st.blocks_freed, 1);
        assert!(s.read(TEAM, keep).is_ok());
        assert!(s.read(TEAM, garbage).is_err());
        let st = collect_simple(&mut s, TEAM, &[keep]).unwrap();
        assert_eq!(st.swept_segments, 0, "a second collection sweeps nothing");
    }

    #[test]
    fn pointer_chains_stay_alive() {
        let mut s = space();
        let nodes = build_list(&mut s, TEAM, CLS, 10).unwrap();
        let head = *nodes.last().unwrap();
        let st = collect_simple(&mut s, TEAM, &[head]).unwrap();
        assert_eq!(st.marked_segments, 10);
        assert_eq!(st.swept_segments, 0);
        // Every node's payload survives.
        for (i, n) in nodes.iter().enumerate() {
            assert_eq!(
                s.read(TEAM, n.with_offset(1).unwrap()).unwrap(),
                Word::Int(i as i64)
            );
        }
    }

    #[test]
    fn dropping_the_head_reclaims_the_chain() {
        let mut s = space();
        let nodes = build_list(&mut s, TEAM, CLS, 10).unwrap();
        let mid = nodes[4]; // keep only the first half alive
        let st = collect_simple(&mut s, TEAM, &[mid]).unwrap();
        assert_eq!(st.marked_segments, 5);
        assert_eq!(st.swept_segments, 5);
        assert!(s.read(TEAM, nodes[9]).is_err());
        assert!(s.read(TEAM, nodes[0]).is_ok());
    }

    #[test]
    fn grown_objects_keep_shared_storage_until_both_names_die() {
        let mut s = space();
        let old = s.create(TEAM, CLS, 4, AllocKind::Object).unwrap();
        s.write(TEAM, old, Word::Int(7)).unwrap();
        let new = s.grow(TEAM, old, 64).unwrap();
        // Root via the *old* name only: forwarding edge must keep `new`
        // (and the shared storage) alive.
        let st = collect_simple(&mut s, TEAM, &[old]).unwrap();
        assert_eq!(st.swept_segments, 0, "forwarded target must survive");
        assert_eq!(s.read(TEAM, new).unwrap(), Word::Int(7));
        // Now root nothing: both names and the storage go.
        let st = collect_simple(&mut s, TEAM, &[]).unwrap();
        assert_eq!(st.swept_segments, 2);
        assert_eq!(st.blocks_freed, 1, "shared block freed exactly once");
    }

    #[test]
    fn pinned_segments_survive_without_roots() {
        let mut s = space();
        let ctx = s.create(TEAM, CLS, 32, AllocKind::Context).unwrap();
        let st = collect(&mut s, TEAM, &[], &[ctx.segment()]).unwrap();
        assert_eq!(st.swept_segments, 0);
        assert!(s.read(TEAM, ctx).is_ok());
    }

    #[test]
    fn cycles_are_collected() {
        let mut s = space();
        let a = s.create(TEAM, CLS, 2, AllocKind::Object).unwrap();
        let b = s.create(TEAM, CLS, 2, AllocKind::Object).unwrap();
        s.write(TEAM, a, Word::Ptr(b)).unwrap();
        s.write(TEAM, b, Word::Ptr(a)).unwrap();
        // Cycle is unreachable: both must be swept, and marking must
        // terminate (no infinite loop).
        let st = collect_simple(&mut s, TEAM, &[]).unwrap();
        assert_eq!(st.swept_segments, 2);
    }

    #[test]
    fn gc_cost_scales_with_scanned_words() {
        let mut s = space();
        let mut roots = Vec::new();
        for _ in 0..5 {
            roots.push(s.create(TEAM, CLS, 100, AllocKind::Object).unwrap());
        }
        let st = collect_simple(&mut s, TEAM, &roots).unwrap();
        assert_eq!(st.words_scanned, 500);
        assert!(st.cost_cycles() >= 500);
    }

    #[test]
    fn dangling_roots_are_ignored() {
        let mut s = space();
        let a = s.create(TEAM, CLS, 2, AllocKind::Object).unwrap();
        s.free(TEAM, a, AllocKind::Object).unwrap();
        let st = collect_simple(&mut s, TEAM, &[a]).unwrap();
        assert_eq!(st.marked_segments, 0);
    }

    /// `old` tenured, and a young object pointing at it.
    fn tenured_behind_young() -> (ObjectSpace, Fpa, Fpa) {
        let mut s = space();
        let old = s.create(TEAM, CLS, 2, AllocKind::Object).unwrap();
        collect_simple(&mut s, TEAM, &[old]).unwrap();
        let young = s.create(TEAM, CLS, 2, AllocKind::Object).unwrap();
        s.write(TEAM, young, Word::Ptr(old)).unwrap();
        (s, old, young)
    }

    #[test]
    fn marks_do_not_outlive_their_collection() {
        for minor_first in [false, true] {
            let first = |s: &mut ObjectSpace, young: Fpa| {
                let st = if minor_first {
                    collect_minor(s, TEAM, &[young], &[]).unwrap()
                } else {
                    collect_simple(s, TEAM, &[young]).unwrap()
                };
                assert_eq!(st.swept_segments, 0);
            };
            // Rooted at the first collection, unrooted at the next: swept.
            let (mut s, old, young) = tenured_behind_young();
            first(&mut s, young);
            let st = collect_simple(&mut s, TEAM, &[]).unwrap();
            assert_eq!((st.marked_segments, st.swept_segments), (0, 2));
            assert!(s.read(TEAM, young).is_err() && s.read(TEAM, old).is_err());
            // A minor collection sees `old` without scanning it; the next
            // collection must still follow `young`'s pointer to it.
            let (mut s, old, young) = tenured_behind_young();
            first(&mut s, young);
            let st = collect_simple(&mut s, TEAM, &[young]).unwrap();
            assert_eq!((st.marked_segments, st.swept_segments), (2, 0));
            assert!(s.read(TEAM, old).is_ok());
        }
    }

    #[test]
    fn a_stale_alias_whose_block_is_gone_scans_one_word() {
        let mut s = space();
        let old = s.create(TEAM, CLS, 4, AllocKind::Object).unwrap();
        let new = s.grow(TEAM, old, 64).unwrap();
        s.free(TEAM, new, AllocKind::Object).unwrap();
        let st = collect_simple(&mut s, TEAM, &[old]).unwrap();
        assert_eq!(st.words_scanned, 1);
        assert_eq!(st.marked_segments, 1);
        assert_eq!(st.swept_segments, 0);
    }

    #[test]
    fn a_pointer_to_the_last_name_of_a_class_is_only_looked_up() {
        // Image words and a privileged `as:` can name any index; a row
        // reaching this one would take 10 GiB.
        let far = SegmentName::new(3, (1 << 28) - 1);
        let far = Fpa::from_segment(far, 0, FpaFormat::COM).unwrap();
        for minor in [false, true] {
            let mut s = space();
            let holder = s.create(TEAM, CLS, 2, AllocKind::Object).unwrap();
            s.write(TEAM, holder, Word::Ptr(far)).unwrap();
            let st = if minor {
                collect_minor(&mut s, TEAM, &[holder], &[]).unwrap()
            } else {
                collect_simple(&mut s, TEAM, &[holder]).unwrap()
            };
            assert_eq!(st.marked_segments, 1);
            assert_eq!(st.words_scanned, 2);
            let table = &s.mmu().team(TEAM).unwrap().table;
            for (class, reach) in table.row_lens().enumerate() {
                let held = table
                    .iter()
                    .filter(|(name, _)| usize::from(name.exponent()) == class)
                    .map(|(name, _)| name.index() + 1)
                    .max();
                assert!(reach as u64 <= held.unwrap_or(0), "class {class}");
            }
        }
    }

    // --- Generational behaviour ---------------------------------------

    #[test]
    fn minor_sweeps_only_the_nursery() {
        let mut s = space();
        let old = s.create(TEAM, CLS, 4, AllocKind::Object).unwrap();
        let st = collect_simple(&mut s, TEAM, &[old]).unwrap();
        assert_eq!(st.promoted_segments, 1);
        // Young garbage plus a young survivor.
        let keep = s.create(TEAM, CLS, 4, AllocKind::Object).unwrap();
        let _garbage = s.create(TEAM, CLS, 4, AllocKind::Object).unwrap();
        let st = collect_minor(&mut s, TEAM, &[keep], &[]).unwrap();
        assert!(st.minor);
        assert_eq!(st.swept_segments, 1, "only the young garbage is swept");
        assert_eq!(st.promoted_segments, 1, "the young survivor is promoted");
        assert!(s.read(TEAM, keep).is_ok());
        // Tenured garbage survives a minor collection (by generation)...
        assert!(s.read(TEAM, old).is_ok());
        // ...and falls to the next full collection.
        let st = collect_simple(&mut s, TEAM, &[keep]).unwrap();
        assert_eq!(st.swept_segments, 1);
        assert!(s.read(TEAM, old).is_err());
    }

    #[test]
    fn minor_does_not_scan_tenured_data() {
        let mut s = space();
        let big = s.create(TEAM, CLS, 1000, AllocKind::Object).unwrap();
        let st = collect_simple(&mut s, TEAM, &[big]).unwrap();
        assert_eq!(st.words_scanned, 1000, "full collection scans the ballast");
        for _ in 0..10 {
            let _ = s.create(TEAM, CLS, 4, AllocKind::Object).unwrap();
        }
        let st = collect_minor(&mut s, TEAM, &[big], &[]).unwrap();
        assert_eq!(st.swept_segments, 10);
        assert_eq!(
            st.words_scanned, 0,
            "tenured ballast and unreachable nursery cost no scanning"
        );
    }

    #[test]
    fn write_barrier_keeps_old_to_young_pointers_alive() {
        let mut s = space();
        let old = s.create(TEAM, CLS, 4, AllocKind::Object).unwrap();
        collect_simple(&mut s, TEAM, &[old]).unwrap(); // promote `old`
        let young = s.create(TEAM, CLS, 2, AllocKind::Object).unwrap();
        s.write(TEAM, young.with_offset(1).unwrap(), Word::Int(31))
            .unwrap();
        // The only reference to `young` lives in a tenured object. The
        // barrier must remember `old`; a minor collection then scans it.
        s.write(TEAM, old, Word::Ptr(young)).unwrap();
        assert_eq!(s.barrier_stats().remembered_segments, 1);
        let st = collect_minor(&mut s, TEAM, &[old], &[]).unwrap();
        assert!(st.remembered_scanned >= 1);
        assert_eq!(st.swept_segments, 0);
        assert_eq!(
            s.read(TEAM, young.with_offset(1).unwrap()).unwrap(),
            Word::Int(31)
        );
    }

    #[test]
    fn unbarriered_store_needs_pinning() {
        // Models the machine's context-cache store path: the pointer word
        // reaches memory without the ObjectSpace barrier (here: a raw
        // memory write). Pinning the holder keeps the young target alive.
        let mut s = space();
        let holder = s.create(TEAM, CLS, 32, AllocKind::Context).unwrap();
        collect_simple(&mut s, TEAM, &[holder]).unwrap(); // promote
        let young = s.create(TEAM, CLS, 2, AllocKind::Object).unwrap();
        let t = s.translate(TEAM, holder).unwrap();
        s.memory_mut().write(t.abs, Word::Ptr(young)).unwrap();
        assert_eq!(s.barrier_stats().remembered_segments, 0, "no barrier ran");
        let st = collect_minor(&mut s, TEAM, &[holder], &[holder.segment()]).unwrap();
        assert_eq!(st.swept_segments, 0);
        assert!(
            s.read(TEAM, young).is_ok(),
            "pinned holder must be scanned, keeping its young referent"
        );
    }

    #[test]
    fn minor_keeps_grown_tenured_objects_coherent() {
        let mut s = space();
        let old = s.create(TEAM, CLS, 4, AllocKind::Object).unwrap();
        s.write(TEAM, old, Word::Int(7)).unwrap();
        collect_simple(&mut s, TEAM, &[old]).unwrap(); // promote
        let new = s.grow(TEAM, old, 64).unwrap();
        // Rooted only through the stale tenured name: the re-pointed alias
        // lives in the (nursery) replacement block, so the minor mark
        // traverses it and keeps the new name alive via the forward edge.
        let st = collect_minor(&mut s, TEAM, &[old], &[]).unwrap();
        assert_eq!(st.swept_segments, 0);
        assert_eq!(s.read(TEAM, new).unwrap(), Word::Int(7));
        assert_eq!(s.read(TEAM, old).unwrap(), Word::Int(7));
    }

    #[test]
    fn remembered_set_resets_after_collection() {
        let mut s = space();
        let old = s.create(TEAM, CLS, 4, AllocKind::Object).unwrap();
        collect_simple(&mut s, TEAM, &[old]).unwrap();
        let young = s.create(TEAM, CLS, 2, AllocKind::Object).unwrap();
        s.write(TEAM, old, Word::Ptr(young)).unwrap();
        assert_eq!(s.barrier_stats().remembered_segments, 1);
        collect_minor(&mut s, TEAM, &[old], &[]).unwrap();
        assert_eq!(
            s.barrier_stats().remembered_segments,
            0,
            "promotion empties the nursery, so the remembered set resets"
        );
        assert_eq!(s.barrier_stats().nursery_segments, 0);
        // The promoted young object is still reachable through `old`.
        assert!(s.read(TEAM, young).is_ok());
    }

    #[test]
    fn two_teams_in_one_space_collect_their_own_generations() {
        let other = TeamId(1);
        let mut s = space();
        s.mmu_mut().create_team(other);
        // Team 0: a tenured holder, a young object only the holder points
        // to (so the barrier remembers the holder), and young garbage.
        let holder = s.create(TEAM, CLS, 2, AllocKind::Object).unwrap();
        collect_simple(&mut s, TEAM, &[holder]).unwrap();
        let young = s.create(TEAM, CLS, 2, AllocKind::Object).unwrap();
        s.write(TEAM, holder, Word::Ptr(young)).unwrap();
        let garbage = s.create(TEAM, CLS, 2, AllocKind::Object).unwrap();
        // Team 1's minor collection sweeps and promotes only its own.
        let theirs = s.create(other, CLS, 2, AllocKind::Object).unwrap();
        let st = collect_minor(&mut s, other, &[theirs], &[]).unwrap();
        assert_eq!((st.swept_segments, st.promoted_segments), (0, 1));
        assert_eq!(s.barrier_stats().nursery_segments, 2);
        assert_eq!(s.barrier_stats().remembered_segments, 1);
        // Team 0's next minor collection sweeps its young garbage and keeps
        // what the remembered holder points to.
        let st = collect_minor(&mut s, TEAM, &[], &[]).unwrap();
        assert_eq!(st.remembered_scanned, 1);
        assert_eq!((st.swept_segments, st.promoted_segments), (1, 1));
        assert!(s.read(TEAM, garbage).is_err());
        assert!(s.read(TEAM, young).is_ok() && s.read(TEAM, holder).is_ok());
        assert!(s.read(other, theirs).is_ok());
    }

    // --- Randomized equivalence (satellite: minor+full vs full) --------

    /// Grows `pick` by 8 to 31 words, tracking its new name.
    fn grow_tracked(s: &mut ObjectSpace, rng: &mut Rng, objs: &mut Vec<Fpa>, pick: Fpa) {
        if let Ok(len) = s.length_of(TEAM, pick) {
            if let Ok(new) = s.grow(TEAM, pick, len + 8 + rng.below(24)) {
                objs.push(new);
            }
        }
    }

    /// Deterministically builds a two-generation object graph: phase-1
    /// objects promoted by a full collection, phase-2 young objects,
    /// random cross-generation pointers, grows of young objects and, once
    /// the roots are drawn, grows of tenured ones. Returns every tracked
    /// capability and the final root set.
    fn build_random_graph(s: &mut ObjectSpace, seed: u64) -> (Vec<Fpa>, Vec<Fpa>) {
        let mut rng = Rng::new(seed);
        let mut objs: Vec<Fpa> = Vec::new();
        // Phase 1: the future tenured generation.
        for _ in 0..(6 + rng.below(6)) {
            if rng.below(3) == 0 {
                let n = 1 + rng.below(5) as usize;
                objs.extend(build_list(s, TEAM, CLS, n).unwrap());
            } else {
                let words = 2 + rng.below(6);
                objs.push(s.create(TEAM, CLS, words, AllocKind::Object).unwrap());
            }
        }
        // Promote a random subset; the rest dies before tenuring.
        let keep: Vec<Fpa> = objs.iter().filter(|_| rng.below(4) != 0).copied().collect();
        collect(s, TEAM, &keep, &[]).unwrap();
        // Phase 2: the nursery.
        let phase1 = objs.len();
        for _ in 0..(6 + rng.below(6)) {
            if rng.below(3) == 0 {
                let n = 1 + rng.below(5) as usize;
                objs.extend(build_list(s, TEAM, CLS, n).unwrap());
            } else {
                let words = 2 + rng.below(6);
                objs.push(s.create(TEAM, CLS, words, AllocKind::Object).unwrap());
            }
        }
        // Random cross-generation pointers (old→young exercises the
        // barrier, young→old the generation cut-off) and a few grows
        // (forward edges across the generations).
        for _ in 0..(8 + rng.below(8)) {
            let src = objs[rng.below(objs.len() as u64) as usize];
            let dst = objs[rng.below(objs.len() as u64) as usize];
            let _ = s.write(TEAM, src, Word::Ptr(dst));
        }
        for _ in 0..rng.below(3) {
            let pick = objs[phase1 + rng.below((objs.len() - phase1) as u64) as usize];
            grow_tracked(s, &mut rng, &mut objs, pick);
        }
        let roots: Vec<Fpa> = objs.iter().filter(|_| rng.below(3) == 0).copied().collect();
        // Then grow tenured objects, with the roots already drawn: a grown
        // phase-1 list node is a tenured object whose old name only its
        // successor holds (a tenured holder linked before promotion, so the
        // barrier never remembered it) and whose new name no root holds.
        for _ in 0..1 + rng.below(3) {
            let pick = objs[rng.below(phase1 as u64) as usize];
            grow_tracked(s, &mut rng, &mut objs, pick);
        }
        (objs, roots)
    }

    #[test]
    fn minor_plus_full_frees_exactly_what_a_full_sweep_frees() {
        for seed in 1..=64u64 {
            let mut subject = space();
            let mut reference = space();
            let (objs_s, roots_s) = build_random_graph(&mut subject, seed);
            let (objs_r, roots_r) = build_random_graph(&mut reference, seed);
            assert_eq!(objs_s, objs_r, "graph construction must be deterministic");
            assert_eq!(roots_s, roots_r);

            // Reference: one full mark-sweep.
            collect(&mut reference, TEAM, &roots_r, &[]).unwrap();
            let alive_ref: Vec<bool> = objs_r
                .iter()
                .map(|o| reference.read(TEAM, *o).is_ok())
                .collect();

            // Subject: a minor collection first. Soundness: nothing the
            // reference keeps may be swept early.
            collect_minor(&mut subject, TEAM, &roots_s, &[]).unwrap();
            for (o, alive) in objs_s.iter().zip(&alive_ref) {
                if *alive {
                    assert!(
                        subject.read(TEAM, *o).is_ok(),
                        "minor collection swept a live object (seed {seed})"
                    );
                }
            }
            // Then a full collection: the combination must free exactly
            // the reference's garbage, word for word.
            collect(&mut subject, TEAM, &roots_s, &[]).unwrap();
            let alive_sub: Vec<bool> = objs_s
                .iter()
                .map(|o| subject.read(TEAM, *o).is_ok())
                .collect();
            assert_eq!(alive_sub, alive_ref, "liveness diverged (seed {seed})");
            assert_eq!(
                subject.memory().buddy().allocated_words(),
                reference.memory().buddy().allocated_words(),
                "allocated words diverged (seed {seed})"
            );
        }
    }
}
