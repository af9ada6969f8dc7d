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
//! collector splits the heap in two:
//!
//! * The **nursery** — every segment allocated since the last collection.
//!   [`collect_minor`] traverses and sweeps *only* the nursery, plus the
//!   roots, any pinned segments, and the **remembered set** — tenured
//!   segments the [`ObjectSpace`] write barrier saw a pointer stored into.
//!   Its cost is proportional to young data, not to heap size.
//! * The **tenured** space — survivors of any collection. Only [`collect`]
//!   (a full mark-sweep) reclaims tenured garbage.
//!
//! Every collection ends with a *promotion*: all survivors become tenured,
//! the nursery and the remembered set empty, and the barrier invariant —
//! "no unremembered tenured segment points into the nursery" — is
//! re-established vacuously.

use std::collections::HashSet;

use com_fpa::{Fpa, SegmentName};

use crate::{AbsAddr, AllocKind, MemError, ObjectSpace, TeamId, Word};

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

/// Pops `work` until empty, scanning each segment's words for pointers.
/// `scan_all` selects the full mark (every reached segment is traversed);
/// otherwise only forced entries and nursery-based segments are traversed
/// (the minor mark: tenured segments terminate the walk, their nursery
/// pointers being covered by the remembered set / pinning).
fn mark(
    space: &mut ObjectSpace,
    team: TeamId,
    mut work: Vec<(SegmentName, bool)>,
    scan_all: bool,
    stats: &mut GcStats,
) -> Result<HashSet<SegmentName>, MemError> {
    let mut scanned: HashSet<SegmentName> = HashSet::new();
    let mut seen_tenured: HashSet<SegmentName> = HashSet::new();
    while let Some((seg, force)) = work.pop() {
        if scanned.contains(&seg) {
            continue;
        }
        let desc = {
            let ts = space.mmu().team(team)?;
            match ts.table.get(seg) {
                Some(d) => *d,
                None => continue, // dangling root/remembered entry: skip
            }
        };
        let scan = scan_all || force || space.book().nursery_bases.contains(&desc.base.0);
        if !scan {
            // Tenured, unforced: the segment survives by generation; its
            // outgoing nursery pointers are covered by the remembered set.
            seen_tenured.insert(seg);
            continue;
        }
        scanned.insert(seg);
        if let Some(fwd) = desc.forward {
            work.push((fwd.segment(), false));
        }
        for off in 0..desc.length {
            stats.words_scanned += 1;
            match space.memory().peek(desc.base.offset(off)) {
                Ok(Word::Ptr(p)) => {
                    let s = p.segment();
                    if !scanned.contains(&s) && !seen_tenured.contains(&s) {
                        work.push((s, false));
                    }
                }
                Ok(_) => {}
                // The block may have been freed through an alias; nothing to
                // scan there.
                Err(_) => break,
            }
        }
    }
    stats.marked_segments = scanned.len() as u64;
    Ok(scanned)
}

/// Removes `name`'s descriptor and, when its block's last name died,
/// queues the block base for freeing.
fn sweep_one(
    space: &mut ObjectSpace,
    team: TeamId,
    name: SegmentName,
    free_bases: &mut Vec<AbsAddr>,
    stats: &mut GcStats,
) -> Result<(), MemError> {
    let desc = {
        let ts = space.mmu_mut().team_mut(team)?;
        match ts.table.remove(name) {
            Some(d) => {
                ts.names.free(name);
                d
            }
            None => return Ok(()),
        }
    };
    space.mmu_mut().invalidate(team, name);
    stats.swept_segments += 1;
    let book = space.book_mut();
    book.on_drop_name(name, desc.base);
    if book
        .base_names
        .get(&desc.base.0)
        .is_some_and(|names| names.is_empty())
    {
        book.on_block_freed(desc.base);
        free_bases.push(desc.base);
    }
    Ok(())
}

/// Frees the queued block bases (each exactly once — a base is queued only
/// when its name list empties).
fn free_blocks(
    space: &mut ObjectSpace,
    free_bases: Vec<AbsAddr>,
    stats: &mut GcStats,
) -> Result<(), MemError> {
    for base in free_bases {
        if let Some(words) = space.memory().block_words(base) {
            space.memory_mut().free_block(base)?;
            stats.blocks_freed += 1;
            stats.words_freed += words;
        }
    }
    Ok(())
}

/// Promotes every nursery survivor to the tenured generation and resets
/// the remembered set (the barrier invariant holds vacuously again).
fn promote(space: &mut ObjectSpace, stats: &mut GcStats) {
    let book = space.book_mut();
    stats.promoted_segments = book.nursery_segs.len() as u64;
    book.nursery_segs.clear();
    book.nursery_bases.clear();
    book.remembered.clear();
}

/// Runs a stop-the-world **full** mark-sweep collection of `team`, treating
/// `roots` (plus any additional `pinned` segments, e.g. contexts resident
/// in the context cache) as live. Ends with a promotion: all survivors are
/// tenured afterwards.
///
/// The generational bookkeeping is space-global, so collect exactly one
/// team per [`ObjectSpace`] (the machine's arrangement): collecting team A
/// promotes — and thereby un-tracks — team B's nursery and remembered
/// state, which would let a later minor collection of B sweep live young
/// objects. Multi-team spaces must collect with full sweeps only, or keep
/// one space per team.
///
/// # Errors
///
/// Returns [`MemError::UnknownTeam`] for a bad team id; dangling roots are
/// ignored rather than failing the collection.
pub fn collect(
    space: &mut ObjectSpace,
    team: TeamId,
    roots: &[Fpa],
    pinned: &[SegmentName],
) -> Result<GcStats, MemError> {
    let mut stats = GcStats::default();

    // --- Mark ---------------------------------------------------------
    let mut work: Vec<(SegmentName, bool)> = Vec::new();
    for r in roots {
        work.push((r.segment(), false));
    }
    for p in pinned {
        work.push((*p, true));
    }
    let marked = mark(space, team, work, true, &mut stats)?;

    // --- Sweep --------------------------------------------------------
    let dead: Vec<SegmentName> = {
        let ts = space.mmu().team(team)?;
        ts.table
            .iter()
            .filter(|(name, _)| !marked.contains(name))
            .map(|(name, _)| name)
            .collect()
    };
    let mut free_bases: Vec<AbsAddr> = Vec::new();
    for name in dead {
        sweep_one(space, team, name, &mut free_bases, &mut stats)?;
    }
    free_blocks(space, free_bases, &mut stats)?;
    promote(space, &mut stats);
    Ok(stats)
}

/// Runs a **minor** (nursery-only) collection: marks from `roots`, the
/// `pinned` segments (scanned unconditionally — the machine pins
/// context-cache residents here, whose stores bypass the write barrier),
/// and the remembered set; sweeps only unreached nursery segments; then
/// promotes the survivors.
///
/// Tenured segments are never reclaimed here — that is [`collect`]'s job —
/// so the cost is proportional to young data plus the remembered set, not
/// to the live heap.
///
/// # Errors
///
/// Same as [`collect`].
pub fn collect_minor(
    space: &mut ObjectSpace,
    team: TeamId,
    roots: &[Fpa],
    pinned: &[SegmentName],
) -> Result<GcStats, MemError> {
    let mut stats = GcStats {
        minor: true,
        ..GcStats::default()
    };

    // --- Mark (nursery + forced segments only) ------------------------
    let mut work: Vec<(SegmentName, bool)> = Vec::new();
    for r in roots {
        work.push((r.segment(), false));
    }
    for p in pinned {
        work.push((*p, true));
    }
    {
        let book = space.book();
        stats.remembered_scanned = book.remembered.len() as u64;
        work.extend(book.remembered.iter().map(|s| (*s, true)));
    }
    let scanned = mark(space, team, work, false, &mut stats)?;

    // --- Sweep (nursery only) -----------------------------------------
    let nursery: Vec<SegmentName> = space.book().nursery_segs.iter().copied().collect();
    let mut free_bases: Vec<AbsAddr> = Vec::new();
    for name in nursery {
        if scanned.contains(&name) {
            continue;
        }
        sweep_one(space, team, name, &mut free_bases, &mut stats)?;
    }
    free_blocks(space, free_bases, &mut stats)?;
    promote(space, &mut stats);
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
