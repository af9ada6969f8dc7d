//! The machine's side of garbage collection: its roots, the periodic
//! cadence both interpreter loops share, and allocation that collects
//! once when absolute space runs out.

use com_fpa::Fpa;
use com_mem::{
    gc,
    gc::{GcKind, GcStats},
    AllocKind, ClassId, MemError,
};

use super::Machine;
use crate::MachineError;

/// Aggregate garbage-collection work across a machine's lifetime, split by
/// generation. Simulator-side observability (bench pipeline, reports) —
/// the *architectural* cost lives in [`crate::CycleStats::gc_cycles`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcTotals {
    /// Minor (nursery-only) collections run.
    pub minor_collections: u64,
    /// Full collections run.
    pub full_collections: u64,
    /// Words scanned by minor collections.
    pub minor_words_scanned: u64,
    /// Words scanned by full collections.
    pub full_words_scanned: u64,
    /// Words freed by minor collections.
    pub minor_words_freed: u64,
    /// Words freed by full collections.
    pub full_words_freed: u64,
    /// Segments swept by minor collections.
    pub minor_segments_swept: u64,
    /// Segments swept by full collections.
    pub full_segments_swept: u64,
    /// Nursery survivors promoted to the tenured generation.
    pub promoted_segments: u64,
}

impl GcTotals {
    fn absorb(&mut self, st: &GcStats) {
        if st.minor {
            self.minor_collections += 1;
            self.minor_words_scanned += st.words_scanned;
            self.minor_words_freed += st.words_freed;
            self.minor_segments_swept += st.swept_segments;
        } else {
            self.full_collections += 1;
            self.full_words_scanned += st.words_scanned;
            self.full_words_freed += st.words_freed;
            self.full_segments_swept += st.swept_segments;
        }
        self.promoted_segments += st.promoted_segments;
    }

    /// Total words scanned across both generations.
    pub fn words_scanned(&self) -> u64 {
        self.minor_words_scanned + self.full_words_scanned
    }

    /// Total words freed across both generations.
    pub fn words_freed(&self) -> u64 {
        self.minor_words_freed + self.full_words_freed
    }
}

impl Machine {
    /// Runs a stop-the-world **full** collection (see
    /// [`collect_garbage_kind`](Self::collect_garbage_kind)).
    ///
    /// # Errors
    ///
    /// Propagates memory errors (a failing GC is a machine-fatal event).
    pub fn collect_garbage(&mut self) -> Result<(), MachineError> {
        self.collect_garbage_kind(GcKind::Full)
    }

    /// Runs a stop-the-world collection of the given generation scope:
    /// flush the context cache's dirty blocks (a bounded cost — at most
    /// the cache's block count), mark from the machine roots with every
    /// cache-resident context **pinned**, sweep, then drop stale
    /// bookkeeping.
    ///
    /// Residents are pinned — passed to [`gc::collect`]/
    /// [`gc::collect_minor`] as segments that are marked *and scanned* —
    /// because the context cache is machine state: its blocks may hold the
    /// only pointer to a captured context, stored through the cache's
    /// directory-bypassing write path where no write barrier runs. Without
    /// the pin, a minor collection would never scan a tenured resident
    /// context and would sweep the captured callee it alone references.
    ///
    /// # Errors
    ///
    /// Propagates memory errors (a failing GC is a machine-fatal event).
    pub fn collect_garbage_kind(&mut self, kind: GcKind) -> Result<(), MachineError> {
        self.flush_context_cache()?;
        let pinned = self.resident_segments();
        // Swept segment names can be recycled: a stale shadow entry could
        // otherwise validate against a recycled name.
        self.shadow.clear();
        let roots = (self.cp.iter().chain(&self.ncp).chain(&self.free_list))
            .map(|reg| &reg.fpa)
            .chain(&self.code_roots)
            .chain(&self.result_cell);
        let st = match kind {
            GcKind::Full => gc::collect(&mut self.space, self.team, roots, &pinned)?,
            GcKind::Minor => gc::collect_minor(&mut self.space, self.team, roots, &pinned)?,
        };
        self.stats.gc_runs += 1;
        if st.minor {
            self.stats.gc_minor_runs += 1;
        }
        self.stats.gc_cycles += st.cost_cycles();
        self.gc_totals.absorb(&st);
        // Swept names may be recycled; stale escape marks must not leak
        // onto fresh contexts.
        let (space, team) = (&self.space, self.team);
        self.escaped.retain(|seg| {
            space
                .mmu()
                .team(team)
                .is_ok_and(|t| t.table.get(*seg).is_some())
        });
        // Decoded-method cache: code objects are roots, so still live.
        Ok(())
    }

    /// Which periodic collection is due once `step` instructions have
    /// completed, if any: the one cadence rule. [`step`](Self::step)
    /// asks it after every instruction, and the threaded
    /// [`run`](Self::run) loop asks it which kind to run at the step
    /// [`next_gc_due`](Self::next_gc_due) names. A step on both cadences
    /// runs the full collection.
    #[inline]
    pub(super) fn gc_due(&self, step: u64) -> Option<GcKind> {
        if let Some(interval) = self.config.gc_full_interval {
            if step.is_multiple_of(interval) {
                return Some(GcKind::Full);
            }
        }
        if let Some(interval) = self.config.gc_minor_interval {
            if step.is_multiple_of(interval) {
                return Some(GcKind::Minor);
            }
        }
        None
    }

    /// The first step after `step` at which [`gc_due`](Self::gc_due)
    /// names a collection, or `None` if none ever comes due: the next
    /// multiple of either interval. A zero interval is due only at step
    /// 0, which no later step is. The threaded loop computes this once
    /// per segment and compares its step count against it, so it divides
    /// per segment rather than per instruction.
    pub(super) fn next_gc_due(&self, step: u64) -> Option<u64> {
        let next = |interval: Option<u64>| {
            let interval = interval.filter(|&i| i != 0)?;
            (step / interval + 1).checked_mul(interval)
        };
        let (full, minor) = (self.config.gc_full_interval, self.config.gc_minor_interval);
        next(full).into_iter().chain(next(minor)).min()
    }

    /// Creates an object of `words` words; when absolute space runs out,
    /// runs one full collection and tries once more.
    #[inline]
    pub(super) fn create_or_collect(
        &mut self,
        class: ClassId,
        words: u64,
        kind: AllocKind,
    ) -> Result<Fpa, MachineError> {
        match self.space.create(self.team, class, words, kind) {
            Err(MemError::OutOfAbsoluteSpace { .. }) => {
                self.collect_garbage()?;
                Ok(self.space.create(self.team, class, words, kind)?)
            }
            created => Ok(created?),
        }
    }
}
