//! Simulated counts read from the sessions' public counters. They are
//! semantics: for one seed they repeat exactly, run after run.

use com_cache::CacheStats;
use com_core::{CtxCacheStats, CycleStats, GcTotals};
use com_vm::Session;

use crate::metrics::Metrics;
use crate::stats::ratio;

/// Everything a session counts: cycles, GC work, ITLB, icache and
/// context cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// Interpreter cycle accounting.
    pub cycles: CycleStats,
    /// Garbage-collection work.
    pub gc: GcTotals,
    /// ITLB first level.
    pub itlb: CacheStats,
    /// Instruction cache.
    pub icache: CacheStats,
    /// Context cache.
    pub ctx: CtxCacheStats,
}

impl Counters {
    /// A session's counters since boot or its last `reset_stats`.
    pub fn of(s: &Session) -> Counters {
        Counters {
            cycles: s.stats(),
            gc: s.gc_totals(),
            itlb: s.itlb_stats().unwrap_or_default(),
            icache: s.icache_stats().unwrap_or_default(),
            ctx: s.ctx_cache_stats().unwrap_or_default(),
        }
    }

    /// Adds another set of counters to this one.
    pub fn absorb(&mut self, o: &Counters) {
        add_cycles(&mut self.cycles, &o.cycles);
        let (g, h) = (&mut self.gc, &o.gc);
        g.minor_collections += h.minor_collections;
        g.full_collections += h.full_collections;
        g.minor_words_scanned += h.minor_words_scanned;
        g.full_words_scanned += h.full_words_scanned;
        g.minor_words_freed += h.minor_words_freed;
        g.full_words_freed += h.full_words_freed;
        g.minor_segments_swept += h.minor_segments_swept;
        g.full_segments_swept += h.full_segments_swept;
        g.promoted_segments += h.promoted_segments;
        add_cache(&mut self.itlb, &o.itlb);
        add_cache(&mut self.icache, &o.icache);
        let (c, d) = (&mut self.ctx, &o.ctx);
        c.reads += d.reads;
        c.writes += d.writes;
        c.directory_lookups += d.directory_lookups;
        c.directory_hits += d.directory_hits;
        c.faults += d.faults;
        c.copybacks += d.copybacks;
        c.clears += d.clears;
        c.releases += d.releases;
    }

    /// Simulated cycles per simulated instruction.
    pub fn cpi(&self) -> f64 {
        self.cycles.cpi().unwrap_or(0.0)
    }

    /// The `core.*`, `obj.itlb_*`, `cache.*` and `mem.*` per-layer counts.
    pub fn layer_metrics(&self, m: &mut Metrics) {
        let c = &self.cycles;
        let per_instr = |cycles: u64| ratio(cycles as f64, c.instructions as f64);
        m.set("core.instructions", c.instructions as f64);
        m.set("core.calls", c.calls as f64);
        m.set("core.taken_branches", c.taken_branches as f64);
        m.set("core.soft_traps", c.soft_traps as f64);
        m.set("core.full_lookups", c.full_lookups as f64);
        m.set("core.cycles.branch_delay", per_instr(c.branch_delay_cycles));
        m.set("core.cycles.call_linkage", per_instr(c.call_linkage_cycles));
        m.set("core.cycles.operand_copy", per_instr(c.operand_copy_cycles));
        m.set("core.cycles.lookup", per_instr(c.lookup_cycles));
        m.set("core.cycles.icache_miss", per_instr(c.icache_miss_cycles));
        m.set("core.cycles.ctx_fault", per_instr(c.ctx_fault_cycles));
        m.set("core.cycles.memory_op", per_instr(c.memory_op_cycles));
        m.set("core.cycles.interlock", per_instr(c.interlock_cycles));
        m.set("core.cycles.gc", per_instr(c.gc_cycles));
        m.set("obj.itlb_lookups", self.itlb.accesses() as f64);
        m.set("obj.itlb_hit_ratio", self.itlb.hit_ratio().unwrap_or(0.0));
        m.set("cache.icache_accesses", self.icache.accesses() as f64);
        m.set(
            "cache.icache_hit_ratio",
            self.icache.hit_ratio().unwrap_or(0.0),
        );
        m.set("core.ctx_reads", self.ctx.reads as f64);
        m.set("core.ctx_writes", self.ctx.writes as f64);
        m.set("core.ctx_faults", self.ctx.faults as f64);
        m.set("core.ctx_copybacks", self.ctx.copybacks as f64);
        m.set("core.contexts_left_to_gc", c.contexts_left_to_gc as f64);
        let g = &self.gc;
        let scanned = g.minor_words_scanned + g.full_words_scanned;
        let freed = g.minor_words_freed + g.full_words_freed;
        m.set("mem.gc_minor", g.minor_collections as f64);
        m.set("mem.gc_full", g.full_collections as f64);
        m.set("mem.words_scanned", scanned as f64);
        m.set("mem.words_freed", freed as f64);
        m.set("mem.scanned_per_freed", ratio(scanned as f64, freed as f64));
        m.set("mem.promoted_segments", g.promoted_segments as f64);
    }
}

/// Adds `d` to `acc`, field by field.
pub fn add_cycles(acc: &mut CycleStats, d: &CycleStats) {
    acc.instructions += d.instructions;
    acc.base_cycles += d.base_cycles;
    acc.branch_delay_cycles += d.branch_delay_cycles;
    acc.call_linkage_cycles += d.call_linkage_cycles;
    acc.operand_copy_cycles += d.operand_copy_cycles;
    acc.lookup_cycles += d.lookup_cycles;
    acc.icache_miss_cycles += d.icache_miss_cycles;
    acc.ctx_fault_cycles += d.ctx_fault_cycles;
    acc.memory_op_cycles += d.memory_op_cycles;
    acc.interlock_cycles += d.interlock_cycles;
    acc.gc_cycles += d.gc_cycles;
    acc.calls += d.calls;
    acc.returns += d.returns;
    acc.taken_branches += d.taken_branches;
    acc.full_lookups += d.full_lookups;
    acc.contexts_allocated += d.contexts_allocated;
    acc.contexts_freed_lifo += d.contexts_freed_lifo;
    acc.contexts_left_to_gc += d.contexts_left_to_gc;
    acc.gc_runs += d.gc_runs;
    acc.gc_minor_runs += d.gc_minor_runs;
    acc.soft_traps += d.soft_traps;
}

fn add_cache(acc: &mut CacheStats, d: &CacheStats) {
    acc.hits += d.hits;
    acc.misses += d.misses;
    acc.evictions += d.evictions;
    acc.fills += d.fills;
    acc.invalidations += d.invalidations;
}
