//! Machine configuration: geometry, cost parameters and ablation switches.

use com_fpa::FpaFormat;
use com_obj::{ItlbConfig, LookupCost};

/// Free context-cache blocks at or below which the copyback engine runs
/// (§2.3: "when only two blocks are free … the cache begins copying the
/// LRU context back").
pub(crate) const COPYBACK_LOW_WATER: usize = 2;

/// Cycles to fault a context block in from memory (a block fill).
pub(crate) const CTX_FAULT_PENALTY: u64 = 32;

/// Cycles added by an instruction cache miss.
pub(crate) const ICACHE_MISS_PENALTY: u64 = 8;

/// Instruction cache entries: the paper's 4,096 (§5 Figure 11).
pub(crate) const ICACHE_ENTRIES: usize = 4096;

/// Instruction cache associativity: 2-way (§5 Figure 11).
pub(crate) const ICACHE_WAYS: usize = 2;

/// Cycles added by each memory access: an `at:`/`at:put:`, a `new` or
/// `grow`, and a context word read or written without a context cache.
/// The Fith machine charges the same.
pub const MEMORY_PENALTY: u64 = 4;

/// Cycle cost of a full method lookup, charged on an ITLB miss. The paper
/// does not commit to absolute lookup cycle counts; 4 cycles per class
/// level traversed and 8 per hash probe land a full lookup in the tens of
/// cycles, consistent with the software method caches it cites
/// (Berkeley, HP). The Fith machine charges the same.
pub const LOOKUP_COST: LookupCost = LookupCost {
    per_class: 4,
    per_probe: 8,
};

/// Configuration of one COM instance.
///
/// The defaults reproduce the paper's machine: a 512×2-way ITLB (§5) and a
/// 32-block context cache (§2.3: "a context cache of this modest size
/// would almost never miss") with copyback enabled. The switches select
/// the paper's ablations (no ITLB, no context cache, no eager LIFO
/// freeing) and the garbage collector's cadence. The instruction cache,
/// the §3.6 stall penalties and the copyback low-water mark are fixed:
/// the 4096-entry 2-way geometry of §5 Figure 11 (`ICACHE_ENTRIES`,
/// `ICACHE_WAYS`), [`LOOKUP_COST`], [`MEMORY_PENALTY`],
/// `ICACHE_MISS_PENALTY`, `CTX_FAULT_PENALTY` and `COPYBACK_LOW_WATER`.
#[derive(Debug, Clone, Copy)]
pub struct MachineConfig {
    /// Virtual address format (COM 36-bit by default).
    pub format: FpaFormat,
    /// log2 of the absolute space size in words.
    pub space_log2: u8,
    /// ITLB geometry; `None` disables the ITLB entirely (ablation A1:
    /// every send pays the full association cost).
    pub itlb: Option<ItlbConfig>,
    /// Number of context cache blocks; `None` disables the context cache
    /// (ablation A2: contexts live in plain memory).
    pub ctx_blocks: Option<usize>,
    /// Enable the §2.3 copyback mechanism ("when only two blocks are free …
    /// the cache begins copying the LRU context back"). The T2 table turns
    /// it off to compare.
    pub copyback: bool,
    /// Steps between **minor** (nursery-only) collections; `None` disables
    /// periodic minor collection. When a step is a multiple of both the
    /// minor and the full interval, the full collection wins.
    pub gc_minor_interval: Option<u64>,
    /// Steps between automatic **full** garbage collections; `None`
    /// collects only when the free list and allocator are exhausted. When
    /// running generationally this is typically a large multiple of
    /// [`gc_minor_interval`](Self::gc_minor_interval).
    pub gc_full_interval: Option<u64>,
    /// Eagerly free LIFO contexts at return (§2.3). Disabling leaves every
    /// context to the garbage collector (half of experiment T5).
    pub eager_lifo_free: bool,
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig {
            format: FpaFormat::COM,
            space_log2: 26,
            itlb: Some(ItlbConfig::paper_default().expect("paper geometry is valid")),
            ctx_blocks: Some(32),
            copyback: true,
            gc_minor_interval: None,
            gc_full_interval: None,
            eager_lifo_free: true,
        }
    }
}

impl MachineConfig {
    /// The paper's configuration (same as `Default`).
    pub fn paper() -> Self {
        Self::default()
    }

    /// Ablation A1: no ITLB — every abstract instruction pays the full
    /// association cost.
    pub fn without_itlb(mut self) -> Self {
        self.itlb = None;
        self
    }

    /// Ablation A2: no context cache — context words live in memory.
    pub fn without_context_cache(mut self) -> Self {
        self.ctx_blocks = None;
        self
    }

    /// Replaces the context cache block count.
    pub fn with_ctx_blocks(mut self, blocks: usize) -> Self {
        self.ctx_blocks = Some(blocks);
        self
    }

    /// Disables eager LIFO context freeing (T5's GC-burden comparison).
    pub fn without_eager_lifo_free(mut self) -> Self {
        self.eager_lifo_free = false;
        self
    }

    /// Runs the garbage collector generationally: a minor (nursery-only)
    /// collection every `minor` steps and a full collection every `full`
    /// steps. Coincident steps run the full collection.
    pub fn with_generational_gc(mut self, minor: u64, full: u64) -> Self {
        self.gc_minor_interval = Some(minor);
        self.gc_full_interval = Some(full);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_geometry() {
        let c = MachineConfig::default();
        let itlb = c.itlb.unwrap();
        assert_eq!(itlb.geometry.entries(), 512);
        assert_eq!(itlb.geometry.ways(), 2);
        assert_eq!(c.ctx_blocks, Some(32));
        assert!(c.copyback);
        assert!(c.eager_lifo_free);
    }

    #[test]
    fn generational_gc_builders() {
        let c = MachineConfig::paper().with_generational_gc(101, 809);
        assert_eq!(c.gc_minor_interval, Some(101));
        assert_eq!(c.gc_full_interval, Some(809));
    }

    #[test]
    fn ablation_builders() {
        let c = MachineConfig::paper()
            .without_itlb()
            .without_context_cache();
        assert!(c.itlb.is_none());
        assert!(c.ctx_blocks.is_none());
        let c = MachineConfig::paper().with_ctx_blocks(8);
        assert_eq!(c.ctx_blocks, Some(8));
    }
}
