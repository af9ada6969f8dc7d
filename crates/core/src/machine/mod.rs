//! The COM machine: registers, interpretation loop, traps.
//!
//! # Pipeline stages
//!
//! Each instruction passes the five steps of §3.6, and each step has a
//! file of its own, an `impl Machine` block over the machine's fields:
//!
//! | step | file | what it owns |
//! |------|------|--------------|
//! | 1. fetch through the instruction cache | `fetch.rs` | the icache probe and its miss charge; the decoded-method slab, decoding, the synthesized entry method |
//! | 2. read operands from the context cache | `contexts.rs` | the context store: each context word in a cache block or in memory, allocation, copyback, fault-in, LIFO freeing, coherent access by absolute address |
//! | 3. translate through the ITLB | `translate.rs` | the ITLB probe, full lookup, pre-seeding, the dispatch observer |
//! | 4–5. perform the operation, store results | `execute.rs` | the primitives and their result stores |
//!
//! Calls, returns, transfers and software trap dispatch are `linkage.rs`;
//! the collector's roots and cadence are `gc.rs`; the two interpreter
//! loops that drive the stages are `run.rs`. Only `contexts.rs` asks
//! whether a context cache is present.
//!
//! # Architectural statistics vs. wall-clock speed
//!
//! The machine keeps two notions of time that must never be confused:
//!
//! * **Architectural cycles** ([`CycleStats`], the cache hit/miss counters)
//!   model the *hardware the paper describes*. They are semantics: every
//!   optimisation of this simulator must leave them bit-identical on a
//!   given program. The regression tests in `tests/interp_fastpath.rs`
//!   enforce this by running the same workload through both interpreter
//!   loops.
//! * **Wall-clock speed** is how fast the simulator itself executes. The
//!   hot loop is free to change shape for wall-clock speed — and does:
//!   [`Machine::run`] is a *threaded* loop that borrows the current
//!   decoded method across the inner loop, re-fetching it only on
//!   call/return/xfer, resolves operands from their decode-time lowered
//!   form (context-slot offsets pre-biased, constants pre-fetched),
//!   dispatches through the set-associative ITLB, and batches
//!   the per-instruction counters into loop-locals that are flushed at run
//!   end, trap, or control transfer.
//!
//! Both loops call the same stage functions for everything but operand
//! fetch, hazard detection and the pure-data fast path: the icache probe,
//! translation, primitives, the returning store, call, return, transfer,
//! trap dispatch, copyback and the GC cadence. The `run`-vs-`run_stepwise`
//! differential therefore cannot see a change to those functions;
//! `tests/pinned_counts.rs` holds the cycles they charge.
//!
//! # Dispatch in one word
//!
//! A translation hit hands the loop one 8-byte [`Translation`], the §2.1
//! entry's primitive bit and method field: a function unit, or the
//! decoded-slab slot of a resolved method. The ITLB fills only resolved
//! methods, because a miss decodes the method before filling; only a trap
//! handler found by full lookup may still decode, at the end of its call
//! sequence. The current method is held the same way: `ip` is the method's
//! base capability and absolute base, and `cur_slab` is its slot, so a
//! call, return or transfer copies two words and an index, and touches no
//! reference count. The threaded loop takes one counted handle on a
//! method's body the first time a run enters that method, and reuses it
//! for every later segment (the instructions between two transfers) in
//! the same method; `step` takes none.
//!
//! [`Machine::step`] (and [`Machine::run_stepwise`], which drives it) is
//! the oracle: one instruction per call over the same caches and memory,
//! with operands fetched generically and hazards re-derived from machine
//! state each time instead of from the decode-time lowered form. The
//! differential tests require the two loops to agree bit for bit.
//!
//! [`Translation`]: com_obj::Translation

mod contexts;
mod execute;
mod fetch;
mod gc;
mod linkage;
mod run;
#[cfg(test)]
mod tests;
mod translate;

use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex};

use com_cache::{CacheConfig, CacheStats, FxBuildHasher, SetAssocCache};
use com_fpa::{Fpa, SegmentName};
use com_isa::{Opcode, OpcodeTable};
use com_mem::{AbsAddr, AllocKind, ClassId, ObjectSpace, TeamId, Word};
use com_obj::{AtomTable, ClassTable, DefinedMethod, Itlb};

use crate::config::{ICACHE_ENTRIES, ICACHE_WAYS};
use crate::{
    ContextCache, CtxCacheStats, CycleStats, MachineConfig, MachineError, ProgramImage, CTX_ARG0,
    CTX_ARG1,
};
use contexts::CtxReg;
use linkage::ShadowFrame;

pub(crate) use fetch::{push_decoded, Decoded, DecodedBody};
pub use gc::GcTotals;
pub use run::{RunOutcome, RunResult};
pub use translate::{DispatchEvent, DispatchObserver};

/// The Caltech Object Machine.
///
/// ```
/// use com_core::{Machine, MachineConfig, ProgramImage};
/// use com_isa::{Assembler, Opcode, Operand};
/// use com_mem::{ClassId, Word};
///
/// # fn main() -> Result<(), com_core::MachineError> {
/// // A method on SmallInteger: "double" answers self + self.
/// let mut image = ProgramImage::empty();
/// let sel = image.opcodes.intern("double").unwrap();
/// let mut asm = Assembler::new("SmallInteger>>double", 1);
/// // c2 <- c1 + c1 ; return c2 via the result pointer in c0
/// asm.emit_three(Opcode::ADD, Operand::Cur(2), Operand::Cur(1), Operand::Cur(1))?;
/// asm.emit_three_ret(Opcode::MOVE, Operand::Cur(0), Operand::Cur(2), Operand::Cur(2))?;
/// image.add_method(ClassId::SMALL_INT, sel, asm.finish()?);
///
/// let mut m = Machine::new(MachineConfig::default());
/// m.load(&image)?;
/// let out = m.send("double", Word::Int(21), &[], 10_000)?;
/// assert_eq!(out.result, Word::Int(42));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Machine {
    config: MachineConfig,
    space: ObjectSpace,
    team: TeamId,
    /// The class, atom and selector tables: shared with every machine
    /// booted from the same template, and replaced or copied on write.
    classes: Arc<ClassTable>,
    atoms: Arc<AtomTable>,
    opcodes: Arc<OpcodeTable>,
    itlb: Option<Itlb>,
    /// The instruction cache (tags only: the decoded slab holds the code).
    icache: SetAssocCache<u64, ()>,
    cc: Option<ContextCache>,
    /// Decoded-method slab: a resident-method hit is one array index.
    decoded: Vec<Decoded>,
    /// Cold-path index (code virtual base → slab slot), consulted only
    /// when a dictionary entry has not been resolved to a slab slot yet
    /// (and on shadow-miss returns, to re-enter the caller's method).
    decoded_index: HashMap<u64, u32, FxBuildHasher>,
    code_roots: Vec<Fpa>,
    context_class: ClassId,
    cp: Option<CtxReg>,
    ncp: Option<CtxReg>,
    /// FP register: the free context list (simulated as a vector; each
    /// alloc/free is the paper's single memory reference).
    free_list: Vec<CtxReg>,
    /// Segments of contexts whose pointers escaped into heap objects —
    /// non-LIFO contexts that must be left to the garbage collector.
    escaped: HashSet<SegmentName, FxBuildHasher>,
    /// Simulator-side memo of the dynamic call chain: the caller's context
    /// register, continuation, and decoded-method slot are pushed at call
    /// and popped at return, so a LIFO return reuses the pretranslated
    /// caller base and re-enters the caller's method by slab index instead
    /// of re-translating. Purely an acceleration: entries are validated
    /// against the RCP/RIP actually read from the context, and the stack
    /// is discarded on any non-LIFO control flow (xfer, mismatch) and on
    /// GC (segment names can be recycled after a sweep).
    shadow: Vec<ShadowFrame>,
    /// The current method: its decoded-slab slot. Valid whenever `ip` is
    /// `Some`.
    cur_slab: u32,
    /// The current method's base capability and absolute base (the
    /// program counter is `pc`).
    ip: Option<(Fpa, AbsAddr)>,
    /// Bumped on every control transfer (call/return/xfer/entry). The
    /// threaded loop snapshots this to know when its borrowed decoded
    /// method is stale and must be re-fetched.
    ip_gen: u64,
    pc: u64,
    privileged: bool,
    /// Code root of the current send's synthesized entry method, released
    /// (un-rooted, decode caches purged) once the send halts.
    entry_base: Option<Fpa>,
    /// Reusable slab slot for synthesized entry methods, so repeated sends
    /// do not grow the decoded-method slab.
    entry_slab: Option<u32>,
    result_cell: Option<Fpa>,
    last_dest: Option<(AbsAddr, u64)>,
    stats: CycleStats,
    gc_totals: GcTotals,
    steps: u64,
    halted: Option<Word>,
    observer: Option<DispatchObserver>,
}

impl Machine {
    /// Creates a machine with standard primitives installed and one team.
    pub fn new(config: MachineConfig) -> Self {
        let space = ObjectSpace::new(config.space_log2, config.format);
        let mut classes = ClassTable::new();
        com_obj::install_standard_primitives(&mut classes);
        let context_class = crate::loaded::context_class_in(&mut classes);
        Self::assemble(
            config,
            space,
            Arc::new(classes),
            Arc::new(AtomTable::new()),
            Arc::new(OpcodeTable::new()),
            context_class,
            config.itlb.map(Itlb::new),
        )
    }

    /// Boots a machine from a pre-decoded [`crate::LoadedImage`]: the one
    /// way to start a machine from one, and the cheapest constructor.
    /// The expensive work (compiling, decoding, operand lowering) was done
    /// once when the image was prepared, and every machine booted from it
    /// shares the decoded bodies.
    ///
    /// When the image's pre-booted template matches `config`'s space
    /// geometry, the machine is assembled around a clone of the template's
    /// space and decoded slab, and shares the template's class, selector
    /// and atom tables (a machine copies a table only when it changes it);
    /// [`new`](Self::new)'s throwaway table and space are never built.
    /// Otherwise a new machine stores every method's code object and binds
    /// the shared bodies to the stored addresses. Either way,
    /// architectural behaviour and [`CycleStats`] are identical to
    /// [`load`](Self::load) followed by lazy decodes: decoding is
    /// simulator-side and charges no cycles. [`boot_seeded`](Self::boot_seeded)
    /// boots a machine whose ITLB is already seeded.
    ///
    /// # Errors
    ///
    /// Propagates storage errors from the store-per-method path, and
    /// [`MachineError::UndefinedClass`] for an image that installs a
    /// method into a class it does not define.
    pub fn boot(
        config: MachineConfig,
        loaded: &crate::LoadedImage,
    ) -> Result<Machine, MachineError> {
        let Some(t) = loaded.template_for(config.format, config.space_log2) else {
            let mut m = Machine::new(config);
            m.store_image(loaded.image(), |i| loaded.body(i))?;
            return Ok(m);
        };
        Ok(Self::from_template(config, t, config.itlb.map(Itlb::new)))
    }

    /// Boots a machine in the state `seed` kept: the machine
    /// [`boot`](Self::boot) makes from the same image and configuration,
    /// after [`preseed_itlb`](Self::preseed_itlb) with the same keys. Its
    /// ITLB is a copy of the seeded one (contents, LRU stamps, clock and
    /// counters), so no lookup is repeated.
    pub fn boot_seeded(seed: &crate::SeededBoot) -> Machine {
        Self::from_template(seed.config, &seed.template, seed.itlb.clone())
    }

    /// A machine assembled around clones of `t`'s space, code roots and
    /// slab, sharing `t`'s tables, with the given ITLB.
    fn from_template(
        config: MachineConfig,
        t: &crate::loaded::BootTemplate,
        itlb: Option<Itlb>,
    ) -> Machine {
        let space = t.space.lock().expect("template lock").clone();
        let mut m = Self::assemble(
            config,
            space,
            Arc::clone(&t.classes),
            Arc::clone(&t.atoms),
            Arc::clone(&t.opcodes),
            t.context_class,
            itlb,
        );
        m.code_roots = t.code_roots.clone();
        m.decoded = t.slab.clone();
        m.decoded_index = t.index.clone();
        m
    }

    /// Keeps this machine's boot state as a template other machines can
    /// boot from. Only [`crate::SeededBoot::new`] calls it, on a machine
    /// that was just booted and seeded and has run nothing.
    pub(crate) fn into_seeded_boot(self) -> crate::SeededBoot {
        crate::SeededBoot {
            config: self.config,
            template: crate::loaded::BootTemplate {
                format: self.config.format,
                space_log2: self.config.space_log2,
                space: Mutex::new(self.space),
                classes: self.classes,
                atoms: self.atoms,
                opcodes: self.opcodes,
                context_class: self.context_class,
                code_roots: self.code_roots,
                slab: self.decoded,
                index: self.decoded_index,
            },
            itlb: self.itlb,
        }
    }

    /// The common constructor tail: every register, cache and counter in
    /// its boot state around the given space, tables and ITLB.
    fn assemble(
        config: MachineConfig,
        space: ObjectSpace,
        classes: Arc<ClassTable>,
        atoms: Arc<AtomTable>,
        opcodes: Arc<OpcodeTable>,
        context_class: ClassId,
        itlb: Option<Itlb>,
    ) -> Machine {
        Machine {
            itlb,
            icache: SetAssocCache::new(
                CacheConfig::new(ICACHE_ENTRIES, ICACHE_WAYS).expect("paper geometry is valid"),
            ),
            cc: config.ctx_blocks.map(ContextCache::new),
            config,
            space,
            team: TeamId(0),
            classes,
            atoms,
            opcodes,
            decoded: Vec::new(),
            decoded_index: HashMap::default(),
            code_roots: Vec::new(),
            context_class,
            cp: None,
            ncp: None,
            free_list: Vec::new(),
            escaped: HashSet::default(),
            shadow: Vec::new(),
            cur_slab: DefinedMethod::UNRESOLVED,
            ip: None,
            ip_gen: 0,
            pc: 0,
            privileged: false,
            entry_base: None,
            entry_slab: None,
            result_cell: None,
            last_dest: None,
            stats: CycleStats::default(),
            gc_totals: GcTotals::default(),
            steps: 0,
            halted: None,
            observer: None,
        }
    }

    /// Loads a program image: adopts its class hierarchy and interning
    /// tables, stores every method's code object, and installs the defined
    /// methods into the class dictionaries.
    ///
    /// # Errors
    ///
    /// Propagates storage errors, and [`MachineError::UndefinedClass`] for
    /// a method on a class the image does not define.
    pub fn load(&mut self, image: &ProgramImage) -> Result<(), MachineError> {
        self.store_image(image, |_| None)
    }

    /// Adopts `image`'s tables, drops every method decoded for the
    /// previous program, then stores every method's code object and
    /// installs it. A method `body_of` gives a shared pre-decoded body is
    /// bound into the slab and installed pre-resolved; any other decodes
    /// lazily, on first dispatch.
    fn store_image(
        &mut self,
        image: &ProgramImage,
        body_of: impl Fn(usize) -> Option<Arc<DecodedBody>>,
    ) -> Result<(), MachineError> {
        // New tables, not writes into the old ones: those may be shared
        // with the machines booted from the same template.
        self.atoms = Arc::new(image.atoms.clone());
        self.opcodes = Arc::new(image.opcodes.clone());
        // The decoded methods go with every cache that reaches them: slab
        // slots cached in the ITLB would otherwise dangle into the old
        // program.
        self.release_entry();
        self.decoded.clear();
        self.decoded_index.clear();
        self.shadow.clear();
        self.ip = None;
        self.cur_slab = DefinedMethod::UNRESOLVED;
        self.entry_slab = None;
        if let Some(itlb) = &mut self.itlb {
            itlb.flush();
        }
        let decoded = &mut self.decoded;
        let decoded_index = &mut self.decoded_index;
        let (classes, context_class) = crate::loaded::store_and_install(
            &mut self.space,
            self.team,
            image,
            body_of,
            &mut self.code_roots,
            |base, abs, body| push_decoded(decoded, decoded_index, Decoded { base, abs, body }),
        )?;
        self.classes = Arc::new(classes);
        self.context_class = context_class;
        Ok(())
    }

    /// The class table (inspection).
    pub fn classes(&self) -> &ClassTable {
        &self.classes
    }

    /// The atom table (inspection).
    pub fn atoms(&self) -> &AtomTable {
        &self.atoms
    }

    /// The selector table (inspection).
    pub fn opcodes(&self) -> &OpcodeTable {
        &self.opcodes
    }

    /// The object space (inspection: allocation stats, ATLB stats).
    pub fn space(&self) -> &ObjectSpace {
        &self.space
    }

    /// Mutable object space access (test setup, workload data).
    pub fn space_mut(&mut self) -> &mut ObjectSpace {
        &mut self.space
    }

    /// The machine's team.
    pub fn team(&self) -> TeamId {
        self.team
    }

    /// The class used for contexts.
    pub fn context_class(&self) -> ClassId {
        self.context_class
    }

    /// Cycle statistics so far.
    pub fn stats(&self) -> CycleStats {
        self.stats
    }

    /// Aggregate garbage-collection work so far, split by generation.
    pub fn gc_totals(&self) -> GcTotals {
        self.gc_totals
    }

    /// ITLB statistics, if an ITLB is configured.
    pub fn itlb_stats(&self) -> Option<CacheStats> {
        self.itlb.as_ref().map(|t| t.stats())
    }

    /// Instruction cache statistics. Always `Some`: every machine has the
    /// paper's 4,096-entry 2-way instruction cache.
    pub fn icache_stats(&self) -> Option<CacheStats> {
        Some(self.icache.stats())
    }

    /// Context cache statistics, if configured.
    pub fn ctx_cache_stats(&self) -> Option<CtxCacheStats> {
        self.cc.as_ref().map(|c| c.stats())
    }

    /// Resets all statistics (warmup boundary); contents stay resident.
    pub fn reset_stats(&mut self) {
        self.stats = CycleStats::default();
        self.gc_totals = GcTotals::default();
        if let Some(t) = &mut self.itlb {
            t.reset_stats();
        }
        self.icache.reset_stats();
        if let Some(c) = &mut self.cc {
            c.reset_stats();
        }
    }

    /// Grants or revokes the PS privilege bit (`as:` legality, §3.3).
    pub fn set_privileged(&mut self, p: bool) {
        self.privileged = p;
    }

    /// Interns a selector (delegates to the opcode table). A new name is
    /// added to a copy of the table while other machines share it, so they
    /// never see it.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::OpcodeOutOfRange`](com_isa::IsaError) when the
    /// selector space is exhausted.
    pub fn intern_selector(&mut self, name: &str) -> Result<Opcode, com_isa::IsaError> {
        match self.opcodes.get(name) {
            Some(op) => Ok(op),
            None => Arc::make_mut(&mut self.opcodes).intern(name),
        }
    }

    /// Number of code objects currently pinned as GC roots (observability
    /// for the repeated-send leak regression tests: this must not grow
    /// across completed sends).
    pub fn code_root_count(&self) -> usize {
        self.code_roots.len()
    }

    /// Code base capabilities of the loaded methods, in image order
    /// (entry-send methods synthesized later are appended after them).
    /// Lets analysis tooling map a [`DispatchEvent::method`] capability
    /// back to a `ProgramImage` method index.
    pub fn code_roots(&self) -> &[Fpa] {
        &self.code_roots
    }

    /// The class tag of a word: its primitive class, or the class of the
    /// object a pointer names.
    #[inline]
    fn class_of_word(&mut self, w: &Word) -> Result<ClassId, MachineError> {
        match w.primitive_class() {
            Some(c) => Ok(c),
            None => {
                let p = w.as_ptr().expect("only pointers lack primitive class");
                Ok(self.space.class_of(self.team, p)?)
            }
        }
    }

    // ------------------------------------------------------------------
    // Entry
    // ------------------------------------------------------------------

    /// Sends `selector` to `receiver` with `args` and runs to completion.
    ///
    /// # Errors
    ///
    /// Returns [`MachineError::UnknownSelector`] if `selector` was never
    /// interned in the loaded image, [`MachineError::StepLimit`] if the
    /// program does not halt in `max_steps` instructions,
    /// [`MachineError::DoesNotUnderstand`] for a selector no class answers,
    /// or any trap the program raises.
    pub fn send(
        &mut self,
        selector: &str,
        receiver: Word,
        args: &[Word],
        max_steps: u64,
    ) -> Result<RunResult, MachineError> {
        let opcode = self.selector(selector)?;
        self.start_send(opcode, receiver, args)?;
        self.run(max_steps)
    }

    /// Resolves a selector name against the loaded image's interning
    /// table — the one place a missing name becomes
    /// [`MachineError::UnknownSelector`] (both [`send`](Self::send) and
    /// the embedding facade route through here).
    ///
    /// # Errors
    ///
    /// Returns [`MachineError::UnknownSelector`] if the name was never
    /// interned.
    pub fn selector(&self, name: &str) -> Result<Opcode, MachineError> {
        self.opcodes
            .get(name)
            .ok_or_else(|| MachineError::UnknownSelector(name.to_string()))
    }

    /// Abandons the current send (in flight, trapped, or completed) and
    /// unwinds the machine to a defined, re-callable state:
    ///
    /// * the synthesized entry method's code root is released;
    /// * the context registers, instruction pointer and result cell drop
    ///   out of the root set, and every context-cache block is released
    ///   (resident contexts are pinned by the collector, and with the
    ///   registers gone their contents are dead — free-list contexts are
    ///   cleared on reuse, so nothing needs writing back);
    /// * the pooled free contexts and stale escape marks are dropped
    ///   (both are per-call-graph state a fresh machine does not have);
    /// * the ITLB and instruction cache **contents** are flushed (their
    ///   cumulative statistics counters are machine history and stay).
    ///
    /// The abandoned call graph is then fully collectable, and the next
    /// [`start_send`](Self::start_send) is indistinguishable from one on
    /// a freshly booted machine: same answers, same [`CycleStats`]
    /// deltas, same heap after a collection. [`run_for`](Self::run_for)
    /// (and [`run_stepwise`](Self::run_stepwise)) route every trap exit
    /// through here, so an unhandled trap can never wedge the machine or
    /// leave the dead call graph rooted.
    pub fn abort_send(&mut self) {
        self.release_entry();
        self.drop_contexts();
        self.ip = None;
        self.result_cell = None;
        self.halted = None;
        self.shadow.clear();
        self.last_dest = None;
        self.cur_slab = DefinedMethod::UNRESOLVED;
        if let Some(itlb) = &mut self.itlb {
            itlb.flush();
        }
        self.icache.clear();
    }

    /// Prepares the bootstrap contexts and entry code for a send, without
    /// running. Useful for single-stepping tests.
    ///
    /// # Errors
    ///
    /// Propagates allocation errors.
    pub fn start_send(
        &mut self,
        selector: Opcode,
        receiver: Word,
        args: &[Word],
    ) -> Result<(), MachineError> {
        self.halted = None;
        self.shadow.clear();
        // A trapped (never-halted) previous send left its entry rooted.
        self.release_entry();
        // A one-word cell receives the program result.
        let cell = self
            .space
            .create(self.team, ClassTable::OBJECT, 1, AllocKind::Object)?;
        self.result_cell = Some(cell);
        let entry = self.store_entry(selector, args)?;

        // Bootstrap contexts: main (current) and the callee's (next).
        // main's RCP stays Uninit: returning into it halts the machine.
        let main = self.alloc_context()?;
        self.advance_contexts(main)?;
        self.ctx_write_raw(true, CTX_ARG0, Word::Ptr(cell), ClassTable::OBJECT)?;
        let rclass = self.class_of_word(&receiver)?;
        self.ctx_write_raw(true, CTX_ARG1, receiver, rclass)?;
        for (i, a) in args.iter().enumerate() {
            let c = self.class_of_word(a)?;
            self.ctx_write_raw(true, CTX_ARG1 + 1 + i as u64, *a, c)?;
        }

        let id = self.install_entry(entry)?;
        self.enter(id, 0);
        Ok(())
    }
}
