//! Step 2, operand fetch, and the context store it reads (§2.3, §3.6).
//!
//! A context word lives in a context-cache block or, without the cache
//! (ablation A2), in memory. This file is the only one that asks which:
//! operand reads and writes, coherent reads and writes by absolute
//! address, context allocation with its write-back and copyback, fault-in
//! on return, LIFO freeing, and the cache's part in garbage collection and
//! in unwinding an abandoned send.

use com_fpa::{Fpa, SegmentName};
use com_isa::{Opcode, Operand};
use com_mem::{AbsAddr, AllocKind, ClassId, Word};
use com_obj::ItlbKey;

use super::fetch::LowOperand;
use super::Machine;
use crate::config::{COPYBACK_LOW_WATER, CTX_FAULT_PENALTY, MEMORY_PENALTY};
use crate::ctxcache::Eviction;
use crate::{ContextCache, MachineError, CONTEXT_WORDS, CTX_ARG0, CTX_ARG1, CTX_RCP, OPERAND_BIAS};

/// A context register: virtual address plus its pretranslated absolute base
/// ("the CP, NCP, and IP are pre-translated to absolute addresses and are
/// cached in special hardware registers", §3.6).
#[derive(Debug, Clone, Copy)]
pub(super) struct CtxReg {
    pub(super) fpa: Fpa,
    pub(super) abs: AbsAddr,
    /// Context cache block index, when the context cache is enabled.
    pub(super) block: Option<usize>,
}

/// The B and C source operands of an instruction (value and class tag) and
/// the ITLB key they form.
type Fetched = ((Word, ClassId), (Word, ClassId), ItlbKey);

impl Machine {
    #[inline]
    pub(super) fn ctx_reg(&self, next: bool) -> Result<CtxReg, MachineError> {
        let r = if next { self.ncp } else { self.cp };
        r.ok_or(MachineError::NoContext)
    }

    #[inline(always)]
    pub(super) fn ctx_read_raw(
        &mut self,
        next: bool,
        off: u64,
    ) -> Result<(Word, ClassId), MachineError> {
        if off >= CONTEXT_WORDS {
            return Err(MachineError::SlotOutOfRange { offset: off });
        }
        // Touch only the fields the chosen path needs — copying the whole
        // register out costs more than the cached read itself.
        if let Some(cc) = &mut self.cc {
            let reg = if next { &self.ncp } else { &self.cp };
            let block = match reg {
                Some(r) => r.block.expect("vector contexts are resident"),
                None => return Err(MachineError::NoContext),
            };
            Ok(cc.read(block, off))
        } else {
            // Without the cache the word is a memory access (ablation A2).
            let reg = self.ctx_reg(next)?;
            let w =
                self.space
                    .read_kind(self.team, reg.fpa.with_offset(off)?, AllocKind::Context)?;
            self.stats.memory_op_cycles += MEMORY_PENALTY;
            let c = self.class_of_word(&w)?;
            Ok((w, c))
        }
    }

    #[inline(always)]
    pub(super) fn ctx_write_raw(
        &mut self,
        next: bool,
        off: u64,
        w: Word,
        class: ClassId,
    ) -> Result<(), MachineError> {
        if off >= CONTEXT_WORDS {
            return Err(MachineError::SlotOutOfRange { offset: off });
        }
        if let Some(cc) = &mut self.cc {
            let reg = if next { &self.ncp } else { &self.cp };
            let block = match reg {
                Some(r) => r.block.expect("vector contexts are resident"),
                None => return Err(MachineError::NoContext),
            };
            cc.write(block, off, w, class);
            Ok(())
        } else {
            let reg = self.ctx_reg(next)?;
            self.space
                .write_kind(self.team, reg.fpa.with_offset(off)?, w, AllocKind::Context)?;
            self.stats.memory_op_cycles += MEMORY_PENALTY;
            Ok(())
        }
    }

    /// Fetches an operand generically (the oracle's path).
    pub(super) fn fetch_operand(&mut self, op: Operand) -> Result<(Word, ClassId), MachineError> {
        match op {
            Operand::Cur(o) => self.ctx_read_raw(false, o as u64 + OPERAND_BIAS),
            Operand::Next(o) => self.ctx_read_raw(true, o as u64 + OPERAND_BIAS),
            Operand::Const(i) => self
                .decoded
                .get(self.cur_slab as usize)
                .ok_or(MachineError::NoContext)?
                .body
                .consts
                .get(i as usize)
                .copied()
                .ok_or(MachineError::ConstOutOfRange { index: i }),
        }
    }

    /// Fetches a lowered operand (the fast-path analogue of
    /// [`fetch_operand`](Self::fetch_operand)).
    #[inline(always)]
    pub(super) fn read_low(&mut self, op: LowOperand) -> Result<(Word, ClassId), MachineError> {
        match op {
            LowOperand::Cur(off) => self.ctx_read_raw(false, off),
            LowOperand::Next(off) => self.ctx_read_raw(true, off),
            LowOperand::Imm(w, c) => Ok((w, c)),
            LowOperand::BadConst(i) => Err(MachineError::ConstOutOfRange { index: i }),
        }
    }

    /// The implicit operands of a zero-address send: arg1 (the receiver)
    /// and arg2 of the next context, and the ITLB key they form. Dispatch
    /// keys on the receiver's class even for `nargs = 0` sends (the
    /// receiver slot is always arg1). Shared by both interpreter loops.
    #[inline(always)]
    pub(super) fn implicit_operands(
        &mut self,
        op: Opcode,
        nargs: u8,
    ) -> Result<Fetched, MachineError> {
        let bv = self.ctx_read_raw(true, CTX_ARG1)?;
        if nargs >= 2 {
            let cv = self.ctx_read_raw(true, CTX_ARG1 + 1)?;
            Ok((bv, cv, ItlbKey::binary(op, bv.1, cv.1)))
        } else {
            Ok((bv, (Word::Uninit, ClassId::NONE), ItlbKey::unary(op, bv.1)))
        }
    }

    /// Absolute address of a context-slot operand, for hazard tracking.
    pub(super) fn operand_abs(&self, op: Operand) -> Option<(AbsAddr, u64)> {
        match op {
            Operand::Cur(o) => self.cp.map(|r| (r.abs, o as u64 + OPERAND_BIAS)),
            Operand::Next(o) => self.ncp.map(|r| (r.abs, o as u64 + OPERAND_BIAS)),
            Operand::Const(_) => None,
        }
    }

    // ------------------------------------------------------------------
    // Coherent access by absolute address (at:/at:put:, result stores)
    // ------------------------------------------------------------------

    /// The context-cache block holding the context word at absolute
    /// address `abs`, and the word's offset in it, when the cache is on
    /// and holds that context: "to access a context using an absolute
    /// address, the address is input to the cache directory" (§3.6).
    /// Every probe counts a directory lookup.
    #[inline]
    fn cached_word(&mut self, abs: AbsAddr) -> Option<(&mut ContextCache, usize, u64)> {
        let cc = self.cc.as_mut()?;
        let block = cc.find(AbsAddr(abs.0 & !(CONTEXT_WORDS - 1)))?;
        Some((cc, block, abs.0 & (CONTEXT_WORDS - 1)))
    }

    /// Writes `w` to absolute address `abs`: into its cache block when
    /// the word belongs to a cached context, else to memory.
    #[inline]
    fn write_abs(
        &mut self,
        abs: AbsAddr,
        kind: AllocKind,
        w: Word,
        class: ClassId,
    ) -> Result<(), MachineError> {
        if kind == AllocKind::Context {
            if let Some((cc, block, off)) = self.cached_word(abs) {
                cc.write(block, off, w, class);
                return Ok(());
            }
        }
        self.space.write_abs(abs, w, kind)?;
        Ok(())
    }

    /// Memory read, coherent with the context cache.
    pub(super) fn mem_read(&mut self, p: Fpa) -> Result<(Word, ClassId), MachineError> {
        let t = self.space.translate(self.team, p)?;
        let kind = if t.class == self.context_class {
            AllocKind::Context
        } else {
            AllocKind::Object
        };
        if kind == AllocKind::Context {
            if let Some((cc, block, off)) = self.cached_word(t.abs) {
                return Ok(cc.read(block, off));
            }
        }
        let w = self.space.read_abs(t.abs, kind)?;
        let c = self.class_of_word(&w)?;
        Ok((w, c))
    }

    /// Memory write, coherent with the context cache, with escape marking:
    /// a context pointer stored into a *heap object* makes that context
    /// non-LIFO (it may outlive its activation).
    pub(super) fn mem_write(
        &mut self,
        p: Fpa,
        w: Word,
        class: ClassId,
    ) -> Result<(), MachineError> {
        let t = self.space.translate(self.team, p)?;
        let target_is_context = t.class == self.context_class;
        if !target_is_context && class == self.context_class {
            if let Some(ptr) = w.as_ptr() {
                self.escaped.insert(ptr.segment());
                self.stats.contexts_left_to_gc += 1;
            }
        }
        let kind = if target_is_context {
            AllocKind::Context
        } else {
            AllocKind::Object
        };
        self.write_abs(t.abs, kind, w, class)
    }

    /// Stores a method result through its result pointer. The common case
    /// — a LIFO return storing into the *caller's* context — is resolved
    /// against the shadow stack's pretranslated base instead of paying a
    /// translation; anything else (heap result cells, rewritten pointers)
    /// takes the general coherent write.
    pub(super) fn store_result(
        &mut self,
        p: Fpa,
        value: Word,
        class: ClassId,
    ) -> Result<(), MachineError> {
        if let Some(frame) = self.shadow.last() {
            if p.segment() == frame.reg.fpa.segment() && p.offset() < CONTEXT_WORDS {
                // Alignment invariant: context bases are multiples of the
                // segment capacity, so OR equals ADD. The target is a
                // context, so no escape marking applies.
                let abs = AbsAddr(frame.reg.abs.0 | p.offset());
                return self.write_abs(abs, AllocKind::Context, value, class);
            }
        }
        self.mem_write(p, value, class)
    }

    // ------------------------------------------------------------------
    // Context allocation, linkage and freeing
    // ------------------------------------------------------------------

    /// Writes the three §3.5 linkage words (arg0, arg1, arg2) of the next
    /// context: one directory-bypassing block access with the cache, three
    /// memory writes without it.
    #[inline]
    pub(super) fn write_linkage(
        &mut self,
        arg0: (Word, ClassId),
        arg1: (Word, ClassId),
        arg2: (Word, ClassId),
    ) -> Result<(), MachineError> {
        if let Some(cc) = &mut self.cc {
            let block = match self.ncp.as_ref() {
                Some(r) => r.block.expect("vector contexts are resident"),
                None => return Err(MachineError::NoContext),
            };
            cc.write_linkage(block, arg0, arg1, arg2);
            Ok(())
        } else {
            self.ctx_write_raw(true, CTX_ARG0, arg0.0, arg0.1)?;
            self.ctx_write_raw(true, CTX_ARG1, arg1.0, arg1.1)?;
            self.ctx_write_raw(true, CTX_ARG1 + 1, arg2.0, arg2.1)
        }
    }

    /// CP <- `cur`, then a fresh next context whose RCP links back to it
    /// ("any NCP relative accesses will be held up until the new context
    /// is available"): the tail of a call and of a transfer, and the
    /// bootstrap of a send.
    #[inline(always)]
    pub(super) fn advance_contexts(&mut self, cur: CtxReg) -> Result<(), MachineError> {
        self.cp = Some(cur);
        if let Some(cc) = &mut self.cc {
            cc.set_current(cur.block);
            cc.set_next(None);
        }
        self.ncp = Some(self.alloc_context()?);
        self.ctx_write_raw(true, CTX_RCP, Word::Ptr(cur.fpa), self.context_class)
    }

    /// Allocates a context and places it, cleared, in the context cache as
    /// the next context. One memory reference pops the free list (§2.3);
    /// with the pool empty a fresh context object is created.
    pub(super) fn alloc_context(&mut self) -> Result<CtxReg, MachineError> {
        self.stats.contexts_allocated += 1;
        let pooled = self.free_list.pop();
        let (fpa, abs) = match pooled {
            Some(reg) => (reg.fpa, reg.abs),
            None => {
                let fpa =
                    self.create_or_collect(self.context_class, CONTEXT_WORDS, AllocKind::Context)?;
                (fpa, self.space.translate(self.team, fpa)?.abs)
            }
        };
        let block = if let Some(cc) = &mut self.cc {
            let (block, ev) = cc.alloc_next(abs);
            self.write_back(ev)?;
            Some(block)
        } else {
            if pooled.is_some() {
                self.clear_context_memory(fpa)?;
            }
            None
        };
        Ok(CtxReg { fpa, abs, block })
    }

    fn clear_context_memory(&mut self, fpa: Fpa) -> Result<(), MachineError> {
        for off in 0..CONTEXT_WORDS {
            self.space.write_kind(
                self.team,
                fpa.with_offset(off)?,
                Word::Uninit,
                AllocKind::Context,
            )?;
        }
        Ok(())
    }

    /// Writes a block leaving the cache back to memory, if it is dirty.
    fn write_back(&mut self, ev: Option<Eviction>) -> Result<(), MachineError> {
        if let Some(ev) = ev {
            if ev.dirty {
                for (i, (w, _)) in ev.words.iter().enumerate() {
                    self.space
                        .write_abs(ev.abs.offset(i as u64), *w, AllocKind::Context)?;
                }
            }
        }
        Ok(())
    }

    /// Runs the copyback engine if the free vector is low (§2.3). The copy
    /// runs "concurrently with program execution", so no cycles are charged.
    pub(super) fn maybe_copyback(&mut self) -> Result<(), MachineError> {
        if !self.config.copyback {
            return Ok(());
        }
        loop {
            let Some(cc) = &mut self.cc else {
                return Ok(());
            };
            if !cc.needs_copyback(COPYBACK_LOW_WATER) {
                return Ok(());
            }
            let Some(ev) = cc.copyback_victim() else {
                return Ok(());
            };
            // Victim blocks may belong to CP/NCP ancestors; fix block links.
            self.write_back(Some(ev))?;
        }
    }

    /// LIFO freeing at return (§2.3): the pre-allocated next context goes
    /// back to the free list (an explicit free), and the returning
    /// callee's context, cleared, becomes the next context.
    #[inline]
    pub(super) fn free_lifo(&mut self, callee: CtxReg) -> Result<(), MachineError> {
        if let Some(ncp) = self.ncp {
            if let Some(cc) = &mut self.cc {
                match ncp.block {
                    // The pre-allocated next is still resident in its
                    // block; skip the directory probe.
                    Some(b) if cc.block_abs(b) == Some(ncp.abs) => cc.release_block(b),
                    _ => cc.release(ncp.abs),
                }
            }
            self.free_list.push(CtxReg { block: None, ..ncp });
            self.stats.contexts_freed_lifo += 1;
        }
        if let Some(cc) = &mut self.cc {
            cc.recycle_as_next(callee.block.expect("current context resident"));
        } else {
            self.clear_context_memory(callee.fpa)?;
        }
        self.ncp = Some(callee);
        Ok(())
    }

    /// CP <- the caller a return lands in, at `fpa` and `abs`. The caller
    /// may have been copied back, so its context is faulted in from memory
    /// when the cache no longer holds it. `memo` is the caller's block as
    /// the shadow stack remembers it: still holding the same context
    /// (copyback may have evicted it mid-call), it is taken without a
    /// directory lookup. `kept_next` marks a return that kept the
    /// pre-allocated next context, whose block the next vector names again.
    #[inline]
    pub(super) fn return_to(
        &mut self,
        fpa: Fpa,
        abs: AbsAddr,
        memo: Option<usize>,
        kept_next: bool,
    ) -> Result<(), MachineError> {
        let memo = memo.filter(|b| {
            self.cc
                .as_ref()
                .is_some_and(|cc| cc.block_abs(*b) == Some(abs))
        });
        let block = match memo {
            Some(b) => Some(b),
            None => match self.cc.as_mut().map(|cc| cc.find(abs)) {
                None => None,
                Some(Some(b)) => Some(b),
                Some(None) => Some(self.fault_in(abs)?),
            },
        };
        self.cp = Some(CtxReg { fpa, abs, block });
        if let Some(cc) = &mut self.cc {
            cc.set_current(block);
            if kept_next {
                if let Some(ncp) = self.ncp {
                    cc.set_next(ncp.block);
                }
            }
        }
        Ok(())
    }

    /// A context-cache miss on a context that must be resident: reads the
    /// context at `abs` from memory into a block, writing back the block it
    /// displaces, and returns the block.
    fn fault_in(&mut self, abs: AbsAddr) -> Result<usize, MachineError> {
        self.stats.ctx_fault_cycles += CTX_FAULT_PENALTY;
        let mut words = Vec::with_capacity(CONTEXT_WORDS as usize);
        for off in 0..CONTEXT_WORDS {
            let w = self.space.read_abs(abs.offset(off), AllocKind::Context)?;
            let c = self.class_of_word(&w)?;
            words.push((w, c));
        }
        let cc = self.cc.as_mut().expect("only a context cache faults");
        let (block, ev) = cc.install(abs, words);
        self.write_back(ev)?;
        Ok(block)
    }

    // ------------------------------------------------------------------
    // Collection and unwinding
    // ------------------------------------------------------------------

    /// Writes every dirty block back, so memory is coherent before the
    /// collector scans contexts (a bounded cost: at most the cache's
    /// block count).
    pub(super) fn flush_context_cache(&mut self) -> Result<(), MachineError> {
        let dirty = self
            .cc
            .as_mut()
            .map(ContextCache::dirty_blocks)
            .unwrap_or_default();
        for ev in dirty {
            self.write_back(Some(ev))?;
        }
        Ok(())
    }

    /// The segments of the cache-resident contexts, which a collection
    /// pins.
    pub(super) fn resident_segments(&self) -> Vec<SegmentName> {
        let Some(cc) = &self.cc else {
            return Vec::new();
        };
        cc.resident()
            .into_iter()
            .filter_map(|abs| self.space.segment_at_base(abs))
            .collect()
    }

    /// Drops every context of an abandoned call graph: the context
    /// registers, the pooled free contexts, the escape marks (all
    /// per-call-graph state a fresh machine does not have) and every
    /// context-cache block. Resident contexts are pinned by the collector,
    /// and with the registers gone their contents are dead; free-list
    /// contexts are cleared on reuse, so nothing needs writing back.
    pub(super) fn drop_contexts(&mut self) {
        self.cp = None;
        self.ncp = None;
        self.free_list.clear();
        self.escaped.clear();
        if let Some(cc) = &mut self.cc {
            cc.set_current(None);
            cc.set_next(None);
            for abs in cc.resident() {
                cc.release(abs);
            }
        }
    }
}
