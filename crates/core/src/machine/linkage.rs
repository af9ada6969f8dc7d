//! Control transfer (§3.5, §3.6, §5): call, return, XFER, and software
//! trap dispatch, which calls a handler in place of a faulting operation.

use com_fpa::Fpa;
use com_isa::{CodeObject, Instr, Opcode, Operand};
use com_mem::{AllocKind, ClassId, Word};
use com_obj::{lookup_trap_handler, ClassTable, TrapSelector};

use super::contexts::CtxReg;
use super::Machine;
use crate::config::{LOOKUP_COST, MEMORY_PENALTY};
use crate::{MachineError, CTX_ARG1, CTX_RCP, CTX_RIP, OPERAND_BIAS};

/// One memoized frame of the dynamic call chain (see `Machine::shadow`).
#[derive(Debug, Clone, Copy)]
pub(super) struct ShadowFrame {
    /// The caller's context register at call time.
    pub(super) reg: CtxReg,
    /// The context-cache block that held the caller at call time, a memo
    /// the return checks against the directory before it trusts it.
    block: Option<usize>,
    /// The continuation stored into the caller's RIP slot.
    rip: Fpa,
    /// Decoded-slab slot of the caller's method.
    slab: u32,
}

impl Machine {
    /// Calls the method a translation hit named by its slab slot `id`.
    pub(super) fn do_call(
        &mut self,
        instr: Instr,
        id: u32,
        b: (Word, ClassId),
        c: (Word, ClassId),
    ) -> Result<(), MachineError> {
        self.do_call_impl(instr, b, c, false)?;
        self.enter(id, 0);
        Ok(())
    }

    /// The call sequence up to entering the callee: operand copy, linkage
    /// charges, the continuation, CP <- NCP and a fresh next context.
    fn do_call_impl(
        &mut self,
        instr: Instr,
        b: (Word, ClassId),
        c: (Word, ClassId),
        reified: bool,
    ) -> Result<(), MachineError> {
        // Operand copy (automatic argument transmission, §3.5): arg0 is the
        // effective address of A, arg1 = B, arg2 = C. The B and C values
        // were already fetched for dispatch; the hardware copies them from
        // the operand buses rather than re-reading the context.
        let copied: u64 = match instr {
            Instr::Three { a, .. } => {
                let (next, o) = match a {
                    Operand::Cur(o) => (false, o),
                    Operand::Next(o) => (true, o),
                    Operand::Const(_) => unreachable!("validated at construction"),
                };
                let result_ptr = self
                    .ctx_reg(next)?
                    .fpa
                    .with_offset(o as u64 + OPERAND_BIAS)?;
                self.write_linkage((Word::Ptr(result_ptr), self.context_class), b, c)?;
                3
            }
            // Programmer placed arguments already — except for a reified
            // handler call, whose trap message replaces the argument
            // register (one operand copied into the handler's context).
            Instr::Zero { .. } => {
                if reified {
                    self.ctx_write_raw(true, CTX_ARG1 + 1, c.0, c.1)?;
                    1
                } else {
                    0
                }
            }
        };
        self.stats.operand_copy_cycles += copied;
        let rip = self.link()?;
        // CP <- NCP; the next context's RCP was set at allocation.
        let new_cp = self.ctx_reg(true)?;
        if let Some(caller) = self.cp {
            self.shadow.push(ShadowFrame {
                reg: caller,
                block: self.current_block(),
                rip,
                slab: self.cur_slab,
            });
        }
        self.advance_contexts(new_cp)
    }

    /// The linkage every call and transfer performs: one cycle to flush
    /// the prefetched instruction and one for the linkage operations
    /// (§3.6), and the continuation stored into the current context's RIP.
    /// Returns the continuation.
    #[inline(always)]
    fn link(&mut self) -> Result<Fpa, MachineError> {
        self.stats.calls += 1;
        self.stats.call_linkage_cycles += 2;
        let (method_fpa, _) = self.ip.ok_or(MachineError::NoContext)?;
        let rip = method_fpa.with_offset(CodeObject::HEADER_WORDS + self.pc + 1)?;
        self.ctx_write_raw(false, CTX_RIP, Word::Ptr(rip), ClassId::INSTR)?;
        Ok(rip)
    }

    /// Software trap dispatch — the paper's §2.1 position that type
    /// errors "are handled in software via message dispatch" rather than
    /// killing the program. When a send fails to resolve
    /// ([`MachineError::DoesNotUnderstand`]) or a function unit refuses
    /// its operands ([`MachineError::BadOperands`]), and the receiver's
    /// class chain installs the matching [`TrapSelector`] handler method
    /// (`doesNotUnderstand:` / `badOperands:`), the faulting operation is
    /// reified into a message object and the handler is called in its
    /// place: the handler's answer lands where the faulting operation's
    /// result would have gone (its arg0 is the faulting instruction's
    /// result pointer) and execution continues at the next instruction.
    ///
    /// Shared verbatim by [`step`](Self::step) and the threaded
    /// [`run`](Self::run) loop, so dispatch behaviour and every charged
    /// cycle are bit-identical between the two.
    ///
    /// The original trap propagates unchanged when:
    /// * the trap is any other kind (machine-integrity conditions);
    /// * the faulting instruction has the return bit set (its
    ///   continuation — store *and* return — is not representable as a
    ///   handler continuation);
    /// * the handler selector was never interned, or no class on the
    ///   receiver's chain defines it (the chain walk, when it happens, is
    ///   charged like any full lookup);
    /// * the handler resolves to a primitive (cannot accept a message).
    pub(super) fn trap_dispatch(
        &mut self,
        instr: Instr,
        b: (Word, ClassId),
        c: (Word, ClassId),
        e: MachineError,
    ) -> Result<(), MachineError> {
        let kind = match &e {
            MachineError::DoesNotUnderstand { .. } => TrapSelector::DoesNotUnderstand,
            MachineError::BadOperands { .. } => TrapSelector::BadOperands,
            _ => return Err(e),
        };
        if instr.returns() {
            return Err(e);
        }
        let Some(handler_sel) = self.opcodes.get(kind.name()) else {
            return Err(e);
        };
        let (handler, out) = lookup_trap_handler(&self.classes, b.1, handler_sel);
        self.stats.full_lookups += 1;
        self.stats.lookup_cycles += out.cost_cycles(LOOKUP_COST);
        if out.cycle {
            return Err(MachineError::ClassChainCycle {
                opcode: handler_sel,
                class: b.1,
            });
        }
        let Some(handler) = handler else {
            return Err(e);
        };
        let nargs = match instr {
            Instr::Three { .. } => 2u8,
            Instr::Zero { nargs, .. } => nargs,
        };
        let msg = self.reify_message(instr.opcode(), nargs, c)?;
        self.stats.soft_traps += 1;
        // The call is a `do_call` whose argument register (arg2 of the
        // handler's context) carries the message instead of the faulting
        // instruction's C operand. The handler came from a full lookup,
        // so it may not be decoded yet: that happens after the call
        // sequence.
        self.do_call_impl(instr, b, msg, true)?;
        let id = self.slot(handler)?;
        self.enter(id, 0);
        Ok(())
    }

    /// Reifies a faulting operation into a three-word message object —
    /// `[selector opcode, nargs, argument]` — for a software trap
    /// handler. Charged as one memory operation (like `new`).
    ///
    /// The message records what the *instruction* transmitted, which is
    /// all this layer can see:
    ///
    /// * word 1 (`nargs`) counts operand-register arguments including
    ///   the receiver — the encoded count for a zero-format send, and
    ///   always 2 for a three-address send, whose B and C buses always
    ///   carry values. A source-level *unary* send compiled to
    ///   three-address form duplicates the receiver on C (compiler
    ///   convention, §3.5), so its message reads `nargs = 2` with the
    ///   receiver as the argument word.
    /// * word 2 is the faulting instruction's C operand (Uninit for a
    ///   one-operand zero-format send). Extra arguments of a send that
    ///   staged them into the next context stay readable in the
    ///   handler's own context slots 3.., which *are* the faulting
    ///   send's argument slots.
    fn reify_message(
        &mut self,
        opcode: Opcode,
        nargs: u8,
        arg: (Word, ClassId),
    ) -> Result<(Word, ClassId), MachineError> {
        self.stats.memory_op_cycles += MEMORY_PENALTY;
        let msg = self.create_or_collect(ClassTable::OBJECT, 3, AllocKind::Object)?;
        self.mem_write(msg, Word::Int(opcode.0 as i64), ClassId::SMALL_INT)?;
        self.mem_write(
            msg.with_offset(1)?,
            Word::Int(nargs as i64),
            ClassId::SMALL_INT,
        )?;
        self.mem_write(msg.with_offset(2)?, arg.0, arg.1)?;
        Ok((Word::Ptr(msg), ClassTable::OBJECT))
    }

    pub(super) fn do_return(&mut self) -> Result<(), MachineError> {
        self.stats.returns += 1;
        let callee = self.ctx_reg(false)?;
        let (rcp, _) = self.ctx_read_raw(false, CTX_RCP)?;
        let caller_fpa = match rcp {
            Word::Ptr(p) => p,
            // RCP never set: returning from the entry send — halt. The
            // send is over, so its synthesized entry method is released
            // (un-rooted and purged) here.
            _ => {
                let result = match self.result_cell {
                    Some(cell) => self.mem_read(cell)?.0,
                    None => Word::Uninit,
                };
                self.halted = Some(result);
                self.release_entry();
                return Ok(());
            }
        };

        let callee_escaped =
            !self.escaped.is_empty() && self.escaped.contains(&callee.fpa.segment());
        let lifo = self.config.eager_lifo_free && !callee_escaped;
        if lifo {
            self.free_lifo(callee)?;
        } else if !callee_escaped {
            // Eager freeing disabled: the callee survives for the garbage
            // collector, and the pre-allocated next context is kept.
            self.stats.contexts_left_to_gc += 1;
        }

        // CP <- RCP. A LIFO return finds the caller's pretranslated base
        // (and its method's slab slot) on the shadow stack; anything else
        // (xfer games, RCP rewritten through memory) misses the memo and
        // pays the translation.
        let frame = match self.shadow.pop() {
            Some(f) if f.reg.fpa == caller_fpa => Some(f),
            Some(_) => {
                self.shadow.clear();
                None
            }
            None => None,
        };
        let caller_abs = match frame {
            Some(f) => f.reg.abs,
            None => self.space.translate(self.team, caller_fpa)?.abs,
        };
        self.return_to(caller_fpa, caller_abs, frame.and_then(|f| f.block))?;
        // Whether recycled or kept, the next context's RCP must name the
        // context control just returned into — it was linked to the (now
        // defunct) callee when it was allocated.
        self.ctx_write_raw(true, CTX_RCP, Word::Ptr(caller_fpa), self.context_class)?;

        // IP <- caller's RIP. When the continuation matches the memoized
        // frame, the caller's method is re-entered by slab index; any
        // divergence (the program rewrote its RIP) decodes the honest way.
        let (rip, _) = self.ctx_read_raw(false, CTX_RIP)?;
        let rip = rip.as_ptr().ok_or(MachineError::NoContext)?;
        let pc = rip.offset() - CodeObject::HEADER_WORDS;
        let id = match frame {
            Some(f) if f.rip == rip && (f.slab as usize) < self.decoded.len() => f.slab,
            _ => self.ensure_decoded(rip.base())?,
        };
        self.enter(id, pc);
        Ok(())
    }

    /// XFER (§5): general control transfer to the next context. The current
    /// continuation is saved; the next context becomes current and its RIP
    /// is resumed; a fresh next context is allocated.
    pub(super) fn do_xfer(&mut self) -> Result<(), MachineError> {
        // General transfer breaks LIFO call discipline: drop the memo.
        self.shadow.clear();
        self.link()?;
        let new_cp = self.ctx_reg(true)?;
        self.advance_contexts(new_cp)?;
        let (tip, _) = self.ctx_read_raw(false, CTX_RIP)?;
        let tip = tip.as_ptr().ok_or(MachineError::NoContext)?;
        let pc = tip.offset() - CodeObject::HEADER_WORDS;
        let id = self.ensure_decoded(tip.base())?;
        self.enter(id, pc);
        Ok(())
    }
}
