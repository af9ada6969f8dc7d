//! Steps 4 and 5: perform a primitive operation and store its result,
//! into a context slot or, for a returning instruction, through the
//! result pointer before the return sequence.

use com_fpa::Fpa;
use com_isa::{Instr, Opcode, Operand, PrimOp};
use com_mem::{AllocKind, ClassId, MemError, Word};
use com_obj::AtomTable;

use super::Machine;
use crate::config::MEMORY_PENALTY;
use crate::{MachineError, OPERAND_BIAS};

impl Machine {
    fn truthy(&self, w: Word) -> Result<bool, MachineError> {
        match w {
            Word::Atom(a) => AtomTable::truthiness(a).ok_or(MachineError::BadBranchCondition(w)),
            Word::Int(i) => Ok(i != 0),
            other => Err(MachineError::BadBranchCondition(other)),
        }
    }

    pub(super) fn exec_primitive(
        &mut self,
        instr: Instr,
        p: PrimOp,
        b: (Word, ClassId),
        c: (Word, ClassId),
    ) -> Result<(), MachineError> {
        let opcode = instr.opcode();
        let bad = |reason: &'static str| MachineError::BadOperands { opcode, reason };
        match p {
            PrimOp::Fjmp | PrimOp::Rjmp => {
                let taken = self.truthy(b.0)?;
                // The displacement is an unsigned magnitude (direction is
                // the opcode); a negative Int here is malformed code, not a
                // huge forward jump.
                let disp =
                    c.0.as_int()
                        .filter(|d| *d >= 0)
                        .ok_or_else(|| bad("jump displacement must be a non-negative integer"))?
                        as u64;
                if taken {
                    self.stats.taken_branches += 1;
                    self.stats.branch_delay_cycles += 1;
                    if p == PrimOp::Fjmp {
                        self.pc = (self.pc + 1)
                            .checked_add(disp)
                            .ok_or_else(|| bad("forward jump target overflows"))?;
                    } else {
                        let target = (self.pc + 1)
                            .checked_sub(disp)
                            .ok_or_else(|| bad("backward jump before method start"))?;
                        self.pc = target;
                    }
                } else {
                    self.pc += 1;
                }
                Ok(())
            }
            PrimOp::Xfer => self.do_xfer(),
            PrimOp::At => {
                self.stats.memory_op_cycles += MEMORY_PENALTY;
                let ptr =
                    b.0.as_ptr()
                        .ok_or_else(|| bad("at: requires an object pointer"))?;
                let idx =
                    c.0.as_int()
                        .ok_or_else(|| bad("at: requires an integer index"))?;
                if idx < 0 {
                    return Err(bad("at: index is negative"));
                }
                let addr = self.index_addr(ptr, idx as u64)?;
                let v = self.mem_read(addr)?;
                self.write_result(instr, v.0, v.1)
            }
            PrimOp::AtPut => {
                self.stats.memory_op_cycles += MEMORY_PENALTY;
                // a at: b put: c — A holds the value (read, not written).
                let (value, vclass) = match instr {
                    Instr::Three { a, .. } => self.fetch_operand(a)?,
                    Instr::Zero { .. } => return Err(bad("at:put: needs three operands")),
                };
                let ptr =
                    b.0.as_ptr()
                        .ok_or_else(|| bad("at:put: requires an object pointer"))?;
                let idx =
                    c.0.as_int()
                        .ok_or_else(|| bad("at:put: requires an integer index"))?;
                if idx < 0 {
                    return Err(bad("at:put: index is negative"));
                }
                let addr = self.index_addr(ptr, idx as u64)?;
                self.mem_write(addr, value, vclass)?;
                if instr.returns() {
                    self.do_return()?;
                } else {
                    self.pc += 1;
                }
                self.last_dest = None;
                Ok(())
            }
            PrimOp::Movea => {
                let target = match instr {
                    Instr::Three { b: src, .. } => src,
                    Instr::Zero { .. } => return Err(bad("movea needs operands")),
                };
                let ptr = match target {
                    Operand::Cur(o) => {
                        let r = self.ctx_reg(false)?;
                        r.fpa.with_offset(o as u64 + OPERAND_BIAS)?
                    }
                    Operand::Next(o) => {
                        let r = self.ctx_reg(true)?;
                        r.fpa.with_offset(o as u64 + OPERAND_BIAS)?
                    }
                    Operand::Const(_) => return Err(bad("movea of a constant")),
                };
                self.write_result(instr, Word::Ptr(ptr), self.context_class)
            }
            PrimOp::New => {
                self.stats.memory_op_cycles += MEMORY_PENALTY;
                let class = ClassId(
                    b.0.as_int()
                        .ok_or_else(|| bad("new requires an integer class id"))?
                        as u16,
                );
                if self.classes.get(class).is_none() {
                    return Err(bad("new of an unknown class"));
                }
                let words =
                    c.0.as_int()
                        .ok_or_else(|| bad("new requires an integer size"))?;
                if words < 0 {
                    return Err(bad("new with negative size"));
                }
                let obj = self.create_or_collect(class, words as u64, AllocKind::Object)?;
                self.write_result(instr, Word::Ptr(obj), class)
            }
            PrimOp::Grow => {
                self.stats.memory_op_cycles += MEMORY_PENALTY;
                let ptr =
                    b.0.as_ptr()
                        .ok_or_else(|| bad("grow requires an object pointer"))?;
                let words =
                    c.0.as_int()
                        .ok_or_else(|| bad("grow requires an integer size"))?;
                if words < 0 {
                    return Err(bad("grow with negative size"));
                }
                let new = self.space.grow(self.team, ptr.base(), words as u64)?;
                let class = self.space.class_of(self.team, new)?;
                self.write_result(instr, Word::Ptr(new), class)
            }
            PrimOp::TagAs => {
                if !self.privileged {
                    return Err(MachineError::Privileged);
                }
                let code =
                    c.0.as_int()
                        .ok_or_else(|| bad("as: requires an integer tag code"))?;
                let v = match (b.0, code) {
                    (Word::Int(x), 3) => Word::Atom(com_mem::AtomId(x as u32)),
                    (Word::Int(x), 5) => {
                        let f =
                            Fpa::from_raw(x as u64, self.config.format).map_err(MemError::from)?;
                        Word::Ptr(f)
                    }
                    (Word::Atom(a), 1) => Word::Int(a.0 as i64),
                    (Word::Ptr(f), 1) => Word::Int(f.raw() as i64),
                    _ => return Err(bad("unsupported retagging")),
                };
                let class = self.class_of_word(&v)?;
                self.write_result(instr, v, class)
            }
            // Pure data operations. A function-unit operand trap is
            // offered to software trap dispatch (an installed
            // `badOperands:` handler) before it kills the send.
            other => {
                let v = match crate::exec::data_op(other, opcode, b.0, c.0) {
                    Ok(v) => v,
                    Err(e) => return self.trap_dispatch(instr, b, c, e),
                };
                let class = self.class_of_word(&v)?;
                self.write_result(instr, v, class)
            }
        }
    }

    /// Stores a primitive result per the instruction's format, performing
    /// the return sequence when the return bit is set.
    fn write_result(
        &mut self,
        instr: Instr,
        value: Word,
        class: ClassId,
    ) -> Result<(), MachineError> {
        if instr.returns() {
            // "When a method completes it is expected to place its result
            // (if any) at the address specified by the first operand": the
            // A slot holds the result pointer.
            let ptr = match instr {
                Instr::Three { a, .. } => self.fetch_operand(a)?.0,
                Instr::Zero { .. } => Word::Uninit,
            };
            return self.return_through(instr.opcode(), ptr, value, class);
        }
        match instr {
            Instr::Three { a, .. } => {
                match a {
                    Operand::Cur(o) => {
                        self.ctx_write_raw(false, o as u64 + OPERAND_BIAS, value, class)?
                    }
                    Operand::Next(o) => {
                        self.ctx_write_raw(true, o as u64 + OPERAND_BIAS, value, class)?
                    }
                    // Both the constructors and decode refuse constant-mode
                    // destinations; a typed trap keeps even a hand-built
                    // Instr from panicking the engine.
                    Operand::Const(_) => {
                        return Err(MachineError::BadOperands {
                            opcode: instr.opcode(),
                            reason: "constant-mode destination",
                        })
                    }
                }
                self.last_dest = self.operand_abs(a);
            }
            Instr::Zero { .. } => {
                return Err(MachineError::BadOperands {
                    opcode: instr.opcode(),
                    reason: "zero-address primitive without return bit has no destination",
                });
            }
        }
        self.pc += 1;
        Ok(())
    }

    /// The tail of a returning primitive: stores `value` through `ptr`,
    /// the word its A slot holds, then performs the return sequence.
    /// Shared by [`write_result`](Self::write_result) and the threaded
    /// loop's fast return, which each read the pointer their own way.
    #[inline]
    pub(super) fn return_through(
        &mut self,
        opcode: Opcode,
        ptr: Word,
        value: Word,
        class: ClassId,
    ) -> Result<(), MachineError> {
        match ptr {
            Word::Ptr(p) => self.store_result(p, value, class)?,
            // No result expected (result pointer never set).
            Word::Uninit => {}
            _ => {
                return Err(MachineError::BadOperands {
                    opcode,
                    reason: "result pointer slot does not hold a pointer",
                })
            }
        }
        self.do_return()?;
        self.last_dest = None;
        Ok(())
    }

    /// Resolves `ptr` advanced by `idx` words, following growth forwarding
    /// when the stale exponent cannot even encode the offset (§2.2).
    fn index_addr(&mut self, ptr: Fpa, idx: u64) -> Result<Fpa, MachineError> {
        let mut p = ptr;
        for _ in 0..64 {
            match p.with_offset(p.offset() + idx) {
                Ok(a) => return Ok(a),
                Err(_) => {
                    // Out of this name's range: consult the descriptor for a
                    // forward, exactly like the bounds trap handler.
                    let seg = p.segment();
                    let ts = self.space.mmu().team(self.team)?;
                    match ts.table.get(seg).and_then(|d| d.forward) {
                        Some(fwd) => p = fwd.with_offset(p.offset()).unwrap_or(fwd),
                        None => {
                            return Err(MachineError::Mem(MemError::Bounds {
                                addr: p,
                                offset: p.offset() + idx,
                                length: 0,
                            }))
                        }
                    }
                }
            }
        }
        Err(MachineError::Mem(MemError::Bounds {
            addr: ptr,
            offset: idx,
            length: 0,
        }))
    }
}
