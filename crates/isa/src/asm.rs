//! A small assembler producing storable code objects.
//!
//! "Compilation [is] a simple matter of assembling opcodes" (§2.1). The
//! assembler resolves forward/backward jumps into `fjmp`/`rjmp`
//! displacements, interns method literals into the constant table (§3.4's
//! constant generator is loaded per method), and lays the result out as a
//! code segment in absolute space.

use com_mem::{AllocKind, ClassId, MemError, ObjectSpace, TeamId, Word};

use crate::{Instr, IsaError, Opcode, Operand};

/// A forward-referencable jump target.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Label(usize);

/// One assembled method: instructions plus its literal (constant) table.
///
/// Code objects are stored in memory with the layout
///
/// ```text
/// word 0            Int(n_instrs)
/// word 1            Int(n_args)
/// word 2            Int(n_consts)
/// word 3 ..         instruction words
/// word 3+n_instrs.. constant words
/// ```
///
/// so the machine fetches instruction `pc` at `base + HEADER + pc` and
/// constant `k` at `base + HEADER + n_instrs + k`.
#[derive(Debug, Clone, PartialEq)]
pub struct CodeObject {
    /// Diagnostic name (class ≫ selector).
    pub name: String,
    /// Number of declared arguments (receiver included as arg 1).
    pub n_args: u8,
    /// The instruction stream.
    pub instrs: Vec<Instr>,
    /// The method's constant table ("short integers, bit fields … and the
    /// objects true, false, and nil", §3.4).
    pub consts: Vec<Word>,
}

impl CodeObject {
    /// Words of header before the instruction stream.
    pub const HEADER_WORDS: u64 = 3;

    /// Total words this object occupies in memory.
    pub fn size_words(&self) -> u64 {
        Self::HEADER_WORDS + self.instrs.len() as u64 + self.consts.len() as u64
    }

    /// Stores the code object into `space`, returning its base capability.
    ///
    /// # Errors
    ///
    /// Propagates allocation and write errors.
    pub fn store(&self, space: &mut ObjectSpace, team: TeamId) -> Result<com_fpa::Fpa, MemError> {
        let mut words = Vec::with_capacity(self.size_words() as usize);
        words.push(Word::Int(self.instrs.len() as i64));
        words.push(Word::Int(self.n_args as i64));
        words.push(Word::Int(self.consts.len() as i64));
        words.extend(self.instrs.iter().map(|i| Word::Instr(i.encode())));
        words.extend_from_slice(&self.consts);
        // One pad word so a return continuation after the final instruction
        // (`pc == n_instrs`) is still encodable within the segment. It is
        // never written (reads as Uninit), exactly like the word-by-word
        // store it replaces.
        space.create_filled(
            team,
            ClassId::INSTR,
            self.size_words() + 1,
            AllocKind::Code,
            &words,
        )
    }
}

/// Pending instruction: either final or an unresolved jump.
#[derive(Debug, Clone)]
enum Pending {
    Ready(Instr),
    Jump {
        cond: Operand,
        label: Label,
        ret: bool,
    },
}

/// The assembler: emit instructions, bind labels, intern constants, finish.
///
/// ```
/// use com_isa::{Assembler, Opcode, Operand};
/// use com_mem::Word;
///
/// # fn main() -> Result<(), com_isa::IsaError> {
/// let mut asm = Assembler::new("demo", 1);
/// let k1 = asm.intern_const(Word::Int(1))?;
/// // c4 <- c3 + 1
/// asm.emit_three(Opcode::ADD, Operand::Cur(4), Operand::Cur(3), Operand::Const(k1))?;
/// let code = asm.finish()?;
/// assert_eq!(code.instrs.len(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Assembler {
    name: String,
    n_args: u8,
    instrs: Vec<Pending>,
    consts: Vec<Word>,
    labels: Vec<Option<usize>>,
}

impl Assembler {
    /// Starts assembling a method called `name` taking `n_args` arguments.
    pub fn new(name: impl Into<String>, n_args: u8) -> Self {
        Assembler {
            name: name.into(),
            n_args,
            instrs: Vec::new(),
            consts: Vec::new(),
            labels: Vec::new(),
        }
    }

    /// Index of the next instruction to be emitted.
    pub fn here(&self) -> usize {
        self.instrs.len()
    }

    /// Interns a constant, deduplicating, and returns its table index.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::OperandOutOfRange`] when the method needs more
    /// than 128 distinct constants: the next index does not fit the 7-bit
    /// field (a compiler-visible architectural constraint).
    pub fn intern_const(&mut self, w: Word) -> Result<u8, IsaError> {
        if let Some(i) = self.consts.iter().position(|c| *c == w) {
            return Ok(i as u8);
        }
        // At most MAX_CONST + 1 constants are ever interned, so this fits.
        let k = self.consts.len() as u8;
        if k > Operand::MAX_CONST {
            return Err(IsaError::OperandOutOfRange(Operand::Const(k)));
        }
        self.consts.push(w);
        Ok(k)
    }

    /// Emits a finished instruction.
    pub fn emit(&mut self, i: Instr) {
        self.instrs.push(Pending::Ready(i));
    }

    /// Builds and emits a three-address instruction.
    ///
    /// # Errors
    ///
    /// Propagates [`Instr::three`] validation errors.
    pub fn emit_three(
        &mut self,
        op: Opcode,
        a: Operand,
        b: Operand,
        c: Operand,
    ) -> Result<(), IsaError> {
        self.emit(Instr::three(op, a, b, c)?);
        Ok(())
    }

    /// Builds and emits a three-address instruction with the return bit.
    ///
    /// # Errors
    ///
    /// Propagates [`Instr::three_ret`] validation errors.
    pub fn emit_three_ret(
        &mut self,
        op: Opcode,
        a: Operand,
        b: Operand,
        c: Operand,
    ) -> Result<(), IsaError> {
        self.emit(Instr::three_ret(op, a, b, c, true)?);
        Ok(())
    }

    /// Builds and emits a zero-address instruction.
    ///
    /// # Errors
    ///
    /// Propagates [`Instr::zero`] validation errors.
    pub fn emit_zero(&mut self, op: Opcode, nargs: u8, ret: bool) -> Result<(), IsaError> {
        self.emit(Instr::zero(op, nargs, ret)?);
        Ok(())
    }

    /// Creates a fresh, unbound label.
    pub fn label(&mut self) -> Label {
        self.labels.push(None);
        Label(self.labels.len() - 1)
    }

    /// Binds `label` to the next instruction index.
    pub fn bind(&mut self, label: Label) {
        self.labels[label.0] = Some(self.instrs.len());
    }

    /// Emits a conditional jump to `label`: taken when `cond` is true.
    /// Direction (`fjmp` vs `rjmp`) is chosen when the label resolves.
    pub fn jump_if(&mut self, cond: Operand, label: Label) {
        self.instrs.push(Pending::Jump {
            cond,
            label,
            ret: false,
        });
    }

    /// Emits an unconditional jump to `label` (condition = the constant
    /// `true`).
    ///
    /// # Errors
    ///
    /// Propagates [`intern_const`](Self::intern_const)'s table overflow.
    pub fn jump(&mut self, label: Label) -> Result<(), IsaError> {
        let t = self.intern_const(Word::from(true))?;
        self.instrs.push(Pending::Jump {
            cond: Operand::Const(t),
            label,
            ret: false,
        });
        Ok(())
    }

    /// Finishes assembly, resolving all jumps.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::UnresolvedLabel`] for labels never bound,
    /// [`IsaError::JumpTooFar`] for displacements beyond the constant range
    /// and [`IsaError::OperandOutOfRange`] when a displacement finds the
    /// constant table full.
    pub fn finish(mut self) -> Result<CodeObject, IsaError> {
        // Resolve jumps: displacement measured from the *following*
        // instruction (the branch is delayed one cycle, §3.6, and the IP has
        // already advanced).
        let mut out = Vec::with_capacity(self.instrs.len());
        let mut jump_fixups = Vec::new();
        for (pc, p) in self.instrs.iter().enumerate() {
            match p {
                Pending::Ready(i) => out.push(*i),
                Pending::Jump { cond, label, ret } => {
                    let target = self.labels[label.0].ok_or(IsaError::UnresolvedLabel(label.0))?;
                    let disp = target as i64 - (pc as i64 + 1);
                    jump_fixups.push((pc, *cond, disp, *ret));
                    out.push(Instr::Zero {
                        op: Opcode::FJMP,
                        ret: *ret,
                        nargs: 0,
                    }); // placeholder, replaced below
                }
            }
        }
        for (pc, cond, disp, ret) in jump_fixups {
            let (op, magnitude) = if disp >= 0 {
                (Opcode::FJMP, disp)
            } else {
                (Opcode::RJMP, -disp)
            };
            let k = self.intern_const(Word::Int(magnitude))?;
            out[pc] = Instr::three_ret(op, Operand::Cur(0), cond, Operand::Const(k), ret)
                .map_err(|_| IsaError::JumpTooFar { displacement: disp })?;
        }
        Ok(CodeObject {
            name: self.name,
            n_args: self.n_args,
            instrs: out,
            consts: self.consts,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use com_fpa::FpaFormat;

    #[test]
    fn constants_deduplicate() {
        let mut a = Assembler::new("t", 0);
        let k1 = a.intern_const(Word::Int(5)).unwrap();
        let k2 = a.intern_const(Word::Int(5)).unwrap();
        let k3 = a.intern_const(Word::Int(6)).unwrap();
        assert_eq!(k1, k2);
        assert_ne!(k1, k3);
    }

    #[test]
    fn forward_jump_resolves_to_fjmp() {
        let mut a = Assembler::new("t", 0);
        let end = a.label();
        a.jump_if(Operand::Cur(4), end);
        a.emit_three(
            Opcode::ADD,
            Operand::Cur(5),
            Operand::Cur(5),
            Operand::Cur(5),
        )
        .unwrap();
        a.bind(end);
        a.emit_zero(Opcode::XFER, 0, true).unwrap();
        let code = a.finish().unwrap();
        match code.instrs[0] {
            Instr::Three { op, c, .. } => {
                assert_eq!(op, Opcode::FJMP);
                // displacement: target 2 - (0 + 1) = 1
                let Operand::Const(k) = c else {
                    panic!("const expected")
                };
                assert_eq!(code.consts[k as usize], Word::Int(1));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn backward_jump_resolves_to_rjmp() {
        let mut a = Assembler::new("t", 0);
        let top = a.label();
        a.bind(top);
        a.emit_three(
            Opcode::ADD,
            Operand::Cur(5),
            Operand::Cur(5),
            Operand::Cur(5),
        )
        .unwrap();
        a.jump(top).unwrap();
        let code = a.finish().unwrap();
        match code.instrs[1] {
            Instr::Three { op, c, .. } => {
                assert_eq!(op, Opcode::RJMP);
                // displacement: target 0 - (1 + 1) = -2 → magnitude 2
                let Operand::Const(k) = c else {
                    panic!("const expected")
                };
                assert_eq!(code.consts[k as usize], Word::Int(2));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn unresolved_label_is_an_error() {
        let mut a = Assembler::new("t", 0);
        let l = a.label();
        a.jump(l).unwrap();
        assert!(matches!(a.finish(), Err(IsaError::UnresolvedLabel(_))));
    }

    #[test]
    fn store_layout_roundtrips() {
        let mut a = Assembler::new("t", 2);
        let k = a.intern_const(Word::Int(99)).unwrap();
        a.emit_three(
            Opcode::MOVE,
            Operand::Cur(5),
            Operand::Cur(5),
            Operand::Const(k),
        )
        .unwrap();
        a.emit_zero(Opcode::XFER, 0, true).unwrap();
        let code = a.finish().unwrap();

        let mut space = ObjectSpace::new(20, FpaFormat::COM);
        let team = TeamId(0);
        let base = code.store(&mut space, team).unwrap();
        assert_eq!(space.read(team, base).unwrap(), Word::Int(2));
        assert_eq!(
            space.read(team, base.with_offset(1).unwrap()).unwrap(),
            Word::Int(2)
        );
        assert_eq!(
            space.read(team, base.with_offset(2).unwrap()).unwrap(),
            Word::Int(1)
        );
        let w = space
            .read(team, base.with_offset(CodeObject::HEADER_WORDS).unwrap())
            .unwrap();
        let decoded = Instr::decode(w.as_instr().unwrap()).unwrap();
        assert_eq!(decoded, code.instrs[0]);
        // constant follows the instruction stream
        let c = space
            .read(
                team,
                base.with_offset(CodeObject::HEADER_WORDS + 2).unwrap(),
            )
            .unwrap();
        assert_eq!(c, Word::Int(99));
    }
}
