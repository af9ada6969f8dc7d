//! The structural verifier: load-time rejection of malformed methods.
//!
//! Every check here mirrors a condition the interpreter would otherwise
//! discover mid-run — as a trap at best, and historically as a panic or
//! an unbounded allocation on the hot path. Verification moves the
//! discovery to image-build time and attaches provenance.

use com_core::{ProgramImage, CONTEXT_WORDS, OPERAND_BIAS};
use com_isa::{CodeObject, Instr, Opcode, OpcodeTable, Operand};
use com_obj::TrapSelector;

use crate::error::{Provenance, VerifyError, VerifyErrorKind};

/// The largest operand offset that names a context slot inside the fixed
/// context geometry: offsets are biased past the two linkage words, so
/// `MAX_SLOT + OPERAND_BIAS` is the last of the [`CONTEXT_WORDS`] words.
/// The operand *encoding* admits offsets up to
/// [`Operand::MAX_OFFSET`](com_isa::Operand::MAX_OFFSET) (63); anything
/// above `MAX_SLOT` is encodable but guaranteed to trap.
pub const MAX_SLOT: u8 = (CONTEXT_WORDS - OPERAND_BIAS - 1) as u8;

/// Verifies every compiled method of `image`, failing on the first
/// malformed one.
///
/// This is the load-time gate [`VmBuilder`](../com_vm) runs in strict
/// mode: an image that passes cannot make the interpreter read an
/// out-of-geometry context slot, index past a constant table, jump out
/// of a method body, or dispatch an un-interned opcode — and its trap
/// handlers have the arity the reified-send protocol requires.
///
/// # Errors
///
/// The first [`VerifyError`], with method and instruction provenance.
pub fn verify_image(image: &ProgramImage) -> Result<(), VerifyError> {
    let dnu = image.opcodes.get(TrapSelector::DoesNotUnderstand.name());
    let bad_ops = image.opcodes.get(TrapSelector::BadOperands.name());
    for (index, m) in image.methods.iter().enumerate() {
        let prov = Provenance {
            index: Some(index),
            name: m.code.name.clone(),
        };
        verify_code_at(&m.code, &image.opcodes, &prov)?;
        // Trap-handler arity: the machine reifies a failed send into one
        // message argument, so a handler is exactly receiver + message.
        for (sel, name) in [
            (dnu, TrapSelector::DoesNotUnderstand.name()),
            (bad_ops, TrapSelector::BadOperands.name()),
        ] {
            if sel == Some(m.selector) && m.code.n_args != 2 {
                return Err(VerifyError {
                    method: prov,
                    offset: None,
                    kind: VerifyErrorKind::BadHandlerArity {
                        selector: name,
                        n_args: m.code.n_args,
                    },
                });
            }
        }
    }
    Ok(())
}

/// Verifies a single code object against an opcode table (no handler
/// arity check — that needs the method's install selector, which a bare
/// code object does not carry).
///
/// # Errors
///
/// The first [`VerifyError`], with instruction provenance.
pub fn verify_code(code: &CodeObject, opcodes: &OpcodeTable) -> Result<(), VerifyError> {
    let prov = Provenance {
        index: None,
        name: code.name.clone(),
    };
    verify_code_at(code, opcodes, &prov)
}

/// Verifies raw 36-bit instruction words as a method body: each word must
/// decode ([`Instr::decode`]) and the decoded stream must pass
/// [`verify_code`]. This is the entry point for untrusted words (image
/// snapshots, the mutation suite) — compiled [`Instr`] streams are
/// decodable by construction, so [`verify_code`] never sees `V007`.
///
/// # Errors
///
/// [`VerifyErrorKind::Undecodable`] (chaining to the
/// [`IsaError`](com_isa::IsaError)) for a word that is not an
/// instruction, then anything [`verify_code`] rejects.
pub fn verify_words(
    name: &str,
    n_args: u8,
    words: &[u64],
    consts: &[com_mem::Word],
    opcodes: &OpcodeTable,
) -> Result<(), VerifyError> {
    let mut instrs = Vec::with_capacity(words.len());
    for (pc, w) in words.iter().enumerate() {
        match Instr::decode(*w) {
            Ok(i) => instrs.push(i),
            Err(e) => {
                return Err(VerifyError {
                    method: Provenance {
                        index: None,
                        name: name.to_string(),
                    },
                    offset: Some(pc),
                    kind: VerifyErrorKind::Undecodable(e),
                })
            }
        }
    }
    let code = CodeObject {
        name: name.to_string(),
        n_args,
        instrs,
        consts: consts.to_vec(),
    };
    verify_code(&code, opcodes)
}

fn verify_code_at(
    code: &CodeObject,
    opcodes: &OpcodeTable,
    prov: &Provenance,
) -> Result<(), VerifyError> {
    let fail = |offset: Option<usize>, kind: VerifyErrorKind| {
        Err(VerifyError {
            method: prov.clone(),
            offset,
            kind,
        })
    };
    // Declared args land in operand slots 0..n_args (receiver included),
    // so the last one must still be inside the geometry.
    if code.n_args > MAX_SLOT + 1 {
        return fail(
            None,
            VerifyErrorKind::TooManyArgs {
                n_args: code.n_args,
            },
        );
    }
    for (pc, instr) in code.instrs.iter().enumerate() {
        if let Err(kind) = verify_instr(code, pc, *instr, opcodes) {
            return fail(Some(pc), kind);
        }
    }
    Ok(())
}

/// The statically known jump target of the conditional jump at `pc`, if
/// the instruction is one (assumes the instruction already verified).
pub(crate) fn jump_target(code: &CodeObject, pc: usize, instr: Instr) -> Option<usize> {
    if !instr.is_jump() {
        return None;
    }
    let [_, _, c] = instr.operands()?;
    let Operand::Const(k) = c else { return None };
    let d = code.consts.get(k as usize)?.as_int()?;
    let t = if instr.opcode() == Opcode::FJMP {
        (pc as i64 + 1).checked_add(d)?
    } else {
        (pc as i64 + 1).checked_sub(d)?
    };
    usize::try_from(t).ok()
}

fn verify_instr(
    code: &CodeObject,
    pc: usize,
    instr: Instr,
    opcodes: &OpcodeTable,
) -> Result<(), VerifyErrorKind> {
    let op = instr.opcode();
    if !opcodes.contains(op) {
        return Err(VerifyErrorKind::UnknownOpcode(op));
    }
    match instr.operands() {
        Some(operands) => {
            // Constructors and decode both refuse a constant-mode
            // destination; re-checked here so even a hand-built `Instr`
            // enum value cannot slip one past the gate.
            if operands[0].is_const() {
                return Err(VerifyErrorKind::Undecodable(
                    com_isa::IsaError::MisplacedConstant { position: 0 },
                ));
            }
            for (name, operand) in ['A', 'B', 'C'].into_iter().zip(operands) {
                match operand {
                    Operand::Cur(o) | Operand::Next(o) if o > MAX_SLOT => {
                        return Err(VerifyErrorKind::SlotOutOfRange {
                            operand: name,
                            offset: o,
                        });
                    }
                    Operand::Const(i) if i as usize >= code.consts.len() => {
                        return Err(VerifyErrorKind::ConstOutOfRange {
                            operand: name,
                            index: i,
                            table_len: code.consts.len(),
                        });
                    }
                    _ => {}
                }
            }
            if instr.is_jump() {
                verify_jump(code, pc, instr, operands[2])?;
            }
        }
        None => {
            // Zero-address: operands are implicit next-context locals at
            // fixed small offsets (decode bounds nargs to 2), so only a
            // dynamic jump is rejectable here.
            if op == Opcode::FJMP || op == Opcode::RJMP {
                return Err(VerifyErrorKind::WildBranch {
                    reason: "zero-address jump takes its displacement from a context slot",
                    target: None,
                });
            }
        }
    }
    Ok(())
}

fn verify_jump(
    code: &CodeObject,
    pc: usize,
    instr: Instr,
    c: Operand,
) -> Result<(), VerifyErrorKind> {
    let wild = |reason, target| Err(VerifyErrorKind::WildBranch { reason, target });
    let Operand::Const(k) = c else {
        return wild("jump displacement must be a constant operand", None);
    };
    // In-range: checked above.
    let Some(d) = code.consts[k as usize].as_int() else {
        return wild("jump displacement must be an integer constant", None);
    };
    if d < 0 {
        return wild("jump displacement magnitude is negative", None);
    }
    // Displacement is measured from pc + 1 (the IP has already advanced).
    let target = if instr.opcode() == Opcode::FJMP {
        (pc as i64 + 1).checked_add(d)
    } else {
        (pc as i64 + 1).checked_sub(d)
    };
    let Some(target) = target else {
        return wild("branch target outside the method body", None);
    };
    if target < 0 || target as usize >= code.instrs.len() {
        return wild("branch target outside the method body", Some(target));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use com_isa::Assembler;
    use com_mem::{ClassId, Word};

    fn table() -> OpcodeTable {
        OpcodeTable::new()
    }

    /// A minimal valid method: `c4 <- c3 + 1`, return.
    fn valid_code() -> CodeObject {
        let mut asm = Assembler::new("t", 1);
        let k = asm.intern_const(Word::Int(1)).unwrap();
        asm.emit_three(
            Opcode::ADD,
            Operand::Cur(4),
            Operand::Cur(3),
            Operand::Const(k),
        )
        .unwrap();
        asm.emit_three_ret(
            Opcode::MOVE,
            Operand::Cur(0),
            Operand::Cur(4),
            Operand::Cur(4),
        )
        .unwrap();
        asm.finish().unwrap()
    }

    #[test]
    fn accepts_valid_code() {
        assert_eq!(verify_code(&valid_code(), &table()), Ok(()));
    }

    #[test]
    fn rejects_uninterned_opcode() {
        let mut code = valid_code();
        code.instrs[0] = Instr::three(
            Opcode(40), // the gap between standard selectors and USER_BASE
            Operand::Cur(4),
            Operand::Cur(3),
            Operand::Cur(3),
        )
        .unwrap();
        let e = verify_code(&code, &table()).unwrap_err();
        assert_eq!(e.code(), "V001");
        assert_eq!(e.offset, Some(0));
    }

    #[test]
    fn rejects_out_of_geometry_slot() {
        let mut code = valid_code();
        // Offset 63 is encodable but beyond the 32-word context.
        code.instrs[0] = Instr::three(
            Opcode::ADD,
            Operand::Cur(4),
            Operand::Cur(63),
            Operand::Cur(3),
        )
        .unwrap();
        let e = verify_code(&code, &table()).unwrap_err();
        assert_eq!(e.code(), "V003");
        assert!(matches!(
            e.kind,
            VerifyErrorKind::SlotOutOfRange {
                operand: 'B',
                offset: 63
            }
        ));
        assert!(verify_code(&valid_code(), &table()).is_ok());
        // MAX_SLOT itself is fine.
        let mut code = valid_code();
        code.instrs[0] = Instr::three(
            Opcode::ADD,
            Operand::Cur(MAX_SLOT),
            Operand::Cur(3),
            Operand::Cur(3),
        )
        .unwrap();
        assert!(verify_code(&code, &table()).is_ok());
    }

    #[test]
    fn rejects_out_of_range_constant() {
        let mut code = valid_code();
        code.instrs[0] = Instr::three(
            Opcode::ADD,
            Operand::Cur(4),
            Operand::Cur(3),
            Operand::Const(9),
        )
        .unwrap();
        let e = verify_code(&code, &table()).unwrap_err();
        assert_eq!(e.code(), "V004");
    }

    #[test]
    fn rejects_wild_branches() {
        // Forward jump past the end of the method.
        let mut code = valid_code();
        let k = code.consts.len() as u8;
        code.consts.push(Word::Int(50));
        code.instrs[0] = Instr::three(
            Opcode::FJMP,
            Operand::Cur(0),
            Operand::Cur(3),
            Operand::Const(k),
        )
        .unwrap();
        let e = verify_code(&code, &table()).unwrap_err();
        assert_eq!(e.code(), "V002");
        // Backward jump before the start.
        code.consts[k as usize] = Word::Int(40);
        code.instrs[0] = Instr::three(
            Opcode::RJMP,
            Operand::Cur(0),
            Operand::Cur(3),
            Operand::Const(k),
        )
        .unwrap();
        assert_eq!(verify_code(&code, &table()).unwrap_err().code(), "V002");
        // Non-integer displacement.
        code.consts[k as usize] = Word::Uninit;
        assert_eq!(verify_code(&code, &table()).unwrap_err().code(), "V002");
        // Non-constant displacement.
        code.instrs[0] = Instr::three(
            Opcode::FJMP,
            Operand::Cur(0),
            Operand::Cur(3),
            Operand::Cur(4),
        )
        .unwrap();
        assert_eq!(verify_code(&code, &table()).unwrap_err().code(), "V002");
        // Zero-address jump.
        code.instrs[0] = Instr::zero(Opcode::FJMP, 0, false).unwrap();
        assert_eq!(verify_code(&code, &table()).unwrap_err().code(), "V002");
    }

    #[test]
    fn valid_jumps_pass() {
        let mut asm = Assembler::new("loop", 1);
        let top = asm.label();
        asm.bind(top);
        asm.emit_three(
            Opcode::SUB,
            Operand::Cur(3),
            Operand::Cur(3),
            Operand::Cur(3),
        )
        .unwrap();
        asm.jump_if(Operand::Cur(3), top);
        asm.emit_three_ret(
            Opcode::MOVE,
            Operand::Cur(0),
            Operand::Cur(3),
            Operand::Cur(3),
        )
        .unwrap();
        let code = asm.finish().unwrap();
        assert_eq!(verify_code(&code, &table()), Ok(()));
    }

    #[test]
    fn rejects_excess_arity() {
        let mut code = valid_code();
        code.n_args = MAX_SLOT + 2;
        assert_eq!(verify_code(&code, &table()).unwrap_err().code(), "V006");
    }

    #[test]
    fn word_level_entry_rejects_undecodable_words() {
        use std::error::Error;
        let e = verify_words("t", 1, &[1 << 36], &[], &table()).unwrap_err();
        assert_eq!(e.code(), "V007");
        assert!(e.source().is_some(), "V007 must chain to the IsaError");
        // Decodable words flow into the structural checks.
        let i = Instr::three(
            Opcode::ADD,
            Operand::Cur(4),
            Operand::Cur(63),
            Operand::Cur(3),
        )
        .unwrap();
        let e = verify_words("t", 1, &[i.encode()], &[], &table()).unwrap_err();
        assert_eq!(e.code(), "V003");
    }

    #[test]
    fn image_verification_checks_handler_arity() {
        let mut img = ProgramImage::empty();
        let dnu = img
            .opcodes
            .intern(TrapSelector::DoesNotUnderstand.name())
            .unwrap();
        let mut asm = Assembler::new("Thing ≫ doesNotUnderstand:", 1); // wrong: needs 2
        asm.emit_three_ret(
            Opcode::MOVE,
            Operand::Cur(0),
            Operand::Cur(0),
            Operand::Cur(0),
        )
        .unwrap();
        img.add_method(ClassId::SMALL_INT, dnu, asm.finish().unwrap());
        let e = verify_image(&img).unwrap_err();
        assert_eq!(e.code(), "V005");
        assert_eq!(e.method.index, Some(0));
        // Correct arity passes.
        let mut img = ProgramImage::empty();
        let dnu = img
            .opcodes
            .intern(TrapSelector::DoesNotUnderstand.name())
            .unwrap();
        let mut asm = Assembler::new("Thing ≫ doesNotUnderstand:", 2);
        asm.emit_three_ret(
            Opcode::MOVE,
            Operand::Cur(0),
            Operand::Cur(1),
            Operand::Cur(1),
        )
        .unwrap();
        img.add_method(ClassId::SMALL_INT, dnu, asm.finish().unwrap());
        assert_eq!(verify_image(&img), Ok(()));
    }
}
