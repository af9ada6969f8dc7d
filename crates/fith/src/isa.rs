//! The Fith Machine's zero-address instruction set.

use com_isa::Opcode;
use com_mem::Word;

/// One Fith stack-machine instruction.
///
/// The set is the conventional expression-stack repertoire: the Smalltalk-80
/// virtual machine the paper contrasts with (§4: "It is a zero instruction
/// stack machine") has the same shape. Sends resolve through the identical
/// ITLB mechanism as the COM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FithInstr {
    /// Push literal `consts[i]`.
    PushConst(u16),
    /// Push local `i` (0 = self/receiver, then arguments, then temps).
    PushLocal(u16),
    /// Pop into local `i`.
    StoreLocal(u16),
    /// Duplicate the top of stack.
    Dup,
    /// Discard the top of stack.
    Drop,
    /// Send `op` with `nargs` arguments: pops the arguments and the
    /// receiver beneath them, pushes the result.
    Send {
        /// The message selector (abstract opcode).
        op: Opcode,
        /// Argument count (receiver excluded).
        nargs: u8,
    },
    /// Relative jump: displacement from the following instruction.
    Jump(i32),
    /// Pop a condition; jump when it is false.
    JumpIfFalse(i32),
    /// Pop the result and return it to the caller.
    ReturnTop,
}

impl FithInstr {
    /// A pseudo-opcode for trace records: sends use their real selector;
    /// stack operations use codes above the 10-bit selector space so they
    /// never collide with message selectors.
    pub fn trace_opcode(&self) -> u16 {
        match self {
            FithInstr::Send { op, .. } => op.0,
            FithInstr::PushConst(_) => 0x400,
            FithInstr::PushLocal(_) => 0x401,
            FithInstr::StoreLocal(_) => 0x402,
            FithInstr::Dup => 0x403,
            FithInstr::Drop => 0x404,
            FithInstr::Jump(_) => 0x405,
            FithInstr::JumpIfFalse(_) => 0x406,
            FithInstr::ReturnTop => 0x407,
        }
    }
}

impl core::fmt::Display for FithInstr {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            FithInstr::PushConst(i) => write!(f, "pushk {i}"),
            FithInstr::PushLocal(i) => write!(f, "pushl {i}"),
            FithInstr::StoreLocal(i) => write!(f, "storel {i}"),
            FithInstr::Dup => write!(f, "dup"),
            FithInstr::Drop => write!(f, "drop"),
            FithInstr::Send { op, nargs } => write!(f, "send {op}/{nargs}"),
            FithInstr::Jump(d) => write!(f, "jmp {d:+}"),
            FithInstr::JumpIfFalse(d) => write!(f, "jf {d:+}"),
            FithInstr::ReturnTop => write!(f, "ret"),
        }
    }
}

/// A compiled Fith method.
#[derive(Debug, Clone)]
pub struct FithMethod {
    /// Diagnostic name.
    pub name: String,
    /// Argument count (receiver excluded; it is local 0).
    pub n_args: u8,
    /// Total locals (receiver + args + temps).
    pub n_locals: u16,
    /// The instruction stream.
    pub code: Vec<FithInstr>,
    /// The literal table.
    pub consts: Vec<Word>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_opcodes_never_collide_with_selectors() {
        for i in [
            FithInstr::PushConst(0),
            FithInstr::PushLocal(0),
            FithInstr::StoreLocal(0),
            FithInstr::Dup,
            FithInstr::Drop,
            FithInstr::Jump(0),
            FithInstr::JumpIfFalse(0),
            FithInstr::ReturnTop,
        ] {
            assert!(i.trace_opcode() > Opcode::MAX);
        }
        let s = FithInstr::Send {
            op: Opcode::ADD,
            nargs: 1,
        };
        assert_eq!(s.trace_opcode(), Opcode::ADD.0);
    }

    #[test]
    fn display() {
        assert_eq!(FithInstr::PushLocal(3).to_string(), "pushl 3");
        assert_eq!(
            FithInstr::Send {
                op: Opcode::ADD,
                nargs: 1
            }
            .to_string(),
            "send +/1"
        );
        assert_eq!(FithInstr::Jump(-4).to_string(), "jmp -4");
    }
}
