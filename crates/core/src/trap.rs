//! Machine traps and errors.

use com_fpa::Fpa;
use com_isa::{IsaError, Opcode};
use com_mem::{ClassId, MemError, Word};

/// Traps and fatal conditions raised during execution.
///
/// "Instruction safety … prevents the all too common occurrence of applying
/// an instruction to the wrong datatype, or attempting to execute data"
/// (§2.1) — those conditions surface here rather than corrupting state.
#[derive(Debug, Clone, PartialEq)]
pub enum MachineError {
    /// A memory-system error or trap that was not recoverable in hardware.
    Mem(MemError),
    /// An instruction decoding error.
    Isa(IsaError),
    /// A send named a selector that was never interned in the loaded
    /// image: no class could possibly answer it. Distinct from
    /// [`MachineError::DoesNotUnderstand`], where the selector exists but
    /// the receiver's class chain has no method for it.
    UnknownSelector(String),
    /// No method found for this (selector, receiver class) — the Smalltalk
    /// doesNotUnderstand condition. Raised only when the receiver's class
    /// chain installs no `doesNotUnderstand:` handler: with one installed,
    /// the failed send is reified and re-dispatched to the handler in
    /// software and execution continues (see `Machine`'s trap dispatch).
    DoesNotUnderstand {
        /// The unresolvable selector.
        opcode: Opcode,
        /// The receiver's class.
        class: ClassId,
    },
    /// Method lookup walked a cyclic superclass chain: the class table is
    /// corrupted. Distinct from [`MachineError::DoesNotUnderstand`] — the
    /// method may well exist, but the table cannot be trusted to say so.
    ClassChainCycle {
        /// The selector whose lookup hit the cycle.
        opcode: Opcode,
        /// The receiver's class (the start of the cyclic chain).
        class: ClassId,
    },
    /// An operand word was read before ever being written.
    UninitOperand {
        /// The faulting context slot (operand-biased offset).
        offset: u64,
    },
    /// A branch condition that is neither a boolean atom nor an integer.
    BadBranchCondition(Word),
    /// A word fetched for execution is not an instruction ("attempting to
    /// execute data").
    ExecutingData(Word),
    /// A function unit received operands it has no interpretation for
    /// (e.g. `/` by zero, shift of a pointer). For pure data operations
    /// this is raised only when the receiver's class chain installs no
    /// `badOperands:` handler — with one installed, the faulting
    /// operation re-dispatches to the handler in software.
    BadOperands {
        /// The operation's selector.
        opcode: Opcode,
        /// Description of the violation.
        reason: &'static str,
    },
    /// `as:` executed without privilege (PS privilege bit clear) —
    /// "conditionally privileged to prevent the forging of virtual
    /// addresses" (§3.3).
    Privileged,
    /// The step budget given to [`run`](crate::Machine::run) was exhausted.
    StepLimit,
    /// Return executed with no caller: the program halted. Carries the
    /// program result.
    Halted(Word),
    /// A context operation needed a context but none was active.
    NoContext,
    /// A call or xfer targeted something that is not a code pointer.
    BadMethod(Fpa),
    /// An operand named a context slot beyond the fixed context geometry
    /// (`CONTEXT_WORDS`). A machine-integrity fault, not an operand-type
    /// condition: it is **not** soft-dispatchable through a `badOperands:`
    /// handler, and verified images can never raise it (the static
    /// verifier rejects such methods at load).
    SlotOutOfRange {
        /// The faulting context slot (operand-biased offset).
        offset: u64,
    },
    /// A constant-mode operand indexed past the method's constant table.
    /// Like [`MachineError::SlotOutOfRange`], a machine-integrity fault
    /// that verified images can never raise.
    ConstOutOfRange {
        /// The faulting constant index.
        index: u8,
    },
    /// An image installs a method into a class its class table does not
    /// define, so no machine can load it. Raised at boot or load, before
    /// anything runs; verified images never raise it (the static verifier
    /// refuses such an image with `V008`).
    UndefinedClass {
        /// The method's index in the image.
        method: usize,
        /// The class it names.
        class: ClassId,
    },
}

impl From<MemError> for MachineError {
    fn from(e: MemError) -> Self {
        MachineError::Mem(e)
    }
}

impl From<com_fpa::FpaError> for MachineError {
    fn from(e: com_fpa::FpaError) -> Self {
        MachineError::Mem(MemError::Address(e))
    }
}

impl From<IsaError> for MachineError {
    fn from(e: IsaError) -> Self {
        MachineError::Isa(e)
    }
}

impl core::fmt::Display for MachineError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            MachineError::Mem(e) => write!(f, "memory trap: {e}"),
            MachineError::Isa(e) => write!(f, "instruction error: {e}"),
            MachineError::UnknownSelector(name) => {
                write!(
                    f,
                    "selector {name:?} was never interned in the loaded image"
                )
            }
            MachineError::DoesNotUnderstand { opcode, class } => {
                write!(f, "{class} does not understand {opcode}")
            }
            MachineError::ClassChainCycle { opcode, class } => {
                write!(
                    f,
                    "superclass chain of {class} is cyclic (corrupted class table) while looking up {opcode}"
                )
            }
            MachineError::UninitOperand { offset } => {
                write!(f, "uninitialised operand at context offset {offset}")
            }
            MachineError::BadBranchCondition(w) => write!(f, "bad branch condition {w}"),
            MachineError::ExecutingData(w) => write!(f, "attempt to execute data word {w}"),
            MachineError::BadOperands { opcode, reason } => {
                write!(f, "bad operands for {opcode}: {reason}")
            }
            MachineError::Privileged => write!(f, "privileged instruction (as:) in user mode"),
            MachineError::StepLimit => write!(f, "step limit exhausted"),
            MachineError::Halted(w) => write!(f, "halted with result {w}"),
            MachineError::NoContext => write!(f, "no active context"),
            MachineError::BadMethod(a) => write!(f, "call target {a} is not a method"),
            MachineError::SlotOutOfRange { offset } => {
                write!(f, "context slot offset {offset} beyond context geometry")
            }
            MachineError::ConstOutOfRange { index } => {
                write!(f, "constant index {index} beyond method constant table")
            }
            MachineError::UndefinedClass { method, class } => {
                write!(
                    f,
                    "image method #{method} installs into {class}, which the image does not define"
                )
            }
        }
    }
}

impl std::error::Error for MachineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MachineError::Mem(e) => Some(e),
            MachineError::Isa(e) => Some(e),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_bounds() {
        fn assert_err<E: std::error::Error + Send + Sync + 'static>() {}
        assert_err::<MachineError>();
        let e: MachineError = MemError::UnknownTeam(com_mem::TeamId(1)).into();
        assert!(matches!(e, MachineError::Mem(_)));
        assert!(std::error::Error::source(&e).is_some());
    }

    #[test]
    fn display_is_specific() {
        let e = MachineError::DoesNotUnderstand {
            opcode: Opcode::MUL,
            class: ClassId::ATOM,
        };
        assert!(e.to_string().contains("does not understand"));
    }
}
