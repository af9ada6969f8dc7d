//! The typed rejection: what was malformed, in which method, where.

use com_isa::{IsaError, Opcode};
use com_mem::ClassId;

/// Which compiled method a finding is about.
///
/// Carried by every [`VerifyError`] and lint
/// [`Diagnostic`](crate::Diagnostic) so a rejection names the offending
/// method instead of surfacing as a later interpreter trap with no
/// provenance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Provenance {
    /// Index into [`ProgramImage::methods`](com_core::ProgramImage), when
    /// the finding came from whole-image verification (absent for a bare
    /// [`CodeObject`](com_isa::CodeObject) check).
    pub index: Option<usize>,
    /// The code object's diagnostic name (`Class ≫ selector`).
    pub name: String,
}

impl core::fmt::Display for Provenance {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self.index {
            Some(i) => write!(f, "method #{i} `{}`", self.name),
            None => write!(f, "method `{}`", self.name),
        }
    }
}

/// The malformed-image classes the structural verifier rejects.
#[derive(Debug, Clone, PartialEq)]
pub enum VerifyErrorKind {
    /// The opcode field names a selector the image never interned: no
    /// class could possibly answer it, and the interpreter would raise an
    /// unprovenanced trap (or worse) on reaching it.
    UnknownOpcode(Opcode),
    /// A jump whose target cannot be statically shown to land in-bounds
    /// on an instruction boundary: a non-constant or non-integer
    /// displacement, a negative magnitude, a zero-address (dynamic) jump,
    /// or a resolved target outside the method body.
    WildBranch {
        /// What made the branch unverifiable.
        reason: &'static str,
        /// The resolved target instruction index, when one was computable.
        target: Option<i64>,
    },
    /// An operand names a context slot beyond the fixed context geometry
    /// (offset > [`MAX_SLOT`](crate::MAX_SLOT)): encodable in the operand
    /// field but guaranteed to trap at runtime.
    SlotOutOfRange {
        /// Which operand field (`'A'`, `'B'` or `'C'`).
        operand: char,
        /// The out-of-range operand offset.
        offset: u8,
    },
    /// A constant-mode operand indexes past the method's constant table.
    ConstOutOfRange {
        /// Which operand field (`'A'`, `'B'` or `'C'`).
        operand: char,
        /// The out-of-range constant index.
        index: u8,
        /// The method's constant-table length.
        table_len: usize,
    },
    /// A trap handler (`doesNotUnderstand:` / `badOperands:`) was
    /// declared with the wrong arity: the machine reifies the failed send
    /// into exactly one argument, so handlers take receiver + message.
    BadHandlerArity {
        /// The handler selector name.
        selector: &'static str,
        /// The declared arity (receiver included).
        n_args: u8,
    },
    /// The method declares more arguments than the context geometry can
    /// hold.
    TooManyArgs {
        /// The declared arity (receiver included).
        n_args: u8,
    },
    /// An instruction word does not decode at all (used by the word-level
    /// entry point [`verify_words`](crate::verify_words); compiled
    /// [`Instr`](com_isa::Instr) streams are decodable by construction).
    Undecodable(IsaError),
    /// The method is installed into a class the image's class table does
    /// not define: no receiver can reach it, and no machine can load the
    /// image.
    UndefinedClass(ClassId),
}

impl VerifyErrorKind {
    /// The stable diagnostic code (`V001`…`V008`) tools match on.
    pub fn code(&self) -> &'static str {
        match self {
            VerifyErrorKind::UnknownOpcode(_) => "V001",
            VerifyErrorKind::WildBranch { .. } => "V002",
            VerifyErrorKind::SlotOutOfRange { .. } => "V003",
            VerifyErrorKind::ConstOutOfRange { .. } => "V004",
            VerifyErrorKind::BadHandlerArity { .. } => "V005",
            VerifyErrorKind::TooManyArgs { .. } => "V006",
            VerifyErrorKind::Undecodable(_) => "V007",
            VerifyErrorKind::UndefinedClass(_) => "V008",
        }
    }
}

impl core::fmt::Display for VerifyErrorKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            VerifyErrorKind::UnknownOpcode(op) => {
                write!(f, "opcode {op} (#{}) is not interned in the image", op.0)
            }
            VerifyErrorKind::WildBranch { reason, target } => match target {
                Some(t) => write!(f, "wild branch to instruction {t}: {reason}"),
                None => write!(f, "wild branch: {reason}"),
            },
            VerifyErrorKind::SlotOutOfRange { operand, offset } => {
                write!(
                    f,
                    "operand {operand} names context slot {offset}, beyond the context geometry"
                )
            }
            VerifyErrorKind::ConstOutOfRange {
                operand,
                index,
                table_len,
            } => {
                write!(
                    f,
                    "operand {operand} names constant {index}, beyond the {table_len}-entry table"
                )
            }
            VerifyErrorKind::BadHandlerArity { selector, n_args } => {
                write!(
                    f,
                    "trap handler {selector} declares {n_args} args, expected 2 (receiver + message)"
                )
            }
            VerifyErrorKind::TooManyArgs { n_args } => {
                write!(f, "{n_args} declared args exceed the context geometry")
            }
            VerifyErrorKind::Undecodable(e) => write!(f, "undecodable instruction word: {e}"),
            VerifyErrorKind::UndefinedClass(class) => {
                write!(f, "installed into {class}, which the image does not define")
            }
        }
    }
}

/// A typed load-time rejection of a malformed method, with provenance.
///
/// Returned by [`verify_image`](crate::verify_image) and friends instead
/// of letting the interpreter trap (or panic) when it eventually reaches
/// the malformed instruction. The [`Error::source`](std::error::Error)
/// chain reaches the underlying [`IsaError`] for undecodable words.
#[derive(Debug, Clone, PartialEq)]
pub struct VerifyError {
    /// The offending method.
    pub method: Provenance,
    /// The offending instruction index within the method, when the fault
    /// is instruction-level (method-level faults such as arity carry
    /// `None`).
    pub offset: Option<usize>,
    /// What was malformed.
    pub kind: VerifyErrorKind,
}

impl VerifyError {
    /// The stable diagnostic code of the underlying kind (`V001`…`V008`).
    pub fn code(&self) -> &'static str {
        self.kind.code()
    }
}

impl core::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "[{}] {}", self.kind.code(), self.method)?;
        if let Some(pc) = self.offset {
            write!(f, ", instruction {pc}")?;
        }
        write!(f, ": {}", self.kind)
    }
}

impl std::error::Error for VerifyError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match &self.kind {
            VerifyErrorKind::Undecodable(e) => Some(e),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_carries_code_provenance_and_offset() {
        let e = VerifyError {
            method: Provenance {
                index: Some(3),
                name: "Foo ≫ bar:".into(),
            },
            offset: Some(7),
            kind: VerifyErrorKind::UnknownOpcode(Opcode(40)),
        };
        let text = e.to_string();
        assert!(text.contains("V001"), "{text}");
        assert!(text.contains("method #3"), "{text}");
        assert!(text.contains("Foo ≫ bar:"), "{text}");
        assert!(text.contains("instruction 7"), "{text}");
        assert_eq!(e.code(), "V001");
    }

    #[test]
    fn undecodable_chains_to_the_isa_error() {
        use std::error::Error;
        let e = VerifyError {
            method: Provenance {
                index: None,
                name: "t".into(),
            },
            offset: Some(0),
            kind: VerifyErrorKind::Undecodable(IsaError::BadEncoding(1 << 36)),
        };
        assert!(e.source().is_some());
        // Non-wrapping kinds are the root cause.
        let e = VerifyError {
            method: Provenance {
                index: None,
                name: "t".into(),
            },
            offset: None,
            kind: VerifyErrorKind::TooManyArgs { n_args: 99 },
        };
        assert!(e.source().is_none());
    }

    #[test]
    fn codes_are_stable_and_distinct() {
        let kinds = [
            VerifyErrorKind::UnknownOpcode(Opcode(40)),
            VerifyErrorKind::WildBranch {
                reason: "x",
                target: None,
            },
            VerifyErrorKind::SlotOutOfRange {
                operand: 'B',
                offset: 63,
            },
            VerifyErrorKind::ConstOutOfRange {
                operand: 'C',
                index: 5,
                table_len: 2,
            },
            VerifyErrorKind::BadHandlerArity {
                selector: "doesNotUnderstand:",
                n_args: 1,
            },
            VerifyErrorKind::TooManyArgs { n_args: 31 },
            VerifyErrorKind::Undecodable(IsaError::BadEncoding(0)),
        ];
        let codes: Vec<_> = kinds.iter().map(|k| k.code()).collect();
        let mut unique = codes.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), codes.len(), "duplicate codes: {codes:?}");
        assert_eq!(codes[0], "V001");
    }
}
