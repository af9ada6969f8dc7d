//! Compiler errors.

/// A compilation error with position information where available.
#[derive(Debug, Clone, PartialEq)]
pub enum CompileError {
    /// Lexical error.
    Lex {
        /// Byte offset in the source.
        at: usize,
        /// What went wrong.
        message: String,
    },
    /// Syntax error.
    Parse {
        /// Byte offset in the source.
        at: usize,
        /// What went wrong.
        message: String,
    },
    /// Semantic error (unknown names, arity problems, capacity limits).
    Semantic(String),
}

impl CompileError {
    pub(crate) fn sem(msg: impl Into<String>) -> Self {
        CompileError::Semantic(msg.into())
    }
}

impl core::fmt::Display for CompileError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CompileError::Lex { at, message } => write!(f, "lex error at byte {at}: {message}"),
            CompileError::Parse { at, message } => {
                write!(f, "parse error at byte {at}: {message}")
            }
            CompileError::Semantic(m) => write!(f, "semantic error: {m}"),
        }
    }
}

impl std::error::Error for CompileError {}

impl From<com_isa::IsaError> for CompileError {
    /// An architectural limit the source exceeded: a slot, constant or
    /// selector that does not fit its instruction field.
    fn from(e: com_isa::IsaError) -> Self {
        CompileError::sem(format!("bad instruction: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_position() {
        let e = CompileError::Parse {
            at: 42,
            message: "expected end".into(),
        };
        assert!(e.to_string().contains("42"));
    }
}
