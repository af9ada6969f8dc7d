//! The COM Smalltalk compiler (§4 of the paper).
//!
//! "A Smalltalk-80 compiler has been written which generates code for the
//! COM." This crate reproduces that piece as a compiler for a compact
//! Smalltalk dialect with two backends:
//!
//! * **COM** — three-address code per §4's model: contexts hold `arg0` (the
//!   result pointer), `arg1` (the receiver), further arguments and
//!   temporaries; sends are abstract opcodes; common control-flow messages
//!   (`ifTrue:`, `whileTrue:`, `to:do:` …) are inlined into jumps, with an
//!   ablation switch ([`CompileOptions::inline_control_flow`]) that builds
//!   real block objects instead.
//! * **Fith** — the stack machine of §5, "an instruction set very different
//!   from the three address instruction set of the COM", for the
//!   stack-vs-three-address comparison (experiment T3).
//!
//! The language (see `parse` docs): `class C extends S … vars a b …
//! method sel … end … end`, unary/binary/keyword sends, blocks
//! `[ :x | … ]`, literals (integers, floats, `#atoms`, `true`/`false`/
//! `nil`), assignment `:=`, return `^`. Raw storage selectors map straight
//! onto machine opcodes: `rawAt:`, `rawAt:put:`, `rawGrow:`, and
//! `ClassName new` / `ClassName new: n` allocate.
//!
//! [`compile_com`] / [`compile_fith`] prepend the standard library
//! ([`stdlib::PRELUDE`]): Array, OrderedCollection, sorting, numeric
//! helpers — the "toolkits" of reusable late-bound code the paper's
//! introduction celebrates.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod analysis;
pub mod ast;
mod codegen_com;
mod codegen_fith;
mod error;
mod lex;
mod parse;
pub mod stdlib;

pub use codegen_com::compile_com_program;
pub use codegen_fith::compile_fith_program;
pub use error::CompileError;
pub use lex::{lex, Token};
pub use parse::parse;

use com_core::ProgramImage;
use com_fith::FithImage;

/// Compilation switches.
#[derive(Debug, Clone, Copy)]
pub struct CompileOptions {
    /// Inline `ifTrue:`/`ifFalse:`/`and:`/`or:`/`whileTrue:`/
    /// `timesRepeat:`/`to:do:` into jumps (the paper's compiler behaviour).
    /// When false, conditionals build real block objects and send `value`
    /// (ablation A3); loops remain inlined (jumps are the only looping
    /// construct the hardware offers).
    pub inline_control_flow: bool,
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions {
            inline_control_flow: true,
        }
    }
}

/// Compiles source text, after the standard library, to a COM program
/// image.
///
/// # Errors
///
/// Returns [`CompileError`] for lexical, syntactic or semantic errors.
pub fn compile_com(source: &str, options: CompileOptions) -> Result<ProgramImage, CompileError> {
    let program = parse(&format!("{}\n{}", stdlib::PRELUDE, source))?;
    compile_com_program(&program, options)
}

/// Compiles source text, after the standard library, to a Fith (stack
/// machine) image.
///
/// # Errors
///
/// Returns [`CompileError`]; real (non-inlinable) blocks are not supported
/// by the stack backend and are reported as errors.
pub fn compile_fith(source: &str) -> Result<FithImage, CompileError> {
    let program = parse(&format!("{}\n{}", stdlib::PRELUDE, source))?;
    compile_fith_program(&program)
}
