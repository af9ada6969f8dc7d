//! The Fith Machine: the stack-architecture precursor of the COM (§5).
//!
//! "The Fith language combines the syntax of Forth with the semantics of
//! Smalltalk. Since Fith is a stack based language, the Fith Machine was a
//! stack machine and had an instruction set very different from the three
//! address instruction set of the COM; however the instruction translation
//! mechanisms of the two machines are identical so the results presented
//! here should apply to the COM as well."
//!
//! The Fith machine plays two roles in the reproduction:
//!
//! 1. **Trace source for Figures 10 and 11** — the interpreter records, for
//!    each instruction, "the address of the instruction, the opcode, and
//!    the type of object on the top of the stack", exactly as the paper's
//!    instrumented interpreter on the IBM 4341 did.
//! 2. **Baseline for experiment T3** — "Stack machines while offering small
//!    code size require almost twice as many instructions to implement a
//!    given source language program than a three address machine."

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod isa;
mod machine;

pub use isa::{FithInstr, FithMethod};
pub use machine::{FithImage, FithMachine, FithResult, FithStats};
