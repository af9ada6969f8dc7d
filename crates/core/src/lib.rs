//! The Caltech Object Machine (COM) — functional simulator with a
//! cycle-accounting pipeline model (§3 of Dally & Kajiya, ISCA 1985).
//!
//! The machine is deliberately spare: "the processor state of the COM
//! consists of only six registers: the context pointer (CP), the next
//! context pointer (NCP), the free context pointer (FP), the instruction
//! pointer (IP), the team space number (SN), and process status (PS)"
//! (§3.2). "There are no registers, all accesses are to one name space" —
//! operands live in 32-word contexts served by a **context cache** as fast
//! as registers, instructions are **abstract** and resolve through the
//! **ITLB**, and every quantitative claim of §3.6 (two clocks per
//! instruction, call = 4 cycles + 1 per operand, return = 2 cycles, one
//! branch delay slot) is charged by the [`CycleStats`] model.
//!
//! Main types:
//!
//! * [`Machine`] — registers, execution loop, traps.
//! * [`ContextCache`] — directory + access vectors (current/next/free/match)
//!   per §3.6 Figure 7, with copyback for deep nesting.
//! * [`MachineConfig`] — geometry and ablation switches (ITLB off, context
//!   cache off, copyback).
//! * [`ProgramImage`] — a compiled program (classes, methods, entry point)
//!   as produced by the `com-stc` compiler.
//! * [`CycleStats`] — CPI decomposition by stall source (experiment T6).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod config;
mod ctxcache;
mod exec;
mod image;
mod loaded;
mod machine;
mod pipeline;
mod trap;

pub use config::{MachineConfig, LOOKUP_COST, MEMORY_PENALTY};
pub use ctxcache::{ContextCache, CtxCacheStats};
pub use exec::data_op;
pub use image::{MethodSource, ProgramImage};
pub use loaded::{install_image, LoadedImage};
pub use machine::{DispatchEvent, DispatchObserver, GcTotals, Machine, RunOutcome, RunResult};

// Re-exported so code that runs a machine can pick a collection scope,
// and name the addresses and formats a machine takes and hands out,
// without depending on `com-mem` or `com-fpa` directly.
pub use com_fpa::{Fpa, FpaFormat};
pub use com_mem::gc::GcKind;
pub use pipeline::CycleStats;
pub use trap::MachineError;

/// Fixed context size: "In the COM, we chose a size of 32 words" (§2.3).
pub const CONTEXT_WORDS: u64 = 32;

/// Context layout (§4 Figure 8): link to the sending context.
pub const CTX_RCP: u64 = 0;
/// Context layout: return instruction pointer (method + offset).
pub const CTX_RIP: u64 = 1;
/// Context layout: arg0, "where to store the result".
pub const CTX_ARG0: u64 = 2;
/// Context layout: arg1, the receiver of the message.
pub const CTX_ARG1: u64 = 3;

/// Operand offsets are biased past the two linkage words: `Cur(0)` names
/// arg0 (context word 2), matching the paper's Figure 9 compiled code where
/// `c0` is the result pointer and `c1` is `self`.
pub const OPERAND_BIAS: u64 = 2;
