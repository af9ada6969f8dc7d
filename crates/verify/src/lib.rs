//! Static image verification and dataflow lint for COM program images.
//!
//! The machine (Dally & Kajiya's Caltech Object Machine) defends itself at
//! runtime with tagged words and typed traps; this crate moves the whole
//! class of *structurally* malformed images from runtime to load time. It
//! provides:
//!
//! - a structural **verifier** ([`verify_image`], [`verify_code`],
//!   [`verify_words`]) that checks every compiled method before the image
//!   is allowed near an engine: opcodes interned, branch targets
//!   in-bounds on instruction boundaries, operand slots inside the context
//!   geometry, constants resolvable, trap-handler arity correct. Failures
//!   are typed [`VerifyError`]s with method/offset provenance and stable
//!   `V00x` codes — never panics;
//! - reusable **dataflow analyses** over verified bodies ([`Cfg`],
//!   [`UninitSlots`], [`Liveness`], [`ConstSlots`]);
//! - the **lints** behind the `vmlint` CLI ([`lint_image`], or
//!   [`lint_facts`] over an analysis the caller already holds), with
//!   stable `L00x`/`I00x` diagnostic codes;
//! - the **interprocedural tier**: whole-image class inference
//!   ([`infer_image`]) over the closed class world, a call graph with
//!   every send site classified monomorphic / polymorphic / unresolvable
//!   ([`CallGraph`]), and a machine-readable facts artifact
//!   ([`ImageFacts`]) that downstream consumers (the engine's ITLB
//!   pre-seeding, a future JIT) take as their input contract.
//!
//! Every fixpoint here runs on one worklist solver, over a method's
//! blocks or an image's methods; the inference analyses a method again
//! only when a summary it read has grown.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod callgraph;
pub mod cfg;
pub mod check;
pub mod dataflow;
mod error;
pub mod facts;
pub mod infer;
pub mod lint;
mod solve;

pub use callgraph::{CallGraph, FuelBound};
pub use cfg::{Block, Cfg};
pub use check::{verify_code, verify_image, verify_words, MAX_SLOT};
pub use dataflow::{ConstSlots, ConstVal, Liveness, PrimResolver, UninitSlots};
pub use error::{Provenance, VerifyError, VerifyErrorKind};
pub use facts::ImageFacts;
pub use infer::{
    infer_image, ClassSet, ClassUniverse, Inference, Site, SiteKind, StaticResolver, Target,
};
pub use lint::{lint_code, lint_facts, lint_image, DiagCode, Diagnostic, Severity};
