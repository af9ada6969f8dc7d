//! The object system of the Caltech Object Machine: classes, message
//! dictionaries, method lookup and the instruction translation lookaside
//! buffer (§2.1 of the paper).
//!
//! "The method to be executed is found by associating the message name in a
//! hash table for the data type — or class — of a selected operand. This
//! association mechanism is quite costly … We cache associations into a
//! translation lookaside buffer."
//!
//! * [`AtomTable`] — interned symbols; `false`, `true`, `nil` are reserved.
//! * [`ClassTable`]/[`ClassInfo`] — the class hierarchy, with the primitive
//!   classes (UndefinedObject, SmallInteger, Float, Atom, Instruction)
//!   pre-registered and rooted at `Object`.
//! * [`MessageDictionary`] — per-class open-addressing hash tables with
//!   probe counting, so the *cost* of the paper's association mechanism is
//!   measurable.
//! * [`lookup_method`] — the full dispatch walk (dictionary per class, up
//!   the superclass chain), returning both the method and its cost.
//! * [`TrapSelector`]/[`lookup_trap_handler`] — the well-known software
//!   trap handler selectors (`doesNotUnderstand:`, `badOperands:`) and
//!   the chain walk that finds a class's installed handler method.
//! * [`Itlb`] — the ITLB: "an opcode and the set of operand object datatypes
//!   are associated to a method". A hit yields a one-word
//!   [`Translation`]: a function unit, or the decoded-slab slot of a
//!   resolved method.
//! * [`install_standard_primitives`] — the §3.3 primitive method families
//!   installed into the primitive classes' dictionaries.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod atoms;
mod class;
mod dict;
mod itlb;
mod lookup;
mod method;

pub use atoms::AtomTable;
pub use class::{install_standard_primitives, ClassInfo, ClassTable};
pub use dict::MessageDictionary;
pub use itlb::{Itlb, ItlbConfig, ItlbKey};
pub use lookup::{lookup_method, lookup_trap_handler, LookupCost, LookupOutcome, TrapSelector};
pub use method::{DefinedMethod, MethodRef, Translation};
