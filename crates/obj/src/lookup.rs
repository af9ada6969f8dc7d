//! Full method lookup: the costly association the ITLB exists to avoid.
//!
//! Also the home of **software trap dispatch** support: the well-known
//! handler selectors ([`TrapSelector`]) and the chain walk that finds a
//! per-class handler method ([`lookup_trap_handler`]) when the machine
//! wants to handle a trap in software instead of killing the send.

use com_isa::Opcode;
use com_mem::ClassId;

use crate::{ClassTable, DefinedMethod, MethodRef};

/// The well-known selectors a class installs to handle machine traps in
/// software. Installing one is ordinary method installation (the handler
/// *is* a method, inherited along the superclass chain like any other);
/// this enum only fixes the names the machine looks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TrapSelector {
    /// Handles a failed method lookup (the Smalltalk
    /// `doesNotUnderstand:` condition): the handler receives the reified
    /// failed send and its answer replaces the failed send's result.
    DoesNotUnderstand,
    /// Handles a function-unit operand trap (`BadOperands`, e.g. divide
    /// by zero): the handler receives the reified faulting operation and
    /// its answer replaces the operation's result.
    BadOperands,
}

impl TrapSelector {
    /// The selector name a program interns to install this handler.
    pub const fn name(self) -> &'static str {
        match self {
            TrapSelector::DoesNotUnderstand => "doesNotUnderstand:",
            TrapSelector::BadOperands => "badOperands:",
        }
    }

    /// Every handler kind, for loaders that bind all of them at once.
    pub const ALL: [TrapSelector; 2] = [TrapSelector::DoesNotUnderstand, TrapSelector::BadOperands];
}

impl core::fmt::Display for TrapSelector {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

/// Finds the trap handler a receiver of class `class` would dispatch to
/// for the handler selector `handler` (an interned [`TrapSelector`]
/// name): the ordinary superclass-chain walk, restricted to **defined**
/// methods — a primitive cannot accept a reified trap message, so a
/// primitive installation is reported as "no handler".
///
/// Returns the handler (if any) with the full [`LookupOutcome`] so the
/// caller can charge the walk's cycles like any other full lookup.
pub fn lookup_trap_handler(
    classes: &ClassTable,
    class: ClassId,
    handler: Opcode,
) -> (Option<DefinedMethod>, LookupOutcome) {
    let out = lookup_method(classes, class, handler);
    let method = match out.method {
        Some(MethodRef::Defined(d)) => Some(d),
        _ => None,
    };
    (method, out)
}

/// Cost model for one full method lookup, in processor cycles. The
/// machines charge `com_core::LOOKUP_COST`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LookupCost {
    /// Cycles charged per class visited (dictionary setup, superclass load).
    pub per_class: u64,
    /// Cycles charged per hash probe within a dictionary.
    pub per_probe: u64,
}

/// The outcome of a full method lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LookupOutcome {
    /// The resolved method, or `None` for a does-not-understand condition.
    pub method: Option<MethodRef>,
    /// Classes visited walking the superclass chain.
    pub classes_visited: u32,
    /// Total hash probes across all dictionaries consulted.
    pub probes: u32,
    /// The walk revisited a class: the table's superclass chain contains a
    /// cycle (a corrupted table). `method` is `None`, but the condition is
    /// distinct from does-not-understand — callers should trap it as table
    /// corruption, not as a missing method.
    pub cycle: bool,
}

impl LookupOutcome {
    /// Cycles this lookup costs under `cost`.
    pub fn cost_cycles(&self, cost: LookupCost) -> u64 {
        self.classes_visited as u64 * cost.per_class + self.probes as u64 * cost.per_probe
    }
}

/// Resolves `selector` for a receiver of class `class` by "the standard
/// technique of method lookup (a step which always occurs in the execution
/// of Smalltalk)" (§2.1): probe the receiver class's dictionary, then walk
/// the superclass chain.
///
/// Returns the method (if any) together with the work done, so callers can
/// charge cycles and the ITLB experiments can report how much work the
/// buffer saves.
pub fn lookup_method(classes: &ClassTable, class: ClassId, selector: Opcode) -> LookupOutcome {
    let mut outcome = LookupOutcome {
        method: None,
        classes_visited: 0,
        probes: 0,
        cycle: false,
    };
    // Classes already visited: a repeat means the superclass chain of a
    // corrupted table loops, which must be reported as corruption rather
    // than mistaken for does-not-understand. Chains are short, so a linear
    // scan beats a hash set; the walk terminates because every iteration
    // either revisits (cycle) or grows the visited list, which is bounded
    // by the table size.
    let mut visited: Vec<ClassId> = Vec::with_capacity(8);
    let mut cur = Some(class);
    while let Some(c) = cur {
        let Some(info) = classes.get(c) else { break };
        if visited.contains(&c) {
            outcome.cycle = true;
            break;
        }
        visited.push(c);
        outcome.classes_visited += 1;
        let (m, probes) = info.dict.lookup(selector);
        outcome.probes += probes;
        if m.is_some() {
            outcome.method = m;
            return outcome;
        }
        cur = info.superclass;
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::install_standard_primitives;
    use com_isa::PrimOp;

    #[test]
    fn finds_in_own_dictionary() {
        let mut t = ClassTable::new();
        install_standard_primitives(&mut t);
        let out = lookup_method(&t, ClassId::SMALL_INT, Opcode::ADD);
        assert_eq!(out.method, Some(MethodRef::Primitive(PrimOp::Add)));
        assert_eq!(out.classes_visited, 1);
    }

    #[test]
    fn inherits_through_superclass_chain() {
        let mut t = ClassTable::new();
        install_standard_primitives(&mut t);
        let a = t.define("A", Some(ClassTable::OBJECT), 0).unwrap();
        let b = t.define("B", Some(a), 0).unwrap();
        // `==` lives on Object: B -> A -> Object.
        let out = lookup_method(&t, b, Opcode::SAME);
        assert_eq!(out.method, Some(MethodRef::Primitive(PrimOp::Same)));
        assert_eq!(out.classes_visited, 3);
        assert!(out.probes >= 3);
    }

    #[test]
    fn does_not_understand() {
        let mut t = ClassTable::new();
        install_standard_primitives(&mut t);
        let out = lookup_method(&t, ClassId::ATOM, Opcode::MUL);
        assert_eq!(out.method, None, "atoms cannot multiply");
        assert_eq!(out.classes_visited, 2, "Atom then Object");
    }

    #[test]
    fn override_shadows_superclass() {
        let mut t = ClassTable::new();
        install_standard_primitives(&mut t);
        let a = t.define("A", Some(ClassTable::OBJECT), 0).unwrap();
        t.install(a, Opcode::SAME, MethodRef::Primitive(PrimOp::EqVal));
        let out = lookup_method(&t, a, Opcode::SAME);
        assert_eq!(out.method, Some(MethodRef::Primitive(PrimOp::EqVal)));
        assert_eq!(out.classes_visited, 1);
    }

    #[test]
    fn superclass_cycle_is_reported_as_corruption() {
        let mut t = ClassTable::new();
        install_standard_primitives(&mut t);
        let a = t.define("A", Some(ClassTable::OBJECT), 0).unwrap();
        let b = t.define("B", Some(a), 0).unwrap();
        // Corrupt the table: A's superclass chain loops back through B.
        t.get_mut(a).unwrap().superclass = Some(b);
        let out = lookup_method(&t, b, Opcode::MUL);
        assert!(out.cycle, "loop must be flagged as corruption");
        assert_eq!(out.method, None);
        // Each class is visited exactly once before the repeat is caught.
        assert_eq!(out.classes_visited, 2);
        // A healthy miss on the same selector stays a plain DNU.
        let healthy = lookup_method(&t, ClassId::ATOM, Opcode::MUL);
        assert!(!healthy.cycle);
    }

    #[test]
    fn self_cycle_is_reported() {
        let mut t = ClassTable::new();
        install_standard_primitives(&mut t);
        let a = t.define("A", Some(ClassTable::OBJECT), 0).unwrap();
        t.get_mut(a).unwrap().superclass = Some(a);
        let out = lookup_method(&t, a, Opcode::MUL);
        assert!(out.cycle);
        assert_eq!(out.classes_visited, 1);
    }

    #[test]
    fn trap_handler_lookup_walks_the_chain_and_requires_defined() {
        use com_fpa::{Fpa, FpaFormat};
        let mut t = ClassTable::new();
        install_standard_primitives(&mut t);
        let dnu = Opcode(900); // an interned "doesNotUnderstand:" stand-in
        let a = t.define("A", Some(ClassTable::OBJECT), 0).unwrap();
        let b = t.define("B", Some(a), 0).unwrap();
        // No handler anywhere: nothing found, walk charged.
        let (m, out) = lookup_trap_handler(&t, b, dnu);
        assert!(m.is_none());
        assert_eq!(out.classes_visited, 3, "B -> A -> Object");
        // Installed on the superclass: inherited by B.
        let code = Fpa::from_raw(0x40, FpaFormat::COM).unwrap();
        t.install(a, dnu, MethodRef::Defined(DefinedMethod::new(code, 2)));
        let (m, out) = lookup_trap_handler(&t, b, dnu);
        assert_eq!(m.unwrap().code, code);
        assert_eq!(out.classes_visited, 2, "B -> A");
        // A primitive installation is not a usable handler.
        t.install(b, dnu, MethodRef::Primitive(PrimOp::Move));
        let (m, _) = lookup_trap_handler(&t, b, dnu);
        assert!(m.is_none(), "primitive handler must be ignored");
        // Selector names are fixed.
        assert_eq!(TrapSelector::DoesNotUnderstand.name(), "doesNotUnderstand:");
        assert_eq!(TrapSelector::BadOperands.to_string(), "badOperands:");
    }

    #[test]
    fn cost_model_scales() {
        let out = LookupOutcome {
            method: None,
            classes_visited: 3,
            probes: 5,
            cycle: false,
        };
        let cost = out.cost_cycles(LookupCost {
            per_class: 4,
            per_probe: 8,
        });
        assert_eq!(cost, 3 * 4 + 5 * 8);
        let custom = out.cost_cycles(LookupCost {
            per_class: 1,
            per_probe: 1,
        });
        assert_eq!(custom, 8);
    }
}
