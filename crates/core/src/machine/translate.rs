//! Step 3, translation through the ITLB (§2.1): the hit path, the full
//! method lookup a miss pays, boot-time pre-seeding, and the dispatch
//! observer that sees every key before it is translated.

use com_fpa::Fpa;
use com_obj::{lookup_method, DefinedMethod, ItlbKey, MethodRef, Translation};

use super::Machine;
use crate::config::LOOKUP_COST;
use crate::MachineError;

/// One dispatch as observed at the ITLB boundary: the current method's
/// code base capability, the program counter, and the translation key
/// the machine is about to resolve.
#[derive(Debug, Clone, Copy)]
pub struct DispatchEvent {
    /// Code base capability of the method executing the send.
    pub method: Fpa,
    /// Program counter within that method.
    pub pc: u64,
    /// The ITLB key built from the opcode and operand class tags.
    pub key: ItlbKey,
}

/// A callback invoked on every instruction dispatch, before ITLB
/// translation — instrumentation for differential testing and trace
/// capture. Both interpreter paths (the generic `step` loop and the
/// lowered threaded loop) report through it; when none is installed the
/// hot loops pay only an `is_some` check.
pub struct DispatchObserver(Box<dyn FnMut(DispatchEvent) + Send>);

impl std::fmt::Debug for DispatchObserver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("DispatchObserver(..)")
    }
}

impl Machine {
    /// Installs a dispatch observer: `f` is invoked with the current
    /// method, program counter, and ITLB key for every instruction
    /// dispatch on both interpreter paths.
    pub fn set_dispatch_observer(&mut self, f: impl FnMut(DispatchEvent) + Send + 'static) {
        self.observer = Some(DispatchObserver(Box::new(f)));
    }

    /// Removes any installed dispatch observer.
    pub fn clear_dispatch_observer(&mut self) {
        self.observer = None;
    }

    #[cold]
    pub(super) fn observe_dispatch(&mut self, key: ItlbKey) {
        let method = match self.ip {
            Some((f, _)) => f,
            None => return,
        };
        let pc = self.pc;
        if let Some(obs) = &mut self.observer {
            (obs.0)(DispatchEvent { method, pc, key });
        }
    }

    /// Warms the ITLB from statically predicted dispatch keys (e.g. the
    /// monomorphic send sites in a `com-verify` facts artifact). Each
    /// key runs the same full-association lookup a real miss would run
    /// and, when it lands on a method, is filled into the buffer — so a
    /// pre-seeded entry is bit-identical to what the first genuine
    /// dispatch would have cached. Keys that do not resolve (unknown
    /// selector, chain cycle, undecodable code) are skipped. Returns
    /// the number of entries filled. No lookup statistics are charged:
    /// pre-seeding models boot-time cache warming, not execution.
    pub fn preseed_itlb(&mut self, keys: &[ItlbKey]) -> usize {
        if self.itlb.is_none() {
            return 0;
        }
        let mut filled = 0;
        for key in keys {
            let out = lookup_method(&self.classes, key.classes[0], key.opcode);
            if out.cycle {
                continue;
            }
            let Some(m) = out.method else { continue };
            let Ok(t) = self.translation(m) else { continue };
            if let Some(itlb) = &mut self.itlb {
                itlb.fill(*key, t);
                filled += 1;
            }
        }
        filled
    }

    /// Step 3, translation: an ITLB hit hands back the one-word
    /// [`Translation`] (function unit or decoded-slab slot) and nothing
    /// else; only a miss leaves the hot path.
    #[inline(always)]
    pub(super) fn resolve(&mut self, key: ItlbKey) -> Result<Translation, MachineError> {
        if let Some(itlb) = &mut self.itlb {
            if let Some(t) = itlb.lookup(key) {
                return Ok(t);
            }
        }
        self.full_lookup(key)
    }

    /// The translation miss path: full association, "a step which always
    /// occurs in the execution of Smalltalk" when the buffer misses, then
    /// the fill.
    #[cold]
    #[inline(never)]
    fn full_lookup(&mut self, key: ItlbKey) -> Result<Translation, MachineError> {
        let out = lookup_method(&self.classes, key.classes[0], key.opcode);
        self.stats.full_lookups += 1;
        self.stats.lookup_cycles += out.cost_cycles(LOOKUP_COST);
        if out.cycle {
            return Err(MachineError::ClassChainCycle {
                opcode: key.opcode,
                class: key.classes[0],
            });
        }
        let m = out.method.ok_or(MachineError::DoesNotUnderstand {
            opcode: key.opcode,
            class: key.classes[0],
        })?;
        let t = self.translation(m)?;
        if let Some(itlb) = &mut self.itlb {
            itlb.fill(key, t);
        }
        Ok(t)
    }

    /// The one-word translation of a dictionary entry: a defined method is
    /// decoded into the slab first (if it is not already), so a later
    /// translation hit reaches its code by one array index.
    fn translation(&mut self, m: MethodRef) -> Result<Translation, MachineError> {
        Ok(match m {
            MethodRef::Primitive(p) => Translation::Primitive(p),
            MethodRef::Defined(d) => Translation::Code(self.slot(d)?),
        })
    }

    /// The decoded-slab slot of a defined method, decoding it if the
    /// dictionary entry is not resolved yet.
    pub(super) fn slot(&mut self, d: DefinedMethod) -> Result<u32, MachineError> {
        if d.is_resolved() {
            Ok(d.slab)
        } else {
            self.ensure_decoded(d.code)
        }
    }
}
