//! Method references (the payload of dictionary slots) and their one-word
//! translations (the payload of ITLB entries).

use com_fpa::Fpa;
use com_isa::PrimOp;

/// A defined (non-primitive) method: a stored code object and its arity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DefinedMethod {
    /// Base capability of the stored [`com_isa::CodeObject`].
    pub code: Fpa,
    /// Number of arguments (receiver counts as argument 1, §4).
    pub n_args: u8,
    /// Index into the executing machine's decoded-method slab, or
    /// [`DefinedMethod::UNRESOLVED`]. Dictionary entries start unresolved;
    /// the machine resolves the slot on first dispatch and installs it in
    /// its ITLB as a [`Translation::Code`], so a translation hit reaches
    /// the decoded code by one array index instead of a hash probe.
    pub slab: u32,
}

impl DefinedMethod {
    /// Sentinel slab index: the method has not been decoded yet.
    pub const UNRESOLVED: u32 = u32::MAX;

    /// A method reference that has not been decoded by any machine.
    pub fn new(code: Fpa, n_args: u8) -> Self {
        DefinedMethod {
            code,
            n_args,
            slab: Self::UNRESOLVED,
        }
    }

    /// The same reference carrying a decoded-slab index.
    pub fn resolved(mut self, slab: u32) -> Self {
        self.slab = slab;
        self
    }

    /// Whether [`slab`](Self::slab) names a decoded-slab entry.
    pub fn is_resolved(&self) -> bool {
        self.slab != Self::UNRESOLVED
    }
}

/// What an (opcode, classes) pair resolves to.
///
/// This mirrors the ITLB entry of §2.1: "A primitive bit describing whether
/// the method is primitive or defined; and a method field indicating how the
/// method is to be accomplished. … if the primitive bit is on, the method
/// field selects the result of a function unit. Otherwise the method field
/// points to a piece of code defining the method."
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MethodRef {
    /// The primitive bit is on: the method field selects a function unit.
    Primitive(PrimOp),
    /// The primitive bit is off: the method field points to code.
    Defined(DefinedMethod),
}

impl MethodRef {
    /// Whether the primitive bit is set.
    pub fn is_primitive(&self) -> bool {
        matches!(self, MethodRef::Primitive(_))
    }

    /// The function unit selected, if primitive.
    pub fn as_primitive(&self) -> Option<PrimOp> {
        match self {
            MethodRef::Primitive(p) => Some(*p),
            MethodRef::Defined(_) => None,
        }
    }

    /// The defined method, if non-primitive.
    pub fn as_defined(&self) -> Option<DefinedMethod> {
        match self {
            MethodRef::Defined(d) => Some(*d),
            MethodRef::Primitive(_) => None,
        }
    }
}

impl core::fmt::Display for MethodRef {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            MethodRef::Primitive(p) => write!(f, "prim:{p}"),
            MethodRef::Defined(d) => write!(f, "code@{}({} args)", d.code, d.n_args),
        }
    }
}

/// What an ITLB hit hands the pipeline: the §2.1 entry's primitive bit and
/// method field in one word (8 bytes), so a translation is a register
/// value rather than a copied [`MethodRef`].
///
/// A defined method is named by its decoded-slab slot, so only a resolved
/// method ([`DefinedMethod::is_resolved`]) has a useful translation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Translation {
    /// The primitive bit is on: the method field selects a function unit.
    Primitive(PrimOp),
    /// The primitive bit is off: the method field is the decoded-slab slot
    /// of the method's code.
    Code(u32),
}

impl Default for Translation {
    /// A defined method not yet resolved to a slot: the method field of an
    /// empty ITLB line.
    fn default() -> Self {
        Translation::Code(DefinedMethod::UNRESOLVED)
    }
}

impl From<MethodRef> for Translation {
    /// The translation of a method reference. An unresolved defined method
    /// maps to [`DefinedMethod::UNRESOLVED`], which names no slot.
    fn from(m: MethodRef) -> Self {
        match m {
            MethodRef::Primitive(p) => Translation::Primitive(p),
            MethodRef::Defined(d) => Translation::Code(d.slab),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use com_fpa::{Fpa, FpaFormat};

    #[test]
    fn primitive_bit() {
        let p = MethodRef::Primitive(PrimOp::Add);
        assert!(p.is_primitive());
        assert_eq!(p.as_primitive(), Some(PrimOp::Add));
        assert_eq!(p.as_defined(), None);

        let code = Fpa::from_raw(0x40, FpaFormat::COM).unwrap();
        let d = MethodRef::Defined(DefinedMethod::new(code, 2));
        assert!(!d.is_primitive());
        assert_eq!(d.as_defined().unwrap().n_args, 2);
        assert_eq!(d.as_primitive(), None);
    }

    #[test]
    fn slab_resolution() {
        let code = Fpa::from_raw(0x40, FpaFormat::COM).unwrap();
        let d = DefinedMethod::new(code, 2);
        assert!(!d.is_resolved());
        let r = d.resolved(7);
        assert!(r.is_resolved());
        assert_eq!(r.slab, 7);
        // Resolution does not change the method's identity fields.
        assert_eq!((r.code, r.n_args), (d.code, d.n_args));
    }

    #[test]
    fn translation_is_one_word() {
        assert!(core::mem::size_of::<Translation>() <= 8);
        assert!(core::mem::size_of::<Option<Translation>>() <= 8);
        let code = Fpa::from_raw(0x40, FpaFormat::COM).unwrap();
        assert_eq!(
            Translation::from(MethodRef::Defined(DefinedMethod::new(code, 1).resolved(7))),
            Translation::Code(7)
        );
        assert_eq!(
            Translation::from(MethodRef::Primitive(PrimOp::Add)),
            Translation::Primitive(PrimOp::Add)
        );
    }
}
