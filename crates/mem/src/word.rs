//! Tagged memory words.

use com_fpa::Fpa;

/// The four-bit primitive tag attached to every memory word (§3.2).
///
/// "Every word of memory has a four bit tag which is used to identify
/// primitive types: uninitialized, small integer, floating point number,
/// atom, instruction and object pointer."
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(u8)]
pub enum Tag {
    /// A word that has never been written (fresh contexts read as this).
    Uninit = 0,
    /// A small (immediate) integer.
    Int = 1,
    /// An immediate floating point number.
    Float = 2,
    /// An interned symbol (message selectors, `#foo` literals).
    Atom = 3,
    /// An encoded machine instruction.
    Instr = 4,
    /// An object pointer: a floating point virtual address used as a
    /// capability.
    Ptr = 5,
}

impl core::fmt::Display for Tag {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = match self {
            Tag::Uninit => "uninit",
            Tag::Int => "int",
            Tag::Float => "float",
            Tag::Atom => "atom",
            Tag::Instr => "instr",
            Tag::Ptr => "ptr",
        };
        f.write_str(s)
    }
}

/// An interned atom (symbol) identifier.
///
/// Atoms are immediate values; the interning table lives in the object
/// system (`com-obj`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AtomId(pub u32);

impl core::fmt::Display for AtomId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "atom#{}", self.0)
    }
}

/// A 16-bit object class tag (§3.2).
///
/// "When a word is cached in the context cache, a 16-bit tag identifying the
/// class of the object is cached with it. For primitives, this 16-bit tag is
/// the four bit tag zero extended. For object pointers, this 16-bit tag
/// identifies the object class and is used in the method lookup."
///
/// The default is [`ClassId::UNINIT`], the class of an uninitialised word.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct ClassId(pub u16);

impl ClassId {
    /// Class of uninitialised words (zero-extended primitive tag).
    pub const UNINIT: ClassId = ClassId(Tag::Uninit as u16);
    /// Class of small integers.
    pub const SMALL_INT: ClassId = ClassId(Tag::Int as u16);
    /// Class of floating point numbers.
    pub const FLOAT: ClassId = ClassId(Tag::Float as u16);
    /// Class of atoms.
    pub const ATOM: ClassId = ClassId(Tag::Atom as u16);
    /// Class of instruction words.
    pub const INSTR: ClassId = ClassId(Tag::Instr as u16);
    /// First identifier available for user-defined object classes; the
    /// object system allocates class ids from here up.
    pub const FIRST_OBJECT: ClassId = ClassId(8);
    /// Sentinel for "no operand in this slot" in ITLB keys.
    pub const NONE: ClassId = ClassId(u16::MAX);

    /// Whether this class is one of the primitive (tag-derived) classes.
    pub fn is_primitive(self) -> bool {
        self.0 < Self::FIRST_OBJECT.0
    }
}

impl core::fmt::Display for ClassId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "class#{}", self.0)
    }
}

/// One tagged memory word.
///
/// The tag is the enum discriminant — the natural Rust rendering of a tagged
/// memory. Floating point words compare by bit pattern (memory identity),
/// so `Word` is `Eq` and `Hash` even though it carries `f64`s.
///
/// ```
/// use com_mem::{Word, Tag};
/// let w = Word::Int(42);
/// assert_eq!(w.tag(), Tag::Int);
/// assert_eq!(w.as_int(), Some(42));
/// assert_eq!(w.as_float(), None);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub enum Word {
    /// Never-written word; reading one into an operand is a machine trap.
    #[default]
    Uninit,
    /// Immediate small integer.
    Int(i64),
    /// Immediate float.
    Float(f64),
    /// Interned atom.
    Atom(AtomId),
    /// Encoded instruction payload (interpreted by `com-isa`).
    Instr(u64),
    /// Object pointer (capability).
    Ptr(Fpa),
}

impl Word {
    /// The word's four-bit primitive tag.
    pub fn tag(&self) -> Tag {
        match self {
            Word::Uninit => Tag::Uninit,
            Word::Int(_) => Tag::Int,
            Word::Float(_) => Tag::Float,
            Word::Atom(_) => Tag::Atom,
            Word::Instr(_) => Tag::Instr,
            Word::Ptr(_) => Tag::Ptr,
        }
    }

    /// The 16-bit class tag for *primitive* words: the four-bit tag zero
    /// extended. Object pointers return `None` — their class comes from the
    /// segment descriptor, not the word.
    pub fn primitive_class(&self) -> Option<ClassId> {
        match self {
            Word::Ptr(_) => None,
            other => Some(ClassId(other.tag() as u16)),
        }
    }

    /// The integer payload, if this is an `Int`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Word::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The float payload, if this is a `Float`.
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Word::Float(x) => Some(*x),
            _ => None,
        }
    }

    /// The pointer payload, if this is a `Ptr`.
    pub fn as_ptr(&self) -> Option<Fpa> {
        match self {
            Word::Ptr(p) => Some(*p),
            _ => None,
        }
    }

    /// The instruction payload, if this is an `Instr`.
    pub fn as_instr(&self) -> Option<u64> {
        match self {
            Word::Instr(i) => Some(*i),
            _ => None,
        }
    }

    /// Numeric value as `f64` for mixed-mode arithmetic (§3.3 "some mixed
    /// mode instructions are primitive").
    pub fn as_number(&self) -> Option<f64> {
        match self {
            Word::Int(i) => Some(*i as f64),
            Word::Float(x) => Some(*x),
            _ => None,
        }
    }
}

impl PartialEq for Word {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Word::Uninit, Word::Uninit) => true,
            (Word::Int(a), Word::Int(b)) => a == b,
            // Bit-pattern equality: memory words are bags of bits, so two
            // NaN words with identical bits are the same word.
            (Word::Float(a), Word::Float(b)) => a.to_bits() == b.to_bits(),
            (Word::Atom(a), Word::Atom(b)) => a == b,
            (Word::Instr(a), Word::Instr(b)) => a == b,
            (Word::Ptr(a), Word::Ptr(b)) => a == b,
            _ => false,
        }
    }
}

impl Eq for Word {}

impl core::hash::Hash for Word {
    fn hash<H: core::hash::Hasher>(&self, state: &mut H) {
        core::mem::discriminant(self).hash(state);
        match self {
            Word::Uninit => {}
            Word::Int(i) => i.hash(state),
            Word::Float(x) => x.to_bits().hash(state),
            Word::Atom(a) => a.hash(state),
            Word::Instr(i) => i.hash(state),
            Word::Ptr(p) => p.hash(state),
        }
    }
}

impl core::fmt::Display for Word {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Word::Uninit => write!(f, "?"),
            Word::Int(i) => write!(f, "{i}"),
            Word::Float(x) => write!(f, "{x:?}"),
            Word::Atom(a) => write!(f, "{a}"),
            Word::Instr(i) => write!(f, "instr:{i:#x}"),
            Word::Ptr(p) => write!(f, "{p}"),
        }
    }
}

impl From<i64> for Word {
    fn from(i: i64) -> Self {
        Word::Int(i)
    }
}

impl From<f64> for Word {
    fn from(x: f64) -> Self {
        Word::Float(x)
    }
}

impl From<AtomId> for Word {
    fn from(a: AtomId) -> Self {
        Word::Atom(a)
    }
}

impl From<Fpa> for Word {
    fn from(p: Fpa) -> Self {
        Word::Ptr(p)
    }
}

impl From<bool> for Word {
    /// Booleans are represented as the atoms with reserved ids 1 (`true`)
    /// and 0 (`false`); the object system interns them at those ids.
    fn from(b: bool) -> Self {
        Word::Atom(if b { AtomId(1) } else { AtomId(0) })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use com_fpa::FpaFormat;

    #[test]
    fn tags_match_variants() {
        assert_eq!(Word::Uninit.tag(), Tag::Uninit);
        assert_eq!(Word::Int(0).tag(), Tag::Int);
        assert_eq!(Word::Float(0.0).tag(), Tag::Float);
        assert_eq!(Word::Atom(AtomId(3)).tag(), Tag::Atom);
        assert_eq!(Word::Instr(0).tag(), Tag::Instr);
        let p = Fpa::from_raw(0x8345, FpaFormat::DEMO16).unwrap();
        assert_eq!(Word::Ptr(p).tag(), Tag::Ptr);
    }

    #[test]
    fn primitive_class_is_zero_extended_tag() {
        assert_eq!(Word::Int(7).primitive_class(), Some(ClassId::SMALL_INT));
        assert_eq!(Word::Float(1.5).primitive_class(), Some(ClassId::FLOAT));
        assert_eq!(Word::Uninit.primitive_class(), Some(ClassId::UNINIT));
        let p = Fpa::from_raw(0x8345, FpaFormat::DEMO16).unwrap();
        assert_eq!(Word::Ptr(p).primitive_class(), None);
    }

    #[test]
    fn float_words_compare_by_bits() {
        assert_eq!(Word::Float(f64::NAN), Word::Float(f64::NAN));
        assert_ne!(Word::Float(0.0), Word::Float(-0.0));
        assert_eq!(Word::Float(1.5), Word::Float(1.5));
    }

    #[test]
    fn accessors_are_typed() {
        assert_eq!(Word::Int(5).as_int(), Some(5));
        assert_eq!(Word::Int(5).as_float(), None);
        assert_eq!(Word::Int(5).as_number(), Some(5.0));
        assert_eq!(Word::Float(2.5).as_number(), Some(2.5));
        assert_eq!(Word::Atom(AtomId(2)).as_number(), None);
    }

    #[test]
    fn booleans_are_reserved_atoms() {
        assert_eq!(Word::from(true), Word::Atom(AtomId(1)));
        assert_eq!(Word::from(false), Word::Atom(AtomId(0)));
    }

    #[test]
    fn class_id_space() {
        assert!(ClassId::SMALL_INT.is_primitive());
        assert!(ClassId::ATOM.is_primitive());
        assert!(!ClassId::FIRST_OBJECT.is_primitive());
        assert!(!ClassId(100).is_primitive());
    }

    #[test]
    fn a_word_is_a_payload_and_a_tag() {
        assert_eq!(core::mem::size_of::<Word>(), 16);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Word::Int(-3).to_string(), "-3");
        assert_eq!(Word::Uninit.to_string(), "?");
        assert_eq!(Word::Atom(AtomId(4)).to_string(), "atom#4");
    }
}
