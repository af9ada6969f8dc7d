//! Opcodes: abstract instruction selectors.

use std::collections::HashMap;

use crate::IsaError;

/// A 10-bit opcode — simultaneously a machine opcode and a Smalltalk message
/// selector ("each instruction is a token whose meaning is determined in
/// conjunction with the Class of the instruction operand", §2.1).
///
/// Opcodes below [`Opcode::USER_BASE`] are the machine's standard selectors
/// (§3.3's primitive method families); the compiler interns user-defined
/// selectors above it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Opcode(pub u16);

macro_rules! opcodes {
    ($($(#[$doc:meta])* $name:ident = $val:expr, $text:expr;)*) => {
        impl Opcode {
            $( $(#[$doc])* pub const $name: Opcode = Opcode($val); )*

            /// The printable name of a standard opcode, if it is one.
            pub fn standard_name(self) -> Option<&'static str> {
                match self.0 {
                    $( $val => Some($text), )*
                    _ => None,
                }
            }

            /// All standard opcodes with their names.
            pub fn standard() -> &'static [(Opcode, &'static str)] {
                &[ $( (Opcode($val), $text), )* ]
            }
        }
    };
}

opcodes! {
    // Arithmetic (§3.3): "defined for small integer and (except for modulo)
    // for floating point. Some mixed mode instructions are primitive."
    /// Addition (`+`).
    ADD = 0, "+";
    /// Subtraction (`-`).
    SUB = 1, "-";
    /// Multiplication (`*`).
    MUL = 2, "*";
    /// Division (`/`).
    DIV = 3, "/";
    /// Modulo (small integers only).
    MOD = 4, "\\\\";
    /// Negation.
    NEG = 5, "negated";

    // Multiple precision support: "Carry, Mult1, Mult2 … allow multiple
    // precision integer arithmetic to be implemented without flags."
    /// Carry of an addition.
    CARRY = 6, "carry:";
    /// Low word of a double-width multiply.
    MULT1 = 7, "mult1:";
    /// High word of a double-width multiply.
    MULT2 = 8, "mult2:";

    // Logical and bit field instructions.
    /// Logical shift.
    SHIFT = 9, "shift:";
    /// Arithmetic shift.
    ASHIFT = 10, "ashift:";
    /// Rotate.
    ROTATE = 11, "rotate:";
    /// Bit-field mask.
    MASK = 12, "mask:";
    /// Bitwise and.
    AND = 13, "bitAnd:";
    /// Bitwise or.
    OR = 14, "bitOr:";
    /// Bitwise not.
    NOT = 15, "bitNot";
    /// Bitwise xor.
    XOR = 16, "bitXor:";

    // Comparisons: "All comparisons are defined for small integer and
    // floating point. The ~ (same object) comparison is defined for all
    // types."
    /// Less than.
    LT = 17, "<";
    /// Less than or equal.
    LE = 18, "<=";
    /// Equal (value).
    EQ = 19, "=";
    /// Not equal (value).
    NE = 20, "~=";
    /// Greater than.
    GT = 21, ">";
    /// Greater than or equal.
    GE = 22, ">=";
    /// Same object (identity); defined for all types.
    SAME = 23, "==";

    // Move instructions.
    /// Move a word (defined for all types).
    MOVE = 24, "move";
    /// Move effective address — "calculates the effective address of an
    /// object and is used to pass pointers."
    MOVEA = 25, "movea";
    /// Indexed load: `a <- b at: c` (§3.4).
    AT = 26, "at:";
    /// Indexed store: `a at: b put: c` (§3.4).
    ATPUT = 27, "at:put:";

    // Tag access: "The as instruction is conditionally privileged to
    // prevent the forging of virtual addresses."
    /// Retag a word (privileged).
    AS = 28, "as:";
    /// Read a word's tag.
    TAG = 29, "tag";

    // Control: "The jump instructions jump within a method … The xfer
    // instruction transfers to the next context."
    /// Forward conditional jump.
    FJMP = 30, "fjmp";
    /// Backward conditional jump.
    RJMP = 31, "rjmp";
    /// General control transfer to the next context (Lampson XFER, §5).
    XFER = 32, "xfer";

    // Allocation support. The paper keeps storage management in software
    // ("higher level operating system functions … are not tied down in
    // hardware", §3) but its workloads allocate constantly; these two
    // selectors are the machine-level primitives the allocation software
    // bottoms out in. A deviation from the paper: see "Deviations from the
    // paper" in the README.
    /// Allocate an object: `a <- new(class_id: b, words: c)`.
    NEW = 33, "basicNew:";
    /// Grow an object (§2.2 aliasing): `a <- grow(obj: b, words: c)`.
    GROW = 34, "grow:";
    /// Raw indexed load: identical function unit to `at:` under a selector
    /// user classes never override (the standard library's storage
    /// accessors bottom out here).
    RAWAT = 35, "rawAt:";
    /// Raw indexed store (see [`Opcode::RAWAT`]).
    RAWATPUT = 36, "rawAt:put:";
}

impl Opcode {
    /// Largest encodable opcode (10-bit field).
    pub const MAX: u16 = 0x3FF;

    /// First opcode available for user-defined selectors.
    pub const USER_BASE: u16 = 64;

    /// Whether this opcode is in the user selector space.
    pub fn is_user(self) -> bool {
        self.0 >= Self::USER_BASE
    }
}

impl core::fmt::Display for Opcode {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self.standard_name() {
            Some(n) => f.write_str(n),
            None => write!(f, "sel#{}", self.0),
        }
    }
}

/// Interning table mapping selector names to opcodes.
///
/// The compiler uses one of these so that "compilation \[is\] a simple matter
/// of assembling opcodes" (§2.1): a source-level message send *is* an
/// opcode.
#[derive(Debug, Clone)]
pub struct OpcodeTable {
    names: HashMap<String, Opcode>,
    by_op: HashMap<Opcode, String>,
    next: u16,
}

impl OpcodeTable {
    /// Creates a table pre-loaded with the standard opcodes.
    pub fn new() -> Self {
        let mut t = OpcodeTable {
            names: HashMap::new(),
            by_op: HashMap::new(),
            next: Opcode::USER_BASE,
        };
        for &(op, name) in Opcode::standard() {
            t.names.insert(name.to_string(), op);
            t.by_op.insert(op, name.to_string());
        }
        t
    }

    /// Interns `name`, allocating a fresh user opcode if unseen.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::OpcodeOutOfRange`] when the 10-bit selector
    /// space (1024 entries) is exhausted — a program with more than 960
    /// distinct user selectors exceeds the architecture.
    pub fn intern(&mut self, name: &str) -> Result<Opcode, IsaError> {
        if let Some(op) = self.names.get(name) {
            return Ok(*op);
        }
        let op = Opcode(self.next);
        if op.0 > Opcode::MAX {
            return Err(IsaError::OpcodeOutOfRange(op));
        }
        self.next += 1;
        self.names.insert(name.to_string(), op);
        self.by_op.insert(op, name.to_string());
        Ok(op)
    }

    /// Looks up an already-interned selector.
    pub fn get(&self, name: &str) -> Option<Opcode> {
        self.names.get(name).copied()
    }

    /// The name of an opcode, if known.
    pub fn name(&self, op: Opcode) -> Option<&str> {
        self.by_op.get(&op).map(String::as_str)
    }

    /// Whether `op` is interned — a standard selector or one this table
    /// allocated. Static verification uses this to reject code words whose
    /// opcode field names a selector no source ever mentioned.
    pub fn contains(&self, op: Opcode) -> bool {
        self.by_op.contains_key(&op)
    }

    /// Iterates all interned opcodes with their selector names, in no
    /// particular order.
    pub fn iter(&self) -> impl Iterator<Item = (Opcode, &str)> {
        self.by_op.iter().map(|(op, name)| (*op, name.as_str()))
    }

    /// Number of interned selectors (standard + user).
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether the table is empty (never: standard opcodes are preloaded).
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

impl Default for OpcodeTable {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_opcodes_are_stable() {
        assert_eq!(Opcode::ADD, Opcode(0));
        assert_eq!(Opcode::XFER, Opcode(32));
        assert_eq!(Opcode::ADD.standard_name(), Some("+"));
        assert_eq!(Opcode(500).standard_name(), None);
    }

    #[test]
    fn interning_is_idempotent_and_fresh() {
        let mut t = OpcodeTable::new();
        let a = t.intern("foo:").unwrap();
        let b = t.intern("foo:").unwrap();
        let c = t.intern("bar").unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.is_user());
        assert_eq!(t.name(a), Some("foo:"));
    }

    #[test]
    fn standard_names_resolve() {
        let t = OpcodeTable::new();
        assert_eq!(t.get("+"), Some(Opcode::ADD));
        assert_eq!(t.get("at:put:"), Some(Opcode::ATPUT));
        assert_eq!(t.get("nonexistent"), None);
    }

    #[test]
    fn contains_tracks_interning() {
        let mut t = OpcodeTable::new();
        assert!(t.contains(Opcode::ADD));
        assert!(t.contains(Opcode::RAWATPUT));
        // The gap between the standard selectors and USER_BASE, and the
        // unallocated user space, are both absent.
        assert!(!t.contains(Opcode(37)));
        assert!(!t.contains(Opcode(Opcode::USER_BASE)));
        let op = t.intern("frob").unwrap();
        assert!(t.contains(op));
        assert!(t.iter().any(|(o, n)| o == op && n == "frob"));
    }

    #[test]
    fn display_uses_names() {
        assert_eq!(Opcode::ADD.to_string(), "+");
        assert_eq!(Opcode(100).to_string(), "sel#100");
    }
}
