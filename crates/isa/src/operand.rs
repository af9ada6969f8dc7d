//! Operand descriptors: the two addressing modes of §3.4.

use crate::IsaError;

/// An 8-bit operand descriptor.
///
/// "Two addressing modes can be used in the operand descriptors of COM
/// instructions: *context* and *constant*. Context mode is used to access
/// the contents of the current and next contexts. … The constant mode can
/// only be used in the last operand descriptor of an instruction." (§3.4)
///
/// Encoding: bit 7 set → constant mode, bits 6..0 index the constant table;
/// bit 7 clear → context mode, bit 6 selects current (0) or next (1)
/// context, bits 5..0 are the positive word offset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Operand {
    /// Word `offset` of the current context (CP-relative).
    Cur(u8),
    /// Word `offset` of the next context (NCP-relative).
    Next(u8),
    /// Entry `index` of the constant table — "frequently referenced
    /// constants including short integers, bit fields for byte insertion and
    /// the objects true, false, and nil".
    Const(u8),
}

impl Operand {
    /// Largest context offset (6-bit field; contexts are 32 words, so the
    /// field has headroom).
    pub const MAX_OFFSET: u8 = 63;
    /// Largest constant-table index (7-bit field).
    pub const MAX_CONST: u8 = 127;

    /// Encodes to the 8-bit descriptor.
    pub fn encode(self) -> u8 {
        match self {
            Operand::Cur(off) => off & 0x3F,
            Operand::Next(off) => 0x40 | (off & 0x3F),
            Operand::Const(idx) => 0x80 | (idx & 0x7F),
        }
    }

    /// Decodes an 8-bit descriptor.
    pub fn decode(byte: u8) -> Operand {
        if byte & 0x80 != 0 {
            Operand::Const(byte & 0x7F)
        } else if byte & 0x40 != 0 {
            Operand::Next(byte & 0x3F)
        } else {
            Operand::Cur(byte & 0x3F)
        }
    }

    /// Validates field ranges (useful when constructing from program text).
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::OperandOutOfRange`] if the offset or index does
    /// not fit its field.
    pub fn validated(self) -> Result<Operand, IsaError> {
        let ok = match self {
            Operand::Cur(o) | Operand::Next(o) => o <= Self::MAX_OFFSET,
            Operand::Const(i) => i <= Self::MAX_CONST,
        };
        if ok {
            Ok(self)
        } else {
            Err(IsaError::OperandOutOfRange(self))
        }
    }

    /// Whether this operand is constant mode (only legal in the last
    /// position, §3.4).
    pub fn is_const(self) -> bool {
        matches!(self, Operand::Const(_))
    }
}

impl core::fmt::Display for Operand {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Operand::Cur(o) => write!(f, "c{o}"),
            Operand::Next(o) => write!(f, "n{o}"),
            Operand::Const(i) => write!(f, "k{i}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_roundtrip_all_bytes() {
        for byte in 0..=255u8 {
            let op = Operand::decode(byte);
            assert_eq!(op.encode(), byte, "byte {byte:#x} did not roundtrip");
        }
    }

    #[test]
    fn mode_bits() {
        assert_eq!(Operand::Cur(5).encode(), 0x05);
        assert_eq!(Operand::Next(5).encode(), 0x45);
        assert_eq!(Operand::Const(5).encode(), 0x85);
    }

    #[test]
    fn validation_bounds() {
        assert!(Operand::Cur(63).validated().is_ok());
        assert!(Operand::Cur(64).validated().is_err());
        assert!(Operand::Const(127).validated().is_ok());
        assert!(Operand::Const(128).validated().is_err());
    }

    #[test]
    fn display() {
        assert_eq!(Operand::Cur(2).to_string(), "c2");
        assert_eq!(Operand::Next(3).to_string(), "n3");
        assert_eq!(Operand::Const(7).to_string(), "k7");
    }
}
