//! Floating point addresses and segment names.

use crate::{FpaError, FpaFormat};

/// A floating point virtual address: an exponent and a mantissa whose binary
/// point the exponent shifts (§2.2 of the paper).
///
/// The low `exponent` bits of the mantissa are the *offset* within the
/// segment; the remaining high bits (the integer part) combined with the
/// exponent form the [`SegmentName`]. Addresses are value types carrying
/// their format so arithmetic can be bounds-checked without external state.
///
/// ```
/// use com_fpa::{Fpa, FpaFormat};
/// # fn main() -> Result<(), com_fpa::FpaError> {
/// let a = Fpa::from_raw(0x8345, FpaFormat::DEMO16)?;
/// assert_eq!(a.exponent(), 8);
/// assert_eq!(a.offset(), 0x45);
/// assert_eq!(a.capacity(), 256);
/// let b = a.with_offset(0xFF)?;
/// assert_eq!(b.segment(), a.segment());
/// assert!(a.with_offset(0x100).is_err()); // beyond 2^8 words
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fpa {
    raw: u64,
    format: FpaFormat,
}

impl Fpa {
    /// Builds an address from a raw bit pattern in `format`.
    ///
    /// # Errors
    ///
    /// Returns [`FpaError::RawOutOfRange`] if `raw` exceeds the format width.
    pub fn from_raw(raw: u64, format: FpaFormat) -> Result<Self, FpaError> {
        if raw > format.max_raw() {
            return Err(FpaError::RawOutOfRange {
                raw,
                max: format.max_raw(),
            });
        }
        Ok(Fpa { raw, format })
    }

    /// Builds an address from explicit exponent and mantissa fields.
    ///
    /// # Errors
    ///
    /// Returns [`FpaError::ExponentOutOfRange`] or
    /// [`FpaError::MantissaOverflow`] if a field does not fit.
    pub fn from_parts(exponent: u8, mantissa: u64, format: FpaFormat) -> Result<Self, FpaError> {
        if exponent > format.max_exponent() {
            return Err(FpaError::ExponentOutOfRange {
                exponent,
                max: format.max_exponent(),
            });
        }
        if mantissa > format.mantissa_mask() {
            return Err(FpaError::MantissaOverflow {
                mantissa,
                max: format.mantissa_mask(),
            });
        }
        let raw = ((exponent as u64) << format.mantissa_bits()) | mantissa;
        Ok(Fpa { raw, format })
    }

    /// Builds the address of word `offset` inside `segment`.
    ///
    /// # Errors
    ///
    /// Returns [`FpaError::OffsetOutOfBounds`] if `offset` does not fit the
    /// segment's exponent class, [`FpaError::SegmentIndexOutOfRange`] if the
    /// segment index does not fit the mantissa, or an exponent-range error.
    pub fn from_segment(
        segment: SegmentName,
        offset: u64,
        format: FpaFormat,
    ) -> Result<Self, FpaError> {
        let exp = segment.exponent();
        let capacity = effective_capacity(exp, format);
        if offset >= capacity {
            return Err(FpaError::OffsetOutOfBounds { offset, capacity });
        }
        if segment.index() >= format.segments_in_class(exp) {
            return Err(FpaError::SegmentIndexOutOfRange {
                index: segment.index(),
                available: format.segments_in_class(exp),
            });
        }
        let shift = u32::min(exp as u32, format.mantissa_bits());
        let mantissa = (segment.index() << shift) | offset;
        Fpa::from_parts(exp, mantissa, format)
    }

    /// The raw bit pattern.
    pub fn raw(self) -> u64 {
        self.raw
    }

    /// The format this address is encoded in.
    pub fn format(self) -> FpaFormat {
        self.format
    }

    /// The exponent field: the width of the offset field in bits.
    pub fn exponent(self) -> u8 {
        (self.raw >> self.format.mantissa_bits()) as u8
    }

    /// The full mantissa field.
    pub fn mantissa(self) -> u64 {
        self.raw & self.format.mantissa_mask()
    }

    /// The offset within the segment (the fractional part of the shifted
    /// mantissa: its low `exponent` bits).
    pub fn offset(self) -> u64 {
        self.mantissa() & (effective_capacity(self.exponent(), self.format) - 1)
    }

    /// Number of words addressable in this segment: `2^exponent`, clamped
    /// to the mantissa range (an exponent wider than the mantissa cannot
    /// index more words than the mantissa holds).
    pub fn capacity(self) -> u64 {
        effective_capacity(self.exponent(), self.format)
    }

    /// The segment this address points into (integer part + exponent).
    pub fn segment(self) -> SegmentName {
        let e = self.exponent();
        let shift = u32::min(e as u32, self.format.mantissa_bits());
        SegmentName::new(e, self.mantissa() >> shift.min(63))
    }

    /// Returns this address with the offset replaced by `offset`.
    ///
    /// # Errors
    ///
    /// Returns [`FpaError::OffsetOutOfBounds`] if `offset >= capacity` —
    /// precisely the condition that, when a stale pointer to a grown object
    /// crosses it, raises the aliasing trap of §2.2.
    pub fn with_offset(self, offset: u64) -> Result<Self, FpaError> {
        let capacity = self.capacity();
        if offset >= capacity {
            return Err(FpaError::OffsetOutOfBounds { offset, capacity });
        }
        let base = self.mantissa() & !(capacity - 1);
        Fpa::from_parts(self.exponent(), base | offset, self.format)
    }

    /// Pointer arithmetic: this address advanced by `delta` words, staying
    /// within the segment.
    ///
    /// # Errors
    ///
    /// Returns [`FpaError::OffsetOutOfBounds`] when the result would leave
    /// the segment (floating point addresses never silently roll into a
    /// neighbouring segment name).
    pub fn add_words(self, delta: u64) -> Result<Self, FpaError> {
        let offset = self.offset().checked_add(delta).ok_or({
            FpaError::OffsetOutOfBounds {
                offset: u64::MAX,
                capacity: self.capacity(),
            }
        })?;
        self.with_offset(offset)
    }

    /// The base address (offset zero) of this address's segment.
    pub fn base(self) -> Fpa {
        self.with_offset(0).expect("offset 0 always fits")
    }
}

impl core::fmt::Display for Fpa {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}+{:#x}", self.segment(), self.offset())
    }
}

impl core::fmt::LowerHex for Fpa {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        core::fmt::LowerHex::fmt(&self.raw, f)
    }
}

fn capacity_of(exponent: u8) -> u64 {
    if exponent >= 63 {
        u64::MAX
    } else {
        1u64 << exponent
    }
}

/// Offset capacity clamped to what the mantissa can index: when the
/// exponent exceeds the mantissa width the offset field covers the whole
/// mantissa and the integer part is empty.
fn effective_capacity(exponent: u8, format: FpaFormat) -> u64 {
    let bits = u32::min(exponent as u32, format.mantissa_bits());
    1u64 << bits.min(63)
}

/// The name of a segment: an exponent class plus the index within the class
/// (the integer part of the shifted mantissa).
///
/// "The integer part of the real address when combined with the exponent
/// names the segment descriptor" (§2.2). Segment names are the keys of
/// segment descriptor tables and of the ATLB.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct SegmentName {
    exponent: u8,
    index: u64,
}

impl SegmentName {
    /// Creates a segment name from an exponent class and in-class index.
    pub fn new(exponent: u8, index: u64) -> Self {
        SegmentName { exponent, index }
    }

    /// The exponent class (log2 of the segment capacity).
    pub fn exponent(self) -> u8 {
        self.exponent
    }

    /// The index within the exponent class.
    pub fn index(self) -> u64 {
        self.index
    }

    /// Words addressable in this segment.
    pub fn capacity(self) -> u64 {
        capacity_of(self.exponent)
    }

    /// The paper's display convention: exponent concatenated with the
    /// integer part, e.g. segment number `0x83` for `0x8345` in the 16-bit
    /// format (exponent `8`, integer part `3`).
    ///
    /// This is the high `total_bits - exponent` bits of the raw address and
    /// is **not** unique across exponent classes (distinct segments of
    /// different exponents may display identically); the true segment key is
    /// the `(exponent, index)` pair this type carries. Use for diagnostics
    /// only.
    pub fn display_number(self, format: FpaFormat) -> u64 {
        let int_bits = (format.mantissa_bits()).saturating_sub(self.exponent as u32);
        ((self.exponent as u64) << int_bits) | self.index
    }
}

impl core::fmt::Display for SegmentName {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "seg[e{}:{:#x}]", self.exponent, self.index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo(raw: u64) -> Fpa {
        Fpa::from_raw(raw, FpaFormat::DEMO16).unwrap()
    }

    #[test]
    fn paper_example_0x8345() {
        let a = demo(0x8345);
        assert_eq!(a.exponent(), 8);
        assert_eq!(a.mantissa(), 0x345);
        assert_eq!(a.offset(), 0x45);
        assert_eq!(a.segment().index(), 0x3);
        assert_eq!(a.segment().display_number(FpaFormat::DEMO16), 0x83);
        assert_eq!(a.capacity(), 256);
    }

    #[test]
    fn zero_exponent_single_word_segments() {
        // Exponent 0: every mantissa value is its own one-word segment.
        let a = demo(0x0345);
        assert_eq!(a.exponent(), 0);
        assert_eq!(a.offset(), 0);
        assert_eq!(a.capacity(), 1);
        assert_eq!(a.segment().index(), 0x345);
    }

    #[test]
    fn from_parts_roundtrips() {
        let a = Fpa::from_parts(8, 0x345, FpaFormat::DEMO16).unwrap();
        assert_eq!(a.raw(), 0x8345);
    }

    #[test]
    fn from_segment_roundtrips() {
        let seg = SegmentName::new(8, 3);
        let a = Fpa::from_segment(seg, 0x45, FpaFormat::DEMO16).unwrap();
        assert_eq!(a.raw(), 0x8345);
        assert_eq!(a.segment(), seg);
        assert_eq!(a.offset(), 0x45);
    }

    #[test]
    fn with_offset_stays_in_segment() {
        let a = demo(0x8345);
        let b = a.with_offset(0).unwrap();
        assert_eq!(b.raw(), 0x8300);
        let c = a.with_offset(0xFF).unwrap();
        assert_eq!(c.raw(), 0x83FF);
        assert_eq!(c.segment(), a.segment());
        assert!(matches!(
            a.with_offset(0x100),
            Err(FpaError::OffsetOutOfBounds {
                offset: 0x100,
                capacity: 256
            })
        ));
    }

    #[test]
    fn add_words_traps_at_segment_end() {
        let a = demo(0x83F0);
        assert_eq!(a.add_words(0xF).unwrap().offset(), 0xFF);
        assert!(a.add_words(0x10).is_err());
    }

    #[test]
    fn com_format_large_segment() {
        let f = FpaFormat::COM;
        let seg = SegmentName::new(31, 0);
        let a = Fpa::from_segment(seg, (1 << 31) - 1, f).unwrap();
        assert_eq!(a.offset(), (1 << 31) - 1);
        assert_eq!(a.capacity(), 1 << 31);
        // Only one segment exists in the widest class.
        assert!(Fpa::from_segment(SegmentName::new(31, 1), 0, f).is_err());
    }

    #[test]
    fn rejects_raw_beyond_width() {
        assert!(Fpa::from_raw(0x1_0000, FpaFormat::DEMO16).is_err());
        assert!(Fpa::from_raw(0xFFFF, FpaFormat::DEMO16).is_ok());
    }

    #[test]
    fn display_formats() {
        let a = demo(0x8345);
        assert_eq!(a.to_string(), "seg[e8:0x3]+0x45");
        assert_eq!(format!("{a:x}"), "8345");
    }

    #[test]
    fn base_clears_offset() {
        assert_eq!(demo(0x8345).base().raw(), 0x8300);
    }
}
