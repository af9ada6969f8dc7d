//! Address format descriptors.

use crate::FpaError;

/// The widest format, in bits. An [`Fpa`](crate::Fpa) packs its raw address
/// into the low 52 bits of one `u64` and the format's two widths into the
/// twelve above them, which keeps an address at 8 bytes and a memory word
/// at 16.
pub(crate) const MAX_BITS: u32 = 52;

/// Shape of a floating point address: an `exponent_bits`-bit exponent in the
/// high bits followed by a `mantissa_bits`-bit mantissa.
///
/// The paper requires `e = ceil(log2(m))` so that every offset width from a
/// single word up to the full mantissa is expressible; [`FpaFormat::new`]
/// enforces that relation, while [`FpaFormat::with_bits`] permits arbitrary
/// (still consistent) splits for experimentation.
///
/// ```
/// use com_fpa::FpaFormat;
/// let com = FpaFormat::COM;
/// assert_eq!(com.total_bits(), 36);
/// assert_eq!(com.max_segment_words(), 1 << 31);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FpaFormat {
    pub(crate) mantissa_bits: u32,
    pub(crate) exponent_bits: u32,
}

impl FpaFormat {
    /// The COM's 36-bit address: 5-bit exponent, 31-bit mantissa (§2.2).
    ///
    /// Supports segments of up to 2^31 words and, summed over all exponent
    /// classes, about 2^32 distinct segment names (the paper quotes "8
    /// billion segments"; the geometric sum over exponent classes of a 31-bit
    /// mantissa is `2^32 - 1` ≈ 4.3 billion — either way, four orders of
    /// magnitude beyond MULTICS' 256K).
    pub const COM: FpaFormat = FpaFormat {
        mantissa_bits: 31,
        exponent_bits: 5,
    };

    /// The 16-bit demonstration format from the paper (`0x8345` example):
    /// 4-bit exponent, 12-bit mantissa.
    pub const DEMO16: FpaFormat = FpaFormat {
        mantissa_bits: 12,
        exponent_bits: 4,
    };

    /// Creates a format with `mantissa_bits` and the paper-prescribed
    /// exponent width `ceil(log2(mantissa_bits))`.
    ///
    /// # Errors
    ///
    /// Returns [`FpaError::BadFormat`] if `mantissa_bits` is zero or the
    /// total width would exceed 52 bits (an [`Fpa`](crate::Fpa) carries its
    /// raw address and its format's widths in one `u64`: 52 bits of address
    /// and six bits for each width).
    pub fn new(mantissa_bits: u32) -> Result<Self, FpaError> {
        let exponent_bits = ceil_log2(mantissa_bits.max(1));
        Self::with_bits(mantissa_bits, exponent_bits)
    }

    /// Creates a format with explicit exponent width.
    ///
    /// # Errors
    ///
    /// Returns [`FpaError::BadFormat`] when either field is zero or the
    /// combined width exceeds 52 bits, the raw address an
    /// [`Fpa`](crate::Fpa) holds beside its format in one `u64`.
    pub fn with_bits(mantissa_bits: u32, exponent_bits: u32) -> Result<Self, FpaError> {
        if mantissa_bits == 0
            || exponent_bits == 0
            || mantissa_bits.saturating_add(exponent_bits) > MAX_BITS
        {
            return Err(FpaError::BadFormat {
                mantissa_bits,
                exponent_bits,
            });
        }
        Ok(FpaFormat {
            mantissa_bits,
            exponent_bits,
        })
    }

    /// Width of the mantissa field in bits.
    pub fn mantissa_bits(self) -> u32 {
        self.mantissa_bits
    }

    /// Width of the exponent field in bits.
    pub fn exponent_bits(self) -> u32 {
        self.exponent_bits
    }

    /// Total address width in bits.
    pub fn total_bits(self) -> u32 {
        self.mantissa_bits + self.exponent_bits
    }

    /// Largest exponent value the format can encode.
    pub fn max_exponent(self) -> u8 {
        ((1u64 << self.exponent_bits) - 1).min(63) as u8
    }

    /// Largest raw address value representable.
    pub fn max_raw(self) -> u64 {
        (1u64 << self.total_bits()) - 1
    }

    /// Mask covering the mantissa field.
    pub fn mantissa_mask(self) -> u64 {
        (1u64 << self.mantissa_bits) - 1
    }

    /// Number of words in the largest expressible segment
    /// (`2^min(max_exponent, mantissa_bits)`; offsets cannot exceed the
    /// mantissa range).
    pub fn max_segment_words(self) -> u64 {
        1u64 << u32::min(self.max_exponent() as u32, self.mantissa_bits)
    }

    /// Number of distinct segment names in the exponent class `exp`
    /// (`2^(mantissa_bits - exp)`), or 1 when `exp >= mantissa_bits`.
    pub fn segments_in_class(self, exp: u8) -> u64 {
        if (exp as u32) >= self.mantissa_bits {
            1
        } else {
            1u64 << (self.mantissa_bits - exp as u32)
        }
    }

    /// Total number of distinct segment names across all exponent classes.
    ///
    /// For the COM format this is `2^32 - 1 + extra` — billions, versus 256K
    /// for a MULTICS-style fixed split of comparable width.
    pub fn total_segment_names(self) -> u128 {
        (0..=self.max_exponent())
            .map(|e| self.segments_in_class(e) as u128)
            .sum()
    }

    /// Smallest exponent whose segment capacity holds `words` words.
    ///
    /// # Errors
    ///
    /// Returns [`FpaError::ObjectTooLarge`] when no exponent class can hold
    /// an object of that size.
    pub fn exponent_for(self, words: u64) -> Result<u8, FpaError> {
        if words == 0 {
            return Ok(0);
        }
        if words > self.max_segment_words() {
            return Err(FpaError::ObjectTooLarge {
                words,
                max: self.max_segment_words(),
            });
        }
        Ok(ceil_log2_u64(words) as u8)
    }
}

impl Default for FpaFormat {
    fn default() -> Self {
        FpaFormat::COM
    }
}

impl core::fmt::Display for FpaFormat {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "fpa{}(e{}/m{})",
            self.total_bits(),
            self.exponent_bits,
            self.mantissa_bits
        )
    }
}

/// `ceil(log2(x))` for `x >= 1`.
fn ceil_log2(x: u32) -> u32 {
    32 - (x - 1).leading_zeros()
}

fn ceil_log2_u64(x: u64) -> u32 {
    if x <= 1 {
        0
    } else {
        64 - (x - 1).leading_zeros()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn com_format_matches_paper() {
        let f = FpaFormat::COM;
        assert_eq!(f.total_bits(), 36);
        assert_eq!(f.max_exponent(), 31);
        // "supports segments of up to 2 billion words long"
        assert_eq!(f.max_segment_words(), 2_147_483_648);
        // "accommodates billions of segments" (paper says 8 billion; the
        // geometric sum is 2^32 - 1).
        assert!(f.total_segment_names() >= (1u128 << 32) - 1);
    }

    #[test]
    fn demo16_format_matches_paper_example() {
        let f = FpaFormat::DEMO16;
        assert_eq!(f.total_bits(), 16);
        assert_eq!(f.max_exponent(), 15);
    }

    #[test]
    fn new_derives_exponent_width() {
        // ceil(log2(31)) = 5
        let f = FpaFormat::new(31).unwrap();
        assert_eq!(f.exponent_bits(), 5);
        // ceil(log2(12)) = 4
        let f = FpaFormat::new(12).unwrap();
        assert_eq!(f.exponent_bits(), 4);
        // ceil(log2(32)) = 5
        let f = FpaFormat::new(32).unwrap();
        assert_eq!(f.exponent_bits(), 5);
        // ceil(log2(33)) = 6
        let f = FpaFormat::new(33).unwrap();
        assert_eq!(f.exponent_bits(), 6);
    }

    #[test]
    fn rejects_degenerate_formats() {
        assert!(FpaFormat::with_bits(0, 4).is_err());
        assert!(FpaFormat::with_bits(12, 0).is_err());
        assert!(FpaFormat::with_bits(49, 4).is_err());
        assert!(FpaFormat::with_bits(48, 4).is_ok());
    }

    #[test]
    fn segments_in_class_is_geometric() {
        let f = FpaFormat::DEMO16;
        assert_eq!(f.segments_in_class(0), 1 << 12);
        assert_eq!(f.segments_in_class(8), 1 << 4);
        assert_eq!(f.segments_in_class(12), 1);
        assert_eq!(f.segments_in_class(15), 1);
    }

    #[test]
    fn exponent_for_picks_tight_class() {
        let f = FpaFormat::COM;
        assert_eq!(f.exponent_for(0).unwrap(), 0);
        assert_eq!(f.exponent_for(1).unwrap(), 0);
        assert_eq!(f.exponent_for(2).unwrap(), 1);
        assert_eq!(f.exponent_for(3).unwrap(), 2);
        assert_eq!(f.exponent_for(32).unwrap(), 5);
        assert_eq!(f.exponent_for(33).unwrap(), 6);
        assert_eq!(f.exponent_for(1 << 31).unwrap(), 31);
        assert!(f.exponent_for((1 << 31) + 1).is_err());
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(FpaFormat::COM.to_string(), "fpa36(e5/m31)");
    }
}
