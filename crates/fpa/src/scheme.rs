//! A common interface over floating-point and fixed addressing, used by the
//! small-object-problem experiment (T4).

use crate::{FixedFormat, FpaError, FpaFormat};

/// Outcome of asking a naming scheme to name one object of a given size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NamingOutcome {
    /// The object received its own segment; `slack_words` counts the naming
    /// slack (segment capacity minus object size) — address-space, not
    /// storage, waste.
    Named {
        /// Capacity of the chosen segment minus the object's size.
        slack_words: u64,
    },
    /// The scheme ran out of segment names; under a fixed split this forces
    /// the "inappropriate grouping of small objects" the paper describes.
    OutOfNames,
    /// The object exceeds the largest expressible segment; under a fixed
    /// split this forces "complicated schemes to split large objects".
    TooLarge,
}

impl NamingOutcome {
    /// Whether the object was successfully given its own segment.
    pub fn is_named(self) -> bool {
        matches!(self, NamingOutcome::Named { .. })
    }
}

/// A virtual-address naming scheme: allocates one segment name per object
/// and reports capacity limits. Implemented by a stateful wrapper per scheme
/// so the T4 harness can drive them uniformly.
pub trait AddressScheme {
    /// Attempts to give one object of `words` words its own segment.
    fn name_object(&mut self, words: u64) -> NamingOutcome;
}

/// Floating-point naming state for the T4 sweep.
#[derive(Debug, Clone)]
pub struct FpaScheme {
    allocator: crate::NameAllocator,
}

impl FpaScheme {
    /// Creates a scheme over `format`.
    pub fn new(format: FpaFormat) -> Self {
        FpaScheme {
            allocator: crate::NameAllocator::new(format),
        }
    }
}

impl AddressScheme for FpaScheme {
    fn name_object(&mut self, words: u64) -> NamingOutcome {
        match self.allocator.alloc_for_size(words) {
            Ok(addr) => NamingOutcome::Named {
                slack_words: addr.capacity() - words,
            },
            Err(FpaError::ObjectTooLarge { .. }) => NamingOutcome::TooLarge,
            Err(_) => NamingOutcome::OutOfNames,
        }
    }
}

/// Fixed-split naming state for the T4 sweep.
#[derive(Debug, Clone)]
pub struct FixedScheme {
    format: FixedFormat,
    next_segment: u64,
}

impl FixedScheme {
    /// Creates a scheme over `format`.
    pub fn new(format: FixedFormat) -> Self {
        FixedScheme {
            format,
            next_segment: 0,
        }
    }
}

impl AddressScheme for FixedScheme {
    fn name_object(&mut self, words: u64) -> NamingOutcome {
        if words > self.format.max_segment_words() {
            return NamingOutcome::TooLarge;
        }
        if self.next_segment >= self.format.max_segments() {
            return NamingOutcome::OutOfNames;
        }
        self.next_segment += 1;
        NamingOutcome::Named {
            slack_words: self.format.max_segment_words() - words,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fpa_names_huge_and_tiny() {
        let mut s = FpaScheme::new(FpaFormat::COM);
        assert!(s.name_object(1).is_named());
        assert!(s.name_object(1 << 31).is_named());
        assert_eq!(s.name_object(1 + (1 << 31)), NamingOutcome::TooLarge);
    }

    #[test]
    fn fixed_fails_on_large_objects() {
        let mut s = FixedScheme::new(FixedFormat::MULTICS);
        // Exactly 2^18 words still fits; one more word cannot be named at all.
        assert!(s.name_object(1 << 18).is_named());
        assert_eq!(s.name_object((1 << 18) + 1), NamingOutcome::TooLarge);
        assert_eq!(s.name_object(1 << 20), NamingOutcome::TooLarge);
        assert!(s.name_object(100).is_named());
    }

    #[test]
    fn fixed_exhausts_small_object_names() {
        let f = FixedFormat::new(2, 8).unwrap(); // 4 segments only
        let mut s = FixedScheme::new(f);
        for _ in 0..4 {
            assert!(s.name_object(1).is_named());
        }
        assert_eq!(s.name_object(1), NamingOutcome::OutOfNames);
    }

    #[test]
    fn fpa_slack_is_tight() {
        let mut s = FpaScheme::new(FpaFormat::COM);
        match s.name_object(33) {
            NamingOutcome::Named { slack_words } => assert_eq!(slack_words, 64 - 33),
            other => panic!("expected Named, got {other:?}"),
        }
        // Fixed split wastes the whole offset range on a 33-word object.
        let mut fx = FixedScheme::new(FixedFormat::MULTICS);
        match fx.name_object(33) {
            NamingOutcome::Named { slack_words } => assert_eq!(slack_words, (1 << 18) - 33),
            other => panic!("expected Named, got {other:?}"),
        }
    }
}
