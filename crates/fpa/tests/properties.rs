//! Randomized floating point address invariants, over addresses and
//! formats drawn from the workspace's seeded generator.

use std::collections::HashSet;

use com_cache::Rng;
use com_fpa::{Fpa, FpaFormat, NameAllocator, SegmentName};

const CASES: u32 = 1024;

/// For any format and raw address: decoding into (segment, offset) or
/// (exponent, mantissa) and re-encoding reproduces the raw bits; the
/// offset is below the segment capacity and the mantissa equals
/// index × capacity + offset (the "shifted binary point" of §2.2); the
/// display number is the raw address with the offset stripped, as in the
/// paper's `0x8345 → 0x83`; and `with_offset` keeps the segment for any
/// in-capacity offset and refuses the rest.
#[test]
fn address_decomposition_laws() {
    let mut rng = Rng::new(1);
    for _ in 0..CASES {
        let fmt = FpaFormat::new(4 + rng.below(37) as u32).expect("valid format");
        let raw = rng.next_u64() & fmt.max_raw();
        let a = Fpa::from_raw(raw, fmt).unwrap();
        let back = Fpa::from_segment(a.segment(), a.offset(), fmt).unwrap();
        assert_eq!(back.raw(), raw, "segment/offset round trip");
        let e = rng.below(u64::from(fmt.max_exponent()) + 1) as u8;
        let m = rng.next_u64() & fmt.mantissa_mask();
        let p = Fpa::from_parts(e, m, fmt).unwrap();
        assert_eq!((p.exponent(), p.mantissa()), (e, m), "parts round trip");

        assert!(a.offset() < a.capacity() || a.capacity() == u64::MAX);
        if (a.exponent() as u32) < 63 {
            let reconstructed = a
                .segment()
                .index()
                .checked_mul(a.capacity())
                .and_then(|x| x.checked_add(a.offset()));
            assert_eq!(reconstructed, Some(a.mantissa()), "shifted binary point");
        }
        let shift = u32::min(a.exponent() as u32, fmt.mantissa_bits());
        assert_eq!(a.segment().display_number(fmt), raw >> shift);

        let off = rng.below(2 * a.capacity().min(1 << 40));
        match a.with_offset(off) {
            Ok(b) => {
                assert!(off < a.capacity());
                assert_eq!((b.segment(), b.offset()), (a.segment(), off));
            }
            Err(_) => assert!(off >= a.capacity()),
        }
    }
}

/// Distinct live allocations never share a segment name (capability
/// uniqueness), and recycling reuses names without creating duplicates
/// among live ones.
#[test]
fn allocator_uniqueness() {
    let mut rng = Rng::new(2);
    for _ in 0..CASES / 4 {
        let mut alloc = NameAllocator::new(FpaFormat::COM);
        let mut live: HashSet<SegmentName> = HashSet::new();
        for i in 0..1 + rng.below(120) {
            let a = alloc.alloc_for_size(1 + rng.below(4999)).unwrap();
            assert!(live.insert(a.segment()), "duplicate live name");
            // Free every third allocation to exercise recycling.
            if i % 3 == 0 {
                live.remove(&a.segment());
                alloc.free(a.segment());
            }
        }
    }
}

/// Segment capacity always covers the requested object size and is never
/// twice the size or more (tight exponent choice), across every size
/// class of the COM format.
#[test]
fn tight_exponent() {
    let fmt = FpaFormat::COM;
    let mut rng = Rng::new(3);
    for _ in 0..CASES {
        // Log-uniform sizes in 1..=2^31, so every exponent class is drawn.
        let class = rng.below(32);
        let words = 1 + rng.below(1 << class);
        let cap = 1u64 << fmt.exponent_for(words).unwrap();
        assert!(cap >= words);
        assert!(cap < words.saturating_mul(2) || cap == 1);
    }
}
