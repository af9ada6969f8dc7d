//! Randomized memory-system invariants, over inputs drawn from the
//! workspace's seeded generator. The minor-plus-full against full-only
//! collection equivalence runs in `gc`'s unit tests.

use com_cache::Rng;
use com_fpa::FpaFormat;
use com_mem::{AbsAddr, AllocKind, BuddyAllocator, ClassId, ObjectSpace, TeamId, Word};

const TEAM: TeamId = TeamId(0);
const CASES: u32 = 256;

/// In arbitrary alloc/free interleavings, buddy blocks are aligned to
/// their size and never overlap, allocated words equal the sum of live
/// block sizes, and freeing everything coalesces back to the full space.
#[test]
fn buddy_blocks_stay_aligned_disjoint_and_conserved() {
    let mut rng = Rng::new(1);
    for _ in 0..CASES {
        let mut b = BuddyAllocator::new(12);
        let mut live: Vec<(AbsAddr, u8)> = Vec::new();
        for _ in 0..1 + rng.below(60) {
            let order = rng.below(6) as u8;
            if rng.below(2) == 0 && !live.is_empty() {
                let (a, o) = live.swap_remove(0);
                b.free(a, o).unwrap();
            } else if let Ok(a) = b.alloc(order) {
                let words = 1u64 << order;
                assert_eq!(a.0 % words, 0, "misaligned block");
                for &(l, lo) in &live {
                    let disjoint = a.0 + words <= l.0 || l.0 + (1 << lo) <= a.0;
                    assert!(
                        disjoint,
                        "overlap: ({},{words}) vs ({},{})",
                        a.0,
                        l.0,
                        1 << lo
                    );
                }
                live.push((a, order));
            }
            let expect: u64 = live.iter().map(|&(_, o)| 1u64 << o).sum();
            assert_eq!(b.allocated_words(), expect);
        }
        for (a, o) in live.drain(..) {
            b.free(a, o).unwrap();
        }
        assert_eq!(b.allocated_words(), 0);
        // Full coalescing: the whole space is one block again.
        assert!(b.alloc(12).is_ok());
    }
}

/// Read-after-write through virtual addresses returns exactly what was
/// written, for arbitrary object sizes, and one past the end bounds-traps.
#[test]
fn read_after_write() {
    let mut rng = Rng::new(2);
    for _ in 0..CASES {
        let mut s = ObjectSpace::new(22, FpaFormat::COM);
        let payload = Word::Int(rng.next_u64() as i64);
        for _ in 0..1 + rng.below(19) {
            let words = 1 + rng.below(199);
            let obj = s
                .create(TEAM, ClassId(9), words, AllocKind::Object)
                .unwrap();
            let last = obj.with_offset(words - 1).unwrap();
            s.write(TEAM, last, payload).unwrap();
            assert_eq!(s.read(TEAM, last).unwrap(), payload);
            if words < obj.capacity() {
                let oob = obj.with_offset(words).unwrap();
                assert!(s.read(TEAM, oob).is_err());
            }
        }
    }
}

/// Growing an object preserves every word, through both the newest and
/// the original name, for arbitrary grow chains (§2.2 aliasing).
#[test]
fn grow_chains_preserve_contents_through_every_name() {
    let mut rng = Rng::new(3);
    for _ in 0..CASES {
        let mut s = ObjectSpace::new(22, FpaFormat::COM);
        let initial = 1 + rng.below(31);
        let first = s
            .create(TEAM, ClassId(9), initial, AllocKind::Object)
            .unwrap();
        for i in 0..initial {
            s.write(TEAM, first.with_offset(i).unwrap(), Word::Int(i as i64))
                .unwrap();
        }
        let mut cur = first;
        let mut len = initial;
        for _ in 0..1 + rng.below(4) {
            let target = len + 1 + rng.below(199);
            cur = s.grow(TEAM, cur, target).unwrap();
            len = s.length_of(TEAM, cur).unwrap();
            assert!(len >= target);
        }
        for i in 0..initial {
            for name in [cur, first] {
                let word = s.read(TEAM, name.with_offset(i).unwrap()).unwrap();
                assert_eq!(word, Word::Int(i as i64));
            }
        }
    }
}
