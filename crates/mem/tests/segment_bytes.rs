//! Host heap bytes and allocations per small segment, counted by the
//! allocator.
//!
//! This binary holds one test: its global allocator counts every heap
//! allocation of the process, so a second test running beside it would be
//! counted too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use com_fpa::FpaFormat;
use com_mem::{AllocKind, ClassId, ObjectSpace, TeamId};

/// The system allocator, keeping a count of the bytes it has live and of
/// the allocations it has made.
struct Counting;

/// Heap bytes allocated and not yet freed, and allocations made. Statistics
/// that publish no other data, so `Relaxed` suffices.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static ALLOCS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: `alloc` and `dealloc` forward to `System` with the caller's
// arguments unchanged, so `System`'s guarantees hold, and the counters do
// not touch the memory handed out. The provided `alloc_zeroed` and
// `realloc` are built on these two, so they are counted too.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// 86,605 8-word objects cost at most 320 heap bytes and 1.2 heap
/// allocations a segment: 128 bytes of words in one allocation, a 40-byte
/// slot in its class's row of the descriptor table, a 48-byte block record
/// in the slab (both rows grow by doubling), a young-list entry and an
/// entry in the ordered base index.
#[test]
fn a_small_segment_costs_at_most_320_heap_bytes_in_1_2_allocations() {
    const SEGMENTS: usize = 86_605;
    let mut space = ObjectSpace::new(26, FpaFormat::COM);
    let (bytes, allocs) = (LIVE.load(Ordering::Relaxed), ALLOCS.load(Ordering::Relaxed));
    for _ in 0..SEGMENTS {
        space
            .create(TeamId(0), ClassId(9), 8, AllocKind::Object)
            .expect("the objects fit absolute space");
    }
    let bytes = (LIVE.load(Ordering::Relaxed) - bytes) as f64 / SEGMENTS as f64;
    let allocs = (ALLOCS.load(Ordering::Relaxed) - allocs) as f64 / SEGMENTS as f64;
    assert!(
        bytes <= 320.0 && allocs <= 1.2,
        "{bytes:.1} heap bytes and {allocs:.3} heap allocations a segment"
    );
    assert_eq!(space.mmu().team(TeamId(0)).unwrap().table.len(), SEGMENTS);
}
