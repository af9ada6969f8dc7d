//! Host heap bytes per simulated word, counted by the allocator.
//!
//! This binary holds one test: its global allocator counts every live heap
//! byte of the process, so a second test running beside it would be
//! counted too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use com_fpa::FpaFormat;
use com_mem::{AllocKind, ClassId, ObjectSpace, TeamId};

/// The system allocator, keeping a count of the bytes it has live.
struct Counting;

/// Heap bytes allocated and not yet freed. A statistic that publishes no
/// other data, so `Relaxed` suffices.
static LIVE: AtomicUsize = AtomicUsize::new(0);

// SAFETY: `alloc` and `dealloc` forward to `System` with the caller's
// arguments unchanged, so `System`'s guarantees hold, and the counter does
// not touch the memory handed out. The provided `alloc_zeroed` and
// `realloc` are built on these two, so they are counted too.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size(), Ordering::Relaxed);
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

/// An 800,000-word object costs at most 17 host heap bytes per simulated
/// word: a 16-byte word and no storage for the buddy block's rounding to
/// 2^20 words.
#[test]
fn a_large_object_costs_at_most_17_heap_bytes_a_word() {
    const WORDS: u64 = 800_000;
    let mut space = ObjectSpace::new(26, FpaFormat::COM);
    let before = LIVE.load(Ordering::Relaxed);
    let obj = space
        .create(TeamId(0), ClassId(9), WORDS, AllocKind::Object)
        .expect("the object fits absolute space");
    let added = LIVE.load(Ordering::Relaxed) - before;
    let per_word = added as f64 / WORDS as f64;
    assert!(
        per_word <= 17.0,
        "{added} heap bytes for {WORDS} words: {per_word:.2} a word"
    );
    assert_eq!(space.length_of(TeamId(0), obj), Ok(WORDS));
}
