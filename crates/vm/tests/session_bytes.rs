//! Host heap bytes and allocations one booted session takes, counted by
//! the allocator.
//!
//! This binary holds one test: its global allocator counts every heap
//! allocation of the process, so a second test running beside it would be
//! counted too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use com_vm::Vm;

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

/// A session of the joined image of every workload (94 methods), booted
/// with its ITLB pre-seeded, holds at most 160,000 heap bytes and takes at
/// most 200 allocations to boot: it clones the image's pre-stored space,
/// its decoded slab and the seeded ITLB, and shares the class, selector and
/// atom tables. The bytes are mostly the empty machine's caches: the
/// 4,096-line instruction cache alone is 64 KiB.
#[test]
fn a_preseeded_session_of_the_joined_image_costs_at_most_160_kb_in_200_allocations() {
    let sources: Vec<&str> = com_workloads::all().iter().map(|w| w.source).collect();
    let vm = Vm::builder()
        .source(&sources.join("\n"))
        .preseed_itlb(true)
        .build()
        .expect("the workloads compile");
    // The first session runs the analysis and seeds the machine the
    // others copy.
    let first = vm.session().expect("boot");
    let (bytes, allocs) = (LIVE.load(Ordering::Relaxed), ALLOCS.load(Ordering::Relaxed));
    let session = vm.session().expect("boot");
    let bytes = LIVE.load(Ordering::Relaxed) - bytes;
    let allocs = ALLOCS.load(Ordering::Relaxed) - allocs;
    let seeded = session.itlb_stats().expect("an ITLB").fills;
    assert_eq!(seeded, first.itlb_stats().expect("an ITLB").fills);
    assert!(seeded > 0, "the session boots with a seeded ITLB");
    assert!(
        bytes <= 160_000 && allocs <= 200,
        "{bytes} heap bytes in {allocs} allocations"
    );
}
