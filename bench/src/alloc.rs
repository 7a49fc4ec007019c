//! Counting global allocator: heap allocations are a cost that repeats
//! exactly when wall time does not, so `allocs_per_answer` can hold a much
//! tighter bound than any timing on a shared box.
//!
//! Counts are kept in cache-line-padded slots, one per thread (slot index
//! handed out on a thread's first allocation), so the client thread and
//! the shard threads never bounce one counter line between cores and the
//! instrumented run stays close to the uninstrumented one.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

const SLOTS: usize = 32;

#[repr(align(64))]
struct Slot(AtomicU64);

static COUNTS: [Slot; SLOTS] = [const { Slot(AtomicU64::new(0)) }; SLOTS];
static NEXT_SLOT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    // Const-initialised and without a destructor: touching it from inside
    // the allocator never allocates.
    static MY_SLOT: Cell<usize> = const { Cell::new(usize::MAX) };
}

#[inline]
fn bump() {
    // `try_with` so an allocation during thread teardown is still served;
    // it is then counted in slot 0.
    let slot = MY_SLOT
        .try_with(|cell| {
            let mut slot = cell.get();
            if slot == usize::MAX {
                slot = NEXT_SLOT.fetch_add(1, Ordering::Relaxed) % SLOTS;
                cell.set(slot);
            }
            slot
        })
        .unwrap_or(0);
    // Relaxed: a statistic that publishes no other data.
    COUNTS[slot].0.fetch_add(1, Ordering::Relaxed);
}

/// The system allocator plus one relaxed counter bump per `alloc`,
/// `alloc_zeroed` and `realloc` (frees are not counted).
pub struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter bump touches only
// statics and a const-initialised thread-local, and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s requirements.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s requirements.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s requirements.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s requirements.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Heap allocations made by the whole process so far (all threads).
pub fn allocations() -> u64 {
    COUNTS.iter().map(|s| s.0.load(Ordering::Relaxed)).sum()
}
