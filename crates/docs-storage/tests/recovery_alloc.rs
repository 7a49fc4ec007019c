//! Recovery reads each log file into one shared arena and hands out
//! borrowed payload views, so `recover_tree` allocates by the file, not by
//! the event: a counting allocator around it over one segment of 64 and of
//! 4 096 events. Run with `--release` as well: the claim is about optimised
//! code.

use docs_storage::{recover_tree, CampaignLog, FlushPolicy};
use docs_types::CampaignId;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::PathBuf;

/// Counts this thread's fresh buffers and resizes apart (the test harness
/// runs tests on parallel threads, and the log's write lane is a thread of
/// its own, so a process-wide count would see the neighbours').
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static REALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters are const-initialised thread-local
// `Cell<u64>`s without a destructor, so touching them neither allocates nor
// runs during thread teardown.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` above with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        REALLOCS.with(|n| n.set(n.get() + 1));
        // SAFETY: as for `alloc` and `dealloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const CAMPAIGN: CampaignId = CampaignId(1);

/// Writes `events` 128-byte events of one campaign into a single segment,
/// recovers the tree and returns `(fresh buffers, resizes)` that
/// `recover_tree` made on this thread.
fn recovery_allocations(events: usize) -> (u64, u64) {
    let base = std::env::temp_dir().join(format!(
        "docs-storage-recovery-alloc-{}-{events}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&base);
    {
        let mut log = CampaignLog::open(PathBuf::from(&base).join("shard-0")).unwrap();
        log.register(CAMPAIGN, FlushPolicy::Batch(64), 0);
        for _ in 0..events {
            log.append_event(CAMPAIGN, &[0x5A; 128]).unwrap();
        }
    }
    let (allocs, reallocs) = (ALLOCS.with(Cell::get), REALLOCS.with(Cell::get));
    let recovery = recover_tree(&base).unwrap();
    let counted = (
        ALLOCS.with(Cell::get) - allocs,
        REALLOCS.with(Cell::get) - reallocs,
    );
    assert_eq!(recovery.segments_scanned, 1);
    assert_eq!(recovery.events_recovered, events as u64);
    assert_eq!(recovery.campaigns[&CAMPAIGN].events.len(), events);
    assert_eq!(recovery.campaigns[&CAMPAIGN].last_seq, events as u64);
    drop(recovery);
    let _ = std::fs::remove_dir_all(&base);
    counted
}

#[test]
fn recovery_allocates_by_the_file_not_by_the_event() {
    let (small_allocs, small_reallocs) = recovery_allocations(64);
    let (large_allocs, large_reallocs) = recovery_allocations(4096);
    // A fresh buffer per payload would add 4 032 here. The segment's one
    // arena and the per-directory bookkeeping are the same at both sizes;
    // the one buffer the larger run may add is the stable sort's scratch,
    // which stays on the stack for a short event list.
    assert!(
        large_allocs <= small_allocs + 1,
        "fresh buffers: {small_allocs} for 64 events, {large_allocs} for 4096"
    );
    // The lists of records and payload views grow by doubling: six more
    // doublings each for 64× the events, never a resize per event.
    assert!(
        large_reallocs <= small_reallocs + 24,
        "resizes: {small_reallocs} for 64 events, {large_reallocs} for 4096"
    );
}
