//! The snapshot record costs allocations by the record, not by the
//! campaign: a counting allocator around `Docs::snapshot_bytes` (what the
//! durable service writes and ships) and around
//! `codec::from_bytes::<CampaignSnapshot>` (recovery, follower bootstrap).
//! Run with `--release` as well: the claim is about optimised code.

use docs_system::{CampaignSnapshot, Docs, DocsConfig, WorkRequest};
use docs_types::{codec, Answer, DomainVector, TaskBuilder, WorkerId};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts this thread's allocations (the test harness runs tests on
/// parallel threads, so a process-wide count would see the neighbours').
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a const-initialised thread-local
// `Cell<u64>` without a destructor, so touching it neither allocates nor
// runs during thread teardown.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` above with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: as for `alloc` and `dealloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations_during<T>(work: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = work();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

/// `n` yes/no tasks over the Table 2 KB's three domains, six workers past
/// the golden gate; with `answered`, every worker has answered every task.
/// The inference the answers owe is paid, so what is counted below is the
/// encode alone.
fn campaign(n: usize, answered: bool) -> Docs {
    let kb = docs_kb::table2_example_kb();
    let m = kb.num_domains();
    let tasks = (0..n)
        .map(|i| {
            let mut weights = vec![0.0; m];
            weights[i % m] = 1.0;
            weights[(i + 1) % m] += 0.5;
            TaskBuilder::new(i, format!("task {i}"))
                .yes_no()
                .with_ground_truth(i % 2)
                .with_domain_vector(DomainVector::from_weights(&weights).unwrap())
                .build()
                .unwrap()
        })
        .collect();
    let config = DocsConfig {
        num_golden: 4,
        answers_per_task: 0,
        ..Default::default()
    };
    let mut docs = Docs::publish(&kb, tasks, config).unwrap();
    let workers: Vec<WorkerId> = (0..6).map(WorkerId).collect();
    for &w in &workers {
        let WorkRequest::Golden(golden) = docs.request_tasks(w) else {
            panic!("a new worker gets the golden HIT");
        };
        let answers: Vec<_> = golden.iter().map(|&g| (g, g.index() % 2)).collect();
        docs.submit_golden(w, &answers).unwrap();
    }
    if answered {
        let answers = (0..n)
            .flat_map(|i| {
                let workers = &workers;
                workers
                    .iter()
                    .map(move |&w| Answer::new(w, i.into(), (i + w.index()) % 2))
            })
            .collect();
        assert_eq!(docs.submit_answer_batch(answers), Ok(vec![]));
    }
    docs.materialize();
    docs
}

/// Encoding walks the live campaign twice (once to size the record, once
/// to write it) and allocates only the record, the sorted list of seen
/// workers and, per walk, one sort buffer for each non-empty worker table:
/// the two registries, plus the answer log's per-worker index once anyone
/// answered. That is the same handful for 400 tasks as for 40.
#[test]
fn the_snapshot_encode_allocates_the_same_for_any_campaign_size() {
    for (answered, tables) in [(false, 2), (true, 3)] {
        let encode = |n| {
            let mut docs = campaign(n, answered);
            let (allocations, bytes) = allocations_during(|| docs.snapshot_bytes());
            assert_eq!(bytes, codec::to_bytes(&docs.snapshot()));
            allocations
        };
        assert_eq!(encode(40), 2 + 2 * tables, "40 tasks, answered: {answered}");
        assert_eq!(
            encode(400),
            2 + 2 * tables,
            "400 tasks, answered: {answered}"
        );
    }
}

/// Decoding allocates what the snapshot it returns owns (counted by
/// cloning it) and nothing beyond that: no tree, no key strings, no
/// regrown buffers.
#[test]
fn decoding_allocates_no_more_than_the_snapshot_it_returns() {
    for n in [40, 400] {
        let mut docs = campaign(n, true);
        let bytes = docs.snapshot_bytes();
        let (decoded, snapshot) =
            allocations_during(|| codec::from_bytes::<CampaignSnapshot>(&bytes).unwrap());
        let (owned, _) = allocations_during(|| snapshot.clone());
        assert!(
            decoded <= owned,
            "{decoded} allocations to decode, {owned} to clone ({n} tasks)"
        );
    }
}
