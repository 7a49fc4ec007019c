//! What one worker's steady-state round trip costs the allocator, pinned
//! exactly: a known worker's `request_tasks` and the `submit_answer_batch`
//! of the HIT it got, on a warmed in-memory pool for one task shard and
//! for four, and on a warmed durable pool (`EveryEvent` under adaptive
//! group commit). The count covers every thread of the process — the
//! client's completion slots, and everything the shard thread does for the
//! two requests (OTA scan, batch validation, WAL append and group commit,
//! apply). Run with `--release` as well: the claim is about optimised code.
//!
//! The file holds one test on purpose: the counter is process-wide, so no
//! neighbouring test may allocate while a round trip is measured.

use docs_service::{DocsService, Op, ServiceConfig};
use docs_storage::FlushPolicy;
use docs_system::{Docs, DocsConfig, WorkRequest};
use docs_types::{Answer, CampaignId, TaskBuilder, TaskId, WorkerId};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts every thread's allocations: the pool's shard threads serve the
/// requests, so a per-thread count would miss the work being pinned.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a static atomic, so bumping it
// never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` above with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `alloc` and `dealloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations made by any thread while `work` runs. `work` ends with a
/// completion taken, and the shard allocates nothing after filling it.
fn allocations_during<T>(work: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let out = work();
    (ALLOCATIONS.load(Ordering::SeqCst) - before, out)
}

const TASKS: usize = 40;
const K: usize = 4;
/// Workers that answer every task before the measured worker arrives.
const CROWD: u32 = 3;
const WORKER: WorkerId = WorkerId(100);

fn campaign(task_shards: usize, durable_flush: Option<FlushPolicy>) -> Docs {
    let tasks = (0..TASKS)
        .map(|i| {
            TaskBuilder::new(i, format!("task {i}"))
                .yes_no()
                .with_ground_truth(i % 2)
                .with_true_domain(i % 3)
                .build()
                .unwrap()
        })
        .collect();
    let config = DocsConfig {
        num_golden: 4,
        k_per_hit: K,
        // No periodic full inference inside the measured round trip.
        z: 0,
        task_shards,
        durable_flush,
        ..Default::default()
    };
    Docs::publish(&docs_kb::table2_example_kb(), tasks, config).unwrap()
}

fn hit(reply: WorkRequest) -> Vec<TaskId> {
    match reply {
        WorkRequest::Tasks(tasks) => tasks,
        other => panic!("expected a HIT, got {other:?}"),
    }
}

/// `(request_tasks, submit_answer_batch)` allocations of the measured
/// worker's fourth HIT, on a pool spawned with `config` serving one
/// campaign logged under `durable_flush`.
fn round_trip(
    config: ServiceConfig,
    task_shards: usize,
    durable_flush: Option<FlushPolicy>,
) -> (u64, u64) {
    let (service, handle) = DocsService::spawn_empty(config).unwrap();
    let c: CampaignId = handle
        .create_campaign(campaign(task_shards, durable_flush))
        .unwrap();
    // The crowd puts three answers on every task, so every task's answer
    // list already holds its first (four-slot) buffer.
    for w in 0..CROWD {
        let answers = (0..TASKS)
            .map(|t| Answer::new(WorkerId(w), TaskId::from(t), t % 2))
            .collect();
        let outcome = handle.call(Op::submit_answer_batch(c, answers)).unwrap();
        assert_eq!(outcome.accepted, TASKS);
    }
    let golden = match handle.call(Op::request_tasks(c, WORKER)).unwrap() {
        WorkRequest::Golden(golden) => golden,
        other => panic!("expected the golden HIT, got {other:?}"),
    };
    let graded = golden.iter().map(|&g| (g, g.index() % 2)).collect();
    handle.call(Op::submit_golden(c, WORKER, graded)).unwrap();
    let answers_to = |tasks: &[TaskId]| -> Vec<Answer> {
        tasks
            .iter()
            .map(|&t| Answer::new(WORKER, t, t.index() % 2))
            .collect()
    };
    // Three warm-up HITs fill every reused buffer. They leave the worker
    // with 12 logged answers, so the fourth HIT's answers fit the
    // worker's answer list (capacity 16) and no log vector grows inside
    // the measured round trip.
    for _ in 0..3 {
        let tasks = hit(handle.call(Op::request_tasks(c, WORKER)).unwrap());
        let outcome = handle
            .call(Op::submit_answer_batch(c, answers_to(&tasks)))
            .unwrap();
        assert_eq!(outcome.accepted, K);
    }
    let (request, reply) = allocations_during(|| handle.call(Op::request_tasks(c, WORKER)));
    let tasks = hit(reply.unwrap());
    assert_eq!(tasks.len(), K);
    let answers = answers_to(&tasks);
    let (submit, outcome) = allocations_during(|| handle.call(Op::submit_answer_batch(c, answers)));
    assert_eq!(outcome.unwrap().accepted, K);
    drop(handle);
    service.join_all();
    (request, submit)
}

/// A request is one completion slot plus the HIT it returns; the batch
/// submission is its completion slot alone — the answers travel as the
/// request's own vector, filtered in place and applied as the event. A
/// durable pool costs the same: the batch is validated in the campaign's
/// reused set and encoded once, straight into the group-commit buffer.
#[test]
fn a_steady_state_round_trip_allocates_one_slot_per_ticket_plus_the_hit() {
    let dir = std::env::temp_dir().join(format!("docs-request-alloc-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let counts = [
        round_trip(ServiceConfig::default(), 1, None),
        round_trip(ServiceConfig::default(), 4, None),
        round_trip(
            ServiceConfig::durable(1, &dir),
            1,
            Some(FlushPolicy::EveryEvent),
        ),
    ];
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(
        counts,
        [(2, 1); 3],
        "(request_tasks, submit_answer_batch) allocations at task_shards = 1 and 4, \
         then on a durable pool"
    );
}
