//! The follower's apply path costs by the frame, not by the event: a
//! counting allocator around `decode_frame` (borrowed, so a frame of eight
//! events allocates exactly what a frame of one does) and the follower's
//! own request counters around a live eight-event frame (one replicated
//! request for the whole frame). Run with `--release` as well: the claim
//! is about optimised code.

use docs_replication::{decode_frame, encode_frame, Replica, ReplicationHub};
use docs_service::{Counter, OpKind, ServiceConfig};
use docs_system::{Docs, DocsConfig};
use docs_types::{
    codec, CampaignEvent, CampaignId, EventFrame, ReplicationFrame, SnapshotFrame, TaskBuilder,
    WorkerId,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::mpsc::channel;
use std::time::{Duration, Instant};

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

const CAMPAIGN: CampaignId = CampaignId(0);

fn campaign() -> Docs {
    let tasks = (0..6)
        .map(|i| {
            TaskBuilder::new(i, format!("task {i}"))
                .yes_no()
                .with_ground_truth(i % 2)
                .with_true_domain(1)
                .build()
                .unwrap()
        })
        .collect();
    let config = DocsConfig {
        num_golden: 2,
        ..Default::default()
    };
    Docs::publish(&docs_kb::table2_example_kb(), tasks, config).unwrap()
}

/// Sequences `1..=n` of the campaign: one new worker's golden HIT each.
fn events(docs: &Docs, n: u64) -> ReplicationFrame {
    let answers: Vec<_> = docs.golden_ids().iter().map(|&g| (g, 0)).collect();
    ReplicationFrame::Events(
        (1..=n)
            .map(|seq| EventFrame {
                campaign: CAMPAIGN,
                seq,
                payload: codec::encode_event(&CampaignEvent::golden(
                    WorkerId(seq as u32),
                    answers.clone(),
                )),
            })
            .collect(),
    )
}

#[test]
fn decoding_a_frame_allocates_the_same_for_one_event_and_for_eight() {
    let docs = campaign();
    let counts: Vec<u64> = [1, 8]
        .into_iter()
        .map(|n| {
            let frame = events(&docs, n);
            let record = encode_frame(&frame);
            let (allocations, decoded) = allocations_during(|| decode_frame(&record).unwrap());
            assert_eq!(decoded, frame);
            allocations
        })
        .collect();
    assert_eq!(counts[0], counts[1], "allocations for 1 and 8 events");
}

#[test]
fn an_eight_event_frame_is_one_replicated_request_on_a_one_shard_follower() {
    let mut docs = campaign();
    let (feed, stream) = channel();
    let hub = ReplicationHub::spawn(stream);
    let snapshot = ReplicationFrame::Snapshot(SnapshotFrame {
        campaign: CAMPAIGN,
        seq: 0,
        payload: docs.snapshot_bytes(),
    });
    let replica = Replica::spawn(
        ServiceConfig::follower(1),
        hub.subscribe("follower"),
        vec![snapshot],
    )
    .unwrap();
    let await_watermarks = |want: Vec<(CampaignId, u64)>| {
        let deadline = Instant::now() + Duration::from_secs(10);
        while replica.watermarks() != want {
            assert_eq!(replica.error(), None);
            assert!(
                Instant::now() < deadline,
                "stuck at {:?}",
                replica.watermarks()
            );
            std::thread::sleep(Duration::from_millis(1));
        }
    };
    await_watermarks(vec![(CAMPAIGN, 0)]);
    let metrics = replica.handle().metrics().clone();
    let requests = metrics.stats(OpKind::Replicate).count;
    let applied = metrics.counter(Counter::EventsApplied);

    feed.send(events(&docs, 8)).unwrap();
    await_watermarks(vec![(CAMPAIGN, 8)]);
    assert_eq!(metrics.stats(OpKind::Replicate).count, requests + 1);
    assert_eq!(metrics.counter(Counter::EventsApplied), applied + 8);

    drop(feed);
    hub.join();
    let (service, handle) = replica.detach();
    drop(handle);
    service.join_all();
}
