//! Push/hybrid dispatch-plane tests: pick equivalence against pull,
//! subscription parking and displacement, worker-timeout re-enqueue, and
//! budget-exhaustion drain.
//!
//! The headline property: under any serialized schedule of worker
//! arrivals, **Push and Hybrid dispatch yield byte-identical task picks
//! to Pull** — a pushed assignment is computed by the exact same
//! `Docs::request_tasks` call a poll would have made, so the dispatch
//! plane changes *when* picks arrive, never *what* they are. The proptest
//! runs the same schedule across shards {1,4} × task_shards {1,4}.

use docs_service::{
    Client, DispatchConfig, DispatchMode, DocsService, Op, RejectReason, ServiceConfig,
    ServiceError, ServiceHandle, TicketWait,
};
use docs_system::{Docs, DocsConfig, WorkRequest};
use docs_types::{Answer, CampaignId, Task, TaskBuilder, TaskId, WorkerId};
use proptest::prelude::*;
use std::time::Duration;

fn publish(n_tasks: usize, answers_per_task: usize, task_shards: usize) -> Docs {
    let kb = docs_kb::table2_example_kb();
    let subjects = ["Michael Jordan", "Kobe Bryant", "NBA"];
    let tasks: Vec<Task> = (0..n_tasks)
        .map(|i| {
            TaskBuilder::new(i, format!("Is {} great? ({i})", subjects[i % 3]))
                .yes_no()
                .with_ground_truth(i % 2)
                .with_true_domain(1)
                .build()
                .unwrap()
        })
        .collect();
    Docs::publish(
        &kb,
        tasks,
        DocsConfig {
            num_golden: 3,
            k_per_hit: 4,
            answers_per_task,
            z: 25,
            task_shards,
            ..Default::default()
        },
    )
    .unwrap()
}

/// The deterministic (worker-dependent) answer rule shared with the
/// open-loop bench: identical across modes by construction.
fn answers_for(worker: WorkerId, hit: &[TaskId]) -> Vec<Answer> {
    hit.iter()
        .map(|&t| Answer::new(worker, t, (t.index() + worker.0 as usize) % 2))
        .collect()
}

/// Golden bootstrap over the pull plane (which stays on in every mode).
fn pass_golden(handle: &ServiceHandle, campaign: CampaignId, worker: WorkerId) {
    let golden = match handle
        .call(Op::request_tasks(campaign, worker))
        .expect("golden request")
    {
        WorkRequest::Golden(g) => g,
        other => panic!("fresh worker got {other:?}"),
    };
    let picks: Vec<_> = golden.iter().map(|&g| (g, g.index() % 2)).collect();
    handle
        .call(Op::submit_golden(campaign, worker, picks))
        .expect("golden submit");
}

/// Blocks until the worker's subscription is served.
fn subscribe_wait(handle: &ServiceHandle, campaign: CampaignId, worker: WorkerId) -> WorkRequest {
    handle
        .submit(Op::subscribe(campaign, worker))
        .expect("subscribe")
        .wait()
        .expect("subscription served")
}

/// One serialized arrival in mode-appropriate style: pull polls, push
/// subscribes (a worker below its in-flight cap is served immediately),
/// hybrid subscribes with the bounded-wait + unsubscribe-and-poll fallback.
fn next_work(
    handle: &ServiceHandle,
    campaign: CampaignId,
    mode: DispatchMode,
    worker: WorkerId,
) -> WorkRequest {
    match mode {
        DispatchMode::Pull => handle
            .call(Op::request_tasks(campaign, worker))
            .expect("poll"),
        DispatchMode::Push => subscribe_wait(handle, campaign, worker),
        DispatchMode::Hybrid => {
            let ticket = handle
                .submit(Op::subscribe(campaign, worker))
                .expect("subscribe");
            match ticket.wait_timeout(Duration::from_millis(100)) {
                TicketWait::Ready(work) => work.expect("subscription served"),
                TicketWait::Pending(ticket) => {
                    handle
                        .call(Op::unsubscribe(campaign, worker))
                        .expect("unsubscribe");
                    match ticket.wait().expect("settled") {
                        WorkRequest::Done => handle
                            .call(Op::request_tasks(campaign, worker))
                            .expect("fallback"),
                        work => work,
                    }
                }
            }
        }
    }
}

/// Runs one schedule of worker arrivals (each arrival = get an assignment,
/// then answer it in full) and returns the observable trace: every
/// assignment plus how many of its answers the campaign accepted.
fn run_schedule(
    mode: DispatchMode,
    shards: usize,
    task_shards: usize,
    schedule: &[usize],
) -> Vec<(WorkRequest, usize)> {
    let config = ServiceConfig::sharded(shards).with_dispatch(mode);
    let (service, handle) = DocsService::spawn_sharded(publish(8, 2, task_shards), config);
    let campaign = handle.default_campaign();
    let mut trace = Vec::new();
    for &w in schedule {
        let worker = WorkerId(w as u32);
        let work = next_work(&handle, campaign, mode, worker);
        let accepted = match &work {
            WorkRequest::Golden(golden) => {
                let picks: Vec<_> = golden.iter().map(|&g| (g, g.index() % 2)).collect();
                handle
                    .call(Op::submit_golden(campaign, worker, picks))
                    .expect("golden submit");
                0
            }
            WorkRequest::Tasks(hit) => {
                handle
                    .call(Op::submit_answer_batch(campaign, answers_for(worker, hit)))
                    .expect("batch submit")
                    .accepted
            }
            WorkRequest::Done => 0,
        };
        trace.push((work, accepted));
    }
    drop(handle);
    let _ = service.join_all();
    trace
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Push and Hybrid dispatch return byte-identical picks (and identical
    /// acceptance counts) to Pull for every schedule, across the full
    /// shards × task_shards matrix — the push plane moves assignments
    /// earlier, it never moves them *around*.
    #[test]
    fn push_and_hybrid_picks_are_byte_identical_to_pull(
        schedule in prop::collection::vec(0usize..3, 1..40)
    ) {
        for (shards, task_shards) in [(1, 1), (1, 4), (4, 1), (4, 4)] {
            let pull = run_schedule(DispatchMode::Pull, shards, task_shards, &schedule);
            let push = run_schedule(DispatchMode::Push, shards, task_shards, &schedule);
            let hybrid = run_schedule(DispatchMode::Hybrid, shards, task_shards, &schedule);
            prop_assert_eq!(
                &pull, &push,
                "push diverged from pull (shards {}, task_shards {})", shards, task_shards
            );
            prop_assert_eq!(
                &pull, &hybrid,
                "hybrid diverged from pull (shards {}, task_shards {})", shards, task_shards
            );
        }
    }
}

/// A worker that takes a pushed HIT and goes silent loses its in-flight
/// slot after `worker_timeout`: the expiry re-enqueues the *worker* (its
/// parked subscription is served again), and — because pushed tasks are
/// never reserved — the campaign still collects its exact flat budget.
#[test]
fn worker_timeout_re_enqueues_the_worker_without_budget_leak() {
    let timeout = Duration::from_millis(80);
    let config = ServiceConfig::sharded(1).with_dispatch_config(DispatchConfig {
        mode: DispatchMode::Push,
        max_in_flight_per_worker: 1,
        worker_timeout: timeout,
    });
    // Flat cap 2 × 6 = 12 — exactly what two workers answering every task
    // once can supply, so a leaked (reserved-but-lost) task shows up as a
    // shortfall in the final count.
    let (service, handle) = DocsService::spawn_sharded(publish(6, 2, 1), config);
    let campaign = handle.default_campaign();
    let (a, b) = (WorkerId(0), WorkerId(1));
    pass_golden(&handle, campaign, a);
    pass_golden(&handle, campaign, b);

    // A takes a pushed HIT and goes silent; its standing subscription
    // parks at the in-flight cap.
    let hit_a1 = match subscribe_wait(&handle, campaign, a) {
        WorkRequest::Tasks(hit) => hit,
        other => panic!("worker A got {other:?}"),
    };
    assert!(!hit_a1.is_empty());
    let standing = handle
        .submit(Op::subscribe(campaign, a))
        .expect("standing subscribe");
    let standing = match standing.wait_timeout(Duration::from_millis(50)) {
        TicketWait::Pending(ticket) => ticket,
        TicketWait::Ready(work) => panic!("subscription served at the in-flight cap: {work:?}"),
    };
    handle.call(Op::status(campaign)).expect("status barrier");
    assert_eq!(handle.metrics().shard(0).subscriptions, 1);

    // Past the timeout, the next request's dispatch pass expires A's lease
    // and serves the parked subscription — B's own subscribe is enough to
    // trigger it.
    std::thread::sleep(timeout + Duration::from_millis(20));
    let hit_b = match subscribe_wait(&handle, campaign, b) {
        WorkRequest::Tasks(hit) => hit,
        other => panic!("worker B got {other:?}"),
    };
    let hit_a2 = match standing.wait_timeout(Duration::from_secs(5)) {
        TicketWait::Ready(work) => match work.expect("re-dispatch") {
            WorkRequest::Tasks(hit) => hit,
            other => panic!("re-enqueued worker A got {other:?}"),
        },
        TicketWait::Pending(_) => panic!("timed-out worker was never re-dispatched"),
    };
    assert!(
        handle.metrics().shard(0).dispatch_timeouts >= 1,
        "the expired lease was not counted"
    );
    assert_eq!(handle.metrics().shard(0).subscriptions, 0);

    // Both workers drain to `Done`; straddling batches truncate at the cap
    // instead of overshooting.
    for (worker, first) in [(b, hit_b), (a, hit_a2)] {
        let mut hit = first;
        for _ in 0..32 {
            handle
                .call(Op::submit_answer_batch(campaign, answers_for(worker, &hit)))
                .expect("batch submit");
            match subscribe_wait(&handle, campaign, worker) {
                WorkRequest::Tasks(next) => hit = next,
                WorkRequest::Done => break,
                other => panic!("draining worker got {other:?}"),
            }
        }
    }

    let status = handle.call(Op::status(campaign)).expect("status");
    assert!(status.budget_exhausted, "the campaign never finished");
    assert_eq!(
        status.answers_collected, 12,
        "a pushed task leaked budget: {} of 12 answers collected",
        status.answers_collected
    );
    drop(handle);
    let _ = service.join_all();
}

/// A subscription from a worker at its in-flight cap parks (visible in the
/// per-shard gauge) and is served by the dispatch pass of the worker's own
/// accepted submission — with a fresh pick that excludes what it answered.
#[test]
fn at_cap_subscription_parks_until_the_workers_own_submit() {
    let config = ServiceConfig::sharded(1).with_dispatch(DispatchMode::Push);
    // Unbounded budget: nothing else can open the cap.
    let (service, handle) = DocsService::spawn_sharded(publish(8, 0, 1), config);
    let campaign = handle.default_campaign();
    let w = WorkerId(7);
    pass_golden(&handle, campaign, w);

    let hit1 = match subscribe_wait(&handle, campaign, w) {
        WorkRequest::Tasks(hit) => hit,
        other => panic!("worker got {other:?}"),
    };
    let parked = handle
        .submit(Op::subscribe(campaign, w))
        .expect("subscribe");
    let parked = match parked.wait_timeout(Duration::from_millis(50)) {
        TicketWait::Pending(ticket) => ticket,
        TicketWait::Ready(work) => panic!("subscription served at the in-flight cap: {work:?}"),
    };
    handle.call(Op::status(campaign)).expect("status barrier");
    assert_eq!(handle.metrics().shard(0).subscriptions, 1);

    let outcome = handle
        .call(Op::submit_answer_batch(campaign, answers_for(w, &hit1)))
        .expect("batch submit");
    assert_eq!(outcome.accepted, hit1.len());
    let hit2 = match parked.wait().expect("served by own submit") {
        WorkRequest::Tasks(hit) => hit,
        other => panic!("parked subscription got {other:?}"),
    };
    assert!(!hit2.is_empty());
    assert!(
        hit2.iter().all(|t| !hit1.contains(t)),
        "a pushed pick repeated an answered task: {hit1:?} then {hit2:?}"
    );
    assert_eq!(handle.metrics().shard(0).subscriptions, 0);
    assert!(handle.metrics().shard(0).dispatched_tasks >= (hit1.len() + hit2.len()) as u64);
    drop(handle);
    let _ = service.join_all();
}

/// Parked subscriptions never dangle: a newer subscription displaces the
/// older one (newest wins, the stale ticket settles `Done`), and an
/// explicit unsubscribe settles the remaining one the same way.
#[test]
fn displacement_and_unsubscribe_settle_parked_subscriptions_with_done() {
    let config = ServiceConfig::sharded(1).with_dispatch(DispatchMode::Push);
    let (service, handle) = DocsService::spawn_sharded(publish(8, 0, 1), config);
    let campaign = handle.default_campaign();
    let w = WorkerId(0);
    pass_golden(&handle, campaign, w);
    match subscribe_wait(&handle, campaign, w) {
        WorkRequest::Tasks(_) => {}
        other => panic!("worker got {other:?}"),
    }

    let first = handle
        .submit(Op::subscribe(campaign, w))
        .expect("first parked subscribe");
    let second = handle
        .submit(Op::subscribe(campaign, w))
        .expect("second parked subscribe");
    // Newest wins: the displaced ticket settles immediately with `Done`.
    assert_eq!(first.wait().expect("displaced"), WorkRequest::Done);
    // The displaced ticket settles *mid*-Subscribe; a status round-trip
    // (per-shard FIFO) waits out the rest before reading the gauge.
    handle.call(Op::status(campaign)).expect("status barrier");
    assert_eq!(handle.metrics().shard(0).subscriptions, 1);

    handle
        .call(Op::unsubscribe(campaign, w))
        .expect("unsubscribe");
    assert_eq!(second.wait().expect("unsubscribed"), WorkRequest::Done);
    assert_eq!(handle.metrics().shard(0).subscriptions, 0);
    drop(handle);
    let _ = service.join_all();
}

/// A pull-mode service refuses subscriptions with a matchable rejection —
/// the push plane is opt-in, not ambient.
#[test]
fn pull_mode_refuses_subscriptions() {
    let (service, handle) = DocsService::spawn_sharded(publish(8, 2, 1), ServiceConfig::sharded(1));
    let campaign = handle.default_campaign();
    let err = handle
        .submit(Op::subscribe(campaign, WorkerId(0)))
        .expect("enqueue")
        .wait()
        .expect_err("pull mode must refuse subscriptions");
    match err {
        ServiceError::Rejected(RejectReason::Invalid(_)) => {}
        other => panic!("expected Rejected(Invalid), got {other:?}"),
    }
    drop(handle);
    let _ = service.join_all();
}

/// When the budget runs out there may never be another state change, so
/// the exhausting submission's dispatch pass drains every parked
/// subscription with a final `Done` — no ticket waits forever.
#[test]
fn budget_exhaustion_drains_parked_subscriptions() {
    let config = ServiceConfig::sharded(1).with_dispatch(DispatchMode::Push);
    // Flat cap 1 × 4 = 4: one full HIT from B exhausts it.
    let (service, handle) = DocsService::spawn_sharded(publish(4, 1, 1), config);
    let campaign = handle.default_campaign();
    let (a, b) = (WorkerId(0), WorkerId(1));
    pass_golden(&handle, campaign, a);
    pass_golden(&handle, campaign, b);

    // A holds a pushed HIT and parks its standing subscription.
    match subscribe_wait(&handle, campaign, a) {
        WorkRequest::Tasks(_) => {}
        other => panic!("worker A got {other:?}"),
    }
    let standing = handle
        .submit(Op::subscribe(campaign, a))
        .expect("standing subscribe");

    // B polls (the pull plane stays on) and submits the whole budget.
    let hit_b = match handle.call(Op::request_tasks(campaign, b)).expect("poll") {
        WorkRequest::Tasks(hit) => hit,
        other => panic!("worker B got {other:?}"),
    };
    assert_eq!(hit_b.len(), 4, "B should see every task");
    handle
        .call(Op::submit_answer_batch(campaign, answers_for(b, &hit_b)))
        .expect("batch submit");

    assert_eq!(standing.wait().expect("drained"), WorkRequest::Done);
    assert_eq!(handle.metrics().shard(0).subscriptions, 0);
    let status = handle.call(Op::status(campaign)).expect("status");
    assert!(status.budget_exhausted);
    drop(handle);
    let _ = service.join_all();
}
