//! Integration tests for the pipelined submission/completion service API:
//! the pipelined crowd driver must be **byte-identical** to the blocking
//! driver for every `service shards × task_shards` combination, and typed
//! rejections must travel the wire intact.

use docs_crowd::{AnswerModel, PopulationConfig, WorkerPopulation};
use docs_scenarios::{drive_workers_blocking_on, drive_workers_on, DriveReport};
use docs_service::{DocsService, Op, ServiceConfig, TicketWait};
use docs_system::{Docs, DocsConfig, WorkRequest};
use docs_types::{Answer, Task, TaskBuilder, TaskId, WorkerId};
use std::sync::Arc;

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

fn population(workers: usize, seed: u64) -> WorkerPopulation {
    WorkerPopulation::generate(&PopulationConfig {
        m: 3,
        size: workers,
        seed,
        ..Default::default()
    })
}

fn published_tasks(n: usize) -> Arc<Vec<Task>> {
    Arc::new(publish(n, 3, 1).tasks().to_vec())
}

/// The headline invariant of the pipelined driver: for every
/// `shards × task_shards` combination in {1,4} × {1,4}, a deterministically
/// driven campaign produces byte-identical `RequesterReport` truths *and*
/// probability distributions whether the client pipelines (next HIT request
/// in flight behind the previous batch ack) or blocks on every round-trip.
/// One client thread keeps the request stream deterministic, so any
/// divergence is the pipelining reordering operations — exactly what the
/// per-shard FIFO forbids.
#[test]
fn pipelined_truths_equal_blocking_truths_for_every_shard_combination() {
    let n_tasks = 21;
    let seed = 0xF1FE;
    let run = |service_shards: usize, task_shards: usize, pipelined: bool| {
        let (service, handle) =
            DocsService::spawn_empty(ServiceConfig::sharded(service_shards)).unwrap();
        let campaign = handle
            .create_campaign(publish(n_tasks, 3, task_shards))
            .unwrap();
        let tasks = published_tasks(n_tasks);
        let pop = population(10, seed);
        let drive = if pipelined {
            drive_workers_on(
                &handle,
                campaign,
                tasks,
                &pop,
                AnswerModel::DomainUniform,
                1,
                seed,
            )
        } else {
            drive_workers_blocking_on(
                &handle,
                campaign,
                tasks,
                &pop,
                AnswerModel::DomainUniform,
                1,
                seed,
            )
        }
        .unwrap();
        let report = handle.call(Op::finish(campaign)).unwrap();
        drop(handle);
        service.join_all();
        (drive, report.truths, report.truth_distributions)
    };
    // (answers, golden HITs, rejections) summed over the drive's threads.
    let totals = |d: &DriveReport| {
        d.per_thread.iter().fold((0, 0, 0), |(a, g, r), o| {
            (a + o.answers, g + o.golden_hits, r + o.rejected)
        })
    };
    let (reference_drive, reference_truths, reference_dists) = run(1, 1, false);
    for service_shards in [1usize, 4] {
        for task_shards in [1usize, 4] {
            for pipelined in [false, true] {
                let (drive, truths, dists) = run(service_shards, task_shards, pipelined);
                let label = format!(
                    "shards={service_shards} task_shards={task_shards} pipelined={pipelined}"
                );
                assert_eq!(truths, reference_truths, "truths diverged: {label}");
                assert_eq!(dists, reference_dists, "distributions diverged: {label}");
                assert_eq!(
                    totals(&drive),
                    totals(&reference_drive),
                    "drive accounting diverged: {label}"
                );
            }
        }
    }
}

/// Answers that arrive after the budget is consumed are absorbed end to
/// end, as in the paper's deployment: a one-answer batch and a larger one
/// through the service both land.
#[test]
fn late_answers_are_absorbed_at_the_client() {
    let kb = docs_kb::table2_example_kb();
    let tasks: Vec<Task> = (0..2)
        .map(|i| {
            TaskBuilder::new(i, format!("Is Kobe Bryant great? ({i})"))
                .yes_no()
                .with_ground_truth(i % 2)
                .with_true_domain(1)
                .build()
                .unwrap()
        })
        .collect();
    let docs = Docs::publish(
        &kb,
        tasks,
        DocsConfig {
            num_golden: 0,
            k_per_hit: 2,
            answers_per_task: 1,
            z: 10,
            ..Default::default()
        },
    )
    .unwrap();
    let (service, handle) = DocsService::spawn_empty(ServiceConfig::default()).unwrap();
    let c = handle.create_campaign(docs).unwrap();
    let hit = (0..2u32)
        .map(|t| Answer::new(WorkerId(0), TaskId(t), 0))
        .collect();
    let outcome = handle.call(Op::submit_answer_batch(c, hit)).unwrap();
    assert_eq!((outcome.accepted, outcome.rejected), (2, vec![]));
    // Budget (2 × 1) consumed: the stragglers still land.
    assert!(handle.call(Op::status(c)).unwrap().budget_exhausted);
    let outcome = handle
        .call(Op::submit_answer_batch(
            c,
            vec![Answer::new(WorkerId(1), TaskId(0), 1)],
        ))
        .unwrap();
    assert_eq!((outcome.accepted, outcome.rejected), (1, vec![]));
    let outcome = handle
        .call(Op::submit_answer_batch(
            c,
            vec![Answer::new(WorkerId(1), TaskId(1), 1)],
        ))
        .unwrap();
    assert_eq!((outcome.accepted, outcome.rejected), (1, vec![]));
    assert_eq!(handle.call(Op::status(c)).unwrap().answers_collected, 4);
    drop(handle);
    service.join_all();
}

/// The ticket API end to end against a live pool: submissions complete in
/// order, and `try_take` polling hands a still-pending ticket back until it
/// resolves.
#[test]
fn tickets_resolve_against_a_live_service() {
    let (service, handle) = DocsService::spawn_empty(ServiceConfig::default()).unwrap();
    let campaign = handle.create_campaign(publish(9, 2, 1)).unwrap();
    let w = WorkerId(0);
    // Pipeline the golden hand-shake: request ticket, poll it, submit the
    // golden answers as a ticket, then request again — two operations in
    // flight back to back.
    let mut ticket = handle.submit(Op::request_tasks(campaign, w)).unwrap();
    let work = loop {
        match ticket.try_take() {
            TicketWait::Ready(result) => break result.unwrap(),
            TicketWait::Pending(t) => {
                ticket = t;
                std::thread::yield_now();
            }
        }
    };
    let golden = match work {
        WorkRequest::Golden(g) => g,
        other => panic!("expected golden HIT, got {other:?}"),
    };
    let answers: Vec<_> = golden.iter().map(|&g| (g, g.index() % 2)).collect();
    let golden_ack = handle
        .submit(Op::submit_golden(campaign, w, answers))
        .unwrap();
    let next = handle.submit(Op::request_tasks(campaign, w)).unwrap();
    // FIFO: by the time the later request completed, the golden ack landed.
    let hit = match next.wait().unwrap() {
        WorkRequest::Tasks(t) => t,
        other => panic!("expected tasks after golden, got {other:?}"),
    };
    assert!(!hit.is_empty());
    match golden_ack.try_take() {
        TicketWait::Ready(result) => result.unwrap(),
        TicketWait::Pending(_) => panic!("golden ack must precede the later completion"),
    }
    assert_eq!(handle.metrics().shard(0).in_flight, 0);
    drop(handle);
    service.join_all();
}
