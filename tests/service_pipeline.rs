//! Integration tests for the pipelined submission/completion service API:
//! the pipelined crowd driver must be **byte-identical** to the blocking
//! driver for every `service shards × task_shards` combination, typed
//! rejections must travel the wire intact, and bounded ingress queues must
//! push back without losing work.

use docs_crowd::{AnswerModel, PopulationConfig, WorkerPopulation};
use docs_service::{
    drive_workers_blocking_on, drive_workers_on, Client, DocsService, Op, RejectReason,
    ServiceConfig, ServiceError, TicketWait,
};
use docs_system::{Docs, DocsConfig, WorkRequest};
use docs_types::{Answer, Task, TaskBuilder, TaskId, WorkerId};
use std::sync::Arc;
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
        let (service, handle) = DocsService::spawn_sharded(
            publish(n_tasks, 3, task_shards),
            ServiceConfig::sharded(service_shards),
        );
        let campaign = handle.default_campaign();
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
        service.join();
        (drive, report.truths, report.truth_distributions)
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
                    (
                        drive.total_answers(),
                        drive.total_golden(),
                        drive.total_rejected()
                    ),
                    (
                        reference_drive.total_answers(),
                        reference_drive.total_golden(),
                        reference_drive.total_rejected()
                    ),
                    "drive accounting diverged: {label}"
                );
            }
        }
    }
}

/// A multi-client pipelined drive through a tiny bounded ingress queue:
/// backpressure may park submitters but must lose nothing — the final
/// report accounts for every accepted answer, and the drained pool shows
/// no stuck depth or unresolved tickets.
#[test]
fn bounded_ingress_backpressure_loses_no_answers() {
    let (service, handle) = DocsService::spawn_sharded(
        publish(18, 4, 2),
        ServiceConfig::sharded(2).with_queue_capacity(2),
    );
    let campaign = handle.default_campaign();
    let tasks = published_tasks(18);
    let pop = population(12, 0x77);
    let report = drive_workers_on(
        &handle,
        campaign,
        tasks,
        &pop,
        AnswerModel::DomainUniform,
        4,
        0x77,
    )
    .unwrap();
    let final_report = handle.call(Op::finish(campaign)).unwrap();
    assert_eq!(
        report.total_answers(),
        final_report.answers_collected,
        "backpressure lost answers"
    );
    assert!(final_report.answers_collected >= 18 * 4, "budget consumed");
    let shards = handle.metrics().all_shards();
    assert!(shards.iter().all(|s| s.queued == 0), "queues drained");
    assert!(shards.iter().all(|s| s.in_flight == 0), "tickets resolved");
    drop(handle);
    service.join();
}

/// Typed rejections over the wire: a strict-budget campaign refuses late
/// answers with `RejectReason::BudgetExhausted`, matchable at the client —
/// and the per-answer batch outcome carries the same taxonomy.
#[test]
fn strict_budget_rejection_is_matchable_at_the_client() {
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
            strict_budget: true,
            ..Default::default()
        },
    )
    .unwrap();
    let (service, handle) = DocsService::spawn(docs);
    let c = handle.default_campaign();
    for t in 0..2u32 {
        handle
            .call(Op::submit_answer(c, Answer::new(WorkerId(0), TaskId(t), 0)))
            .unwrap();
    }
    // Budget (2 × 1) consumed: the straggler is refused, with the reason.
    let err = handle
        .call(Op::submit_answer(c, Answer::new(WorkerId(1), TaskId(0), 1)))
        .unwrap_err();
    assert_eq!(err, ServiceError::Rejected(RejectReason::BudgetExhausted));
    assert_eq!(
        err.reason(),
        Some(&RejectReason::BudgetExhausted),
        "reason() exposes the taxonomy"
    );
    let outcome = handle
        .call(Op::submit_answer_batch(
            c,
            vec![Answer::new(WorkerId(1), TaskId(1), 1)],
        ))
        .unwrap();
    assert_eq!(outcome.accepted, 0);
    assert_eq!(outcome.rejected, vec![(0, RejectReason::BudgetExhausted)]);
    drop(handle);
    service.join();
}

/// The ticket API end to end against a live pool: submissions complete in
/// order, `try_take` polling eventually resolves, and `wait_timeout` hands
/// a still-pending ticket back instead of dropping the operation.
#[test]
fn tickets_resolve_against_a_live_service() {
    let (service, handle) = DocsService::spawn(publish(9, 2, 1));
    let campaign = handle.default_campaign();
    let w = WorkerId(0);
    // Pipeline the golden hand-shake: request ticket, poll it, submit the
    // golden answers as a ticket, then request again — two operations in
    // flight back to back.
    let mut ticket = handle.submit(Op::request_tasks(campaign, w)).unwrap();
    let work = loop {
        match ticket.try_take() {
            TicketWait::Ready(result) => break result.unwrap(),
            TicketWait::Pending(t) => {
                ticket = match t.wait_timeout(Duration::from_millis(5)) {
                    TicketWait::Ready(result) => break result.unwrap(),
                    TicketWait::Pending(t) => t,
                };
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
    service.join();
}
