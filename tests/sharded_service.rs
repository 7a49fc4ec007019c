//! Integration tests for the sharded multi-campaign service runtime:
//! many client threads hammering several campaigns at once, with the
//! acceptance bar that sharding changes *throughput*, never *answers*:
//! no submission is lost, and final truths are byte-identical to the
//! single-shard (seed-architecture) path.

use docs_crowd::{AnswerModel, PopulationConfig, WorkerPopulation};
use docs_service::{
    drive_workers_on, Client, DocsService, DriveReport, Op, ServiceConfig, ServiceHandle,
};
use docs_system::{Docs, DocsConfig};
use docs_types::{CampaignId, Task, TaskBuilder};
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

/// Drives one campaign and returns its drive report plus final truths.
fn drive_campaign(
    handle: &ServiceHandle,
    campaign: CampaignId,
    tasks: Arc<Vec<Task>>,
    threads: usize,
    seed: u64,
) -> (DriveReport, Vec<usize>, usize) {
    let pop = population(10, seed);
    let report = drive_workers_on(
        handle,
        campaign,
        tasks,
        &pop,
        AnswerModel::DomainUniform,
        threads,
        seed,
    )
    .unwrap();
    let final_report = handle.call(Op::finish(campaign)).unwrap();
    (report, final_report.truths, final_report.answers_collected)
}

/// ≥8 client threads, 2 campaigns, multi-shard pool: every accepted
/// submission must be accounted for in the campaign's final report (no lost
/// answers), and both campaigns must consume their full budget.
#[test]
fn concurrent_multi_campaign_drive_loses_no_answers() {
    let (service, handle) =
        DocsService::spawn_sharded(publish(18, 4, 1), ServiceConfig::sharded(3));
    let c1 = handle.default_campaign();
    let c2 = handle.create_campaign(publish(24, 3, 1)).unwrap();
    let tasks1 = Arc::new(published_tasks(18));
    let tasks2 = Arc::new(published_tasks(24));

    // 4 client threads per campaign = 8 concurrent clients.
    let h1 = handle.clone();
    let t1 = {
        let tasks1 = Arc::clone(&tasks1);
        std::thread::spawn(move || drive_campaign(&h1, c1, tasks1, 4, 0xA1))
    };
    let h2 = handle.clone();
    let t2 = {
        let tasks2 = Arc::clone(&tasks2);
        std::thread::spawn(move || drive_campaign(&h2, c2, tasks2, 4, 0xB2))
    };
    let (report1, truths1, collected1) = t1.join().unwrap();
    let (report2, truths2, collected2) = t2.join().unwrap();

    // No lost answers: everything the clients saw accepted is in the final
    // report (golden answers are accounted separately by the system).
    assert_eq!(
        report1.total_answers(),
        collected1,
        "campaign 1 lost answers"
    );
    assert_eq!(
        report2.total_answers(),
        collected2,
        "campaign 2 lost answers"
    );
    // Both campaigns consumed their full budget despite sharing the pool.
    assert!(collected1 >= 18 * 4, "campaign 1 budget: {collected1}");
    assert!(collected2 >= 24 * 3, "campaign 2 budget: {collected2}");
    assert_eq!(truths1.len(), 18);
    assert_eq!(truths2.len(), 24);

    // The pool processed every request and drained its queues.
    let shards = handle.metrics().all_shards();
    let processed: u64 = shards.iter().map(|s| s.processed).sum();
    assert_eq!(processed, handle.metrics().total_ops());
    assert!(shards.iter().all(|s| s.queued == 0), "queues drained");

    drop(handle);
    let campaigns = service.join_all();
    assert_eq!(campaigns.len(), 2);
    for (_, docs) in &campaigns {
        assert!(docs.budget_exhausted());
    }
}

/// The shards=1 equivalence bar: 8 campaigns driven concurrently on a
/// 4-shard pool (one deterministic client thread each, 8 client threads
/// total) produce byte-identical truths and truth distributions to the same
/// campaigns driven one-by-one on the seed's single-shard runtime.
#[test]
fn sharded_truths_equal_single_shard_truths() {
    let campaign_specs: Vec<(usize, u64)> = (0..8).map(|i| (12 + 3 * i, 0xC0 + i as u64)).collect();

    // Reference: single-shard service and single-task-shard scan, campaigns
    // run sequentially (the seed architecture).
    let mut reference = Vec::new();
    for &(n_tasks, seed) in &campaign_specs {
        let (service, handle) = DocsService::spawn(publish(n_tasks, 3, 1));
        let campaign = handle.default_campaign();
        let tasks = Arc::new(published_tasks(n_tasks));
        let pop = population(10, seed);
        drive_workers_on(
            &handle,
            campaign,
            tasks,
            &pop,
            AnswerModel::DomainUniform,
            1,
            seed,
        )
        .unwrap();
        let report = handle.call(Op::finish(campaign)).unwrap();
        reference.push((report.truths, report.truth_distributions));
        drop(handle);
        service.join();
    }

    // Sharded: all 8 campaigns live on a 4-shard pool with a 4-way
    // partitioned benefit scan, driven concurrently.
    let (service, handle) = DocsService::spawn_sharded(
        publish(campaign_specs[0].0, 3, 4),
        ServiceConfig::sharded(4),
    );
    let mut ids = vec![handle.default_campaign()];
    for &(n_tasks, _) in &campaign_specs[1..] {
        ids.push(handle.create_campaign(publish(n_tasks, 3, 4)).unwrap());
    }
    let drivers: Vec<_> = campaign_specs
        .iter()
        .zip(&ids)
        .map(|(&(n_tasks, seed), &campaign)| {
            let handle = handle.clone();
            let tasks = Arc::new(published_tasks(n_tasks));
            std::thread::spawn(move || {
                let pop = population(10, seed);
                drive_workers_on(
                    &handle,
                    campaign,
                    tasks,
                    &pop,
                    AnswerModel::DomainUniform,
                    1,
                    seed,
                )
                .unwrap();
                let report = handle.call(Op::finish(campaign)).unwrap();
                (report.truths, report.truth_distributions)
            })
        })
        .collect();
    let sharded: Vec<_> = drivers.into_iter().map(|t| t.join().unwrap()).collect();

    for (i, ((ref_truths, ref_dists), (truths, dists))) in
        reference.iter().zip(&sharded).enumerate()
    {
        assert_eq!(truths, ref_truths, "campaign {i}: truths diverged");
        assert_eq!(
            dists, ref_dists,
            "campaign {i}: truth distributions diverged"
        );
    }
    drop(handle);
    service.join_all();
}

/// The same deterministically driven campaign must produce
/// **byte-identical** truths and truth distributions for every
/// `service shards × task_shards` combination in {1,4} × {1,4}. One client
/// thread per campaign keeps the request stream deterministic, so any
/// divergence is the sharded scan picking different tasks.
#[test]
fn truths_are_identical_for_every_shard_combination() {
    let n_tasks = 21;
    let seed = 0xD0C5;
    let run = |service_shards: usize, task_shards: usize| {
        let (service, handle) = DocsService::spawn_sharded(
            publish(n_tasks, 3, task_shards),
            ServiceConfig::sharded(service_shards),
        );
        let campaign = handle.default_campaign();
        let tasks = Arc::new(published_tasks(n_tasks));
        let pop = population(10, seed);
        drive_workers_on(
            &handle,
            campaign,
            tasks,
            &pop,
            AnswerModel::DomainUniform,
            1,
            seed,
        )
        .unwrap();
        let report = handle.call(Op::finish(campaign)).unwrap();
        drop(handle);
        service.join();
        (report.truths, report.truth_distributions)
    };
    let reference = run(1, 1);
    for (service_shards, task_shards) in [(1usize, 4usize), (4, 1), (4, 4)] {
        let (truths, dists) = run(service_shards, task_shards);
        let label = format!("shards={service_shards} task_shards={task_shards}");
        assert_eq!(truths, reference.0, "truths diverged: {label}");
        assert_eq!(dists, reference.1, "distributions diverged: {label}");
    }
}

/// The published (DVE-filled) task list of an `n`-task campaign, so the
/// simulated workers can answer from ground truth. The service does not
/// expose tasks over the wire (the real deployment serves task
/// *descriptions* through the platform); publishing is deterministic in the
/// task list, so rebuilding yields the same tasks every campaign uses.
fn published_tasks(n: usize) -> Vec<Task> {
    publish(n, 3, 1).tasks().to_vec()
}
