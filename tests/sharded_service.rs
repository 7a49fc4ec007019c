//! Integration tests for the sharded multi-campaign service runtime:
//! many client threads hammering several campaigns at once, with the
//! acceptance bar that sharding changes *throughput*, never *answers*:
//! no submission is lost, and final truths are byte-identical to the
//! single-shard (seed-architecture) path.

use docs_crowd::{AnswerModel, PopulationConfig, WorkerPopulation};
use docs_scenarios::{drive_workers_on, DriveReport};
use docs_service::{Client, DocsService, Op, ServiceConfig, ServiceHandle};
use docs_system::{Docs, DocsConfig, WorkRequest};
use docs_types::{CampaignId, Task, TaskBuilder, WorkerId};
use std::collections::BTreeSet;
use std::sync::Arc;

fn publish(n_tasks: usize, answers_per_task: usize, task_shards: usize) -> Docs {
    publish_with(
        n_tasks,
        DocsConfig {
            num_golden: 3,
            k_per_hit: 4,
            answers_per_task,
            z: 25,
            task_shards,
            ..Default::default()
        },
    )
}

fn publish_with(n_tasks: usize, config: DocsConfig) -> Docs {
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
    Docs::publish(&kb, tasks, config).unwrap()
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
    let (service, handle) = DocsService::spawn_empty(ServiceConfig::sharded(3)).unwrap();
    let c1 = handle.create_campaign(publish(18, 4, 1)).unwrap();
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
        let (service, handle) = DocsService::spawn_empty(ServiceConfig::default()).unwrap();
        let campaign = handle.create_campaign(publish(n_tasks, 3, 1)).unwrap();
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
        service.join_all();
    }

    // Sharded: all 8 campaigns live on a 4-shard pool with a 4-way
    // partitioned benefit scan, driven concurrently.
    let (service, handle) = DocsService::spawn_empty(ServiceConfig::sharded(4)).unwrap();
    let ids: Vec<CampaignId> = campaign_specs
        .iter()
        .map(|&(n_tasks, _)| handle.create_campaign(publish(n_tasks, 3, 4)).unwrap())
        .collect();
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
        let (service, handle) =
            DocsService::spawn_empty(ServiceConfig::sharded(service_shards)).unwrap();
        let campaign = handle
            .create_campaign(publish(n_tasks, 3, task_shards))
            .unwrap();
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
        service.join_all();
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

/// Two campaigns that share one parameter database are driven at the same
/// time on a 2-shard pool, so their workers' statistics are written from
/// two shard threads. Once both finish, every worker who answered in either
/// campaign is on file, and a third requester skips the golden HIT for all
/// of them.
#[test]
fn campaigns_sharing_a_storage_dir_keep_every_workers_statistics() {
    let dir = std::env::temp_dir().join(format!("docs-sharded-params-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let publish_shared = |n_tasks| {
        publish_with(
            n_tasks,
            DocsConfig {
                num_golden: 3,
                k_per_hit: 4,
                answers_per_task: 3,
                z: 25,
                storage_dir: Some(dir.clone()),
                ..Default::default()
            },
        )
    };
    let (service, handle) = DocsService::spawn_empty(ServiceConfig::sharded(2)).unwrap();
    let a = handle.create_campaign(publish_shared(18)).unwrap();
    let b = handle.create_campaign(publish_shared(24)).unwrap();
    // Campaign B's crowd is larger: it has workers A never sees.
    let drivers: Vec<_> = [(a, 18, 6, 0xA1), (b, 24, 14, 0xB2)]
        .into_iter()
        .map(|(campaign, n_tasks, workers, seed)| {
            let handle = handle.clone();
            std::thread::spawn(move || {
                let tasks = Arc::new(published_tasks(n_tasks));
                let pop = population(workers, seed);
                drive_workers_on(
                    &handle,
                    campaign,
                    tasks,
                    &pop,
                    AnswerModel::DomainUniform,
                    2,
                    seed,
                )
                .unwrap()
            })
        })
        .collect();
    for driver in drivers {
        driver.join().unwrap();
    }
    // B finishes first: with a store handle per campaign, A's later
    // compaction rewrote the directory from A's index alone.
    handle.call(Op::finish(b)).unwrap();
    handle.call(Op::finish(a)).unwrap();
    drop(handle);
    let seen: Vec<BTreeSet<WorkerId>> = service
        .join_all()
        .into_iter()
        .map(|(_, docs)| docs.snapshot().seen_workers.into_iter().collect())
        .collect();
    assert!(
        !seen[1].is_subset(&seen[0]) && !seen[0].is_empty(),
        "precondition: B saw workers A did not ({seen:?})"
    );
    let answered: BTreeSet<WorkerId> = seen.into_iter().flatten().collect();

    let stored: BTreeSet<WorkerId> = docs_storage::ParamStore::open(&dir)
        .unwrap()
        .worker_ids()
        .into_iter()
        .collect();
    let missing: Vec<_> = answered.difference(&stored).collect();
    assert!(
        missing.is_empty(),
        "workers missing from the store: {missing:?}"
    );
    let mut third = publish_shared(12);
    for &w in &answered {
        match third.request_tasks(w) {
            WorkRequest::Tasks(_) => {}
            other => panic!("returning worker {w} should skip golden, got {other:?}"),
        }
    }
    drop(third);
    let _ = std::fs::remove_dir_all(&dir);
}
