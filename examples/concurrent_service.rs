//! The deployed-system view: DOCS behind the sharded multi-campaign
//! service runtime.
//!
//! ```text
//! cargo run --release --example concurrent_service
//! ```
//!
//! The paper's DOCS is a Django web service on AMT: many workers hit it in
//! parallel, some submitting answers, others requesting HITs, and "online
//! task assignment is required to achieve instant assignment". The seed
//! reproduced that with one server thread owning one campaign; this example
//! runs the generalized runtime: four requester campaigns served at once by
//! a shard pool, every campaign hammered by its own client threads.
//!
//! It runs the same workload twice — `shards = 1` (the seed architecture:
//! every campaign serialized through one thread) and `shards = 4` — and
//! reports the end-to-end throughput of both, the per-operation latency
//! (the concurrent version of Figure 8(b)'s worst-case assignment time),
//! and the per-shard queue statistics.

use docs_crowd::{accuracy_of, AnswerModel, PopulationConfig, WorkerPopulation};
use docs_scenarios::drive_workers_on;
use docs_service::{Client, DocsService, Op, OpKind, ServiceConfig};
use docs_system::{Docs, DocsConfig};
use docs_types::Task;
use std::sync::Arc;
use std::time::Instant;

const CAMPAIGNS: usize = 4;
const CLIENTS_PER_CAMPAIGN: usize = 2;

/// Publishes one 4D-dataset campaign; returns the system, its published
/// task list, and the domain count `m`.
fn publish_campaign(task_shards: usize) -> (Docs, Arc<Vec<Task>>, usize) {
    let mut dataset = docs_datasets::four_domain();
    let m = dataset.domain_set.len();
    let config = DocsConfig {
        num_golden: 20,
        k_per_hit: 20,
        answers_per_task: 5,
        z: 100,
        task_shards,
        ..Default::default()
    };
    // `Docs::publish` runs DVE itself; hand it the raw tasks.
    let docs = Docs::publish(&dataset.kb, std::mem::take(&mut dataset.tasks), config)
        .expect("publish 4D dataset");
    let published = Arc::new(docs.tasks().to_vec());
    (docs, published, m)
}

/// Runs `CAMPAIGNS` campaigns to budget exhaustion on a pool with the given
/// shard count; returns (wall time seconds, total answers collected).
fn run_pool(shards: usize) -> (f64, usize, docs_service::ServiceMetrics) {
    let (first_docs, first_tasks, m) = publish_campaign(shards);
    let (service, handle) = DocsService::spawn_sharded(first_docs, ServiceConfig::sharded(shards));
    let mut campaigns = vec![(handle.default_campaign(), first_tasks)];
    for _ in 1..CAMPAIGNS {
        let (docs, tasks, _) = publish_campaign(shards);
        let id = handle.create_campaign(docs).expect("create campaign");
        campaigns.push((id, tasks));
    }

    let started = Instant::now();
    let drivers: Vec<_> = campaigns
        .into_iter()
        .enumerate()
        .map(|(i, (campaign, tasks))| {
            let handle = handle.clone();
            std::thread::spawn(move || {
                let population = WorkerPopulation::generate(&PopulationConfig {
                    m,
                    size: 40,
                    seed: 0xC0C0 + i as u64,
                    ..Default::default()
                });
                let report = drive_workers_on(
                    &handle,
                    campaign,
                    Arc::clone(&tasks),
                    &population,
                    AnswerModel::DomainUniform,
                    CLIENTS_PER_CAMPAIGN,
                    0xD0C5 + i as u64,
                )
                .expect("drive campaign");
                let final_report = handle.call(Op::finish(campaign)).expect("finish campaign");
                let accuracy = accuracy_of(&final_report.truths, &tasks);
                (report.total_answers(), accuracy)
            })
        })
        .collect();
    let mut total_answers = 0;
    for d in drivers {
        let (answers, accuracy) = d.join().expect("campaign driver panicked");
        total_answers += answers;
        assert!(accuracy > 0.0, "campaign produced a report");
    }
    let wall = started.elapsed().as_secs_f64();
    let metrics = handle.metrics().clone();
    drop(handle);
    let campaigns = service.join_all();
    if shards > 1 {
        let (id, docs) = &campaigns[0];
        println!(
            "  campaign {id} TI ingestion per task shard: {:?} (hash balance check)",
            docs.shard_ingestion()
        );
    }
    (wall, total_answers, metrics)
}

fn main() {
    println!(
        "serving {CAMPAIGNS} campaigns × {CLIENTS_PER_CAMPAIGN} client threads \
         ({} concurrent clients) through the DOCS service…\n",
        CAMPAIGNS * CLIENTS_PER_CAMPAIGN
    );

    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let (wall_1, answers_1, _) = run_pool(1);
    let tput_1 = answers_1 as f64 / wall_1;
    println!("shards = 1 (seed architecture): {answers_1} answers in {wall_1:.2}s → {tput_1:.0} answers/s");

    let (wall_n, answers_n, metrics) = run_pool(4);
    let tput_n = answers_n as f64 / wall_n;
    println!("shards = 4 (sharded runtime):  {answers_n} answers in {wall_n:.2}s → {tput_n:.0} answers/s");
    println!(
        "\nthroughput speedup vs single shard: {:.2}× on {cores} core(s) \
         (target on a 4-core runner: ≥ 2×; a single-core box can at best break even)",
        tput_n / tput_1
    );

    println!("\nper-operation service latency (sharded run):");
    for (name, kind) in [
        ("assignment (OTA)", OpKind::Assign),
        ("golden submission", OpKind::Golden),
        ("answer submission (TI)", OpKind::Submit),
        ("finish (full inference)", OpKind::Finish),
        ("campaign creation", OpKind::Create),
    ] {
        let s = metrics.stats(kind);
        println!(
            "  {name:<24} count {:>6}   mean {:>10.2?}   worst {:>10.2?}",
            s.count,
            s.mean(),
            s.max
        );
    }

    println!("\nper-shard load (sharded run):");
    for (i, s) in metrics.all_shards().iter().enumerate() {
        println!(
            "  shard {i}: processed {:>6}   busy {:>9.2?}   mean {:>9.2?}   worst {:>9.2?}   peak queue {:>3}   busy rejections {:>3}",
            s.processed,
            s.busy,
            s.mean_latency(),
            s.max_latency,
            s.max_queued,
            s.busy_rejections
        );
    }
}
