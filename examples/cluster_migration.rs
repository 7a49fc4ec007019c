//! Cluster migration demo: two primary nodes, one hot campaign, and a
//! live migration out from under the traffic — with zero lost acks.
//!
//! ```text
//! cargo run --release --example cluster_migration
//! ```
//!
//! The run asserts (and CI relies on) three things:
//! 1. every submission the driver makes through the [`ClusterRouter`] is
//!    acknowledged exactly once — `WrongNode` redirects during the fence
//!    window are absorbed and retried, never surfaced,
//! 2. the finished report is byte-identical to a single-node oracle that
//!    replayed the same operation stream uninterrupted, and
//! 3. the directory flip converges: after the new map is installed the
//!    router sends writes straight to the new owner.

use docs_replication::{migrate_campaign, replication_channel, MigrationSource, ReplicationHub};
use docs_service::{
    AdaptiveCommit, Client, ClusterNode, ClusterRouter, Counter, DocsService, DurabilityConfig,
    ServiceConfig,
};
use docs_storage::FlushPolicy;
use docs_system::{Docs, DocsConfig, RequesterReport, WorkRequest};
use docs_types::{
    Answer, CampaignId, ChoiceIndex, ClusterMap, NodeId, Task, TaskBuilder, TaskId, WorkerId,
};
use std::time::Duration;

const NUM_TASKS: usize = 24;
const NUM_WORKERS: u32 = 6;

/// One recorded platform operation, replayable against any service.
#[derive(Debug, Clone)]
enum Op {
    Golden(WorkerId, Vec<(TaskId, ChoiceIndex)>),
    Answer(Answer),
}

fn tasks() -> Vec<Task> {
    let subjects = ["Michael Jordan", "Kobe Bryant", "NBA"];
    (0..NUM_TASKS)
        .map(|i| {
            TaskBuilder::new(i, format!("Is {} great? ({i})", subjects[i % 3]))
                .yes_no()
                .with_ground_truth(i % 2)
                .with_true_domain(1)
                .build()
                .unwrap()
        })
        .collect()
}

fn publish(durable_flush: Option<FlushPolicy>) -> Docs {
    Docs::publish(
        &docs_kb::table2_example_kb(),
        tasks(),
        DocsConfig {
            num_golden: 3,
            k_per_hit: 3,
            answers_per_task: 3,
            z: 8, // small period: the migration crosses full-inference runs
            task_shards: 2,
            durable_flush,
            ..Default::default()
        },
    )
    .expect("publish")
}

fn choice_of(worker: WorkerId, task: TaskId) -> ChoiceIndex {
    if worker.0.is_multiple_of(2) {
        task.index() % 2
    } else {
        (task.index() + worker.0 as usize) % 2
    }
}

/// Drives an uninterrupted in-memory campaign, recording every submission;
/// returns the operation stream and the reference report.
fn oracle() -> (Vec<Op>, RequesterReport) {
    let mut docs = publish(None);
    let mut ops = Vec::new();
    let mut idle_rounds = 0;
    while !docs.budget_exhausted() && idle_rounds < 2 {
        let mut progressed = false;
        for w in 0..NUM_WORKERS {
            let w = WorkerId(w);
            match docs.request_tasks(w) {
                WorkRequest::Golden(golden) => {
                    let answers: Vec<_> = golden.iter().map(|&g| (g, choice_of(w, g))).collect();
                    docs.submit_golden(w, &answers).unwrap();
                    ops.push(Op::Golden(w, answers));
                    progressed = true;
                }
                WorkRequest::Tasks(hit) => {
                    for t in hit {
                        let answer = Answer::new(w, t, choice_of(w, t));
                        docs.submit_answer(answer).unwrap();
                        ops.push(Op::Answer(answer));
                        progressed = true;
                    }
                }
                WorkRequest::Done => {}
            }
        }
        idle_rounds = if progressed { 0 } else { idle_rounds + 1 };
    }
    let report = docs.finish().unwrap();
    (ops, report)
}

/// Submits one op through the router; a surfaced rejection is a lost ack.
fn submit_via(router: &ClusterRouter, campaign: CampaignId, op: &Op) {
    match op {
        Op::Golden(w, answers) => router
            .call(docs_service::Op::submit_golden(
                campaign,
                *w,
                answers.clone(),
            ))
            .expect("golden submission must be acknowledged"),
        Op::Answer(answer) => router
            .call(docs_service::Op::submit_answer(campaign, *answer))
            .expect("answer submission must be acknowledged"),
    }
}

fn durable_node(dir: &std::path::Path, node: NodeId) -> ServiceConfig {
    ServiceConfig {
        shards: 2,
        durability: Some(DurabilityConfig {
            dir: dir.to_path_buf(),
            default_flush: FlushPolicy::EveryEvent,
            snapshot_every: 16,
            adaptive: Some(AdaptiveCommit::default()),
        }),
        ..Default::default()
    }
    .with_node(node)
}

fn main() {
    let pid = std::process::id();
    let dir0 = std::env::temp_dir().join(format!("docs-cluster-demo-{pid}-n0"));
    let dir1 = std::env::temp_dir().join(format!("docs-cluster-demo-{pid}-n1"));
    let _ = std::fs::remove_dir_all(&dir0);
    let _ = std::fs::remove_dir_all(&dir1);

    // The oracle: the same op stream against one uninterrupted campaign.
    let (ops, reference) = oracle();

    // ---- Node 0 hosts the campaign; node 1 starts empty. ----
    let (sink, feed) = replication_channel();
    let (service0, handle0) = DocsService::spawn_sharded(
        publish(Some(FlushPolicy::EveryEvent)),
        durable_node(&dir0, NodeId(0)).with_replication(sink),
    );
    let campaign = handle0.default_campaign();
    let hub = ReplicationHub::spawn(feed);
    let (service1, handle1) =
        DocsService::spawn_empty(durable_node(&dir1, NodeId(1))).expect("spawn node 1");

    let router = ClusterRouter::new(
        vec![
            ClusterNode {
                id: NodeId(0),
                primary: handle0.clone(),
                replicas: vec![],
            },
            ClusterNode {
                id: NodeId(1),
                primary: handle1.clone(),
                replicas: vec![],
            },
        ],
        ClusterMap::new(NodeId(0)),
    );

    // First half of the stream lands on node 0, the campaign's birthplace.
    let half = ops.len() / 2;
    for op in &ops[..half] {
        submit_via(&router, campaign, op);
    }

    // Keep the rest flowing from a driver thread while the main thread
    // migrates the campaign out from under it.
    let driver = {
        let router = router.clone();
        let suffix: Vec<Op> = ops[half..].to_vec();
        std::thread::spawn(move || {
            for op in &suffix {
                submit_via(&router, campaign, op);
                std::thread::sleep(Duration::from_micros(300));
            }
        })
    };

    std::thread::sleep(Duration::from_millis(2));
    let outcome = migrate_campaign(
        campaign,
        &MigrationSource {
            handle: &handle0,
            node: NodeId(0),
            dir: &dir0,
            hub: &hub,
        },
        &handle1,
        NodeId(1),
    )
    .expect("live migration");

    // Flip the directory: epoch bump, campaign on node 1, everywhere.
    let mut map = router.map();
    map.assign(campaign, NodeId(1));
    assert!(router.install_map(&map), "router adopts the new epoch");
    handle0
        .install_cluster_map(&map)
        .expect("node 0 adopts map");
    handle1
        .install_cluster_map(&map)
        .expect("node 1 adopts map");

    driver.join().expect("driver thread panicked");

    // Zero lost acks: the post-migration report matches the oracle's bytes.
    let report = router
        .call(docs_service::Op::finish(campaign))
        .expect("finish after migration");
    assert_eq!(report.truths, reference.truths, "truths diverged");
    assert_eq!(
        report.truth_distributions, reference.truth_distributions,
        "probabilistic truths diverged"
    );
    assert_eq!(report.answers_collected, reference.answers_collected);

    let stats = router.stats();
    println!(
        "migrated campaign {campaign}: fence window {:.3} ms at watermark {} \
         ({} bootstrap frames, {} streamed events)",
        outcome.fence_window.as_secs_f64() * 1e3,
        outcome.fence_watermark,
        outcome.bootstrap_frames,
        outcome.streamed_events,
    );
    println!(
        "router absorbed {} WrongNode redirects, forwarded {} writes; \
         {} answers collected, accuracy {:.2}",
        stats.wrong_node_redirects,
        stats.forwarded_writes,
        report.answers_collected,
        report.accuracy,
    );
    assert_eq!(
        handle0.metrics().counter(Counter::CampaignsFenced),
        1,
        "node 0 fenced the campaign"
    );
    assert_eq!(
        handle1.metrics().counter(Counter::MigrationsAdopted),
        1,
        "node 1 adopted the campaign"
    );

    drop(router);
    drop(handle0);
    service0.join_all();
    hub.join();
    drop(handle1);
    service1.join_all();
    let _ = std::fs::remove_dir_all(&dir0);
    let _ = std::fs::remove_dir_all(&dir1);
    println!("cluster_migration: OK");
}
