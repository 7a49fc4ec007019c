//! Cluster scale-out benchmark: what a live migration costs the traffic,
//! and what a second primary buys in aggregate write throughput.
//!
//! ```text
//! cargo bench -p docs-bench --bench cluster
//! CLUSTER_SMOKE=1 cargo bench -p docs-bench --bench cluster   # CI size
//! ```
//!
//! Headline numbers, merged into `BENCH_cluster.json`:
//!
//! * **fence window** — fence → adoption: how long the migrating
//!   campaign's write path has no serving owner and the router buffers
//!   and forwards (best over rounds whose fence actually intersected the
//!   live driver, measured with paced traffic pushing through the fence),
//! * **forwarded count** — how many in-flight submissions the fence window
//!   made the router absorb-and-forward (informational: workload shape,
//!   not performance — `_count` keys are never gated),
//! * **write scale-out** — aggregate answers/s over two hot campaigns on
//!   one single-shard primary vs. the same two campaigns spread across
//!   two single-shard primaries by a live migration, replayed through the
//!   same [`ClusterRouter`] pipelined-ticket path so the serialization
//!   point is the node (shard thread + WAL + group commit), not the
//!   driver's round-trips. The speedup is the multi-primary dividend.
//!
//! Before any number is reported, the bench asserts each replayed
//! campaign's report is byte-identical to the in-memory oracle that
//! recorded the stream (no acked event lost) — a throughput number for a
//! diverged campaign would be meaningless. The smoke run asserts only
//! and does not merge numbers: shared-runner speed must not overwrite
//! the committed trajectory.

use docs_replication::{migrate_campaign, replication_channel, MigrationSource, ReplicationHub};
use docs_service::{
    AdaptiveCommit, Client, ClusterNode, ClusterRouter, DocsService, DurabilityConfig,
    ServiceConfig, ServiceHandle,
};
use docs_storage::FlushPolicy;
use docs_system::{Docs, DocsConfig, RequesterReport, WorkRequest};
use docs_types::{
    Answer, CampaignId, ChoiceIndex, ClusterMap, NodeId, Task, TaskBuilder, TaskId, WorkerId,
};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

fn smoke() -> bool {
    std::env::var("CLUSTER_SMOKE").is_ok()
}

fn num_tasks() -> usize {
    if smoke() {
        24
    } else {
        192
    }
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("docs-bench-cluster-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn tasks(n: usize) -> Vec<Task> {
    let subjects = ["Michael Jordan", "Kobe Bryant", "NBA"];
    (0..n)
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

fn publish(n: usize, durable_flush: Option<FlushPolicy>) -> Docs {
    Docs::publish(
        &docs_kb::table2_example_kb(),
        tasks(n),
        DocsConfig {
            num_golden: 4,
            k_per_hit: 6,
            answers_per_task: 4,
            z: 50,
            durable_flush,
            ..Default::default()
        },
    )
    .expect("publish bench campaign")
}

fn durable_node(dir: &Path, node: NodeId) -> ServiceConfig {
    ServiceConfig {
        shards: 1,
        durability: Some(DurabilityConfig {
            dir: dir.to_path_buf(),
            default_flush: FlushPolicy::Batch(8),
            snapshot_every: 100_000,
            adaptive: Some(AdaptiveCommit::default()),
        }),
        ..Default::default()
    }
    .with_node(node)
}

/// One recorded platform operation, replayable against any service.
#[derive(Clone)]
enum Op {
    Golden(WorkerId, Vec<(TaskId, ChoiceIndex)>),
    Batch(Vec<Answer>),
}

/// Drives an uninterrupted in-memory campaign to budget, recording every
/// submission; returns the stream and the reference report.
fn record_ops() -> (Vec<Op>, RequesterReport) {
    let mut docs = publish(num_tasks(), None);
    let mut ops = Vec::new();
    let workers = 8u32;
    let mut idle_rounds = 0;
    while idle_rounds < 2 {
        let mut progressed = false;
        for w in 0..workers {
            let w = WorkerId(w);
            match docs.request_tasks(w) {
                WorkRequest::Golden(golden) => {
                    let picks: Vec<_> = golden.iter().map(|&g| (g, g.index() % 2)).collect();
                    docs.submit_golden(w, &picks).expect("golden");
                    ops.push(Op::Golden(w, picks));
                    progressed = true;
                }
                WorkRequest::Tasks(hit) => {
                    let batch: Vec<Answer> = hit
                        .iter()
                        .map(|&t| Answer::new(w, t, (t.index() + w.0 as usize) % 2))
                        .collect();
                    for a in &batch {
                        docs.submit_answer(*a).expect("answer");
                    }
                    ops.push(Op::Batch(batch));
                    progressed = true;
                }
                WorkRequest::Done => {}
            }
        }
        idle_rounds = if progressed { 0 } else { idle_rounds + 1 };
    }
    let report = docs.finish().expect("oracle finish");
    (ops, report)
}

/// Replays the recorded stream through the router with pipelined tickets
/// (submit everything, then wait everything): the measured path is the
/// node's — shard thread, WAL append, group commit — not the driver's
/// request round-trips. FIFO per campaign keeps the replay ordered.
fn replay_pipelined(router: &ClusterRouter, campaign: CampaignId, ops: &[Op]) -> u64 {
    let mut golden_tickets = Vec::new();
    let mut batch_tickets = Vec::new();
    for op in ops {
        match op {
            Op::Golden(w, picks) => golden_tickets.push(
                router
                    .submit(docs_service::Op::submit_golden(campaign, *w, picks.clone()))
                    .expect("golden ticket"),
            ),
            Op::Batch(batch) => batch_tickets.push(
                router
                    .submit(docs_service::Op::submit_answer_batch(
                        campaign,
                        batch.clone(),
                    ))
                    .expect("batch ticket"),
            ),
        }
    }
    for t in golden_tickets {
        t.wait().expect("golden acknowledged");
    }
    let mut answers = 0u64;
    for t in batch_tickets {
        answers += t.wait().expect("batch acknowledged").accepted as u64;
    }
    answers
}

/// Drives one campaign interactively (request → submit → request) with a
/// pacing sleep after each submission — live traffic for the fence to
/// land in the middle of.
fn drive_paced(router: &ClusterRouter, campaign: CampaignId, pace: Duration) -> u64 {
    let mut answers = 0u64;
    let workers = 8u32;
    let mut idle_rounds = 0;
    while idle_rounds < 2 {
        let mut progressed = false;
        for w in 0..workers {
            let w = WorkerId(w);
            match router
                .call(docs_service::Op::request_tasks(campaign, w))
                .expect("request")
            {
                WorkRequest::Golden(golden) => {
                    let picks: Vec<_> = golden.iter().map(|&g| (g, g.index() % 2)).collect();
                    router
                        .call(docs_service::Op::submit_golden(campaign, w, picks))
                        .expect("golden");
                    progressed = true;
                    std::thread::sleep(pace);
                }
                WorkRequest::Tasks(hit) => {
                    let batch: Vec<Answer> = hit
                        .iter()
                        .map(|&t| Answer::new(w, t, (t.index() + w.0 as usize) % 2))
                        .collect();
                    let outcome = router
                        .call(docs_service::Op::submit_answer_batch(campaign, batch))
                        .expect("batch");
                    if outcome.accepted > 0 {
                        answers += outcome.accepted as u64;
                        progressed = true;
                    }
                    std::thread::sleep(pace);
                }
                WorkRequest::Done => {}
            }
        }
        idle_rounds = if progressed { 0 } else { idle_rounds + 1 };
    }
    router
        .call(docs_service::Op::finish(campaign))
        .expect("finish");
    answers
}

/// Replays both campaigns concurrently through the router and returns
/// (total answers, wall time to the slower finish).
fn aggregate_tput(router: &ClusterRouter, a: CampaignId, b: CampaignId, ops: &[Op]) -> (u64, f64) {
    let started = Instant::now();
    let driver_b = {
        let router = router.clone();
        let ops: Vec<Op> = ops.to_vec();
        std::thread::spawn(move || replay_pipelined(&router, b, &ops))
    };
    let answers_a = replay_pipelined(router, a, ops);
    let answers_b = driver_b.join().expect("campaign B driver panicked");
    let wall = started.elapsed().as_secs_f64();
    (answers_a + answers_b, wall)
}

struct TwoNode {
    service0: DocsService,
    handle0: ServiceHandle,
    service1: DocsService,
    handle1: ServiceHandle,
    hub: ReplicationHub,
    router: ClusterRouter,
    dir0: PathBuf,
    dir1: PathBuf,
}

fn two_nodes(label: &str) -> (TwoNode, CampaignId, CampaignId) {
    let dir0 = tmp_dir(&format!("{label}-n0"));
    let dir1 = tmp_dir(&format!("{label}-n1"));
    let policy = FlushPolicy::Batch(8);
    let (sink, feed) = replication_channel();
    let (service0, handle0) = DocsService::spawn_sharded(
        publish(num_tasks(), Some(policy)),
        durable_node(&dir0, NodeId(0)).with_replication(sink),
    );
    let campaign_a = handle0.default_campaign();
    let campaign_b = handle0
        .create_campaign(publish(num_tasks(), Some(policy)))
        .expect("second campaign");
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
    (
        TwoNode {
            service0,
            handle0,
            service1,
            handle1,
            hub,
            router,
            dir0,
            dir1,
        },
        campaign_a,
        campaign_b,
    )
}

/// Migrates `campaign` from node 0 to node 1 and flips the directory.
fn migrate_and_flip(cluster: &TwoNode, campaign: CampaignId) -> docs_replication::MigrationOutcome {
    let outcome = migrate_campaign(
        campaign,
        &MigrationSource {
            handle: &cluster.handle0,
            node: NodeId(0),
            dir: &cluster.dir0,
            hub: &cluster.hub,
        },
        &cluster.handle1,
        NodeId(1),
    )
    .expect("migration");
    let mut map = cluster.router.map();
    map.assign(campaign, NodeId(1));
    assert!(cluster.router.install_map(&map));
    cluster.handle0.install_cluster_map(&map).expect("node 0");
    cluster.handle1.install_cluster_map(&map).expect("node 1");
    outcome
}

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let mid = samples.len() / 2;
    if samples.len().is_multiple_of(2) {
        (samples[mid - 1] + samples[mid]) / 2.0
    } else {
        samples[mid]
    }
}

fn teardown(cluster: TwoNode) {
    drop(cluster.router);
    drop(cluster.handle0);
    cluster.service0.join_all();
    cluster.hub.join();
    drop(cluster.handle1);
    cluster.service1.join_all();
    let _ = std::fs::remove_dir_all(&cluster.dir0);
    let _ = std::fs::remove_dir_all(&cluster.dir1);
}

fn main() {
    let repeats = if smoke() { 2 } else { 4 };
    println!(
        "cluster: {} tasks/campaign, 1 shard/node (smoke={}, best of {repeats})\n",
        num_tasks(),
        smoke()
    );
    let (ops, reference) = record_ops();

    // ---- Fence window under live traffic. ----
    // Only rounds whose fence actually intersected the driver count
    // (forwarded > 0): a fence over a quiet campaign is trivially short.
    let mut best_fence_ms = f64::INFINITY;
    let mut any_fence_ms = f64::INFINITY;
    let mut forwarded = 0.0;
    for round in 0..repeats {
        let (cluster, campaign, _b) = two_nodes(&format!("fence-{round}"));
        let driver = {
            let router = cluster.router.clone();
            std::thread::spawn(move || drive_paced(&router, campaign, Duration::from_micros(300)))
        };
        std::thread::sleep(Duration::from_millis(2));
        let outcome = migrate_and_flip(&cluster, campaign);
        let answers = driver.join().expect("driver panicked");
        assert!(answers > 0, "driver made no progress");
        // No acked event lost: the adopted copy's collected-answer count
        // covers every acknowledged submission.
        let report = cluster
            .router
            .call(docs_service::Op::peek_report(campaign))
            .expect("report after migration");
        assert!(report.answers_collected >= answers as usize);
        let stats = cluster.router.stats();
        let fence_ms = outcome.fence_window.as_secs_f64() * 1e3;
        println!(
            "fence round {round}: window {fence_ms:.3} ms at watermark {}, \
             {} redirects absorbed / {} writes forwarded",
            outcome.fence_watermark, stats.wrong_node_redirects, stats.forwarded_writes,
        );
        any_fence_ms = any_fence_ms.min(fence_ms);
        if stats.forwarded_writes > 0 && fence_ms < best_fence_ms {
            best_fence_ms = fence_ms;
            forwarded = stats.forwarded_writes as f64;
        }
        teardown(cluster);
    }
    if best_fence_ms.is_infinite() {
        best_fence_ms = any_fence_ms; // every fence missed the traffic
    }
    println!("fence window: {best_fence_ms:.3} ms (best of {repeats} under traffic)\n");

    // ---- Write scale-out: 1 primary vs 2 primaries. ----
    // Median over rounds: these replays finish in milliseconds, where a
    // single lucky scheduler slice can double a best-of number.
    // Baseline: both campaigns replay into node 0's single shard — the
    // router is the same, the serialization point is the node.
    let mut rounds_1node = Vec::new();
    for round in 0..repeats {
        let (cluster, a, b) = two_nodes(&format!("tput1-{round}"));
        let (answers, wall) = aggregate_tput(&cluster.router, a, b, &ops);
        let report = cluster
            .router
            .call(docs_service::Op::finish(a))
            .expect("finish A");
        assert_eq!(report.truths, reference.truths, "campaign A diverged");
        assert_eq!(report.answers_collected, reference.answers_collected);
        let tput = answers as f64 / wall;
        println!("1-node round {round}: {answers} answers in {wall:.3}s → {tput:.0} answers/s");
        rounds_1node.push(tput);
        teardown(cluster);
    }

    // Scale-out: migrate campaign B to node 1 first (quiet), then replay
    // both campaigns concurrently — two shard threads, two WALs.
    let mut rounds_2node = Vec::new();
    for round in 0..repeats {
        let (cluster, a, b) = two_nodes(&format!("tput2-{round}"));
        migrate_and_flip(&cluster, b);
        let (answers, wall) = aggregate_tput(&cluster.router, a, b, &ops);
        let report = cluster
            .router
            .call(docs_service::Op::finish(b))
            .expect("finish B");
        assert_eq!(
            report.truths, reference.truths,
            "migrated campaign diverged"
        );
        assert_eq!(report.answers_collected, reference.answers_collected);
        let tput = answers as f64 / wall;
        println!("2-node round {round}: {answers} answers in {wall:.3}s → {tput:.0} answers/s");
        rounds_2node.push(tput);
        teardown(cluster);
    }
    let tput_1node = median(&mut rounds_1node);
    let tput_2node = median(&mut rounds_2node);
    let speedup = tput_2node / tput_1node;
    println!(
        "\nwrite scale-out: {tput_1node:.0} answers/s on 1 primary → \
         {tput_2node:.0} answers/s on 2 primaries ({speedup:.2}x, median of {repeats})"
    );

    // The smoke run is an assertion pass: shared-runner speed must never
    // overwrite the committed trajectory (the open_loop bench's rule).
    if smoke() {
        println!("smoke run: numbers not merged into BENCH_cluster.json");
        return;
    }
    docs_bench::merge_bench_json(
        "BENCH_cluster.json",
        &[
            (
                "cluster_migration_fence_window_ms".to_string(),
                best_fence_ms,
            ),
            ("cluster_migration_forwarded_count".to_string(), forwarded),
            (
                "cluster_write_tput_1node_answers_per_s".to_string(),
                tput_1node,
            ),
            (
                "cluster_write_tput_2nodes_answers_per_s".to_string(),
                tput_2node,
            ),
            ("cluster_write_scaleout_speedup_x".to_string(), speedup),
        ],
    );
}
