//! Replicated service demo: a durable primary streams its WAL to a live
//! follower; reads are served from the follower; the primary is killed and
//! the follower is promoted — without losing a single acknowledged event.
//!
//! ```text
//! cargo run --release --example replicated_service
//! ```
//!
//! The run asserts (and CI relies on) three things:
//! 1. replica-served reads (status, inferred truths) match the primary's
//!    answers once the follower's watermark catches up,
//! 2. the promotion watermark covers every acknowledged event
//!    (`FlushPolicy::EveryEvent`: acked ⇒ durable ⇒ shipped), and
//! 3. the truths served before the crash are byte-identical to the
//!    promoted primary's — and resumed traffic runs to a normal finish.

use docs_crowd::accuracy_of;
use docs_replication::{bootstrap_frames, replication_channel, Replica, ReplicationHub};
use docs_service::{
    AdaptiveCommit, Client, ClusterRouter, DocsService, DurabilityConfig, Op, ServiceConfig,
    ServiceHandle,
};
use docs_storage::FlushPolicy;
use docs_system::{Docs, DocsConfig, WorkRequest};
use docs_types::{Answer, CampaignId, NodeId, ReplicaRole, Task, TaskBuilder, WorkerId};
use std::time::{Duration, Instant};

const NUM_TASKS: usize = 18;
const NUM_WORKERS: u32 = 6;

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

fn publish() -> Docs {
    Docs::publish(
        &docs_kb::table2_example_kb(),
        tasks(),
        DocsConfig {
            num_golden: 3,
            k_per_hit: 3,
            answers_per_task: 3,
            z: 10,
            durable_flush: Some(FlushPolicy::EveryEvent),
            ..Default::default()
        },
    )
    .expect("publish")
}

/// Serves a deterministic slice of worker traffic; returns ops served.
fn drive(handle: &ServiceHandle, campaign: CampaignId, rounds: usize) -> u64 {
    let mut served = 0;
    for round in 0..rounds {
        for w in 0..NUM_WORKERS {
            let w = WorkerId(w);
            match handle
                .call(Op::request_tasks(campaign, w))
                .expect("request")
            {
                WorkRequest::Golden(golden) => {
                    let answers: Vec<_> = golden
                        .iter()
                        .map(|&g| (g, (g.index() + round) % 2))
                        .collect();
                    handle
                        .call(Op::submit_golden(campaign, w, answers))
                        .expect("golden");
                    served += 1;
                }
                WorkRequest::Tasks(hit) => {
                    for t in hit {
                        let answer = Answer::new(w, t, (t.index() + w.0 as usize) % 2);
                        if handle.call(Op::submit_answer(campaign, answer)).is_ok() {
                            served += 1;
                        }
                    }
                }
                WorkRequest::Done => {}
            }
        }
    }
    served
}

fn await_watermark(replica: &Replica, campaign: CampaignId, seq: u64) {
    let deadline = Instant::now() + Duration::from_secs(20);
    while replica.watermark(campaign) < seq {
        if let Some(e) = replica.error() {
            panic!("replica applier failed: {e}");
        }
        assert!(Instant::now() < deadline, "replica never caught up");
        std::thread::sleep(Duration::from_millis(1));
    }
}

fn main() {
    let dir = std::env::temp_dir().join(format!("docs-replicated-svc-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // ---- Primary with durability + replication feed. ----
    let (sink, feed) = replication_channel();
    let config = ServiceConfig {
        shards: 2,
        durability: Some(DurabilityConfig {
            dir: dir.clone(),
            default_flush: FlushPolicy::EveryEvent,
            snapshot_every: 16,
            adaptive: Some(AdaptiveCommit::default()),
        }),
        ..Default::default()
    }
    .with_replication(sink);
    let (primary_service, primary) = DocsService::spawn_sharded(publish(), config);
    let campaign = primary.default_campaign();
    let hub = ReplicationHub::spawn(feed);

    // Some traffic lands before any follower exists…
    let before_follower = drive(&primary, campaign, 1);

    // ---- Follower: subscribe first, bootstrap scan second. ----
    let link = hub.subscribe("reader-1");
    let bootstrap = bootstrap_frames(&dir).expect("bootstrap scan");
    let replica = Replica::spawn(ServiceConfig::follower(2), link, bootstrap).expect("replica");

    // …and more traffic while the follower applies live frames.
    let after_follower = drive(&primary, campaign, 2);
    let acked_events = 1 + before_follower + after_follower; // Published + ops

    // ---- Reads are served by the follower. ----
    await_watermark(&replica, campaign, acked_events);
    let router = ClusterRouter::single(NodeId(0), primary.clone(), vec![replica.handle().clone()]);
    let status = router
        .call(Op::status(campaign))
        .expect("status via replica");
    let primary_status = primary
        .call(Op::status(campaign))
        .expect("status via primary");
    assert_eq!(status, primary_status, "replica status diverged");
    let replica_truths = router
        .call(Op::peek_report(campaign))
        .expect("truths via replica");
    let primary_truths = primary
        .call(Op::peek_report(campaign))
        .expect("truths via primary");
    assert_eq!(replica_truths.truths, primary_truths.truths);
    assert_eq!(
        replica_truths.truth_distributions,
        primary_truths.truth_distributions
    );
    assert_eq!(router.stats().replica_reads, 2, "reads routed to replica");
    println!("routing: {}", router.stats());
    let lag = hub.lag();
    println!(
        "replicated: {} answers in, follower '{}' lag {} events, {} frames / {} bytes shipped",
        status.answers_collected,
        lag[0].name,
        lag[0].lag_events,
        hub.stats().frames_shipped,
        hub.stats().bytes_shipped,
    );

    // ---- Failover: kill the primary, promote the follower. ----
    primary.simulate_crash();
    drop(router);
    drop(primary);
    primary_service.join_all();
    hub.join();

    let promotion = replica.promote().expect("promotion");
    let promoted = promotion.handle;
    assert_eq!(promoted.role(), ReplicaRole::Primary);
    let watermark = promotion
        .watermarks
        .iter()
        .find(|(c, _)| *c == campaign)
        .map(|(_, s)| *s)
        .expect("campaign watermark");
    assert_eq!(
        watermark, acked_events,
        "promotion watermark must cover every acknowledged event"
    );

    // Truths before the crash == truths after the failover, byte for byte.
    let post = promoted
        .call(Op::peek_report(campaign))
        .expect("post-failover read");
    assert_eq!(post.truths, replica_truths.truths, "failover lost state");
    assert_eq!(post.truth_distributions, replica_truths.truth_distributions);

    // ---- Traffic resumes on the promoted primary. ----
    let resumed = drive(&promoted, campaign, 3);
    let report = promoted.call(Op::finish(campaign)).expect("finish");
    println!(
        "promoted at watermark {watermark}; {resumed} more answers after failover, \
         {} total, accuracy {:.2}",
        report.answers_collected,
        accuracy_of(&report.truths, &tasks())
    );
    assert!(report.answers_collected >= status.answers_collected);

    drop(promoted);
    promotion.service.join_all();
    let _ = std::fs::remove_dir_all(&dir);
    println!("replicated_service: OK");
}
