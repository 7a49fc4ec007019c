//! WAL-shipping replication: the headline invariants of the replicated
//! runtime.
//!
//! 1. **Byte-identity at every acked watermark** — across the
//!    `shards × task_shards` matrix (with the follower pool re-homing
//!    campaigns onto a *different* shard count), after every acknowledged
//!    operation the follower's serialized campaign state equals the
//!    primary's byte for byte once its watermark catches up. Followers
//!    bootstrap **mid-campaign** from a cadence snapshot (seq > 0), not
//!    from the campaign's birth.
//! 2. **Crash → promotion loses nothing** — under `FlushPolicy::EveryEvent`
//!    every acknowledged event is durable, therefore shipped before its
//!    ack; killing the primary (`simulate_crash`, buffers abandoned) and
//!    promoting the follower yields a primary whose watermark covers every
//!    acknowledged event, whose replica-served reads matched the primary's
//!    answers before the failover, and whose resumed traffic converges to
//!    the byte-identical oracle report.

use docs_replication::{bootstrap_frames, replication_channel, Replica, ReplicationHub};
use docs_service::{
    AdaptiveCommit, Client, ClusterRouter, Counter, DocsService, DurabilityConfig, RejectReason,
    ReplicaRole, ServiceConfig, ServiceError, ServiceHandle,
};
use docs_storage::FlushPolicy;
use docs_system::{Docs, DocsConfig, RequesterReport, WorkRequest};
use docs_types::{
    Answer, CampaignEvent, CampaignId, ChoiceIndex, NodeId, ReplicationFrame, Task, TaskBuilder,
    TaskId, WorkerId,
};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

const NUM_TASKS: usize = 12;
const NUM_WORKERS: u32 = 5;

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

fn publish(task_shards: usize, durable_flush: Option<FlushPolicy>) -> Docs {
    Docs::publish(
        &docs_kb::table2_example_kb(),
        tasks(),
        DocsConfig {
            num_golden: 3,
            k_per_hit: 3,
            answers_per_task: 3,
            z: 5, // small period: replication crosses several full-inference runs
            task_shards,
            durable_flush,
            ..Default::default()
        },
    )
    .unwrap()
}

/// Deterministic worker choice — varies by task and worker so TI has
/// disagreement to resolve.
fn choice_of(worker: WorkerId, task: TaskId) -> ChoiceIndex {
    if worker.0.is_multiple_of(2) {
        task.index() % 2
    } else {
        (task.index() + worker.0 as usize) % 2
    }
}

/// Drives an uninterrupted in-memory campaign, recording every submission;
/// returns the operation stream and the reference report.
fn oracle(task_shards: usize) -> (Vec<Op>, RequesterReport) {
    let mut docs = publish(task_shards, None);
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

/// Submits one op, tolerating deterministic rejections (duplicates of an
/// already-applied prefix when a stream is re-driven).
fn submit(handle: &ServiceHandle, campaign: CampaignId, op: &Op) {
    let result = match op {
        Op::Golden(w, answers) => handle.call(docs_service::Op::submit_golden(
            campaign,
            *w,
            answers.clone(),
        )),
        Op::Answer(answer) => handle.call(docs_service::Op::submit_answer(campaign, *answer)),
    };
    match result {
        Ok(()) | Err(ServiceError::Rejected(_)) => {}
        Err(e) => panic!("service failed: {e}"),
    }
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("docs-replication-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn primary_config(
    shards: usize,
    dir: &Path,
    policy: FlushPolicy,
    snapshot_every: u64,
) -> ServiceConfig {
    ServiceConfig {
        shards,
        durability: Some(DurabilityConfig {
            dir: dir.to_path_buf(),
            default_flush: policy,
            snapshot_every,
            adaptive: Some(AdaptiveCommit::default()),
        }),
        ..Default::default()
    }
}

/// Polls until the replica's watermark for `campaign` reaches `seq`.
fn await_watermark(replica: &Replica, campaign: CampaignId, seq: u64) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while replica.watermark(campaign) < seq {
        if let Some(e) = replica.error() {
            panic!("replica applier failed: {e}");
        }
        assert!(
            Instant::now() < deadline,
            "replica stuck at watermark {} (want {seq})",
            replica.watermark(campaign)
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

fn assert_byte_identical(report: &RequesterReport, reference: &RequesterReport, label: &str) {
    assert_eq!(report.truths, reference.truths, "truths diverged: {label}");
    assert_eq!(
        report.truth_distributions, reference.truth_distributions,
        "probabilistic truths diverged: {label}"
    );
    assert_eq!(
        report.answers_collected, reference.answers_collected,
        "{label}"
    );
    assert_eq!(report.accuracy, reference.accuracy, "{label}");
}

/// One matrix cell: primary with `shards`, follower re-homed onto
/// `follower_shards`, byte-identity checked at *every* acked watermark,
/// follower bootstrapped mid-campaign from a cadence snapshot.
fn byte_identity_case(shards: usize, follower_shards: usize, task_shards: usize) {
    let label = format!("shards {shards}→{follower_shards}, task_shards {task_shards}");
    let (ops, _) = oracle(task_shards);
    let dir = tmp_dir(&format!("ident-{shards}-{follower_shards}-{task_shards}"));
    let policy = FlushPolicy::EveryEvent;

    let (sink, feed) = replication_channel();
    // Snapshot cadence of 6: by the time the follower attaches (after 10
    // ops) at least one snapshot cycle has re-baselined the campaign, so
    // the bootstrap genuinely starts mid-campaign.
    let config = primary_config(shards, &dir, policy, 6).with_replication(sink);
    let (service, handle) = DocsService::spawn_sharded(publish(task_shards, Some(policy)), config);
    let campaign = handle.default_campaign();
    let hub = ReplicationHub::spawn(feed);

    // Prefix before any follower exists.
    let prefix = 10.min(ops.len());
    for op in &ops[..prefix] {
        submit(&handle, campaign, op);
    }

    // Subscribe FIRST, scan SECOND: the overlap is deduplicated by the
    // watermark table, a gap is impossible.
    let link = hub.subscribe("replica-0");
    let bootstrap = bootstrap_frames(&dir).expect("bootstrap scan");
    let snapshot_seq = bootstrap
        .iter()
        .filter_map(|f| match f {
            ReplicationFrame::Snapshot(s) if s.campaign == campaign => Some(s.seq),
            _ => None,
        })
        .max()
        .expect("bootstrap carries the campaign snapshot");
    assert!(
        snapshot_seq > 0,
        "{label}: follower must bootstrap from a mid-campaign snapshot, got seq 0"
    );
    let replica = Replica::spawn(ServiceConfig::follower(follower_shards), link, bootstrap)
        .expect("spawn replica");

    // The already-acknowledged prefix: Published (seq 1) + one event per op.
    let mut seq = 1 + prefix as u64;
    await_watermark(&replica, campaign, seq);
    assert_eq!(
        replica
            .handle()
            .call(docs_service::Op::snapshot_state(campaign))
            .unwrap(),
        handle
            .call(docs_service::Op::snapshot_state(campaign))
            .unwrap(),
        "{label}: bootstrap state diverged at watermark {seq}"
    );

    // Every further acked watermark: submit one op, catch up, compare the
    // serialized states byte for byte.
    for op in &ops[prefix..] {
        submit(&handle, campaign, op);
        seq += 1;
        await_watermark(&replica, campaign, seq);
        assert_eq!(
            replica
                .handle()
                .call(docs_service::Op::snapshot_state(campaign))
                .unwrap(),
            handle
                .call(docs_service::Op::snapshot_state(campaign))
                .unwrap(),
            "{label}: state diverged at watermark {seq}"
        );
    }

    // Replica-served reads match the primary's answers.
    let primary_report = handle
        .call(docs_service::Op::peek_report(campaign))
        .unwrap();
    let replica_report = replica
        .handle()
        .call(docs_service::Op::peek_report(campaign))
        .unwrap();
    assert_eq!(replica_report.truths, primary_report.truths, "{label}");
    assert_eq!(
        replica_report.truth_distributions, primary_report.truth_distributions,
        "{label}"
    );
    assert_eq!(
        replica
            .handle()
            .call(docs_service::Op::status(campaign))
            .unwrap(),
        handle.call(docs_service::Op::status(campaign)).unwrap(),
        "{label}"
    );

    let (replica_service, replica_handle) = replica.detach();
    drop(replica_handle);
    replica_service.join_all();
    drop(handle);
    service.join_all();
    hub.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn follower_is_byte_identical_at_every_acked_watermark_across_the_matrix() {
    for shards in [1usize, 4] {
        for task_shards in [1usize, 4] {
            // The follower re-homes campaigns onto a different shard count
            // than the primary's — routing is per pool, state is per
            // campaign.
            let follower_shards = if shards == 1 { 4 } else { 1 };
            byte_identity_case(shards, follower_shards, task_shards);
        }
    }
}

#[test]
fn crash_then_promotion_loses_no_acknowledged_event_and_resumes_traffic() {
    let task_shards = 4;
    let (ops, reference) = oracle(task_shards);
    let dir = tmp_dir("promotion");
    let follower_dir = tmp_dir("promotion-follower");
    // EveryEvent: every acknowledged event is durable, therefore shipped
    // before its ack — the promotion may not lose a single one.
    let policy = FlushPolicy::EveryEvent;

    let (sink, feed) = replication_channel();
    let config = primary_config(2, &dir, policy, 1024).with_replication(sink);
    let (service, handle) = DocsService::spawn_sharded(publish(task_shards, Some(policy)), config);
    let campaign = handle.default_campaign();
    let hub = ReplicationHub::spawn(feed);
    let link = hub.subscribe("standby");
    let bootstrap = bootstrap_frames(&dir).expect("bootstrap scan");
    // A *durable* follower: it writes its own log, so the promoted primary
    // is itself recoverable.
    let replica = Replica::spawn(ServiceConfig::durable(2, &follower_dir), link, bootstrap)
        .expect("spawn replica");

    // Serve a prefix; every op below is individually acknowledged.
    let prefix = 23.min(ops.len());
    for op in &ops[..prefix] {
        submit(&handle, campaign, op);
    }
    let acked_seq = 1 + prefix as u64; // Published + one event per op

    // Reads fan out to the replica through the router; writes pin to the
    // primary.
    await_watermark(&replica, campaign, acked_seq);
    let router = ClusterRouter::single(NodeId(0), handle.clone(), vec![replica.handle().clone()]);
    let routed_status = router.call(docs_service::Op::status(campaign)).unwrap();
    assert_eq!(
        routed_status,
        handle.call(docs_service::Op::status(campaign)).unwrap()
    );
    assert_eq!(routed_status.answers_collected, prefix - 5); // 5 golden HITs
    let routed_report = router
        .call(docs_service::Op::peek_report(campaign))
        .unwrap();
    let primary_report = handle
        .call(docs_service::Op::peek_report(campaign))
        .unwrap();
    assert_eq!(routed_report.truths, primary_report.truths);
    assert_eq!(
        routed_report.truth_distributions,
        primary_report.truth_distributions
    );
    let routing = router.stats();
    assert_eq!(routing.replica_reads, 2, "reads served by the follower");
    assert_eq!(routing.primary_reads, 0);
    // A read for a campaign the replica never bootstrapped falls back.
    let err = router
        .call(docs_service::Op::status(CampaignId(99)))
        .unwrap_err();
    assert!(matches!(
        err,
        ServiceError::Rejected(RejectReason::UnknownCampaign(_))
    ));
    assert_eq!(router.stats().fallbacks, 1);

    // Role enforcement end to end.
    assert_eq!(replica.handle().role(), ReplicaRole::Follower);
    let err = replica
        .handle()
        .call(docs_service::Op::submit_answer(
            campaign,
            Answer::new(WorkerId(0), TaskId(0), 0),
        ))
        .unwrap_err();
    assert_eq!(
        err,
        ServiceError::Rejected(RejectReason::ReadOnlyReplica { campaign })
    );
    assert!(err.to_string().contains("read-only follower"));
    assert!(
        replica
            .handle()
            .metrics()
            .counter(Counter::ReadOnlyRejections)
            >= 1
    );
    let err = handle
        .replicate_apply(campaign, acked_seq + 1, CampaignEvent::finished())
        .unwrap_err();
    assert_eq!(
        err,
        ServiceError::Rejected(RejectReason::NotAFollower { campaign })
    );

    // ---- The fault injection: kill the primary. ----
    let pre_crash_truths = replica
        .handle()
        .call(docs_service::Op::peek_report(campaign))
        .unwrap();
    handle.simulate_crash();
    drop(router);
    drop(handle);
    service.join_all();
    hub.join();

    // ---- Promote the follower at its watermark. ----
    let promotion = replica.promote().expect("clean promotion");
    let promoted = promotion.handle;
    assert_eq!(promoted.role(), ReplicaRole::Primary);
    let watermark = promotion
        .watermarks
        .iter()
        .find(|(c, _)| *c == campaign)
        .map(|(_, seq)| *seq)
        .expect("promoted campaign has a watermark");
    assert_eq!(
        watermark, acked_seq,
        "promotion watermark must cover every acknowledged event"
    );
    // Truths served before the crash are exactly the promoted state's.
    let post_promotion = promoted
        .call(docs_service::Op::peek_report(campaign))
        .unwrap();
    assert_eq!(post_promotion.truths, pre_crash_truths.truths);
    assert_eq!(
        post_promotion.truth_distributions,
        pre_crash_truths.truth_distributions
    );

    // Regression: the promoted pool's campaign-id allocator must sit past
    // every replicated id (snapshot installs advance it), so new
    // campaigns don't collide with the ones it replicated.
    let fresh = promoted
        .create_campaign(publish(task_shards, None))
        .expect("create campaign on the promoted primary");
    assert!(
        fresh > campaign,
        "allocator collided with a replicated campaign id"
    );

    // ---- Resume traffic on the new primary. ----
    // Re-drive the whole stream: the already-replicated prefix rejects
    // deterministically (duplicate answers), the suffix applies fresh.
    for op in &ops {
        submit(&promoted, campaign, op);
    }
    let report = promoted
        .call(docs_service::Op::finish(campaign))
        .expect("finish after failover");
    assert_byte_identical(&report, &reference, "crash → promotion → resume");

    // The promoted primary wrote its own durable log: a later recovery
    // from the *follower's* directory reproduces the same report.
    drop(promoted);
    promotion.service.join_all();
    let (recovered_service, recovered_handle) =
        DocsService::recover(ServiceConfig::durable(2, &follower_dir)).expect("recover follower");
    let recovered = recovered_handle
        .call(docs_service::Op::finish(campaign))
        .expect("finish after recovery");
    assert_byte_identical(&recovered, &reference, "recovery of the promoted follower");
    drop(recovered_handle);
    recovered_service.join_all();
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&follower_dir);
}
