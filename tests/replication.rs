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
//!    the byte-identical oracle report. The primary traces every request,
//!    so the same run checks that a traced submit's pipeline spans account
//!    for its latency and that the promotion is journaled.

mod common;

use common::{assert_byte_identical, oracle, publish, send, tmp_dir, Op};
use docs_obs::{JournalKind, SpanKind};
use docs_replication::{bootstrap_frames, replication_channel, Replica, ReplicationHub};
use docs_service::{
    AdaptiveCommit, Counter, DocsService, DurabilityConfig, RejectReason, ServiceConfig,
    ServiceError, ServiceHandle,
};
use docs_storage::FlushPolicy;
use docs_types::{Answer, CampaignEvent, CampaignId, ReplicationFrame, TaskId, WorkerId};
use std::path::Path;
use std::time::{Duration, Instant};

/// Submits one op, tolerating deterministic rejections (duplicates of an
/// already-applied prefix when a stream is re-driven).
fn submit(handle: &ServiceHandle, campaign: CampaignId, op: &Op) {
    match send(handle, campaign, op) {
        Ok(()) | Err(ServiceError::Rejected(_)) => {}
        Err(e) => panic!("service failed: {e}"),
    }
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
            adaptive: Some(AdaptiveCommit),
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
    let (service, handle) = DocsService::spawn_empty(config).unwrap();
    let campaign = handle
        .create_campaign(publish(task_shards, Some(policy)))
        .unwrap();
    let hub = ReplicationHub::spawn(feed);

    // Prefix before any follower exists.
    let prefix = 10.min(ops.len());
    for op in &ops[..prefix] {
        submit(&handle, campaign, op);
    }

    // Subscribe FIRST, scan SECOND: the overlap is deduplicated by the
    // watermark table, a gap is impossible. The cadence snapshot is written
    // by the log's write lane, off the shard thread, so the scan is
    // repeated until it has landed (or the deadline passes).
    let link = hub.subscribe("replica-0");
    let deadline = Instant::now() + Duration::from_secs(10);
    let (bootstrap, snapshot_seq) = loop {
        let bootstrap = bootstrap_frames(&dir).expect("bootstrap scan");
        let snapshot_seq = bootstrap
            .iter()
            .filter_map(|f| match f {
                ReplicationFrame::Snapshot(s) if s.campaign == campaign => Some(s.seq),
                _ => None,
            })
            .max()
            .expect("bootstrap carries the campaign snapshot");
        if snapshot_seq > 0 || Instant::now() > deadline {
            break (bootstrap, snapshot_seq);
        }
        std::thread::sleep(Duration::from_millis(1));
    };
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

/// A durable follower bootstrapped before the primary's first snapshot
/// cadence, while each campaign's only baseline is the one its creation
/// logged, installs every campaign from it and stays byte-identical to the
/// primary through the rest of the stream; its own log, recovered after it
/// stops, holds the same states.
#[test]
fn a_follower_bootstrapped_before_the_first_cadence_installs_every_campaign() {
    const CAMPAIGNS: usize = 3;
    let (ops, _) = oracle(1);
    let dir = tmp_dir("bootstrap-before-cadence");
    let follower_dir = tmp_dir("bootstrap-before-cadence-follower");
    let policy = FlushPolicy::EveryEvent;
    let (sink, feed) = replication_channel();
    let config = primary_config(2, &dir, policy, 1024).with_replication(sink);
    let (service, handle) = DocsService::spawn_empty(config).unwrap();
    let hub = ReplicationHub::spawn(feed);
    let campaigns: Vec<CampaignId> = (0..CAMPAIGNS)
        .map(|_| handle.create_campaign(publish(1, Some(policy))).unwrap())
        .collect();
    let prefix = 6;
    for op in &ops[..prefix] {
        for &c in &campaigns {
            submit(&handle, c, op);
        }
    }
    let link = hub.subscribe("early-follower");
    let bootstrap = bootstrap_frames(&dir).expect("bootstrap scan");
    let baselines: Vec<(CampaignId, u64)> = bootstrap
        .iter()
        .filter_map(|f| match f {
            ReplicationFrame::Snapshot(s) => Some((s.campaign, s.seq)),
            ReplicationFrame::Events(_) => None,
        })
        .collect();
    let created: Vec<(CampaignId, u64)> = campaigns.iter().map(|&c| (c, 0)).collect();
    assert_eq!(
        baselines, created,
        "every campaign from its creation baseline"
    );
    let replica = Replica::spawn(ServiceConfig::durable(3, &follower_dir), link, bootstrap)
        .expect("spawn replica");
    let state = |h: &ServiceHandle, c| h.call(docs_service::Op::snapshot_state(c)).unwrap();
    let agree_at = |seq: u64| {
        for &c in &campaigns {
            await_watermark(&replica, c, seq);
            assert_eq!(
                state(replica.handle(), c),
                state(&handle, c),
                "{c} diverged at {seq}"
            );
        }
    };
    // Published + one event per op.
    agree_at(1 + prefix as u64);
    for op in &ops[prefix..] {
        for &c in &campaigns {
            submit(&handle, c, op);
        }
    }
    agree_at(1 + ops.len() as u64);

    let (replica_service, replica_handle) = replica.detach();
    drop(replica_handle);
    replica_service.join_all();
    let (recovered_service, recovered) =
        DocsService::recover(ServiceConfig::durable(1, &follower_dir)).expect("recover follower");
    for &c in &campaigns {
        assert_eq!(state(&recovered, c), state(&handle, c), "{c} recovered");
    }
    drop(recovered);
    recovered_service.join_all();
    drop(handle);
    service.join_all();
    hub.join();
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&follower_dir);
}

/// Several durable campaigns on a one-shard primary, driven concurrently
/// and pipelined: adaptive group commit closes batches that mix campaigns
/// (and runs of one campaign), so a shipped frame carries events of several
/// campaigns. A one-shard and a three-shard follower both end at the hub's
/// shipped watermarks with every campaign byte-identical to the primary.
#[test]
fn frames_mixing_campaigns_replicate_byte_identically_at_any_follower_shard_count() {
    const CAMPAIGNS: usize = 6;
    const PIPELINE: usize = 4;
    let (ops, _) = oracle(1);
    let dir = tmp_dir("mixed-frames");
    let policy = FlushPolicy::EveryEvent;

    let (sink, feed) = replication_channel();
    let config = primary_config(1, &dir, policy, 1024).with_replication(sink);
    let (service, handle) = DocsService::spawn_empty(config).unwrap();
    let hub = ReplicationHub::spawn(feed);
    let campaigns: Vec<CampaignId> = (0..CAMPAIGNS)
        .map(|_| handle.create_campaign(publish(1, Some(policy))).unwrap())
        .collect();
    let replicas: Vec<Replica> = [1usize, 3]
        .into_iter()
        .map(|shards| {
            let link = hub.subscribe(format!("replica-{shards}"));
            let bootstrap = bootstrap_frames(&dir).expect("bootstrap scan");
            Replica::spawn(ServiceConfig::follower(shards), link, bootstrap).expect("spawn replica")
        })
        .collect();

    // One client thread per campaign, each keeping PIPELINE submissions in
    // flight: the single shard serves them in arrival order, so every
    // campaign's own order is its script's.
    std::thread::scope(|scope| {
        for &campaign in &campaigns {
            let (handle, ops) = (&handle, &ops);
            scope.spawn(move || {
                for chunk in ops.chunks(PIPELINE) {
                    // Each in-flight op as the wait for its reply; an
                    // answer goes as a one-answer batch.
                    type Pending<'a> = Box<dyn FnOnce() -> Result<(), ServiceError> + 'a>;
                    let tickets: Vec<Pending> = chunk
                        .iter()
                        .map(|op| -> Pending {
                            match op {
                                Op::Golden(w, answers) => {
                                    let op = docs_service::Op::submit_golden(
                                        campaign,
                                        *w,
                                        answers.clone(),
                                    );
                                    let ticket = handle.submit(op).expect("submit");
                                    Box::new(move || ticket.wait())
                                }
                                Op::Answer(answer) => {
                                    let op = docs_service::Op::submit_answer_batch(
                                        campaign,
                                        vec![*answer],
                                    );
                                    let ticket = handle.submit(op).expect("submit");
                                    Box::new(move || ticket.wait().map(drop))
                                }
                            }
                        })
                        .collect();
                    for wait in tickets {
                        match wait() {
                            Ok(()) | Err(ServiceError::Rejected(_)) => {}
                            Err(e) => panic!("service failed: {e}"),
                        }
                    }
                }
            });
        }
    });

    // Every acknowledged event was handed to the hub before its ack; wait
    // for the pump to have fanned all of them out.
    let deadline = Instant::now() + Duration::from_secs(10);
    let sent = handle.metrics().counter(Counter::EventsShipped);
    while hub.stats().events_shipped < sent {
        assert!(Instant::now() < deadline, "hub stuck below {sent} events");
        std::thread::sleep(Duration::from_millis(1));
    }
    let stats = hub.stats();
    assert!(
        stats.events_shipped > stats.frames_shipped,
        "group commit must ship several events per frame: {stats:?}"
    );
    let shipped = hub.shipped_watermarks();
    assert_eq!(shipped.len(), CAMPAIGNS);
    for replica in &replicas {
        for &(campaign, seq) in &shipped {
            await_watermark(replica, campaign, seq);
        }
        assert_eq!(replica.watermarks(), shipped);
        for &campaign in &campaigns {
            assert_eq!(
                replica
                    .handle()
                    .call(docs_service::Op::snapshot_state(campaign))
                    .unwrap(),
                handle
                    .call(docs_service::Op::snapshot_state(campaign))
                    .unwrap(),
                "campaign {campaign} diverged"
            );
        }
    }
    // Nothing read a follower's campaigns before those snapshots: a
    // `z`-crossing's run is owed until the next crossing drops it, so
    // every crossing's run is either executed or superseded, and most
    // were superseded. The exposition carries both per shard.
    let z = publish(1, None).config().z;
    let crossings: usize = campaigns
        .iter()
        .map(|&c| {
            let status = handle.call(docs_service::Op::status(c)).unwrap();
            status.answers_collected / z
        })
        .sum();
    for replica in &replicas {
        let metrics = replica.handle().metrics();
        let shards = metrics.all_shards();
        let executed: u64 = shards.iter().map(|s| s.ti_full_runs).sum();
        let superseded: u64 = shards.iter().map(|s| s.ti_full_runs_superseded).sum();
        assert_eq!(executed + superseded, crossings as u64);
        assert!(
            superseded > executed,
            "{executed} runs, {superseded} superseded"
        );
        let text = metrics.render_prometheus();
        for family in [
            "docs_shard_ti_full_runs_total",
            "docs_shard_ti_full_runs_superseded_total",
        ] {
            assert!(
                text.contains(&format!("{family}{{shard=\"0\"}}")),
                "{family}"
            );
        }
    }

    for replica in replicas {
        let (replica_service, replica_handle) = replica.detach();
        drop(replica_handle);
        replica_service.join_all();
    }
    drop(handle);
    service.join_all();
    hub.join();
    let _ = std::fs::remove_dir_all(&dir);
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
    // Every request is traced, so the prefix leaves full pipeline traces.
    let config = primary_config(2, &dir, policy, 1024)
        .with_replication(sink)
        .with_trace_sampling(1);
    let (service, handle) = DocsService::spawn_empty(config).unwrap();
    let campaign = handle
        .create_campaign(publish(task_shards, Some(policy)))
        .unwrap();
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

    // A traced durable replicated submit carries every pipeline span, and
    // its spans account for (nearly) all of its end-to-end latency.
    let traces = handle.metrics().flight().snapshot();
    let pipeline = [
        SpanKind::QueueWait,
        SpanKind::Apply,
        SpanKind::Ship,
        SpanKind::FlushWait,
    ];
    let traced = traces
        .iter()
        .find(|t| pipeline.iter().all(|&k| t.span_ns(k).is_some()))
        .expect("a traced submit carries the full pipeline spans");
    assert!(
        traced.spans_sum_ns() as f64 >= 0.9 * traced.total_ns as f64,
        "spans cover under 90% of the trace: {}",
        traced.to_json()
    );

    // At the acked watermark the follower serves the primary's reads.
    await_watermark(&replica, campaign, acked_seq);
    let follower = replica.handle();
    let follower_status = follower.call(docs_service::Op::status(campaign)).unwrap();
    assert_eq!(
        follower_status,
        handle.call(docs_service::Op::status(campaign)).unwrap()
    );
    assert_eq!(follower_status.answers_collected, prefix - 5); // 5 golden HITs
    let follower_report = follower
        .call(docs_service::Op::peek_report(campaign))
        .unwrap();
    let primary_report = handle
        .call(docs_service::Op::peek_report(campaign))
        .unwrap();
    assert_eq!(follower_report.truths, primary_report.truths);
    assert_eq!(
        follower_report.truth_distributions,
        primary_report.truth_distributions
    );
    // A campaign the follower never bootstrapped is unknown there.
    let err = follower
        .call(docs_service::Op::status(CampaignId(99)))
        .unwrap_err();
    assert_eq!(
        err,
        ServiceError::Rejected(RejectReason::UnknownCampaign(CampaignId(99)))
    );

    // Role enforcement end to end.
    let err = replica
        .handle()
        .call(docs_service::Op::submit_answer_batch(
            campaign,
            vec![Answer::new(WorkerId(0), TaskId(0), 0)],
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
        .replicate_apply(vec![(campaign, acked_seq + 1, CampaignEvent::finished())])
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
    drop(handle);
    service.join_all();
    hub.join();

    // ---- Promote the follower at its watermark. ----
    let promotion = replica.promote().expect("clean promotion");
    let promoted = promotion.handle;
    assert!(
        promoted
            .metrics()
            .journal()
            .snapshot()
            .iter()
            .any(|e| e.kind == JournalKind::Promotion),
        "the promotion is journaled on the promoted node"
    );
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
