//! Crash-at-any-event recovery: the headline invariant of the durable
//! event-sourced runtime.
//!
//! Kill the service mid-campaign at an arbitrary event, recover from the
//! durability directory, drive the rest of the workload, finish — the
//! `RequesterReport` must be **byte-identical** (truths *and* probability
//! distributions) to an uninterrupted in-memory run, for every
//! `shards × task_shards × flush-policy` combination, including a torn
//! final WAL record and a recovery that changes the shard count.
//!
//! Why byte-identity is achievable: `finish` runs the full iterative
//! inference, which depends only on the tasks (exact float round-trip
//! through snapshots), the answer log, and the golden registry — all of
//! which the log replay reconstructs exactly. Group commit may lose an
//! acknowledged suffix at the kill ([`FlushPolicy::Batch`] trades that for
//! throughput); the driver below re-submits the full operation stream, and
//! the duplicate-answer rule turns the already-recovered prefix into
//! deterministic no-ops.

mod common;

use common::{assert_byte_identical, oracle, publish, send, tmp_dir, Op, NUM_TASKS};
use docs_replication::{bootstrap_frames, replication_channel, Replica, ReplicationHub};
use docs_service::{
    AdaptiveCommit, DocsService, DurabilityConfig, RejectReason, ServiceConfig, ServiceError,
    ServiceHandle,
};
use docs_storage::{CampaignLog, FlushPolicy, Wal};
use docs_system::CampaignSnapshot;
use docs_types::{codec, CampaignId, WorkerId};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Submits one op, tolerating deterministic rejections (duplicates of the
/// already-recovered prefix).
fn submit(handle: &ServiceHandle, campaign: CampaignId, op: &Op) {
    match send(handle, campaign, op) {
        Ok(()) | Err(ServiceError::Rejected(_)) => {}
        Err(e) => panic!("service failed: {e}"),
    }
}

/// Snapshot cadence of most cases: small, so a run crosses snapshot +
/// prune cycles.
const CADENCE: u64 = 7;

fn service_config(
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

/// Runs the full kill → recover → resume cycle and checks byte-identity.
///
/// `recover_shards` lets the recovering pool use a different shard count
/// than the writing one. `tear_tail` appends a partial WAL record to the
/// campaign's segment after the kill (a crash mid-append).
fn crash_recover_case(
    shards: usize,
    recover_shards: usize,
    task_shards: usize,
    policy: FlushPolicy,
    snapshot_every: u64,
    crash_at: usize,
    tear_tail: bool,
) {
    let label = format!(
        "shards {shards}→{recover_shards}, task_shards {task_shards}, policy {policy:?}, \
         snapshot every {snapshot_every}, crash at {crash_at}, torn tail {tear_tail}"
    );
    let (ops, reference) = oracle(task_shards);
    assert!(!ops.is_empty());
    let crash_at = crash_at.min(ops.len());
    let dir = tmp_dir(&format!(
        "crash-{shards}-{recover_shards}-{task_shards}-{policy:?}-{snapshot_every}-{crash_at}-{tear_tail}"
    ));

    // Phase 1: serve the prefix durably, then die without flushing.
    let config = service_config(shards, &dir, policy, snapshot_every);
    let (service, handle) = DocsService::spawn_empty(config).unwrap();
    let campaign = handle
        .create_campaign(publish(task_shards, Some(policy)))
        .unwrap();
    for op in &ops[..crash_at] {
        submit(&handle, campaign, op);
    }
    handle.simulate_crash();
    drop(handle);
    let _ = service.join_all();

    if tear_tail {
        // A record header promising more bytes than exist, at the tail of
        // the campaign's shard segment.
        let shard_dir = dir.join(format!("shard-{}", campaign.shard(shards)));
        let mut segments: Vec<PathBuf> = std::fs::read_dir(&shard_dir)
            .unwrap()
            .filter_map(|e| {
                let p = e.unwrap().path();
                p.file_name()?.to_str()?.starts_with("events-").then_some(p)
            })
            .collect();
        segments.sort();
        let last = segments.last().expect("campaign has a log segment");
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new().append(true).open(last).unwrap();
        f.write_all(&[200, 0, 0, 0, 7, 7, 7, 7, b'x', b'y'])
            .unwrap();
    }

    // Phase 2: recover (possibly with a different shard count), re-drive
    // the whole stream, finish.
    let config = service_config(recover_shards, &dir, policy, snapshot_every);
    let (service, handle) = DocsService::recover(config).expect("recovery succeeds");
    assert!(
        handle.metrics().durability().snapshots_loaded >= 1,
        "{label}"
    );
    // Regression: `Wal::scan` classifies the torn tail,
    // and the count must surface in `DurabilityStats` instead of being
    // silently dropped after recovery.
    if tear_tail {
        assert!(
            handle.metrics().durability().torn_tail_recoveries >= 1,
            "torn tail swallowed instead of surfacing in DurabilityStats: {label}"
        );
    }
    for op in &ops {
        submit(&handle, campaign, op);
    }
    let report = handle
        .call(docs_service::Op::finish(campaign))
        .expect("finish after recovery");
    assert_byte_identical(&report, &reference, &label);
    drop(handle);
    let _ = service.join_all();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn recovery_is_byte_identical_across_shards_task_shards_and_flush_policies() {
    let policies = [
        FlushPolicy::EveryEvent,
        FlushPolicy::Batch(8),
        // A batch that never fills: nothing auto-flushes, so recovery leans
        // on creation/snapshot syncs — the worst case for durable coverage.
        FlushPolicy::Batch(usize::MAX),
    ];
    for shards in [1usize, 4] {
        for task_shards in [1usize, 4] {
            for policy in policies {
                crash_recover_case(
                    shards,
                    shards,
                    task_shards,
                    policy,
                    CADENCE,
                    23, // mid-campaign, past golden bootstrap and a z-cycle
                    false,
                );
            }
        }
    }
    // A cadence longer than the stream: recovery replays a long suffix
    // from the creation baseline alone, with no later snapshot to lean on.
    let (ops, _) = oracle(2);
    crash_recover_case(
        2,
        2,
        2,
        FlushPolicy::Batch(8),
        500,
        ops.len() * 6 / 10,
        false,
    );
}

#[test]
fn recovery_survives_a_torn_final_wal_record() {
    for policy in [FlushPolicy::EveryEvent, FlushPolicy::Batch(4)] {
        crash_recover_case(1, 1, 4, policy, CADENCE, 17, true);
    }
}

#[test]
fn recovery_at_the_edges_of_the_stream() {
    // Crash before any event, after the first event, and after the last.
    for crash_at in [0usize, 1, usize::MAX] {
        crash_recover_case(1, 1, 1, FlushPolicy::EveryEvent, CADENCE, crash_at, false);
    }
}

#[test]
fn recovery_rehomes_campaigns_when_the_shard_count_changes() {
    crash_recover_case(1, 4, 4, FlushPolicy::Batch(8), CADENCE, 23, false);
    crash_recover_case(4, 1, 1, FlushPolicy::EveryEvent, CADENCE, 23, true);
}

/// Satellite regression: crash with a non-empty *unsynced* buffer under a
/// batch that never fills. Recovery must replay cleanly to the last synced
/// event — the buffered suffix simply vanishes; it must not surface as a
/// mid-log CRC error or sequence gap.
#[test]
fn unfilled_batch_crash_with_unsynced_buffer_replays_to_the_last_synced_event() {
    // An unbounded batch (and a huge snapshot cadence) so nothing
    // auto-syncs between the explicit synced points.
    let policy = FlushPolicy::Batch(usize::MAX);
    let (ops, _) = oracle(2);
    let dir = tmp_dir("unfilled-batch-unsynced-buffer");
    let config = service_config(1, &dir, policy, 100_000);
    let (service, handle) = DocsService::spawn_empty(config.clone()).unwrap();
    let campaign = handle.create_campaign(publish(2, Some(policy))).unwrap();
    let split = 11.min(ops.len());
    for op in &ops[..split] {
        submit(&handle, campaign, op);
    }
    // Finish hardens everything buffered so far (the unconditional sync on
    // finish) — the durable frontier.
    let _ = handle
        .call(docs_service::Op::finish(campaign))
        .expect("finish");
    let synced_seq = 1 + split as u64 + 1; // Published + prefix + Finished
                                           // More acknowledged-but-unsynced events, then the kill.
    for op in &ops[split..] {
        submit(&handle, campaign, op);
    }
    handle.simulate_crash();
    drop(handle);
    let _ = service.join_all();

    // recover_tree: no spurious mid-log CRC error, no gap — just a clean
    // stop at the last synced event.
    let recovered = docs_storage::recover_tree(&dir).expect("unsynced buffer is not corruption");
    let rec = &recovered.campaigns[&campaign];
    assert_eq!(
        rec.last_seq, synced_seq,
        "recovery frontier must be the last synced event"
    );
    // The recovered service serves from that frontier; re-driving the full
    // stream converges to the oracle (duplicates reject deterministically).
    let (service, handle) = DocsService::recover(config).expect("recovery succeeds");
    for op in &ops {
        submit(&handle, campaign, op);
    }
    let report = handle
        .call(docs_service::Op::finish(campaign))
        .expect("finish after recovery");
    let (_, reference) = oracle(2);
    assert_byte_identical(&report, &reference, "unfilled batch unsynced buffer");
    drop(handle);
    let _ = service.join_all();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn multi_campaign_recovery_preserves_every_durable_campaign() {
    let dir = tmp_dir("multi");
    let policy = FlushPolicy::EveryEvent;
    let (ops, reference) = oracle(2);
    let config = service_config(4, &dir, policy, CADENCE);
    let (service, handle) = DocsService::spawn_empty(config).unwrap();
    let c0 = handle.create_campaign(publish(2, Some(policy))).unwrap();
    // A second durable campaign (different geometry) and a memory-only one.
    let c1 = handle.create_campaign(publish(3, Some(policy))).unwrap();
    let c2 = handle.create_campaign(publish(1, None)).unwrap();
    for op in &ops[..20] {
        submit(&handle, c0, op);
        submit(&handle, c1, op);
        submit(&handle, c2, op);
    }
    handle.simulate_crash();
    drop(handle);
    let _ = service.join_all();

    let (service, handle) = DocsService::recover(service_config(4, &dir, policy, CADENCE)).unwrap();
    // The memory-only campaign died with the process; both durable ones
    // came back and can run to an identical report.
    let err = handle
        .call(docs_service::Op::request_tasks(c2, WorkerId(0)))
        .unwrap_err();
    assert!(matches!(err, ServiceError::Rejected(_)));
    for op in &ops {
        submit(&handle, c0, op);
        submit(&handle, c1, op);
    }
    let r0 = handle.call(docs_service::Op::finish(c0)).unwrap();
    assert_byte_identical(&r0, &reference, "multi-campaign c0");
    let r1 = handle.call(docs_service::Op::finish(c1)).unwrap();
    assert_eq!(r1.truths.len(), NUM_TASKS);
    let d = handle.metrics().durability();
    assert_eq!(d.snapshots_loaded, 2);
    drop(handle);
    let _ = service.join_all();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The `events-*.wal` segments in one shard's log directory.
fn segment_count(shard_dir: &Path) -> usize {
    std::fs::read_dir(shard_dir)
        .unwrap()
        .filter(|e| {
            let name = e.as_ref().unwrap().file_name();
            name.to_str().is_some_and(|n| n.starts_with("events-"))
        })
        .count()
}

/// Recovers `dir`, re-drives the whole stream into each of `campaigns` and
/// checks every finished report against the oracle's.
fn recover_to_the_oracle(config: ServiceConfig, campaigns: &[CampaignId], label: &str) {
    let (ops, reference) = oracle(2);
    let (service, handle) = DocsService::recover(config).expect("recovery succeeds");
    for &campaign in campaigns {
        for op in &ops {
            submit(&handle, campaign, op);
        }
        let report = handle
            .call(docs_service::Op::finish(campaign))
            .unwrap_or_else(|e| panic!("{label}: finish {campaign} after recovery: {e}"));
        assert_byte_identical(&report, &reference, &format!("{label}, {campaign}"));
    }
    drop(handle);
    let _ = service.join_all();
}

/// Polls until `shard_dir` holds a single segment: every deletion the
/// prunes so far queued has landed.
fn await_one_segment(shard_dir: &Path) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while segment_count(shard_dir) > 1 {
        assert!(Instant::now() < deadline, "the prunes never landed");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Campaigns that join a shard and then sit idle while a neighbour drives
/// two cadence cycles, whose prunes land, survive the next crash
/// byte-identically: one recovered from a directory that held nothing but
/// its creation, and one created after that recovery. Neither logs an
/// event after it joins, so the cycles must still write each one's
/// snapshot before deleting the segments that held its join.
#[test]
fn idle_campaigns_survive_the_prunes_of_a_busy_neighbour() {
    let (ops, _) = oracle(2);
    let policy = FlushPolicy::EveryEvent;
    let dir = tmp_dir("idle-through-prunes");
    let config = service_config(1, &dir, policy, CADENCE);
    // First epoch: two creations, then a crash.
    let (service, handle) = DocsService::spawn_empty(config.clone()).unwrap();
    let recovered = handle.create_campaign(publish(2, Some(policy))).unwrap();
    let busy = handle.create_campaign(publish(2, Some(policy))).unwrap();
    handle.simulate_crash();
    drop(handle);
    let _ = service.join_all();
    // Second epoch: both recover, a third campaign is created, and the busy
    // one alone logs two cadences of events.
    let (service, handle) = DocsService::recover(config.clone()).unwrap();
    let created = handle.create_campaign(publish(2, Some(policy))).unwrap();
    for op in &ops[..2 * CADENCE as usize] {
        submit(&handle, busy, op);
    }
    await_one_segment(&dir.join("shard-0"));
    handle.simulate_crash();
    drop(handle);
    let _ = service.join_all();
    recover_to_the_oracle(config, &[recovered, created], "idle through two prunes");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A segment record that is a codec value record, but not a campaign
/// snapshot, is the campaign's latest baseline by its sequence: `recover`
/// refuses it with an error naming the campaign instead of panicking.
#[test]
fn an_undecodable_baseline_record_fails_recover_naming_its_campaign() {
    let policy = FlushPolicy::EveryEvent;
    let dir = tmp_dir("undecodable-baseline");
    let config = service_config(1, &dir, policy, CADENCE);
    let (service, handle) = DocsService::spawn_empty(config.clone()).unwrap();
    let campaign = handle.create_campaign(publish(2, Some(policy))).unwrap();
    handle.simulate_crash();
    drop(handle);
    let _ = service.join_all();
    let last_seq = docs_storage::recover_tree(&dir).unwrap().campaigns[&campaign].last_seq;
    {
        let mut log = CampaignLog::open(dir.join("shard-0")).unwrap();
        log.register(campaign, policy, last_seq);
        log.append_baseline(campaign, &codec::to_bytes("not a campaign snapshot"));
        log.flush().unwrap();
    }
    match DocsService::recover(config) {
        Ok(_) => panic!("recovered from a baseline that is no snapshot"),
        Err(e) => assert!(
            e.to_string().contains(&format!("campaign {campaign}")),
            "{e}"
        ),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A creation whose baseline record is torn at the segment tail never
/// completed its sync, so it was never acknowledged: after recovery that
/// campaign is unknown, and the one created before it recovers
/// byte-identically.
#[test]
fn a_torn_baseline_record_is_a_creation_that_never_happened() {
    let policy = FlushPolicy::EveryEvent;
    let dir = tmp_dir("torn-baseline");
    let config = service_config(1, &dir, policy, CADENCE);
    let (service, handle) = DocsService::spawn_empty(config.clone()).unwrap();
    let kept = handle.create_campaign(publish(2, Some(policy))).unwrap();
    let torn = handle.create_campaign(publish(2, Some(policy))).unwrap();
    handle.simulate_crash();
    drop(handle);
    let _ = service.join_all();
    // Cut the segment inside the second campaign's baseline record.
    let segment = dir.join("shard-0").join("events-000000.wal");
    let data = std::fs::read(&segment).unwrap();
    let (records, _) = Wal::scan(&data);
    let baseline = records
        .iter()
        .find(|r| {
            let tag = u32::from_le_bytes(data[r.start..r.start + 4].try_into().unwrap());
            let kind = codec::record_kind(&data[r.start + 12..r.end]);
            tag == torn.0 && kind == Some(codec::KIND_VALUE)
        })
        .expect("the creation logged a baseline record");
    std::fs::write(&segment, &data[..baseline.start + 12 + 5]).unwrap();
    let (service, handle) = DocsService::recover(config.clone()).expect("recovery succeeds");
    assert_eq!(handle.metrics().durability().torn_tail_recoveries, 1);
    let err = handle.call(docs_service::Op::status(torn)).unwrap_err();
    assert_eq!(
        err,
        ServiceError::Rejected(RejectReason::UnknownCampaign(torn))
    );
    drop(handle);
    let _ = service.join_all();
    recover_to_the_oracle(config, &[kept], "torn baseline");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A crash that lands while the log's write lane is held drops the cadence
/// snapshots and the segment deletions it had queued: none of those
/// snapshots is on disk, the segments they would have superseded are, and
/// recovery is byte-identical to the oracle.
#[test]
fn a_crash_behind_a_held_write_lane_recovers_byte_identically() {
    let (ops, _) = oracle(2);
    for policy in [FlushPolicy::EveryEvent, FlushPolicy::Batch(8)] {
        let label = format!("held lane, {policy:?}");
        let dir = tmp_dir(&format!("held-lane-{policy:?}"));
        let config = service_config(1, &dir, policy, CADENCE);
        let (service, handle) = DocsService::spawn_empty(config.clone()).unwrap();
        let campaign = handle.create_campaign(publish(2, Some(policy))).unwrap();
        for op in &ops[..20] {
            submit(&handle, campaign, op);
        }
        // Cadences at 21 and 28 events (sequences 22 and 29) queue behind
        // the hold.
        let hold = docs_storage::hold_lanes(&dir);
        for op in &ops[20..34] {
            submit(&handle, campaign, op);
        }
        handle.simulate_crash();
        drop(handle);
        let _ = service.join_all();
        drop(hold);

        assert!(segment_count(&dir.join("shard-0")) >= 3, "{label}");
        let tree = docs_storage::recover_tree(&dir).unwrap();
        let snapshot = tree.campaigns[&campaign].snapshot.as_ref();
        assert!(snapshot.is_some_and(|(seq, _)| *seq < 22), "{label}");
        recover_to_the_oracle(config, &[campaign], &label);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A cadence snapshot that cannot be written — its tmp path is a
/// directory — is retried once per cadence, never per request, even at a
/// cadence where its campaign logged nothing new; each failure is one
/// journal entry, and no segment is deleted while the campaign has no
/// snapshot past its baseline, so a crash then recovers byte-identically.
/// Once the obstacle is gone, the next cadence lands the snapshot and
/// prunes.
#[test]
fn a_failing_cadence_snapshot_is_retried_each_cadence_and_keeps_its_segments() {
    let (ops, _) = oracle(2);
    let policy = FlushPolicy::EveryEvent;
    let dir = tmp_dir("failing-cadence-snapshot");
    let shard_dir = dir.join("shard-0");
    let (service, handle) =
        DocsService::spawn_empty(service_config(1, &dir, policy, CADENCE)).unwrap();
    let failures = || {
        let counts = handle.metrics().journal().counts_by_kind();
        counts
            .iter()
            .find(|(kind, _)| *kind == docs_obs::JournalKind::SnapshotFailure)
            .map_or(0, |(_, n)| *n)
    };
    let c0 = handle.create_campaign(publish(2, Some(policy))).unwrap();
    let obstacle = shard_dir.join(format!("snap-{}.bin.tmp", c0.0));
    std::fs::create_dir(&obstacle).unwrap();
    // 27 events and the finish: four cadences, the last on the finish.
    for op in &ops[..27] {
        submit(&handle, c0, op);
        let _ = handle.call(docs_service::Op::status(c0)).unwrap();
    }
    handle.call(docs_service::Op::finish(c0)).unwrap();
    assert_eq!(failures(), 4);
    // A fifth cadence driven by another campaign retries c0's snapshot
    // although c0 logged nothing since the last one.
    let c1 = handle.create_campaign(publish(2, Some(policy))).unwrap();
    for op in &ops[..7] {
        submit(&handle, c1, op);
    }
    handle.call(docs_service::Op::finish(c1)).unwrap();
    assert_eq!(failures(), 5);
    assert_eq!(segment_count(&shard_dir), 6, "nothing pruned");

    // Crash here: a copy of the directory recovers byte-identically.
    let copy = tmp_dir("failing-cadence-snapshot-copy");
    std::fs::create_dir_all(copy.join("shard-0")).unwrap();
    for entry in std::fs::read_dir(&shard_dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_file() {
            std::fs::copy(&path, copy.join("shard-0").join(path.file_name().unwrap())).unwrap();
        }
    }
    let tree = docs_storage::recover_tree(&copy).unwrap();
    let c0_tree = &tree.campaigns[&c0];
    assert_eq!(c0_tree.snapshot.as_ref().map(|(seq, _)| *seq), Some(0));
    assert_eq!((c0_tree.events.len(), c0_tree.last_seq), (29, 29));
    let label = "failing cadence snapshot";
    recover_to_the_oracle(service_config(1, &copy, policy, CADENCE), &[c0], label);
    let _ = std::fs::remove_dir_all(&copy);

    // Without the obstacle the next cadence lands c0's snapshot and prunes.
    std::fs::remove_dir(&obstacle).unwrap();
    for op in &ops[7..14] {
        submit(&handle, c1, op);
    }
    handle.call(docs_service::Op::finish(c1)).unwrap();
    assert_eq!(failures(), 5);
    assert_eq!(segment_count(&shard_dir), 1, "pruned");
    let tree = docs_storage::recover_tree(&dir).unwrap();
    let c0_snapshot = tree.campaigns[&c0].snapshot.as_ref();
    assert_eq!(c0_snapshot.map(|(seq, _)| *seq), Some(29));
    drop(handle);
    let _ = service.join_all();
    let _ = std::fs::remove_dir_all(&dir);
}

/// FNV-1a over the little-endian bytes of `words`.
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xcbf2_9ce4_8422_2325, |hash, word| {
        word.to_le_bytes().iter().fold(hash, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
    })
}

/// Pins the shared oracle itself. Every suite checks against it, so a
/// change to the scripted crowd or the fixture would move all of them the
/// same way and pass; these constants do not move with it. A diff that
/// changes them says why in one line beside the new values.
#[test]
fn the_shared_oracle_is_pinned() {
    // 5 golden HITs + 12 tasks × 3 answers; `task_shards` only reorders
    // the scan, so both geometries give the same stream and report.
    for task_shards in [1, 4] {
        let (ops, report) = oracle(task_shards);
        let actual = (
            ops.len(),
            fnv1a(report.truths.iter().map(|&t| t as u64)),
            fnv1a(
                report
                    .truth_distributions
                    .iter()
                    .flatten()
                    .map(|p| p.to_bits()),
            ),
            report.answers_collected,
        );
        assert_eq!(
            actual,
            (41, 0x56b2_8d64_ccf8_19e5, 0x5de0_7ebd_701f_3655, 36),
            "oracle moved at task_shards {task_shards}"
        );
    }
}

/// The flush policy each durable campaign records in its snapshot, as a
/// client reads it back through `Op::snapshot_state`.
fn recorded_policy(client: &ServiceHandle, campaign: CampaignId) -> Option<FlushPolicy> {
    let bytes = client
        .call(docs_service::Op::snapshot_state(campaign))
        .unwrap();
    codec::from_bytes::<CampaignSnapshot>(&bytes)
        .unwrap()
        .config
        .durable_flush
}

/// A campaign runs with exactly the policy its own config publishes, and
/// create, recovery and a follower's snapshot install all read it the same
/// way: the pool's `default_flush` never overrides a named policy, and a
/// campaign that names none stays memory-only.
#[test]
fn each_campaign_keeps_the_flush_policy_it_published() {
    let dir = tmp_dir("policy-primary");
    let follower_dir = tmp_dir("policy-follower");
    let (ops, _) = oracle(2);
    let (sink, feed) = replication_channel();
    let config = service_config(2, &dir, FlushPolicy::Batch(64), CADENCE).with_replication(sink);
    let (service, handle) = DocsService::spawn_empty(config).unwrap();
    let hub = ReplicationHub::spawn(feed);
    let durable: Vec<(CampaignId, FlushPolicy)> = [FlushPolicy::Batch(8), FlushPolicy::EveryEvent]
        .into_iter()
        .map(|policy| {
            let c = handle.create_campaign(publish(2, Some(policy))).unwrap();
            (c, policy)
        })
        .collect();
    let memory_only = handle.create_campaign(publish(2, None)).unwrap();
    for op in &ops[..9] {
        for &(c, _) in &durable {
            submit(&handle, c, op);
        }
        submit(&handle, memory_only, op);
    }
    for &(c, policy) in &durable {
        assert_eq!(recorded_policy(&handle, c), Some(policy), "{c} live");
    }
    assert_eq!(recorded_policy(&handle, memory_only), None);

    // A durable follower bootstrapped from the directory installs each
    // campaign with the policy its snapshot records.
    let link = hub.subscribe("policy-follower");
    let bootstrap = bootstrap_frames(&dir).unwrap();
    let replica =
        Replica::spawn(ServiceConfig::durable(2, &follower_dir), link, bootstrap).unwrap();
    for &(c, policy) in &durable {
        let deadline = Instant::now() + Duration::from_secs(10);
        while replica.watermark(c) < 1 {
            assert!(Instant::now() < deadline, "{c} never installed");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(
            recorded_policy(replica.handle(), c),
            Some(policy),
            "{c} follower"
        );
    }
    let (replica_service, replica_handle) = replica.detach();
    drop(replica_handle);
    replica_service.join_all();

    handle.simulate_crash();
    drop(handle);
    let _ = service.join_all();
    hub.join();

    let config = service_config(2, &dir, FlushPolicy::Batch(64), CADENCE);
    let (service, handle) = DocsService::recover(config).unwrap();
    for &(c, policy) in &durable {
        assert_eq!(recorded_policy(&handle, c), Some(policy), "{c} recovered");
    }
    let err = handle
        .call(docs_service::Op::status(memory_only))
        .unwrap_err();
    assert_eq!(
        err,
        ServiceError::Rejected(RejectReason::UnknownCampaign(memory_only))
    );
    drop(handle);
    let _ = service.join_all();
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&follower_dir);
}
