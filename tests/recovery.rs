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

use docs_service::{
    AdaptiveCommit, Client, DocsService, DurabilityConfig, ServiceConfig, ServiceError,
    ServiceHandle,
};
use docs_storage::FlushPolicy;
use docs_system::{Docs, DocsConfig, RequesterReport, WorkRequest};
use docs_types::{Answer, CampaignId, ChoiceIndex, Task, TaskBuilder, TaskId, WorkerId};
use std::path::{Path, PathBuf};

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

fn docs_config(task_shards: usize, durable_flush: Option<FlushPolicy>) -> DocsConfig {
    DocsConfig {
        num_golden: 3,
        k_per_hit: 3,
        answers_per_task: 3,
        z: 5, // small period: replay crosses several full-inference runs
        task_shards,
        durable_flush,
        ..Default::default()
    }
}

fn publish(task_shards: usize, durable_flush: Option<FlushPolicy>) -> Docs {
    Docs::publish(
        &docs_kb::table2_example_kb(),
        tasks(),
        docs_config(task_shards, durable_flush),
    )
    .unwrap()
}

/// Deterministic worker choice — varies by task and worker so TI has
/// disagreement to resolve.
fn choice_of(worker: WorkerId, task: TaskId) -> ChoiceIndex {
    if worker.0.is_multiple_of(2) {
        task.index() % 2 // majority answers the ground truth
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

/// Submits one op, tolerating deterministic rejections (duplicates of the
/// already-recovered prefix).
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
    let dir = std::env::temp_dir().join(format!("docs-recovery-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn service_config(shards: usize, dir: &Path, policy: FlushPolicy) -> ServiceConfig {
    ServiceConfig {
        shards,
        durability: Some(DurabilityConfig {
            dir: dir.to_path_buf(),
            default_flush: policy,
            // Small cadence so the run crosses snapshot + prune cycles.
            snapshot_every: 7,
            adaptive: Some(AdaptiveCommit::default()),
        }),
        ..Default::default()
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

/// Runs the full kill → recover → resume cycle and checks byte-identity.
///
/// `recover_shards` lets the recovering pool use a different shard count
/// than the writing one. `tear_tail` appends a partial WAL record to the
/// campaign's segment after the kill (a crash mid-append).
fn crash_recover_case(
    name: &str,
    shards: usize,
    recover_shards: usize,
    task_shards: usize,
    policy: FlushPolicy,
    crash_at: usize,
    tear_tail: bool,
) {
    let label = format!(
        "{name}: shards {shards}→{recover_shards}, task_shards {task_shards}, \
         policy {policy:?}, crash at {crash_at}"
    );
    let (ops, reference) = oracle(task_shards);
    assert!(!ops.is_empty());
    let crash_at = crash_at.min(ops.len());
    let dir = tmp_dir(name);

    // Phase 1: serve the prefix durably, then die without flushing.
    let config = service_config(shards, &dir, policy);
    let (service, handle) = DocsService::spawn_sharded(publish(task_shards, Some(policy)), config);
    let campaign = handle.default_campaign();
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
    let config = service_config(recover_shards, &dir, policy);
    let (service, handle) = DocsService::recover(config).expect("recovery succeeds");
    assert_eq!(handle.default_campaign(), campaign, "{label}");
    assert!(
        handle.metrics().durability().snapshots_loaded >= 1,
        "{label}"
    );
    // Satellite regression: `Wal::replay_all` classifies the torn tail,
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
        // Long interval: almost nothing auto-flushes, so recovery leans on
        // creation/snapshot syncs — the worst case for durable coverage.
        FlushPolicy::IntervalMs(10_000),
    ];
    for shards in [1usize, 4] {
        for task_shards in [1usize, 4] {
            for policy in policies {
                crash_recover_case(
                    &format!("matrix-{shards}-{task_shards}-{}", policy.label()),
                    shards,
                    shards,
                    task_shards,
                    policy,
                    23, // mid-campaign, past golden bootstrap and a z-cycle
                    false,
                );
            }
        }
    }
}

#[test]
fn recovery_survives_a_torn_final_wal_record() {
    for policy in [FlushPolicy::EveryEvent, FlushPolicy::Batch(4)] {
        crash_recover_case(
            &format!("torn-{}", policy.label()),
            1,
            1,
            4,
            policy,
            17,
            true,
        );
    }
}

#[test]
fn recovery_at_the_edges_of_the_stream() {
    // Crash before any event, after the first event, and after the last.
    for crash_at in [0usize, 1, usize::MAX] {
        crash_recover_case(
            &format!("edge-{crash_at}"),
            1,
            1,
            1,
            FlushPolicy::EveryEvent,
            crash_at,
            false,
        );
    }
}

#[test]
fn recovery_rehomes_campaigns_when_the_shard_count_changes() {
    crash_recover_case("reshard-up", 1, 4, 4, FlushPolicy::Batch(8), 23, false);
    crash_recover_case("reshard-down", 4, 1, 1, FlushPolicy::EveryEvent, 23, true);
}

/// Satellite regression: `FlushPolicy::IntervalMs`'s elapsed check only
/// runs at *append* time, so before the idle-flush fix a shard that went
/// quiet kept acknowledged events buffered indefinitely — a crash then lost
/// them even though the interval had long expired. Now the shard loop
/// hardens the buffer when the window elapses with no traffic: a crash
/// after the idle window recovers every acknowledged event.
#[test]
fn interval_policy_flushes_on_idle_so_a_later_crash_loses_nothing() {
    let policy = FlushPolicy::IntervalMs(40);
    let (ops, _) = oracle(1);
    let dir = tmp_dir("interval-idle-flush");
    let config = service_config(1, &dir, policy);
    let (service, handle) = DocsService::spawn_sharded(publish(1, Some(policy)), config);
    let campaign = handle.default_campaign();
    // Burst a prefix quickly (everything lands in the group-commit buffer;
    // at most the first append syncs, via the creation flush resetting the
    // window), then go idle past the interval.
    let prefix = 9.min(ops.len());
    for op in &ops[..prefix] {
        submit(&handle, campaign, op);
    }
    std::thread::sleep(std::time::Duration::from_millis(400));
    // Crash: the in-process kill abandons whatever is still buffered. The
    // idle flush must have left that buffer empty.
    handle.simulate_crash();
    drop(handle);
    let _ = service.join_all();

    let recovered = docs_storage::recover_tree(&dir).expect("clean recovery");
    let rec = &recovered.campaigns[&campaign];
    // Published + one event per prefix op: every acknowledged event
    // survived the idle window + crash.
    assert_eq!(
        rec.last_seq,
        1 + prefix as u64,
        "acknowledged events were lost across the idle window"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The inverse guarantee: a *simulated kill* must not be defeated by the
/// idle-flush timer. Once the crash flag is up, the timer firing must end
/// the shard (abandoning the buffer) rather than harden the events the
/// kill is supposed to lose.
#[test]
fn simulated_crash_is_not_defeated_by_the_idle_flush_timer() {
    let policy = FlushPolicy::IntervalMs(100);
    let (ops, _) = oracle(1);
    let dir = tmp_dir("crash-vs-idle-timer");
    let (service, handle) =
        DocsService::spawn_sharded(publish(1, Some(policy)), service_config(1, &dir, policy));
    let campaign = handle.default_campaign();
    let prefix = 9.min(ops.len());
    for op in &ops[..prefix] {
        submit(&handle, campaign, op);
    }
    handle.simulate_crash();
    // The handle stays alive: the only way the shard can stop is the idle
    // timer waking it with the crash flag already set. Joining here both
    // proves it stops and rules out the buggy flush-and-continue path
    // (which would leave the shard blocked and this join hanging).
    let _ = service.join_all();
    drop(handle);
    let recovered = docs_storage::recover_tree(&dir).expect("clean recovery");
    let rec = &recovered.campaigns[&campaign];
    assert!(
        rec.last_seq < 1 + prefix as u64,
        "the killed shard's unsynced tail must be lost, not idle-flushed \
         (recovered seq {} of {})",
        rec.last_seq,
        1 + prefix
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Satellite regression: crash with a non-empty *unsynced* buffer under
/// `IntervalMs`. Recovery must replay cleanly to the last synced event —
/// the buffered suffix simply vanishes; it must not surface as a mid-log
/// CRC error or sequence gap.
#[test]
fn interval_crash_with_unsynced_buffer_replays_to_the_last_synced_event() {
    // A long window (and a huge snapshot cadence) so nothing auto-syncs
    // between the explicit synced points.
    let policy = FlushPolicy::IntervalMs(60_000);
    let (ops, _) = oracle(2);
    let dir = tmp_dir("interval-unsynced-buffer");
    let config = ServiceConfig {
        shards: 1,
        durability: Some(DurabilityConfig {
            dir: dir.clone(),
            default_flush: policy,
            snapshot_every: 100_000,
            adaptive: Some(AdaptiveCommit::default()),
        }),
        ..Default::default()
    };
    let (service, handle) = DocsService::spawn_sharded(publish(2, Some(policy)), config.clone());
    let campaign = handle.default_campaign();
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
    assert_byte_identical(&report, &reference, "interval unsynced buffer");
    drop(handle);
    let _ = service.join_all();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn multi_campaign_recovery_preserves_every_durable_campaign() {
    let dir = tmp_dir("multi");
    let policy = FlushPolicy::EveryEvent;
    let (ops, reference) = oracle(2);
    let config = service_config(4, &dir, policy);
    let (service, handle) = DocsService::spawn_sharded(publish(2, Some(policy)), config);
    let c0 = handle.default_campaign();
    // A second durable campaign (different geometry) and a memory-only one.
    let c1 = handle.create_campaign_durable(publish(3, None)).unwrap();
    let c2 = handle.create_campaign(publish(1, None)).unwrap();
    for op in &ops[..20] {
        submit(&handle, c0, op);
        submit(&handle, c1, op);
        submit(&handle, c2, op);
    }
    handle.simulate_crash();
    drop(handle);
    let _ = service.join_all();

    let (service, handle) = DocsService::recover(service_config(4, &dir, policy)).unwrap();
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
