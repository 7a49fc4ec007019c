//! Durability micro-benchmarks: WAL append throughput under each flush
//! policy, and snapshot + replay latency as a function of event count.
//!
//! ```text
//! cargo bench -p docs-bench --bench durability
//! ```
//!
//! Besides the criterion-style console output, the run merges its headline
//! numbers into `BENCH_durability.json` (shared with the
//! `durable_service` example's service-level throughputs) so the perf
//! trajectory of the durable runtime is tracked from PR to PR.

use criterion::{black_box, criterion_group, BenchmarkId, Criterion};
use docs_storage::{recover_tree, AdaptiveCommit, CampaignLog, FlushPolicy};
use docs_system::{Docs, DocsConfig};
use docs_types::{codec, Answer, CampaignEvent, CampaignId, Task, TaskBuilder, TaskId, WorkerId};
use std::path::PathBuf;
use std::time::Instant;

const CAMPAIGN: CampaignId = CampaignId(0);
const NUM_TASKS: usize = 64;
const PAYLOAD: &[u8] = &[0x5A; 128];

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("docs-bench-dur-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn policies() -> Vec<FlushPolicy> {
    vec![
        FlushPolicy::EveryEvent,
        FlushPolicy::Batch(16),
        FlushPolicy::Batch(64),
        FlushPolicy::Batch(256),
    ]
}

/// Appends `n` fixed-size events under `policy` (optionally with adaptive
/// group commit enabled); returns events/second.
fn append_throughput_with(policy: FlushPolicy, adaptive: Option<AdaptiveCommit>, n: usize) -> f64 {
    let dir = tmp_dir(&format!("tput-{}", policy.label()));
    let mut log = CampaignLog::open(&dir).expect("open log");
    log.register(CAMPAIGN, policy, 0);
    log.set_adaptive(adaptive);
    let started = Instant::now();
    for _ in 0..n {
        log.append_event(CAMPAIGN, PAYLOAD).expect("append");
    }
    log.flush().expect("final flush");
    let events_per_s = n as f64 / started.elapsed().as_secs_f64();
    drop(log);
    let _ = std::fs::remove_dir_all(&dir);
    events_per_s
}

fn append_throughput(policy: FlushPolicy, n: usize) -> f64 {
    append_throughput_with(policy, None, n)
}

fn wal_append(c: &mut Criterion) {
    let mut group = c.benchmark_group("wal_append");
    for policy in policies() {
        let dir = tmp_dir(&format!("bench-{}", policy.label()));
        let mut log = CampaignLog::open(&dir).expect("open log");
        log.register(CAMPAIGN, policy, 0);
        group.bench_with_input(
            BenchmarkId::new("append_128B", policy.label()),
            &policy,
            |b, _| {
                b.iter(|| log.append_event(CAMPAIGN, black_box(PAYLOAD)).unwrap());
            },
        );
        drop(log);
        let _ = std::fs::remove_dir_all(&dir);
    }
    group.finish();
}

fn bench_tasks() -> Vec<Task> {
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

/// Builds one campaign's snapshot record plus `n` answer event records
/// (distinct worker/task pairs, so replay accepts every one).
fn snapshot_and_events(n: usize) -> (Vec<u8>, Vec<Vec<u8>>) {
    let docs = Docs::publish(
        &docs_kb::table2_example_kb(),
        bench_tasks(),
        DocsConfig {
            num_golden: 4,
            k_per_hit: 8,
            answers_per_task: 0, // unlimited: replay never hits the budget
            z: 100,
            ..Default::default()
        },
    )
    .expect("publish bench campaign");
    let snapshot = codec::to_bytes(&docs.snapshot());
    let events: Vec<Vec<u8>> = (0..n)
        .map(|i| {
            let event = CampaignEvent::answer(Answer::new(
                WorkerId((i / NUM_TASKS) as u32),
                TaskId((i % NUM_TASKS) as u32),
                i % 2,
            ));
            codec::encode_event(&event)
        })
        .collect();
    (snapshot, events)
}

/// Restores the snapshot and replays `events`; returns seconds.
fn replay_latency(snapshot: &[u8], events: &[Vec<u8>]) -> f64 {
    let started = Instant::now();
    let (_, stats) = Docs::replay(CAMPAIGN, snapshot, events).expect("replay succeeds");
    assert_eq!(stats.applied as usize, events.len());
    started.elapsed().as_secs_f64()
}

fn snapshot_replay(c: &mut Criterion) {
    let mut group = c.benchmark_group("snapshot_replay");
    for n in [64usize, 512, 2048] {
        let (snapshot, events) = snapshot_and_events(n);
        group.bench_with_input(BenchmarkId::new("replay", n), &n, |b, _| {
            b.iter(|| black_box(replay_latency(&snapshot, &events)));
        });
    }
    group.finish();
}

/// End-to-end durable write + recover cycle at the storage layer.
fn log_write_then_recover(c: &mut Criterion) {
    let mut group = c.benchmark_group("log_recover");
    let dir = tmp_dir("recover");
    {
        let mut log = CampaignLog::open(dir.join("shard-0")).expect("open log");
        log.register(CAMPAIGN, FlushPolicy::Batch(64), 0);
        for _ in 0..4096 {
            log.append_event(CAMPAIGN, PAYLOAD).expect("append");
        }
    }
    group.bench_function("recover_tree_4096_events", |b| {
        b.iter(|| {
            let rec = recover_tree(black_box(&dir)).expect("recover");
            assert_eq!(rec.campaigns[&CAMPAIGN].events.len(), 4096);
        });
    });
    group.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

criterion_group!(benches, wal_append, snapshot_replay, log_write_then_recover);

/// Merges headline numbers into `BENCH_durability.json` (same file the
/// `durable_service` example writes its service-level throughputs to).
fn write_bench_json() {
    let mut updates: Vec<(String, f64)> = Vec::new();
    for policy in policies() {
        let tput = append_throughput(policy, 4000);
        updates.push((
            format!("wal_append_tput_{}_events_per_s", policy.label()),
            tput,
        ));
    }
    // Adaptive group commit keeps `EveryEvent` acknowledgment semantics
    // (acked ⇒ durable, acks deferred to the batch sync) while amortizing
    // the fdatasync like Batch(n) — the headline win of the group-commit
    // work, tracked as its own key.
    let adaptive_tput = append_throughput_with(FlushPolicy::EveryEvent, Some(AdaptiveCommit), 4000);
    updates.push((
        "wal_append_tput_adaptive_every_event_events_per_s".to_string(),
        adaptive_tput,
    ));
    for n in [64usize, 512, 2048] {
        let (snapshot, events) = snapshot_and_events(n);
        updates.push((
            format!("snapshot_replay_latency_{n}_events_ms"),
            replay_latency(&snapshot, &events) * 1e3,
        ));
    }
    // Recovery read-path allocation accounting: with the shared per-file
    // arena, payload buffers allocated scale with *files*, not events —
    // before the arena every event payload was its own `to_vec`.
    {
        let dir = tmp_dir("alloc-count");
        {
            let mut log = CampaignLog::open(dir.join("shard-0")).expect("open log");
            log.register(CAMPAIGN, FlushPolicy::Batch(64), 0);
            for _ in 0..4096 {
                log.append_event(CAMPAIGN, PAYLOAD).expect("append");
            }
        }
        let rec = recover_tree(&dir).expect("recover");
        println!(
            "recovery allocations for {} events: {} arena buffers \
             (per-event copy path would have allocated {})",
            rec.events_recovered,
            rec.payload_allocations,
            rec.events_recovered + rec.campaigns.len() as u64,
        );
        updates.push((
            "recovery_payload_allocations_4096_events".to_string(),
            rec.payload_allocations as f64,
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }
    docs_bench::merge_bench_json("BENCH_durability.json", &updates);
}

fn main() {
    benches();
    write_bench_json();
}
