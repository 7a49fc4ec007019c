//! Replication-lag benchmark: how far a live follower trails a serving
//! primary, and what the WAL-shipping pipeline costs end to end.
//!
//! ```text
//! cargo bench -p docs-bench --bench replication
//! REPLICATION_SMOKE=1 cargo bench -p docs-bench --bench replication   # CI size
//! ```
//!
//! Three headline numbers, merged into `BENCH_replication.json`:
//!
//! * **pipeline throughput** — answers/s through submit → validate → WAL
//!   append + `fdatasync` → ship → CRC decode → follower re-validate +
//!   apply, measured to the *follower caught up* line (not just the
//!   primary ack),
//! * **single-event ack lag** — wall time from one acknowledged submit to
//!   the follower's watermark covering it (best over rounds: scheduler
//!   noise dwarfs the per-event cost otherwise),
//! * **wire bytes per event** — the encoded frame overhead of the stream.
//!
//! Before any number is reported, the bench asserts the follower's final
//! serialized state is **byte-identical** to the primary's — a lag number
//! for a diverged replica would be meaningless.

use docs_replication::{bootstrap_frames, replication_channel, Replica, ReplicationHub};
use docs_service::{AdaptiveCommit, DocsService, DurabilityConfig, Op, ServiceConfig};
use docs_storage::FlushPolicy;
use docs_system::{Docs, DocsConfig, WorkRequest};
use docs_types::{Answer, CampaignId, Task, TaskBuilder, WorkerId};
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn smoke() -> bool {
    std::env::var("REPLICATION_SMOKE").is_ok()
}

fn num_tasks() -> usize {
    if smoke() {
        24
    } else {
        96
    }
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("docs-bench-repl-{}-{name}", std::process::id()));
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

fn publish(n: usize, policy: FlushPolicy) -> Docs {
    Docs::publish(
        &docs_kb::table2_example_kb(),
        tasks(n),
        DocsConfig {
            num_golden: 4,
            k_per_hit: 6,
            answers_per_task: 4,
            z: 50,
            durable_flush: Some(policy),
            ..Default::default()
        },
    )
    .expect("publish bench campaign")
}

struct Pair {
    service: DocsService,
    handle: docs_service::ServiceHandle,
    campaign: CampaignId,
    replica: Replica,
    hub: ReplicationHub,
    dir: PathBuf,
}

fn replicated_pair(name: &str, policy: FlushPolicy) -> Pair {
    let dir = tmp_dir(name);
    let (sink, feed) = replication_channel();
    let config = ServiceConfig {
        shards: 2,
        durability: Some(DurabilityConfig {
            dir: dir.clone(),
            default_flush: policy,
            snapshot_every: 100_000,
            adaptive: Some(AdaptiveCommit),
        }),
        ..Default::default()
    }
    .with_replication(sink);
    let (service, handle) = DocsService::spawn_empty(config).expect("spawn primary");
    let campaign = handle
        .create_campaign(publish(num_tasks(), policy))
        .expect("create campaign");
    let hub = ReplicationHub::spawn(feed);
    let link = hub.subscribe("bench-follower");
    let bootstrap = bootstrap_frames(&dir).expect("bootstrap scan");
    let replica =
        Replica::spawn(ServiceConfig::follower(2), link, bootstrap).expect("spawn replica");
    Pair {
        service,
        handle,
        campaign,
        replica,
        hub,
        dir,
    }
}

fn await_watermark(replica: &Replica, campaign: CampaignId, seq: u64) {
    let deadline = Instant::now() + Duration::from_secs(60);
    while replica.watermark(campaign) < seq {
        if let Some(e) = replica.error() {
            panic!("replica applier failed: {e}");
        }
        assert!(Instant::now() < deadline, "follower never caught up");
        std::hint::spin_loop();
    }
}

fn teardown(pair: Pair) {
    let (replica_service, replica_handle) = pair.replica.detach();
    drop(replica_handle);
    replica_service.join_all();
    drop(pair.handle);
    pair.service.join_all();
    pair.hub.join();
    let _ = std::fs::remove_dir_all(&pair.dir);
}

/// Drives golden bootstrap + every HIT to budget; returns answers shipped
/// and the acked event count (Published + one event per accepted submit).
fn drive_to_budget(pair: &Pair) -> (u64, u64) {
    let mut answers = 0u64;
    let mut events = 1u64; // Published
    let workers = 8u32;
    let mut idle_rounds = 0;
    while idle_rounds < 2 {
        let mut progressed = false;
        for w in 0..workers {
            let w = WorkerId(w);
            match pair
                .handle
                .call(Op::request_tasks(pair.campaign, w))
                .expect("request")
            {
                WorkRequest::Golden(golden) => {
                    let picks: Vec<_> = golden.iter().map(|&g| (g, g.index() % 2)).collect();
                    pair.handle
                        .call(Op::submit_golden(pair.campaign, w, picks))
                        .expect("golden");
                    events += 1;
                    progressed = true;
                }
                WorkRequest::Tasks(hit) => {
                    let batch: Vec<Answer> = hit
                        .iter()
                        .map(|&t| Answer::new(w, t, (t.index() + w.0 as usize) % 2))
                        .collect();
                    let outcome = pair
                        .handle
                        .call(Op::submit_answer_batch(pair.campaign, batch))
                        .expect("batch");
                    if outcome.accepted > 0 {
                        events += 1; // one batch event per accepted sub-batch
                        answers += outcome.accepted as u64;
                        progressed = true;
                    }
                }
                WorkRequest::Done => {}
            }
        }
        idle_rounds = if progressed { 0 } else { idle_rounds + 1 };
    }
    // Group commit keeps the tail batch buffered (acknowledged ≠ durable
    // under `Batch(n)`), and only durable events ship. `finish` hardens
    // everything unconditionally — the requester's "my report is final"
    // moment is also the replication frontier's.
    pair.handle.call(Op::finish(pair.campaign)).expect("finish");
    events += 1; // the Finished event
    (answers, events)
}

fn main() {
    let repeats = if smoke() { 2 } else { 4 };
    println!(
        "replication: {} tasks, shards=2 primary → shards=2 follower (smoke={}, best of {repeats})\n",
        num_tasks(),
        smoke()
    );

    // ---- Pipeline throughput to the follower-caught-up line. ----
    let policy = FlushPolicy::Batch(8);
    let mut best_wall = f64::INFINITY;
    let mut answers_shipped = 0u64;
    let mut wire_bytes_per_event = 0.0;
    for round in 0..repeats {
        let pair = replicated_pair(&format!("tput-{round}"), policy);
        let started = Instant::now();
        let (answers, events) = drive_to_budget(&pair);
        // The clock stops when the *follower* covers the last acked event.
        pair.handle.metrics();
        await_watermark(&pair.replica, pair.campaign, events);
        let wall = started.elapsed().as_secs_f64();
        // Correctness before any number: byte-identical end states.
        assert_eq!(
            pair.replica
                .handle()
                .call(Op::snapshot_state(pair.campaign))
                .expect("replica state"),
            pair.handle
                .call(Op::snapshot_state(pair.campaign))
                .expect("primary state"),
            "follower diverged from primary"
        );
        let stats = pair.hub.stats();
        wire_bytes_per_event = stats.bytes_shipped as f64 / stats.events_shipped.max(1) as f64;
        if wall < best_wall {
            best_wall = wall;
        }
        answers_shipped = answers;
        teardown(pair);
    }
    let tput = answers_shipped as f64 / best_wall;
    println!(
        "pipeline throughput: {answers_shipped} answers replicated in {best_wall:.3}s (best) → \
         {tput:.0} answers/s to the follower-caught-up line"
    );
    println!("wire overhead: {wire_bytes_per_event:.0} bytes/event on the stream");

    // ---- Single-event ack lag (EveryEvent: acked ⇒ durable ⇒ shipped). ----
    let pair = replicated_pair("lag", FlushPolicy::EveryEvent);
    // Golden bootstrap one worker so answers are accepted.
    let w = WorkerId(0);
    if let WorkRequest::Golden(golden) = pair
        .handle
        .call(Op::request_tasks(pair.campaign, w))
        .expect("request")
    {
        let picks: Vec<_> = golden.iter().map(|&g| (g, g.index() % 2)).collect();
        pair.handle
            .call(Op::submit_golden(pair.campaign, w, picks))
            .expect("golden");
    }
    let mut seq = 2u64; // Published + golden
    await_watermark(&pair.replica, pair.campaign, seq);
    let mut best_lag = f64::INFINITY;
    let lag_rounds = if smoke() { 16 } else { 64 };
    for i in 0..lag_rounds {
        let answer = Answer::new(w, docs_types::TaskId((i % num_tasks()) as u32), i % 2);
        let started = Instant::now();
        if pair
            .handle
            .call(Op::submit_answer(pair.campaign, answer))
            .is_err()
        {
            continue; // duplicate/budget: not a lag sample
        }
        seq += 1;
        await_watermark(&pair.replica, pair.campaign, seq);
        let lag = started.elapsed().as_secs_f64();
        if lag < best_lag {
            best_lag = lag;
        }
    }
    let lag_us = best_lag * 1e6;
    println!("single-event ack→applied lag: {lag_us:.0} µs (best of {lag_rounds})");
    teardown(pair);

    docs_bench::merge_bench_json(
        "BENCH_replication.json",
        &[
            ("replication_pipeline_tput_answers_per_s".to_string(), tput),
            ("replication_single_event_lag_us".to_string(), lag_us),
            (
                "replication_wire_bytes_per_event".to_string(),
                wire_bytes_per_event,
            ),
        ],
    );
}
