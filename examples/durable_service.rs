//! The durable runtime end to end: create a campaign, kill the service
//! mid-stream (drop without finish, unflushed group-commit buffer lost),
//! recover from the durability directory, finish — and compare durable
//! group-commit throughput against the in-memory path.
//!
//! ```text
//! cargo run --release --example durable_service
//! ```
//!
//! Two demonstrations:
//!
//! 1. **Crash → recover → byte-identical report.** A deterministic worker
//!    script runs once against a plain in-memory `Docs` (the reference),
//!    then against a durable service that is killed mid-campaign. After
//!    `DocsService::recover` the script is re-driven (the recovered prefix
//!    rejects duplicates deterministically) and the final report must match
//!    the reference byte for byte — truths *and* probability
//!    distributions.
//! 2. **Group commit pays for durability.** The same concurrent crowd
//!    drive runs against an in-memory campaign, a `Batch(64)` durable
//!    campaign, and an `EveryEvent` durable campaign. `Batch(n)` amortizes
//!    the `fdatasync` so durable throughput stays within ~2× of memory;
//!    the numbers land in `BENCH_durability.json` for trend tracking.

use docs_crowd::{AnswerModel, PopulationConfig, WorkerPopulation};
use docs_service::{
    drive_workers_on, AdaptiveCommit, Client, DocsService, DurabilityConfig, ServiceConfig,
    ServiceError, ServiceHandle,
};
use docs_storage::FlushPolicy;
use docs_system::{Docs, DocsConfig, RequesterReport, WorkRequest};
use docs_types::{Answer, CampaignId, ChoiceIndex, Task, TaskBuilder, TaskId, WorkerId};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

// ---------------------------------------------------------------------------
// Part 1: crash → recover → byte-identical report
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
enum Op {
    Golden(WorkerId, Vec<(TaskId, ChoiceIndex)>),
    Answer(Answer),
}

fn smoke_tasks() -> Vec<Task> {
    let subjects = ["Michael Jordan", "Kobe Bryant", "NBA"];
    (0..15)
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

fn smoke_publish(durable_flush: Option<FlushPolicy>) -> Docs {
    Docs::publish(
        &docs_kb::table2_example_kb(),
        smoke_tasks(),
        DocsConfig {
            num_golden: 3,
            k_per_hit: 4,
            answers_per_task: 3,
            z: 10,
            task_shards: 2,
            durable_flush,
            ..Default::default()
        },
    )
    .expect("publish smoke campaign")
}

fn choice_of(worker: WorkerId, task: TaskId) -> ChoiceIndex {
    if worker.0.is_multiple_of(2) {
        task.index() % 2
    } else {
        (task.index() + worker.0 as usize) % 2
    }
}

/// Uninterrupted in-memory run: records the op stream, returns the
/// reference report.
fn oracle() -> (Vec<Op>, RequesterReport) {
    let mut docs = smoke_publish(None);
    let mut ops = Vec::new();
    while !docs.budget_exhausted() {
        let mut progressed = false;
        for w in 0..6u32 {
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
        if !progressed {
            break;
        }
    }
    let report = docs.finish().unwrap();
    (ops, report)
}

fn submit(handle: &ServiceHandle, campaign: CampaignId, op: &Op) {
    let result = match op {
        Op::Golden(w, answers) => handle.call(docs_service::Op::submit_golden(
            campaign,
            *w,
            answers.clone(),
        )),
        Op::Answer(a) => handle.call(docs_service::Op::submit_answer(campaign, *a)),
    };
    match result {
        Ok(()) | Err(ServiceError::Rejected(_)) => {}
        Err(e) => panic!("service failed: {e}"),
    }
}

fn recovery_smoke(dir: &Path) {
    println!("— crash/recovery smoke —");
    let (ops, reference) = oracle();
    let policy = FlushPolicy::Batch(8);
    let config = ServiceConfig {
        shards: 2,
        durability: Some(DurabilityConfig {
            dir: dir.to_path_buf(),
            default_flush: policy,
            // Larger than the whole stream: recovery must lean on replay,
            // not on a lucky snapshot right before the kill.
            snapshot_every: 500,
            adaptive: Some(AdaptiveCommit::default()),
        }),
        ..Default::default()
    };

    // Serve 60% of the stream durably, then die without finishing: the
    // handle is dropped mid-campaign and the unflushed batch is lost.
    let crash_at = ops.len() * 6 / 10;
    let (service, handle) = DocsService::spawn_sharded(smoke_publish(Some(policy)), config.clone());
    let campaign = handle.default_campaign();
    for op in &ops[..crash_at] {
        submit(&handle, campaign, op);
    }
    handle.simulate_crash();
    drop(handle);
    let _ = service.join_all();
    println!(
        "  killed after {crash_at}/{} ops (group-commit tail abandoned)",
        ops.len()
    );

    let (service, handle) = DocsService::recover(config).expect("recover from durability dir");
    let d = handle.metrics().durability();
    println!(
        "  recovered: {} snapshot(s), {} event(s) replayed, {} rejected",
        d.snapshots_loaded, d.events_replayed, d.replay_rejected
    );
    for op in &ops {
        submit(&handle, campaign, op);
    }
    let report = handle
        .call(docs_service::Op::finish(campaign))
        .expect("finish after recovery");
    assert_eq!(
        report.truths, reference.truths,
        "truths must be byte-identical"
    );
    assert_eq!(
        report.truth_distributions, reference.truth_distributions,
        "probabilistic truths must be byte-identical"
    );
    assert_eq!(report.answers_collected, reference.answers_collected);
    println!(
        "  report byte-identical to the uninterrupted run ✓ ({} answers, accuracy {:.3})",
        report.answers_collected, report.accuracy
    );
    drop(handle);
    let _ = service.join_all();
}

// ---------------------------------------------------------------------------
// Part 2: durable vs in-memory throughput
// ---------------------------------------------------------------------------

fn bench_publish(
    task_shards: usize,
    durable_flush: Option<FlushPolicy>,
) -> (Docs, Arc<Vec<Task>>, usize) {
    let mut dataset = docs_datasets::four_domain();
    let m = dataset.domain_set.len();
    let config = DocsConfig {
        num_golden: 20,
        k_per_hit: 20,
        answers_per_task: 4,
        z: 100,
        task_shards,
        durable_flush,
        ..Default::default()
    };
    let docs = Docs::publish(&dataset.kb, std::mem::take(&mut dataset.tasks), config)
        .expect("publish 4D dataset");
    let published = Arc::new(docs.tasks().to_vec());
    (docs, published, m)
}

/// Drives one campaign to budget exhaustion; returns answers/second.
fn measure(dir: &Path, flush: Option<FlushPolicy>, label: &str) -> f64 {
    let config = match flush {
        Some(_) => ServiceConfig {
            shards: 2,
            durability: Some(DurabilityConfig {
                dir: dir.join(label),
                default_flush: FlushPolicy::Batch(64),
                snapshot_every: 4096,
                adaptive: Some(AdaptiveCommit::default()),
            }),
            ..Default::default()
        },
        None => ServiceConfig::sharded(2),
    };
    let (docs, tasks, m) = bench_publish(2, flush);
    let (service, handle) = DocsService::spawn_sharded(docs, config);
    let campaign = handle.default_campaign();
    let population = WorkerPopulation::generate(&PopulationConfig {
        m,
        size: 40,
        seed: 0xD0C5,
        ..Default::default()
    });
    let started = Instant::now();
    let report = drive_workers_on(
        &handle,
        campaign,
        tasks,
        &population,
        AnswerModel::DomainUniform,
        4,
        0xBEEF,
    )
    .expect("drive campaign");
    let wall = started.elapsed().as_secs_f64();
    let answers = report.total_answers();
    let tput = answers as f64 / wall;
    let d = handle.metrics().durability();
    println!(
        "  {label:<22} {answers:>6} answers in {wall:>5.2}s → {tput:>7.0} answers/s   \
         (events logged {:>6}, flushes {:>5}, last flush {:?})",
        d.events_logged, d.log_flushes, d.last_flush
    );
    drop(handle);
    let _ = service.join_all();
    tput
}

/// Read-modify-write merge into `BENCH_durability.json` so the service
/// numbers and the `docs-bench` micro numbers share one trend file.
fn merge_bench_json(updates: &[(&str, f64)]) {
    // Anchor at the workspace root whatever the CWD is.
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("BENCH_durability.json");
    let mut map: HashMap<String, f64> = std::fs::read(&path)
        .ok()
        .and_then(|bytes| serde_json::from_slice(&bytes).ok())
        .unwrap_or_default();
    for (key, value) in updates {
        map.insert(key.to_string(), *value);
    }
    let mut entries: Vec<(String, f64)> = map.into_iter().collect();
    entries.sort_by(|a, b| a.0.cmp(&b.0));
    let body: Vec<String> = entries
        .iter()
        .map(|(k, v)| format!("  \"{k}\": {v}"))
        .collect();
    std::fs::write(&path, format!("{{\n{}\n}}\n", body.join(",\n"))).expect("write bench json");
    println!("  numbers merged into {}", path.display());
}

fn main() {
    let dir = std::env::temp_dir().join(format!("docs-durable-example-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    recovery_smoke(&dir.join("smoke"));

    println!("\n— durable vs in-memory throughput (same crowd drive) —");
    let tput_memory = measure(&dir, None, "in-memory");
    let tput_batch = measure(&dir, Some(FlushPolicy::Batch(64)), "durable batch(64)");
    let tput_every = measure(&dir, Some(FlushPolicy::EveryEvent), "durable every-event");
    let overhead_batch = tput_memory / tput_batch;
    let overhead_every = tput_memory / tput_every;
    println!(
        "\n  group commit overhead: batch(64) {overhead_batch:.2}× vs in-memory \
         (target ≤ ~2×); every-event {overhead_every:.2}×"
    );
    assert!(
        overhead_batch <= 2.0,
        "Batch(64) group commit must keep durable throughput within ~2× of \
         the in-memory path (measured {overhead_batch:.2}×)"
    );

    merge_bench_json(&[
        ("service_tput_memory_answers_per_s", tput_memory),
        ("service_tput_durable_batch64_answers_per_s", tput_batch),
        ("service_tput_durable_every_event_answers_per_s", tput_every),
        ("service_durable_overhead_batch64_x", overhead_batch),
        ("service_durable_overhead_every_event_x", overhead_every),
    ]);

    let _ = std::fs::remove_dir_all(&dir);
    println!("\ndurable service example complete ✓");
}
