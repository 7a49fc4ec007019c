//! Batched answer ingestion against a durable campaign.
//!
//! ```text
//! cargo run --release --example batched_ingestion
//! ```
//!
//! This example runs the same deterministic workload against one durable
//! campaign two ways: one `SubmitAnswer` round-trip per answer, and each
//! HIT's answers returned in one `SubmitAnswerBatch` round-trip (one WAL
//! record, one group-commit `fdatasync`).
//!
//! It prints assignment latency, ingestion round-trips, and group-commit
//! flush counts, and asserts the headline invariant: **both runs produce
//! byte-identical truths** — batching changes cost, never answers.

use docs_service::{Client, DocsService, Op, OpKind, ServiceConfig, ServiceHandle};
use docs_storage::FlushPolicy;
use docs_system::{Docs, DocsConfig, WorkRequest};
use docs_types::{Answer, ChoiceIndex, Task, TaskBuilder, TaskId, WorkerId};
use std::time::Instant;

const NUM_TASKS: usize = 3_000;
const NUM_WORKERS: u32 = 40;

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
            num_golden: 5,
            k_per_hit: 20,
            answers_per_task: 2,
            z: 500,
            task_shards: 4,
            ..Default::default()
        },
    )
    .expect("publish campaign")
}

/// A minimal default campaign for the pool — never driven.
fn placeholder() -> Docs {
    let tasks: Vec<Task> = (0..4)
        .map(|i| {
            TaskBuilder::new(i, format!("Is the NBA popular? ({i})"))
                .yes_no()
                .with_ground_truth(i % 2)
                .with_true_domain(1)
                .build()
                .unwrap()
        })
        .collect();
    Docs::publish(
        &docs_kb::table2_example_kb(),
        tasks,
        DocsConfig {
            num_golden: 2,
            k_per_hit: 2,
            answers_per_task: 1,
            ..Default::default()
        },
    )
    .expect("publish placeholder")
}

/// Deterministic worker choice so every run sees the same answer stream.
fn choice_of(worker: WorkerId, task: TaskId) -> ChoiceIndex {
    if worker.0.is_multiple_of(4) {
        (task.index() + 1) % 2 // a minority dissents
    } else {
        task.index() % 2
    }
}

struct RunReport {
    truths: Vec<ChoiceIndex>,
    assign_mean_us: f64,
    assign_count: u64,
    submit_round_trips: u64,
    log_flushes: u64,
    wall_ms: f64,
}

/// Drives the fixed workload: workers arrive round-robin, answer golden on
/// first contact, then answer every assigned HIT until the budget is done.
fn run(label: &str, batched: bool) -> RunReport {
    let dir = std::env::temp_dir().join(format!(
        "docs-batched-ingestion-{}-{label}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    // The measured campaign is the durable one created below; the pool's
    // default campaign is a tiny placeholder so each run pays DVE + golden
    // selection for the 3000-task set only once.
    let (service, handle) =
        DocsService::spawn_sharded(placeholder(), ServiceConfig::durable(2, &dir));
    let campaign = handle
        .create_campaign_with(publish(), FlushPolicy::EveryEvent)
        .expect("durable campaign");
    let started = Instant::now();
    let mut idle_rounds = 0;
    while idle_rounds < 2 {
        let mut progressed = false;
        for w in 0..NUM_WORKERS {
            let w = WorkerId(w);
            match handle
                .call(Op::request_tasks(campaign, w))
                .expect("request")
            {
                WorkRequest::Golden(golden) => {
                    let answers: Vec<_> = golden.iter().map(|&g| (g, choice_of(w, g))).collect();
                    handle
                        .call(Op::submit_golden(campaign, w, answers))
                        .expect("golden");
                    progressed = true;
                }
                WorkRequest::Tasks(hit) => {
                    progressed = true;
                    submit_hit(&handle, campaign, w, &hit, batched);
                }
                WorkRequest::Done => {}
            }
        }
        idle_rounds = if progressed { 0 } else { idle_rounds + 1 };
    }
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;
    let report = handle.call(Op::finish(campaign)).expect("finish");
    let assign = handle.metrics().stats(OpKind::Assign);
    let submits = handle.metrics().stats(OpKind::Submit).count
        + handle.metrics().stats(OpKind::SubmitBatch).count;
    let flushes = handle.metrics().durability().log_flushes;
    drop(handle);
    service.join_all();
    let _ = std::fs::remove_dir_all(&dir);
    RunReport {
        truths: report.truths,
        assign_mean_us: assign.mean().as_secs_f64() * 1e6,
        assign_count: assign.count,
        submit_round_trips: submits,
        log_flushes: flushes,
        wall_ms,
    }
}

fn submit_hit(
    handle: &ServiceHandle,
    campaign: docs_types::CampaignId,
    w: WorkerId,
    hit: &[TaskId],
    batched: bool,
) {
    if batched {
        let answers: Vec<Answer> = hit
            .iter()
            .map(|&t| Answer::new(w, t, choice_of(w, t)))
            .collect();
        handle
            .call(Op::submit_answer_batch(campaign, answers))
            .expect("batch");
    } else {
        for &t in hit {
            handle
                .call(Op::submit_answer(
                    campaign,
                    Answer::new(w, t, choice_of(w, t)),
                ))
                .expect("answer");
        }
    }
}

fn main() {
    println!(
        "batched ingestion: {NUM_TASKS} tasks, {NUM_WORKERS} workers, \
         durable EveryEvent campaign\n"
    );
    let [per_answer, batched] =
        [("per-answer", false), ("batched", true)].map(|(label, batched)| {
            let r = run(label, batched);
            println!(
                "{label:12} assign {:>8.1} µs/req ({} reqs) · {:>5} ingest round-trips · \
             {:>5} fsyncs · {:>7.0} ms wall",
                r.assign_mean_us, r.assign_count, r.submit_round_trips, r.log_flushes, r.wall_ms
            );
            r
        });
    // The headline invariant: two cost profiles, one answer.
    assert_eq!(
        batched.truths, per_answer.truths,
        "batched: truths diverged from the per-answer reference"
    );
    println!(
        "\nbatched ingestion: {} -> {} ingestion round-trips, {} -> {} fsyncs",
        per_answer.submit_round_trips,
        batched.submit_round_trips,
        per_answer.log_flushes,
        batched.log_flushes
    );
    println!("both runs produced byte-identical truths ✓");
}
