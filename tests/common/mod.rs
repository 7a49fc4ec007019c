//! The scripted crowd and the single-node oracle shared by the recovery
//! and replication suites.
//!
//! [`oracle`] drives one uninterrupted in-memory campaign with a fixed
//! worker script and records every submission as an [`Op`]; a suite
//! replays that stream against a service that crashes or fails over, and
//! [`assert_byte_identical`] checks the finished report against the
//! oracle's.

use docs_service::{ServiceError, ServiceHandle};
use docs_storage::FlushPolicy;
use docs_system::{Docs, DocsConfig, RequesterReport, WorkRequest};
use docs_types::{Answer, CampaignId, ChoiceIndex, Task, TaskBuilder, TaskId, WorkerId};
use std::path::PathBuf;

pub const NUM_TASKS: usize = 12;
const NUM_WORKERS: u32 = 5;

/// One recorded platform operation, replayable against any service. The
/// service's own operation type is spelled `docs_service::Op`.
#[derive(Debug, Clone)]
pub enum Op {
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

/// Publishes the fixed campaign; `durable_flush` opts it into the
/// service's write-ahead log.
pub fn publish(task_shards: usize, durable_flush: Option<FlushPolicy>) -> Docs {
    Docs::publish(
        &docs_kb::table2_example_kb(),
        tasks(),
        DocsConfig {
            num_golden: 3,
            k_per_hit: 3,
            answers_per_task: 3,
            z: 5, // small period: every stream crosses several full-inference runs
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
        task.index() % 2 // majority answers the ground truth
    } else {
        (task.index() + worker.0 as usize) % 2
    }
}

/// Drives an uninterrupted in-memory campaign, recording every submission;
/// returns the operation stream and the reference report.
pub fn oracle(task_shards: usize) -> (Vec<Op>, RequesterReport) {
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
                        assert_eq!(docs.submit_answer_batch(vec![answer]), Ok(vec![]));
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

/// Sends one recorded op to `campaign` through a pool handle, an answer
/// as a one-answer batch whose rejection comes back as
/// `ServiceError::Rejected`. Which errors are acceptable is the caller's
/// call.
pub fn send(handle: &ServiceHandle, campaign: CampaignId, op: &Op) -> Result<(), ServiceError> {
    match op {
        Op::Golden(w, answers) => handle.call(docs_service::Op::submit_golden(
            campaign,
            *w,
            answers.clone(),
        )),
        Op::Answer(answer) => {
            let batch = docs_service::Op::submit_answer_batch(campaign, vec![*answer]);
            match handle.call(batch)?.rejected.pop() {
                Some((_, reason)) => Err(ServiceError::Rejected(reason)),
                None => Ok(()),
            }
        }
    }
}

/// A fresh scratch directory for one test case's durability files.
pub fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("docs-tests-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

pub fn assert_byte_identical(report: &RequesterReport, reference: &RequesterReport, label: &str) {
    assert_eq!(report.truths, reference.truths, "truths diverged: {label}");
    assert_eq!(
        report.truth_distributions, reference.truth_distributions,
        "probabilistic truths diverged: {label}"
    );
    assert_eq!(
        report.answers_collected, reference.answers_collected,
        "{label}"
    );
}
