//! A campaign's inference is a function of its event log alone: the same
//! events applied through `Docs::apply` give the same snapshot record and
//! the same report whether the campaign is read after every event or only
//! at a few seeded points. One tenants-shaped campaign (120 yes/no tasks
//! over the Table 2 KB's three domains, 20 workers, `k = 4`, 4 answers per
//! task, `z = 50`) is recorded from a live crowd, then replayed both ways.
//! Run with `--release` as well.

use docs_system::{Docs, DocsConfig, WorkRequest};
use docs_types::{Answer, CampaignEvent, ChoiceIndex, Task, TaskBuilder, TaskId, WorkerId};

const TASKS: usize = 120;
const WORKERS: u32 = 20;

/// A 64-bit LCG, so the crowd needs no `rand`.
struct Lcg(u64);

impl Lcg {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 33) % n
    }
}

/// FNV-1a over `bytes`, continuing from `hash`.
fn fnv(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn config() -> DocsConfig {
    DocsConfig {
        num_golden: 4,
        k_per_hit: 4,
        answers_per_task: 4,
        z: 50,
        ..Default::default()
    }
}

fn truth(task: TaskId) -> ChoiceIndex {
    (task.index() * 7 + 3) % 11 % 2
}

/// The tenants' task texts: DVE links each subject to its domains.
fn tasks() -> Vec<Task> {
    let subjects = ["Michael Jordan", "Kobe Bryant", "NBA"];
    (0..TASKS)
        .map(|i| {
            let subject = subjects[(i * 5 + i / 7) % subjects.len()];
            TaskBuilder::new(i, format!("Is {subject} great? (t{i})"))
                .yes_no()
                .with_ground_truth(truth(TaskId::from(i)))
                .build()
                .unwrap()
        })
        .collect()
}

fn publish() -> Docs {
    Docs::publish(&docs_kb::table2_example_kb(), tasks(), config()).unwrap()
}

/// Worker `w`'s choice on `task`: the truth with a probability that
/// depends on the worker and the task's text (an expert on one subject,
/// ordinary elsewhere, every tenth worker a spammer).
fn choice(rng: &mut Lcg, w: WorkerId, task: TaskId) -> ChoiceIndex {
    let subject = (task.index() * 5 + task.index() / 7) % 3;
    let percent = match w.0 {
        w if w % 10 == 9 => 48,
        w if w % 5 < 2 && w as usize % 3 == subject => 91,
        _ => 62,
    };
    let right = truth(task);
    if rng.below(100) < percent {
        right
    } else {
        1 - right
    }
}

/// The campaign's event log, recorded from a live crowd: every worker
/// arrives once first (and takes the golden HIT), then arrivals are drawn
/// from the seed until the budget is spent; `Finished` closes the log.
fn recorded_events() -> Vec<CampaignEvent> {
    let mut docs = publish();
    let mut rng = Lcg(7);
    let mut events = Vec::new();
    let mut arrivals = 0u32;
    while !docs.budget_exhausted() {
        assert!(arrivals < 10_000, "the crowd stalled");
        let w = WorkerId(if arrivals < WORKERS {
            arrivals
        } else {
            rng.below(u64::from(WORKERS)) as u32
        });
        arrivals += 1;
        let event = match docs.request_tasks(w) {
            WorkRequest::Golden(ids) => {
                let answers = ids.iter().map(|&t| (t, choice(&mut rng, w, t))).collect();
                CampaignEvent::golden(w, answers)
            }
            WorkRequest::Tasks(ids) => {
                let answers = ids
                    .iter()
                    .map(|&t| Answer::new(w, t, choice(&mut rng, w, t)))
                    .collect();
                CampaignEvent::answer_batch(answers)
            }
            WorkRequest::Done => continue,
        };
        docs.apply(&event).unwrap();
        events.push(event);
    }
    events.push(CampaignEvent::finished());
    events
}

/// One read of the campaign: FNV of its snapshot record, then of its
/// report (answers collected, truths, every `s_i`'s bits).
fn read(docs: &mut Docs) -> u64 {
    let hash = fnv(FNV_OFFSET, &docs.snapshot_bytes());
    let report = docs.report();
    let mut hash = fnv(hash, &(report.answers_collected as u64).to_le_bytes());
    for (&truth, s) in report.truths.iter().zip(&report.truth_distributions) {
        hash = fnv(hash, &(truth as u64).to_le_bytes());
        for p in s {
            hash = fnv(hash, &p.to_bits().to_le_bytes());
        }
    }
    hash
}

/// The log's shape and both replays' reads are pinned, and every sparse
/// read equals the every-event read at the same position.
#[test]
fn reads_at_any_points_see_the_same_campaign() {
    let events = recorded_events();
    let answers: usize = events
        .iter()
        .map(|e| match e {
            CampaignEvent::AnswerBatchSubmitted(b) => b.answers.len(),
            _ => 0,
        })
        .sum();
    assert_eq!((events.len(), answers), (EVENTS, TASKS * 4));

    let mut docs = publish();
    let every: Vec<u64> = events
        .iter()
        .map(|e| {
            docs.apply(e).unwrap();
            read(&mut docs)
        })
        .collect();

    let mut docs = publish();
    let mut rng = Lcg(11);
    let mut sparse = Vec::new();
    for (i, e) in events.iter().enumerate() {
        docs.apply(e).unwrap();
        if rng.below(10) == 0 || i + 1 == events.len() {
            sparse.push((i, read(&mut docs)));
        }
    }
    for &(i, hash) in &sparse {
        assert_eq!(hash, every[i], "the sparse read after event {i}");
    }
    let folded = every
        .iter()
        .fold(FNV_OFFSET, |h, r| fnv(h, &r.to_le_bytes()));
    let points: Vec<usize> = sparse.iter().map(|&(i, _)| i).collect();
    assert_eq!(
        (folded, *every.last().unwrap(), points.len()),
        (EVERY_EVENT, FINAL, SPARSE_READS),
        "sparse read points: {points:?}"
    );
}

const EVENTS: usize = 141;
const EVERY_EVENT: u64 = 15641427822566852179;
const FINAL: u64 = 17353757929496845228;
const SPARSE_READS: usize = 17;

/// Replayed with no read in between, as a follower replays its primary's
/// log, the campaign executes one full run, `Finished`'s: each of the nine
/// `z`-crossings only owes a run, and the next crossing (or `Finished`)
/// drops it unrun. A synchronous engine runs all ten. Reading afterwards
/// runs nothing more, and reads what the every-event replay read.
#[test]
fn a_campaign_nobody_reads_runs_full_inference_once() {
    let events = recorded_events();
    let mut docs = publish();
    for e in &events {
        docs.apply(e).unwrap();
    }
    let runs = docs.take_run_counts();
    assert_eq!((runs.executed, runs.superseded), (1, 9));
    assert_eq!(read(&mut docs), FINAL);
    assert_eq!(docs.take_run_counts(), Default::default());
}
