//! Truth-inference baselines (Section 6.3).

mod crh;
mod dawid_skene;
mod faitcrowd;
mod glad;
mod icrowd;
mod majority;
mod zencrowd;

pub use crh::Crh;
pub use dawid_skene::{ConfusionMatrices, DawidSkene};
pub use faitcrowd::FaitCrowd;
pub use glad::Glad;
pub use icrowd::ICrowd;
pub use majority::MajorityVote;
pub use zencrowd::ZenCrowd;

use docs_types::{AnswerLog, ChoiceIndex, Task, TaskId, WorkerId};
use std::collections::HashMap;

/// A truth-inference method under comparison.
pub trait TruthMethod {
    /// Display name used in experiment tables.
    fn name(&self) -> &'static str;

    /// Infers one truth per task from the collected answers.
    fn infer(&self, tasks: &[Task], answers: &AnswerLog) -> Vec<ChoiceIndex>;
}

/// Per-worker scalar accuracy on golden tasks — the initialization the
/// Section 6.3 protocol grants every competitor ("we initialize the workers'
/// qualities of all other competitors using the same golden tasks").
///
/// `golden` maps each worker to her (task, choice) golden answers;
/// `truth_of` returns a golden task's ground truth. Smoothed toward 0.7 with
/// one pseudo-observation so a single golden answer cannot saturate.
pub fn golden_scalar_quality(
    golden: &HashMap<WorkerId, Vec<(TaskId, ChoiceIndex)>>,
    truth_of: impl Fn(TaskId) -> ChoiceIndex,
) -> HashMap<WorkerId, f64> {
    golden
        .iter()
        .map(|(&w, answers)| {
            let correct = answers.iter().filter(|&&(t, c)| truth_of(t) == c).count() as f64;
            let q = (0.7 + correct) / (1.0 + answers.len() as f64);
            (w, q)
        })
        .collect()
}

/// The baselines' tests score truths with docs-crowd's accuracy.
#[cfg(test)]
pub(crate) use docs_crowd::accuracy_of as accuracy;

/// Fallible accuracy: `None` when no task carries a ground truth.
/// Re-exported from `docs-crowd` so scoring harnesses comparing against
/// these baselines need only one import surface.
pub use docs_crowd::try_accuracy_of;

#[cfg(test)]
pub(crate) mod testutil {
    use docs_types::{Answer, AnswerLog, DomainVector, Task, TaskBuilder, TaskId, WorkerId};

    pub struct Lcg(pub u64);
    impl Lcg {
        pub fn next_f64(&mut self) -> f64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (self.0 >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    /// 2-domain world: `n` yes/no tasks split between domains; workers with
    /// given per-domain true qualities answer every task.
    pub fn world(n: usize, true_q: &[Vec<f64>], seed: u64) -> (Vec<Task>, AnswerLog) {
        let mut tasks = Vec::new();
        for i in 0..n {
            let domain = usize::from(i >= n / 2);
            tasks.push(
                TaskBuilder::new(i, format!("task {i}"))
                    .yes_no()
                    .with_ground_truth(i % 2)
                    .with_true_domain(domain)
                    .with_domain_vector(DomainVector::one_hot(2, domain))
                    .build()
                    .unwrap(),
            );
        }
        let mut rng = Lcg(seed);
        let mut log = AnswerLog::new(n);
        for i in 0..n {
            let truth = i % 2;
            let domain = usize::from(i >= n / 2);
            for (w, q) in true_q.iter().enumerate() {
                let correct = rng.next_f64() < q[domain];
                log.record(Answer {
                    task: TaskId::from(i),
                    worker: WorkerId::from(w),
                    choice: if correct { truth } else { 1 - truth },
                })
                .unwrap();
            }
        }
        (tasks, log)
    }

    /// Single-domain world with `l`-choice tasks: `workers` workers answer
    /// every task, each correct with probability `q`, wrong answers uniform
    /// over the distractors.
    pub fn simulated_log(
        n: usize,
        l: usize,
        workers: usize,
        q: f64,
        rng: &mut Lcg,
    ) -> (Vec<Task>, AnswerLog) {
        let qualities = vec![q; workers];
        log_with_worker_qualities(n, l, &qualities, rng)
    }

    /// Like [`simulated_log`] but the first half of the crowd answers with
    /// `q_good` and the second half with `q_bad` — the canonical
    /// expert-vs-spammer separation test.
    pub fn mixed_quality_log(
        n: usize,
        l: usize,
        workers: usize,
        q_good: f64,
        q_bad: f64,
        rng: &mut Lcg,
    ) -> (Vec<Task>, AnswerLog) {
        let qualities: Vec<f64> = (0..workers)
            .map(|w| if w < workers / 2 { q_good } else { q_bad })
            .collect();
        log_with_worker_qualities(n, l, &qualities, rng)
    }

    fn log_with_worker_qualities(
        n: usize,
        l: usize,
        qualities: &[f64],
        rng: &mut Lcg,
    ) -> (Vec<Task>, AnswerLog) {
        assert!(l >= 2);
        let tasks: Vec<Task> = (0..n)
            .map(|i| {
                TaskBuilder::new(i, format!("task {i}"))
                    .with_choices((0..l).map(|c| format!("c{c}")))
                    .with_ground_truth(i % l)
                    .with_true_domain(0)
                    .with_domain_vector(DomainVector::one_hot(1, 0))
                    .build()
                    .unwrap()
            })
            .collect();
        let mut log = AnswerLog::new(n);
        for (i, task) in tasks.iter().enumerate() {
            let truth = task.ground_truth.unwrap();
            for (w, &q) in qualities.iter().enumerate() {
                let choice = if rng.next_f64() < q {
                    truth
                } else {
                    let mut c = (rng.next_f64() * (l - 1) as f64) as usize;
                    if c >= truth {
                        c += 1;
                    }
                    c.min(l - 1)
                };
                log.record(Answer {
                    task: TaskId::from(i),
                    worker: WorkerId::from(w),
                    choice,
                })
                .unwrap();
            }
        }
        (tasks, log)
    }

    /// The standard mixed population used across baseline tests.
    pub fn standard_population() -> Vec<Vec<f64>> {
        vec![
            vec![0.95, 0.55],
            vec![0.95, 0.55],
            vec![0.55, 0.95],
            vec![0.55, 0.95],
            vec![0.6, 0.6],
            vec![0.5, 0.5],
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_scalar_quality_smoothing() {
        let mut golden = HashMap::new();
        golden.insert(WorkerId(0), vec![(TaskId(0), 0), (TaskId(1), 1)]);
        golden.insert(WorkerId(1), vec![(TaskId(0), 1), (TaskId(1), 0)]);
        let q = golden_scalar_quality(&golden, |t| t.index() % 2);
        // Worker 0: both correct → (0.7 + 2) / 3 = 0.9.
        assert!((q[&WorkerId(0)] - 0.9).abs() < 1e-12);
        // Worker 1: both wrong → 0.7 / 3 ≈ 0.233.
        assert!((q[&WorkerId(1)] - 0.7 / 3.0).abs() < 1e-12);
    }
}
