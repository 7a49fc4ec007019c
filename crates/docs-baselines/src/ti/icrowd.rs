//! iCrowd [18]: per-domain worker accuracy + weighted majority voting.

use super::TruthMethod;
use docs_types::{AnswerLog, ChoiceIndex, Task};

/// iCrowd estimates, for every worker, an accuracy on each task *domain*
/// (learned from LDA topics in the original; the Section 6.3 protocol hands
/// it the ground-truth domains) and derives each task's truth by **weighted
/// majority voting** — the property the paper criticizes: a handful of
/// low-quality workers can still outvote one expert because votes are
/// summed, not multiplied as likelihoods.
#[derive(Debug, Clone)]
pub struct ICrowd {
    /// Estimation–voting rounds.
    pub iterations: usize,
    /// Prior accuracy (smoothing pseudo-observation) per worker/domain.
    pub prior: f64,
    /// Smoothing weight of the prior.
    pub smoothing: f64,
}

impl Default for ICrowd {
    fn default() -> Self {
        ICrowd {
            iterations: 10,
            prior: 0.7,
            smoothing: 1.0,
        }
    }
}

impl ICrowd {
    /// A task's hard domain: its `true_domain` (the handicap protocol).
    fn domain_of(task: &Task) -> usize {
        task.true_domain
            .expect("ICrowd needs each task's true_domain")
    }
}

impl TruthMethod for ICrowd {
    fn name(&self) -> &'static str {
        "IC"
    }

    fn infer(&self, tasks: &[Task], answers: &AnswerLog) -> Vec<ChoiceIndex> {
        let m = 1 + tasks.iter().map(Self::domain_of).max().unwrap_or(0);
        let num_workers = answers.workers().map(|w| w.index() + 1).max().unwrap_or(0);

        // Start from plain majority voting.
        let mut truths = super::MajorityVote.infer(tasks, answers);
        // accuracy[w][k], dense over worker ids.
        let mut acc = vec![vec![self.prior; m]; num_workers];

        for _ in 0..self.iterations {
            // Estimate per-domain accuracy against current truths.
            let mut correct = vec![vec![self.prior * self.smoothing; m]; num_workers];
            let mut total = vec![vec![self.smoothing; m]; num_workers];
            for (task, &truth) in tasks.iter().zip(&truths) {
                let k = Self::domain_of(task);
                for &(w, v) in answers.task_answers(task.id) {
                    total[w.index()][k] += 1.0;
                    if v == truth {
                        correct[w.index()][k] += 1.0;
                    }
                }
            }
            for w in 0..num_workers {
                for k in 0..m {
                    acc[w][k] = correct[w][k] / total[w][k];
                }
            }

            // Weighted majority voting with the domain-specific accuracies.
            let mut changed = false;
            for (i, task) in tasks.iter().enumerate() {
                let k = Self::domain_of(task);
                let mut votes = vec![0.0; task.num_choices()];
                for &(w, v) in answers.task_answers(task.id) {
                    votes[v] += acc[w.index()][k];
                }
                let new = docs_types::prob::argmax(&votes);
                if new != truths[i] {
                    truths[i] = new;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        truths
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{standard_population, world};
    use super::super::{accuracy, MajorityVote, TruthMethod};
    use super::*;

    #[test]
    fn beats_or_matches_majority_vote_with_true_domains() {
        let (tasks, log) = world(60, &standard_population(), 0x1C);
        let mv = accuracy(&MajorityVote.infer(&tasks, &log), &tasks);
        let ic = accuracy(&ICrowd::default().infer(&tasks, &log), &tasks);
        assert!(ic + 1e-9 >= mv, "IC {ic} vs MV {mv}");
    }

    #[test]
    fn weighted_voting_can_be_misled_by_many_low_quality_workers() {
        // One perfect domain expert vs four mediocre workers who happen to
        // agree on the wrong answer: weighted majority voting follows the
        // crowd — the failure mode Section 1 describes.
        use docs_types::{Answer, DomainVector, TaskBuilder, TaskId, WorkerId};
        let tasks = vec![TaskBuilder::new(0usize, "t")
            .yes_no()
            .with_ground_truth(0)
            .with_true_domain(0)
            .with_domain_vector(DomainVector::one_hot(1, 0))
            .build()
            .unwrap()];
        let mut log = AnswerLog::new(1);
        log.record(Answer {
            task: TaskId(0),
            worker: WorkerId(0),
            choice: 0,
        })
        .unwrap();
        for w in 1..5 {
            log.record(Answer {
                task: TaskId(0),
                worker: WorkerId(w),
                choice: 1,
            })
            .unwrap();
        }
        let truths = ICrowd::default().infer(&tasks, &log);
        assert_eq!(truths, vec![1], "weighted MV follows the 4-worker bloc");
    }

    #[test]
    fn converges_and_stops_early() {
        let (tasks, log) = world(20, &standard_population(), 0x1E);
        // Large iteration budget must still terminate fast (break on no
        // change); just assert it runs and produces sane output.
        let ic = ICrowd {
            iterations: 1000,
            ..Default::default()
        };
        let truths = ic.infer(&tasks, &log);
        assert_eq!(truths.len(), 20);
    }
}
