//! FaitCrowd [30]: per-latent-topic worker quality with a hard topic per
//! task, estimated with EM.

use super::TruthMethod;
use docs_types::{prob, AnswerLog, ChoiceIndex, Task, WorkerId};
use std::collections::HashMap;

/// FaitCrowd assigns each task one latent topic (TwitterLDA in the original;
/// the Section 6.3 protocol hands it ground-truth domains) and models each
/// worker as a quality vector over those topics. Estimation alternates
/// truth and quality like DOCS's TI, but with two structural deficits the
/// paper calls out: the topic assignment is *hard* (a task is exactly one
/// topic, so multi-domain tasks like "Michael Jordan" lose information) and
/// topic and quality estimation errors feed each other.
#[derive(Debug, Clone)]
pub struct FaitCrowd {
    /// EM iterations.
    pub iterations: usize,
    /// Prior topic quality for unseen workers/topics.
    pub prior: f64,
    /// Golden-task scalar initialization per worker (applied to all topics).
    pub init: HashMap<WorkerId, f64>,
}

impl Default for FaitCrowd {
    fn default() -> Self {
        FaitCrowd {
            iterations: 20,
            prior: 0.7,
            init: HashMap::new(),
        }
    }
}

impl FaitCrowd {
    /// Sets the golden-task initialization.
    pub fn with_init(mut self, init: HashMap<WorkerId, f64>) -> Self {
        self.init = init;
        self
    }

    /// A task's hard topic: its `true_domain` (the Section 6.3 protocol).
    fn topic_of(task: &Task) -> usize {
        task.true_domain
            .expect("FaitCrowd needs each task's true_domain as its topic")
    }

    /// Runs EM; returns truth distributions and per-worker topic qualities.
    pub fn run(
        &self,
        tasks: &[Task],
        answers: &AnswerLog,
    ) -> (Vec<Vec<f64>>, HashMap<WorkerId, Vec<f64>>) {
        let m = 1 + tasks.iter().map(Self::topic_of).max().unwrap_or(0);
        let mut quality: HashMap<WorkerId, Vec<f64>> = answers
            .workers()
            .map(|w| {
                let q0 = *self.init.get(&w).unwrap_or(&self.prior);
                (w, vec![q0; m])
            })
            .collect();
        let init_quality = quality.clone();
        let mut s: Vec<Vec<f64>> = tasks
            .iter()
            .map(|t| prob::uniform(t.num_choices()))
            .collect();

        for _ in 0..self.iterations {
            // E-step: per-task truth under the task's hard topic.
            for (task, si) in tasks.iter().zip(s.iter_mut()) {
                let k = Self::topic_of(task);
                let l = task.num_choices();
                si.iter_mut().for_each(|x| *x = 1.0);
                for &(w, v) in answers.task_answers(task.id) {
                    let q = quality[&w][k].clamp(1e-6, 1.0 - 1e-6);
                    for (j, slot) in si.iter_mut().enumerate() {
                        *slot *= if v == j {
                            q
                        } else {
                            (1.0 - q) / (l as f64 - 1.0)
                        };
                    }
                }
                prob::normalize_in_place(si);
            }
            // M-step: per-topic quality.
            for (w, q) in quality.iter_mut() {
                let mut num = vec![0.0; m];
                let mut den = vec![0.0; m];
                for &(t, v) in answers.worker_answers(*w) {
                    let k = Self::topic_of(&tasks[t.index()]);
                    num[k] += s[t.index()][v];
                    den[k] += 1.0;
                }
                for k in 0..m {
                    q[k] = if den[k] > 0.0 {
                        num[k] / den[k]
                    } else {
                        init_quality[w][k]
                    };
                }
            }
        }
        (s, quality)
    }
}

impl TruthMethod for FaitCrowd {
    fn name(&self) -> &'static str {
        "FC"
    }

    fn infer(&self, tasks: &[Task], answers: &AnswerLog) -> Vec<ChoiceIndex> {
        let (s, _) = self.run(tasks, answers);
        s.iter().map(|si| prob::argmax(si)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{standard_population, world};
    use super::super::{accuracy, MajorityVote, TruthMethod, ZenCrowd};
    use super::*;

    #[test]
    fn beats_majority_vote_and_domainless_zc() {
        let (tasks, log) = world(80, &standard_population(), 0xFC);
        let mv = accuracy(&MajorityVote.infer(&tasks, &log), &tasks);
        let zc = accuracy(&ZenCrowd::default().infer(&tasks, &log), &tasks);
        let fc = accuracy(&FaitCrowd::default().infer(&tasks, &log), &tasks);
        assert!(fc + 1e-9 >= mv, "FC {fc} vs MV {mv}");
        assert!(fc + 1e-9 >= zc, "FC {fc} vs ZC {zc}");
    }

    #[test]
    fn learns_per_topic_quality() {
        let (tasks, log) = world(80, &standard_population(), 0xFD);
        let (_, quality) = FaitCrowd::default().run(&tasks, &log);
        // Worker 0 is a domain-0 expert (true q = [0.95, 0.55]).
        let q0 = &quality[&WorkerId(0)];
        assert!(q0[0] > q0[1], "expected topic-0 expertise: {q0:?}");
    }

    #[test]
    fn truth_distributions_valid() {
        let (tasks, log) = world(20, &standard_population(), 0xFF);
        let (s, _) = FaitCrowd::default().run(&tasks, &log);
        for si in &s {
            assert!(prob::is_distribution(si));
        }
    }
}
