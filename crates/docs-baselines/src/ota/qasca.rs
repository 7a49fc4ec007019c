//! QASCA [54]: expected-accuracy-gain assignment, Dawid-Skene inference.

use super::{top_k, unanswered};
use crate::ti::{DawidSkene, TruthMethod};
use docs_core::ti::TaskArena;
use docs_crowd::AssignmentStrategy;
use docs_types::{Answer, AnswerLog, ChoiceIndex, DomainVector, Task, TaskId, WorkerId};
use std::collections::HashMap;

/// QASCA assigns the `k` tasks whose answers are expected to improve the
/// *Accuracy* quality metric the most: for task `i` with posterior `s_i`,
/// the contribution to expected accuracy is `max_j s_{i,j}`, and the benefit
/// of asking worker `w` is `E_a[max_j s'_{i,j}] − max_j s_{i,j}`. The worker
/// model is a single quality value (domain-blind — the gap DOCS exploits);
/// final truths come from Dawid-Skene, as in the original system.
///
/// Internally each task's posterior is a DOCS task state with `m = 1`:
/// with one "domain" the DOCS update rules reduce exactly to the scalar
/// worker-probability model QASCA maintains online.
#[derive(Debug)]
pub struct Qasca {
    tasks: Vec<Task>,
    log: AnswerLog,
    states: TaskArena,
    quality: HashMap<WorkerId, f64>,
    golden: HashMap<WorkerId, Vec<(TaskId, ChoiceIndex)>>,
    prior: f64,
}

impl Qasca {
    /// Creates the strategy over the published tasks.
    pub fn new(tasks: Vec<Task>) -> Self {
        let log = AnswerLog::new(tasks.len());
        let r1 = DomainVector::one_hot(1, 0);
        let states = TaskArena::new(1, tasks.iter().map(|t| (&r1, t.num_choices())));
        Qasca {
            tasks,
            log,
            states,
            quality: HashMap::new(),
            golden: HashMap::new(),
            prior: 0.7,
        }
    }

    fn worker_quality(&self, w: WorkerId) -> f64 {
        *self.quality.get(&w).unwrap_or(&self.prior)
    }

    /// Expected accuracy gain of assigning a task to a worker with scalar
    /// quality `q`.
    fn gain(&self, task_idx: usize, q: f64) -> f64 {
        let state = self.states.view(task_idx);
        let quality = [q];
        let current = state.s().iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let probs = docs_core::ota::answer_probabilities(state, &quality);
        let mut expected = 0.0;
        for (a, &pa) in probs.iter().enumerate() {
            if pa == 0.0 {
                continue;
            }
            let s_hat = state.s_from_matrix(&state.m_given_answer(&quality, a));
            expected += pa * s_hat.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        }
        expected - current
    }
}

impl AssignmentStrategy for Qasca {
    fn name(&self) -> &'static str {
        "QASCA"
    }

    fn init_worker(&mut self, worker: WorkerId, golden: &[(TaskId, ChoiceIndex)]) {
        let correct = golden
            .iter()
            .filter(|&&(t, c)| self.tasks[t.index()].ground_truth == Some(c))
            .count() as f64;
        let q = (self.prior + correct) / (1.0 + golden.len() as f64);
        self.quality.insert(worker, q);
        self.golden.insert(worker, golden.to_vec());
    }

    fn assign(&mut self, worker: WorkerId, k: usize) -> Vec<TaskId> {
        let q = self.worker_quality(worker);
        let scored: Vec<(f64, TaskId)> = unanswered(&self.tasks, &self.log, worker)
            .map(|t| (self.gain(t.id.index(), q), t.id))
            .collect();
        top_k(scored, k)
    }

    fn feedback(&mut self, answer: Answer) {
        self.log
            .record(answer)
            .expect("platform delivers valid answers");
        let q = self.worker_quality(answer.worker);
        self.states
            .apply_answer(answer.task.index(), &[q], answer.choice);
        // Online quality refresh: the worker's quality is the average
        // posterior probability of her recorded answers (QASCA's online
        // parameter maintenance).
        let ws = self.log.worker_answers(answer.worker);
        if !ws.is_empty() {
            let total: f64 = ws
                .iter()
                .map(|&(t, v)| self.states.view(t.index()).s()[v])
                .sum();
            self.quality.insert(answer.worker, total / ws.len() as f64);
        }
    }

    fn truths(&self) -> Vec<ChoiceIndex> {
        let init: HashMap<WorkerId, f64> = self
            .golden
            .keys()
            .map(|&w| (w, self.worker_quality(w)))
            .collect();
        DawidSkene::default()
            .with_init(init)
            .infer(&self.tasks, &self.log)
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{make_tasks, run_alone};
    use super::*;

    #[test]
    fn gain_prefers_uncertain_tasks() {
        let tasks = make_tasks(2, 2);
        let mut s = Qasca::new(tasks);
        // Make task 0 confident.
        for w in 1..5 {
            s.feedback(Answer {
                task: TaskId(0),
                worker: WorkerId(w),
                choice: 0,
            });
        }
        let picks = s.assign(WorkerId(0), 1);
        assert_eq!(picks, vec![TaskId(1)]);
    }

    #[test]
    fn golden_init_sets_quality() {
        let tasks = make_tasks(4, 2);
        let mut s = Qasca::new(tasks.clone());
        let golden = [
            (TaskId(0), tasks[0].ground_truth.unwrap()),
            (TaskId(1), tasks[1].ground_truth.unwrap()),
        ];
        s.init_worker(WorkerId(0), &golden);
        assert!((s.worker_quality(WorkerId(0)) - (0.7 + 2.0) / 3.0).abs() < 1e-12);
    }

    #[test]
    fn gain_is_nonnegative_for_informative_workers() {
        let tasks = make_tasks(1, 2);
        let s = Qasca::new(tasks);
        assert!(s.gain(0, 0.9) >= 0.0);
        // A coin-flip worker contributes nothing.
        assert!(s.gain(0, 0.5).abs() < 1e-9);
    }

    #[test]
    fn end_to_end_beats_chance() {
        let tasks = make_tasks(30, 2);
        let mut s = Qasca::new(tasks.clone());
        let acc = run_alone(&mut s, &tasks, 2, 300, 2);
        assert!(acc > 0.6, "QASCA accuracy {acc}");
    }
}
