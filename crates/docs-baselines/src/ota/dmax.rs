//! D-Max: pure domain-match assignment over the DOCS truth-inference
//! engine — the ablation baseline of Section 6.4.

use super::{top_k, unanswered};
use docs_core::ti::{IncrementalTi, WorkerRegistry};
use docs_crowd::AssignmentStrategy;
use docs_types::{Answer, ChoiceIndex, Task, TaskId, WorkerId};

/// D-Max uses the DOCS TI module to infer truth, but assigns each worker the
/// `k` tasks with the best *domain match* `q^w · r^t` — ignoring how
/// confident each task's truth already is. The paper uses it to isolate the
/// value of the benefit function: D-Max "may assign tasks that are already
/// confident enough".
#[derive(Debug)]
pub struct DMax {
    engine: IncrementalTi,
}

impl DMax {
    /// Creates the strategy; `m` is the number of domains, `z` the periodic
    /// full-inference interval (the paper's z = 100).
    pub fn new(tasks: Vec<Task>, m: usize, z: usize) -> Self {
        let registry = WorkerRegistry::new(m, 0.7);
        DMax {
            engine: IncrementalTi::new(tasks, registry, z),
        }
    }
}

impl AssignmentStrategy for DMax {
    fn name(&self) -> &'static str {
        "D-Max"
    }

    fn init_worker(&mut self, worker: WorkerId, golden: &[(TaskId, ChoiceIndex)]) {
        self.engine
            .grade_worker_on_golden(worker, golden, 1.0)
            .expect("golden tasks have ground truth");
    }

    fn assign(&mut self, worker: WorkerId, k: usize) -> Vec<TaskId> {
        let q = self.engine.registry().quality(worker);
        let log = self.engine.log();
        let scored: Vec<(f64, TaskId)> = unanswered(self.engine.tasks(), log, worker)
            .map(|t| {
                let r = t.domain_vector();
                let match_degree: f64 = q.iter().zip(r.as_slice()).map(|(&qk, &rk)| qk * rk).sum();
                (match_degree, t.id)
            })
            .collect();
        top_k(scored, k)
    }

    fn feedback(&mut self, answer: Answer) {
        self.engine
            .submit(answer)
            .expect("platform delivers valid answers");
    }

    fn truths(&self) -> Vec<ChoiceIndex> {
        self.engine.truths()
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{make_tasks, run_alone};
    use super::*;

    #[test]
    fn assigns_matching_domain_regardless_of_confidence() {
        let tasks = make_tasks(4, 2); // even → domain 0, odd → domain 1
        let mut s = DMax::new(tasks.clone(), 2, 0);
        // Golden: worker 0 is a domain-0 expert.
        let golden = [
            (TaskId(0), tasks[0].ground_truth.unwrap()),
            (TaskId(1), 1 - tasks[1].ground_truth.unwrap()),
        ];
        s.init_worker(WorkerId(0), &golden);
        // Saturate task 2 (domain 0) with confident answers — D-Max still
        // ranks domain-0 tasks first because it ignores confidence.
        for w in 10..15 {
            s.feedback(Answer {
                task: TaskId(2),
                worker: WorkerId(w),
                choice: tasks[2].ground_truth.unwrap(),
            });
        }
        let picks = s.assign(WorkerId(0), 2);
        for t in &picks {
            assert_eq!(
                t.index() % 2,
                0,
                "D-Max should pick domain-0 tasks: {picks:?}"
            );
        }
        assert!(picks.contains(&TaskId(2)), "confident task still assigned");
    }

    #[test]
    fn end_to_end_beats_chance() {
        let tasks = make_tasks(30, 2);
        let mut s = DMax::new(tasks.clone(), 2, 100);
        let acc = run_alone(&mut s, &tasks, 2, 300, 46);
        assert!(acc > 0.6, "D-Max accuracy {acc}");
    }
}
