//! The full DOCS assignment strategy: benefit-function OTA over the DOCS
//! truth-inference engine.

use docs_core::ota::{Assigner, AssignerConfig};
use docs_core::ti::{IncrementalTi, WorkerRegistry};
use docs_crowd::AssignmentStrategy;
use docs_types::{Answer, ChoiceIndex, Task, TaskId, WorkerId};

/// DOCS online task assignment (Section 5.1): the worker gets the `k` tasks
/// with the highest expected entropy reduction `B(t_i)` under her quality
/// vector, with truth inference by the incremental DOCS TI (periodic full
/// re-inference every `z` answers).
#[derive(Debug)]
pub struct DocsAssign {
    engine: IncrementalTi,
    config: AssignerConfig,
}

impl DocsAssign {
    /// Creates the strategy with the paper's defaults (z = 100).
    pub fn new(tasks: Vec<Task>, m: usize) -> Self {
        Self::with_config(tasks, m, 100, AssignerConfig::default())
    }

    /// Full control over inference period and assigner configuration.
    pub fn with_config(tasks: Vec<Task>, m: usize, z: usize, config: AssignerConfig) -> Self {
        let registry = WorkerRegistry::new(m, 0.7);
        DocsAssign {
            engine: IncrementalTi::new(tasks, registry, z),
            config,
        }
    }

    /// Read access to the inference engine (for experiment harnesses).
    pub fn engine(&self) -> &IncrementalTi {
        &self.engine
    }
}

impl AssignmentStrategy for DocsAssign {
    fn name(&self) -> &'static str {
        "DOCS"
    }

    fn init_worker(&mut self, worker: WorkerId, golden: &[(TaskId, ChoiceIndex)]) {
        self.engine
            .grade_worker_on_golden(worker, golden, 1.0)
            .expect("golden tasks have ground truth");
    }

    fn assign(&mut self, worker: WorkerId, k: usize) -> Vec<TaskId> {
        let quality = self.engine.registry().quality(worker);
        // The HIT size is platform-driven; override k per call.
        let assigner = Assigner::new(AssignerConfig { k, ..self.config });
        let log = self.engine.log();
        assigner.assign(
            &quality,
            self.engine.tasks(),
            self.engine.states(),
            |t| log.has_answered(worker, t),
            |t| log.answer_count(t),
        )
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
    fn skips_confident_tasks() {
        let tasks = make_tasks(4, 2);
        let mut s = DocsAssign::new(tasks.clone(), 2);
        // Saturate task 0 with confident consistent answers.
        for w in 10..16 {
            s.feedback(Answer {
                task: TaskId(0),
                worker: WorkerId(w),
                choice: tasks[0].ground_truth.unwrap(),
            });
        }
        let picks = s.assign(WorkerId(0), 3);
        assert_eq!(picks.len(), 3);
        assert!(
            !picks.contains(&TaskId(0)),
            "confident task should lose to fresh ones: {picks:?}"
        );
    }

    #[test]
    fn expert_gets_own_domain_first() {
        let tasks = make_tasks(10, 2);
        let mut s = DocsAssign::new(tasks.clone(), 2);
        let golden = [
            (TaskId(0), tasks[0].ground_truth.unwrap()),
            (TaskId(1), 1 - tasks[1].ground_truth.unwrap()),
        ];
        s.init_worker(WorkerId(0), &golden);
        let picks = s.assign(WorkerId(0), 3);
        for t in &picks {
            assert_eq!(
                t.index() % 2,
                0,
                "domain-0 expert should get domain-0 tasks: {picks:?}"
            );
        }
    }

    #[test]
    fn end_to_end_beats_chance() {
        let tasks = make_tasks(30, 2);
        let mut s = DocsAssign::new(tasks.clone(), 2);
        let acc = run_alone(&mut s, &tasks, 2, 300, 47);
        assert!(acc > 0.65, "DOCS accuracy {acc}");
    }
}
