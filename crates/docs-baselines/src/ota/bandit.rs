//! UCB bandit assignment — the multi-armed-bandit line of work the paper's
//! related work cites ([41], Tran-Thanh et al., "Efficient crowdsourcing of
//! unknown experts using bounded multi-armed bandits").
//!
//! The bandit framing balances *exploitation* (ask this worker the tasks
//! her estimated per-domain quality matches best — exactly D-Max's score)
//! against *exploration* (tasks with few collected answers carry an
//! optimism bonus). The per-task UCB index for the arriving worker is
//!
//! ```text
//! ucb(t) = q^w · r^t + c · sqrt( ln(N + 1) / (n_t + 1) )
//! ```
//!
//! with `n_t` the answers collected for `t`, `N` the total collected, and
//! `c` the exploration weight. At `c = 0` this *is* D-Max; as `c → ∞` it
//! approaches the uniform-coverage behaviour the paper's iCrowd baseline
//! hard-codes. Like D-Max it is paired with the DOCS TI engine so the
//! comparison isolates the assignment rule, not the inference.

use super::{top_k, unanswered};
use docs_core::ti::{IncrementalTi, WorkerRegistry};
use docs_crowd::AssignmentStrategy;
use docs_types::{Answer, ChoiceIndex, Task, TaskId, WorkerId};

/// UCB explore/exploit task assignment over the DOCS inference engine.
#[derive(Debug)]
pub struct Bandit {
    engine: IncrementalTi,
    exploration: f64,
}

impl Bandit {
    /// Creates the strategy; `m` is the number of domains, `z` the periodic
    /// full-inference interval, `exploration` the UCB weight `c`.
    pub fn new(tasks: Vec<Task>, m: usize, z: usize, exploration: f64) -> Self {
        assert!(
            exploration >= 0.0 && exploration.is_finite(),
            "exploration weight must be non-negative"
        );
        let registry = WorkerRegistry::new(m, 0.7);
        Bandit {
            engine: IncrementalTi::new(tasks, registry, z),
            exploration,
        }
    }
}

impl AssignmentStrategy for Bandit {
    fn name(&self) -> &'static str {
        "Bandit"
    }

    fn init_worker(&mut self, worker: WorkerId, golden: &[(TaskId, ChoiceIndex)]) {
        self.engine
            .grade_worker_on_golden(worker, golden, 1.0)
            .expect("golden tasks have ground truth");
    }

    fn assign(&mut self, worker: WorkerId, k: usize) -> Vec<TaskId> {
        let q = self.engine.registry().quality(worker);
        let log = self.engine.log();
        let total = log.len() as f64;
        let bonus_scale = self.exploration * (total + 1.0).ln().max(0.0);
        let scored: Vec<(f64, TaskId)> = unanswered(self.engine.tasks(), log, worker)
            .map(|t| {
                let r = t.domain_vector();
                let exploit: f64 = q.iter().zip(r.as_slice()).map(|(&qk, &rk)| qk * rk).sum();
                let n_t = log.answer_count(t.id) as f64;
                let explore = (bonus_scale / (n_t + 1.0)).sqrt();
                (exploit + explore, t.id)
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
    use super::*;
    use docs_types::{DomainVector, TaskBuilder};

    fn tasks(n: usize, m: usize) -> Vec<Task> {
        (0..n)
            .map(|i| {
                TaskBuilder::new(i, format!("t{i}"))
                    .yes_no()
                    .with_ground_truth(i % 2)
                    .with_true_domain(i % m)
                    .with_domain_vector(DomainVector::one_hot(m, i % m))
                    .build()
                    .unwrap()
            })
            .collect()
    }

    #[test]
    fn zero_exploration_is_pure_domain_match() {
        let m = 2;
        let mut bandit = Bandit::new(tasks(4, m), m, 0, 0.0);
        // Init a worker who is a domain-0 expert via goldens in domain 0.
        bandit.init_worker(WorkerId(0), &[(TaskId(0), 0), (TaskId(2), 0)]);
        let picks = bandit.assign(WorkerId(0), 2);
        assert_eq!(picks.len(), 2);
        // With c = 0 the index is pure domain match: the domain-0 tasks
        // (even ids) rank first for the domain-0 expert. (Golden answers
        // initialize the registry only; they do not enter the task log.)
        assert!(
            picks.contains(&TaskId(0)) && picks.contains(&TaskId(2)),
            "picks: {picks:?}"
        );
    }

    #[test]
    fn exploration_prefers_uncovered_tasks() {
        let m = 1;
        let mut bandit = Bandit::new(tasks(3, m), m, 0, 2.0);
        bandit.init_worker(WorkerId(0), &[]);
        bandit.init_worker(WorkerId(1), &[]);
        // Workers 1-3 flood task 0 with answers.
        bandit.feedback(Answer::new(WorkerId(1), TaskId(0), 0));
        bandit.feedback(Answer::new(WorkerId(2), TaskId(0), 0));
        bandit.feedback(Answer::new(WorkerId(3), TaskId(0), 0));
        // Worker 0 asks for one task: the uncovered ones must outrank the
        // saturated task 0 (identical exploit term: single domain).
        let picks = bandit.assign(WorkerId(0), 1);
        assert_ne!(picks, vec![TaskId(0)]);
    }

    #[test]
    fn never_reassigns_answered_tasks() {
        let m = 1;
        let mut bandit = Bandit::new(tasks(3, m), m, 0, 1.0);
        bandit.init_worker(WorkerId(0), &[]);
        bandit.feedback(Answer::new(WorkerId(0), TaskId(1), 0));
        let picks = bandit.assign(WorkerId(0), 3);
        assert!(!picks.contains(&TaskId(1)));
        assert_eq!(picks.len(), 2);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_exploration_rejected() {
        let _ = Bandit::new(tasks(1, 1), 1, 0, -1.0);
    }
}
