//! Budget-aware campaign planning — an extension of Section 5.
//!
//! The paper's deployments spend a *uniform* budget: every task collects
//! exactly 10 answers (Section 6.1), and it explicitly criticizes iCrowd for
//! hard-wiring that uniformity — "it restricts that each task should be
//! answered with the same times, which does not consider that the
//! assignments for the easy tasks can be saved for hard tasks." OTA's
//! benefit function already *ranks* tasks adaptively, but the overall
//! campaign budget (`10 × n` answers) is still fixed up front.
//!
//! [`BudgetPlanner`] closes that loop: given a total answer budget `B` and
//! the current task states, it plans how many *additional* answers each task
//! should receive by greedily spending marginal answers where the expected
//! entropy reduction is largest — a submodular-style greedy allocation over
//! the same benefit function Definition 5 uses, evaluated against a
//! reference worker quality (the population's expected quality, or a
//! specific worker's).
//!
//! The planner is advisory: the assigner keeps making per-worker decisions
//! online, but [`Plan::cap_for`] gives each task an individualized answer
//! cap replacing the flat `max_answers_per_task`, and
//! [`Plan::spent`]/[`Plan::total`] make the spend auditable the way the
//! paper's cost accounting ($0.1 per HIT of 20 tasks) is.

use crate::ota::benefit::expected_posterior_entropy;
use crate::ti::{TaskArena, TaskView};
use docs_types::{prob, TaskId};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A planned per-task answer allocation.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Additional answers allotted per task, indexed like the input slices.
    pub extra_answers: Vec<usize>,
    /// Answers already collected per task when the plan was made.
    pub already_collected: Vec<usize>,
}

impl Plan {
    /// The per-task answer cap this plan implies: answers already collected
    /// plus the planned extras.
    pub fn cap_for(&self, task: TaskId) -> usize {
        let i = task.index();
        self.already_collected[i] + self.extra_answers[i]
    }

    /// Total additional answers the plan spends.
    pub fn spent(&self) -> usize {
        self.extra_answers.iter().sum()
    }

    /// Total answers (collected + planned) across the campaign.
    pub fn total(&self) -> usize {
        self.spent() + self.already_collected.iter().sum::<usize>()
    }

    /// Dollar cost of the planned extras under the paper's AMT pricing:
    /// `$0.1` per HIT of `k` tasks, i.e. `$0.1/k` per answer.
    pub fn dollar_cost(&self, k_per_hit: usize) -> f64 {
        assert!(k_per_hit >= 1, "a HIT contains at least one task");
        self.spent() as f64 * 0.1 / k_per_hit as f64
    }
}

/// Greedy marginal-benefit budget planner.
#[derive(Debug, Clone, Copy)]
pub struct BudgetPlanner {
    /// Total additional answers to allocate.
    pub budget: usize,
    /// Per-task ceiling on additional answers (keeps the greedy from
    /// dumping the whole budget on one pathological task); the paper's
    /// protocol corresponds to `10 − already_collected`.
    pub per_task_cap: usize,
}

/// One heap entry: the marginal benefit of giving task `idx` its
/// `(given+1)`-th additional answer.
struct Candidate {
    marginal: f64,
    idx: usize,
    given: usize,
}

impl PartialEq for Candidate {
    fn eq(&self, other: &Self) -> bool {
        self.marginal == other.marginal
    }
}
impl Eq for Candidate {}
impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Candidate {
    fn cmp(&self, other: &Self) -> Ordering {
        self.marginal
            .partial_cmp(&other.marginal)
            .expect("benefits are finite")
    }
}

impl BudgetPlanner {
    /// Creates a planner.
    pub fn new(budget: usize, per_task_cap: usize) -> Self {
        BudgetPlanner {
            budget,
            per_task_cap,
        }
    }

    /// Plans the allocation.
    ///
    /// * `states` — current per-task inference state,
    /// * `collected` — answers already collected per task,
    /// * `reference_quality` — the quality vector used to evaluate marginal
    ///   benefits (typically the population mean; using a specific worker's
    ///   quality yields a worker-conditional plan).
    ///
    /// Marginal benefits are evaluated on *simulated* state trajectories:
    /// the benefit of the second extra answer for a task is computed on the
    /// state expected after the first (the most likely answer applied), so
    /// diminishing returns are priced in rather than assumed.
    pub fn plan(&self, states: &TaskArena, collected: &[usize], reference_quality: &[f64]) -> Plan {
        assert_eq!(states.len(), collected.len(), "state/collected mismatch");
        let n = states.len();
        let mut extra = vec![0usize; n];
        if n == 0 || self.budget == 0 || self.per_task_cap == 0 {
            return Plan {
                extra_answers: extra,
                already_collected: collected.to_vec(),
            };
        }

        // Simulated states evolve as answers are (hypothetically) granted.
        let mut sim = states.clone();
        let mut heap: BinaryHeap<Candidate> = (0..n)
            .map(|i| Candidate {
                marginal: marginal_benefit(sim.view(i), reference_quality),
                idx: i,
                given: 0,
            })
            .collect();

        let mut remaining = self.budget;
        while remaining > 0 {
            let Some(top) = heap.pop() else { break };
            if top.given != extra[top.idx] {
                // Stale entry (the task advanced since this was pushed);
                // re-price it at the current trajectory point.
                heap.push(Candidate {
                    marginal: marginal_benefit(sim.view(top.idx), reference_quality),
                    idx: top.idx,
                    given: extra[top.idx],
                });
                continue;
            }
            if top.marginal <= 0.0 {
                // Nothing left with positive expected benefit: stop
                // spending; the remaining budget is genuinely saved.
                break;
            }
            // Grant the answer: advance the simulated state with the most
            // likely answer from the reference worker.
            let predicted = prob::argmax(&crate::ota::answer_probabilities(
                sim.view(top.idx),
                reference_quality,
            ));
            sim.apply_answer(top.idx, reference_quality, predicted);
            extra[top.idx] += 1;
            remaining -= 1;
            if extra[top.idx] < self.per_task_cap {
                heap.push(Candidate {
                    marginal: marginal_benefit(sim.view(top.idx), reference_quality),
                    idx: top.idx,
                    given: extra[top.idx],
                });
            }
        }

        Plan {
            extra_answers: extra,
            already_collected: collected.to_vec(),
        }
    }
}

/// Marginal benefit of one more answer on the (simulated) current state:
/// Definition 5 evaluated at the reference quality.
fn marginal_benefit(state: TaskView<'_>, quality: &[f64]) -> f64 {
    prob::entropy(state.s()) - expected_posterior_entropy(state, quality)
}

#[cfg(test)]
mod tests {
    use super::*;
    use docs_types::DomainVector;

    /// Fresh states of binary tasks over the given domain vectors.
    fn fresh(rs: &[DomainVector]) -> TaskArena {
        TaskArena::new(rs[0].len(), rs.iter().map(|r| (r, 2)))
    }

    #[test]
    fn budget_flows_to_uncertain_tasks() {
        let m = 2;
        let rs = vec![
            DomainVector::one_hot(m, 0),
            DomainVector::one_hot(m, 0),
            DomainVector::one_hot(m, 1),
        ];
        let mut states = fresh(&rs);
        for _ in 0..6 {
            states.apply_answer(0, &vec![0.9; m], 0);
        }
        let collected = vec![6, 0, 0];
        let planner = BudgetPlanner::new(8, 10);
        let plan = planner.plan(&states, &collected, &[0.85, 0.85]);
        assert_eq!(plan.spent(), 8);
        // The confident task gets (almost) nothing; the fresh ones split.
        assert!(plan.extra_answers[0] <= 1, "plan: {:?}", plan.extra_answers);
        assert!(plan.extra_answers[1] >= 3);
        assert!(plan.extra_answers[2] >= 3);
    }

    #[test]
    fn per_task_cap_is_respected() {
        let states = fresh(&[DomainVector::one_hot(1, 0), DomainVector::one_hot(1, 0)]);
        let planner = BudgetPlanner::new(100, 5);
        let plan = planner.plan(&states, &[0, 0], &[0.8]);
        assert!(plan.extra_answers.iter().all(|&e| e <= 5));
        // Budget beyond the caps is not force-spent.
        assert!(plan.spent() <= 10);
    }

    #[test]
    fn zero_budget_plans_nothing() {
        let states = fresh(&[DomainVector::one_hot(1, 0)]);
        let plan = BudgetPlanner::new(0, 10).plan(&states, &[3], &[0.8]);
        assert_eq!(plan.spent(), 0);
        assert_eq!(plan.cap_for(docs_types::TaskId(0)), 3);
    }

    #[test]
    fn empty_task_set_plans_nothing() {
        let states = TaskArena::for_tasks(1, &[]);
        let plan = BudgetPlanner::new(10, 10).plan(&states, &[], &[0.8]);
        assert_eq!(plan.spent(), 0);
        assert_eq!(plan.total(), 0);
    }

    #[test]
    fn diminishing_returns_spread_the_budget() {
        // Two identical fresh tasks: the greedy must alternate rather than
        // dump everything on one, because each granted answer lowers the
        // task's remaining marginal benefit.
        let states = fresh(&[DomainVector::one_hot(1, 0), DomainVector::one_hot(1, 0)]);
        let plan = BudgetPlanner::new(6, 10).plan(&states, &[0, 0], &[0.8]);
        assert_eq!(plan.spent(), 6);
        let diff = plan.extra_answers[0].abs_diff(plan.extra_answers[1]);
        assert!(
            diff <= 1,
            "allocation should be near-even: {:?}",
            plan.extra_answers
        );
    }

    #[test]
    fn plan_accounting_matches_paper_pricing() {
        let states = fresh(&[DomainVector::one_hot(1, 0)]);
        let plan = BudgetPlanner::new(4, 10).plan(&states, &[6], &[0.8]);
        assert_eq!(plan.total(), plan.spent() + 6);
        // $0.1 per 20-task HIT → $0.005 per answer.
        let cost = plan.dollar_cost(20);
        assert!((cost - plan.spent() as f64 * 0.005).abs() < 1e-12);
    }

    #[test]
    fn cap_for_combines_collected_and_extra() {
        let states = fresh(&[DomainVector::one_hot(1, 0), DomainVector::one_hot(1, 0)]);
        let plan = BudgetPlanner::new(2, 1).plan(&states, &[4, 7], &[0.8]);
        assert_eq!(
            plan.cap_for(docs_types::TaskId(0)),
            4 + plan.extra_answers[0]
        );
        assert_eq!(
            plan.cap_for(docs_types::TaskId(1)),
            7 + plan.extra_answers[1]
        );
    }
}
