//! Online Task Assignment (Section 5.1).
//!
//! When worker `w` requests tasks, DOCS estimates for every unanswered task
//! the *benefit* of assigning it — the expected reduction in the entropy of
//! the task's probabilistic truth if `w` answers (Definition 5) — and
//! assigns the `k` tasks with the highest benefits. Theorem 4 shows the
//! benefit of a `k`-task set is the sum of individual benefits, so the
//! exponential set-selection collapses to a linear top-`k` scan.

mod benefit;
pub mod budget;
mod select;

pub use benefit::{
    answer_probabilities, benefit, benefit_with, expected_posterior_entropy, BenefitScratch,
};
pub use budget::{BudgetPlanner, Plan};
pub use select::{
    merge_top_k, merge_top_k_checked, top_k_by_sort, top_k_linear, top_k_linear_pairs,
};

use crate::ti::{ShardedTiState, TaskArena};
use docs_types::{Task, TaskId};

/// Below this many tasks *per shard* the sharded scan stays on the calling
/// thread: spawning scoped threads costs more than scanning that few
/// candidates, and tiny per-thread slices oversubscribe the service's own
/// shard pool.
const PARALLEL_SCAN_MIN_TASKS_PER_SHARD: usize = 1024;

/// Configuration of the assigner.
#[derive(Debug, Clone, Copy)]
pub struct AssignerConfig {
    /// Number of tasks batched per assignment (one HIT); the paper uses
    /// `k = 20` on AMT and `k = 3` per method in the parallel comparison.
    pub k: usize,
    /// Optional cap on answers per task: tasks that already collected this
    /// many answers are not assigned (lets the platform enforce the
    /// "10 answers per task" collection budget).
    pub max_answers_per_task: Option<usize>,
    /// Use the linear quickselect (`true`, the paper's PICK-style selection)
    /// or a full sort (`false`, kept for the `ablation_topk` bench).
    pub linear_select: bool,
}

impl Default for AssignerConfig {
    fn default() -> Self {
        AssignerConfig {
            k: 20,
            max_answers_per_task: None,
            linear_select: true,
        }
    }
}

/// The DOCS online task assigner.
#[derive(Debug, Clone, Default)]
pub struct Assigner {
    config: AssignerConfig,
}

impl Assigner {
    /// Creates an assigner.
    pub fn new(config: AssignerConfig) -> Self {
        assert!(config.k >= 1, "assignments need k >= 1");
        Assigner { config }
    }

    /// Selects up to `k` tasks for the coming worker.
    ///
    /// * `quality` — the worker's quality vector `q^w` (length `m`),
    /// * `tasks` / `states` — the published tasks and their current
    ///   inference state,
    /// * `answered` — predicate: has this worker already answered the task?
    ///   (implements the `T − T(w)` restriction),
    /// * `answer_count` — current `|V(i)|` per task, for the budget cap.
    ///
    /// Returns the chosen task ids, highest benefit first.
    pub fn assign(
        &self,
        quality: &[f64],
        tasks: &[Task],
        states: &TaskArena,
        mut answered: impl FnMut(TaskId) -> bool,
        mut answer_count: impl FnMut(TaskId) -> usize,
    ) -> Vec<TaskId> {
        debug_assert_eq!(tasks.len(), states.len());
        let candidates = self.scan_candidates(
            quality,
            tasks,
            states,
            0..tasks.len(),
            &mut answered,
            &mut answer_count,
        );
        if self.config.linear_select {
            top_k_linear(candidates, self.config.k)
        } else {
            top_k_by_sort(candidates, self.config.k)
        }
    }

    /// Filters and scores one candidate task: `None` when the task is
    /// excluded (already answered, answer cap reached), otherwise its
    /// benefit for the requesting worker — the one shared body of the flat
    /// scan and every shard of the sharded scan, so the two cannot diverge.
    #[allow(clippy::too_many_arguments)]
    fn score_task(
        &self,
        scratch: &mut BenefitScratch,
        quality: &[f64],
        tasks: &[Task],
        states: &TaskArena,
        i: usize,
        answered: &mut impl FnMut(TaskId) -> bool,
        answer_count: &mut impl FnMut(TaskId) -> usize,
    ) -> Option<f64> {
        let task = &tasks[i];
        if answered(task.id) {
            return None;
        }
        if let Some(cap) = self.config.max_answers_per_task {
            if answer_count(task.id) >= cap {
                return None;
            }
        }
        Some(benefit_with(scratch, states.view(i), quality))
    }

    /// The candidate walk over a set of task indices, built on
    /// [`Assigner::score_task`].
    fn scan_candidates(
        &self,
        quality: &[f64],
        tasks: &[Task],
        states: &TaskArena,
        indices: impl IntoIterator<Item = usize>,
        answered: &mut impl FnMut(TaskId) -> bool,
        answer_count: &mut impl FnMut(TaskId) -> usize,
    ) -> Vec<(f64, TaskId)> {
        let indices = indices.into_iter();
        let mut candidates = Vec::with_capacity(indices.size_hint().0);
        let mut scratch = BenefitScratch::default();
        for i in indices {
            if let Some(b) = self.score_task(
                &mut scratch,
                quality,
                tasks,
                states,
                i,
                answered,
                answer_count,
            ) {
                candidates.push((b, tasks[i].id));
            }
        }
        candidates
    }

    /// Sharded benefit scan: per-shard top-`k` selection followed by a
    /// k-way merge ([`merge_top_k`]).
    ///
    /// Produces exactly [`Assigner::assign`]'s result for every shard count
    /// (same benefits, same tie-breaks), because each shard's top-`k` is a
    /// superset filter of the global winners within that shard. With more
    /// than one shard and a large task set, shards are scanned on scoped
    /// threads — the per-request parallelism Theorem 4's additive benefit
    /// makes safe (no cross-task coupling in the scan).
    ///
    /// The filter closures take `&self` (`Fn`, not `FnMut`) so shards can
    /// evaluate them concurrently.
    pub fn assign_sharded(
        &self,
        quality: &[f64],
        tasks: &[Task],
        states: &TaskArena,
        sharding: &ShardedTiState,
        answered: impl Fn(TaskId) -> bool + Sync,
        answer_count: impl Fn(TaskId) -> usize + Sync,
    ) -> Vec<TaskId> {
        debug_assert_eq!(tasks.len(), states.len());
        debug_assert_eq!(tasks.len(), sharding.num_tasks());
        let k = self.config.k;
        let scan_shard = |shard: usize| -> (Vec<(f64, TaskId)>, usize) {
            // Re-borrow the shared `Fn` filters as fresh `FnMut`s so every
            // shard (possibly on its own thread) walks the same shared body.
            let mut answered = |t| answered(t);
            let mut answer_count = |t| answer_count(t);
            let candidates = self.scan_candidates(
                quality,
                tasks,
                states,
                sharding.tasks_of(shard).iter().copied(),
                &mut answered,
                &mut answer_count,
            );
            let available = candidates.len();
            (top_k_linear_pairs(candidates, k), available)
        };
        let shards = sharding.num_shards();
        let scanned: Vec<(Vec<(f64, TaskId)>, usize)> = if shards > 1
            && tasks.len() / shards >= PARALLEL_SCAN_MIN_TASKS_PER_SHARD
        {
            std::thread::scope(|scope| {
                let scan = &scan_shard;
                let handles: Vec<_> = (0..shards).map(|s| scope.spawn(move || scan(s))).collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("shard scan panicked"))
                    .collect()
            })
        } else {
            (0..shards).map(scan_shard).collect()
        };
        let (per_shard, counts): (Vec<_>, Vec<_>) = scanned.into_iter().unzip();
        merge_top_k_checked(&per_shard, &counts, k)
            .expect("per-shard top-k lists are well-formed by construction")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use docs_types::{DomainVector, TaskBuilder};

    fn task(i: usize, domain: usize, m: usize) -> Task {
        TaskBuilder::new(i, format!("t{i}"))
            .yes_no()
            .with_domain_vector(DomainVector::one_hot(m, domain))
            .build()
            .unwrap()
    }

    #[test]
    fn assigns_tasks_in_workers_expert_domain() {
        // Two fresh tasks, one per domain; the worker is a domain-0 expert.
        // The domain-0 task must win: the expert's answer reduces entropy
        // more than a coin-flip answer would.
        let tasks = vec![task(0, 0, 2), task(1, 1, 2)];
        let states = TaskArena::for_tasks(2, &tasks);
        let q = vec![0.95, 0.5];
        let assigner = Assigner::new(AssignerConfig {
            k: 1,
            ..Default::default()
        });
        let picks = assigner.assign(&q, &tasks, &states, |_| false, |_| 0);
        assert_eq!(picks, vec![TaskId(0)]);
    }

    #[test]
    fn confident_tasks_yield_little_benefit() {
        // Task 0 already has a confident truth; task 1 is fresh. Even though
        // both are in the worker's expert domain, task 1 wins.
        let tasks = vec![task(0, 0, 1), task(1, 0, 1)];
        let mut states = TaskArena::for_tasks(1, &tasks);
        for _ in 0..6 {
            states.apply_answer(0, &[0.9], 0);
        }
        let assigner = Assigner::new(AssignerConfig {
            k: 1,
            ..Default::default()
        });
        let picks = assigner.assign(&[0.9], &tasks, &states, |_| false, |_| 0);
        assert_eq!(picks, vec![TaskId(1)]);
    }

    #[test]
    fn excludes_already_answered_tasks() {
        let tasks = vec![task(0, 0, 1), task(1, 0, 1)];
        let states = TaskArena::for_tasks(1, &tasks);
        let assigner = Assigner::new(AssignerConfig {
            k: 2,
            ..Default::default()
        });
        let picks = assigner.assign(&[0.8], &tasks, &states, |t| t == TaskId(0), |_| 0);
        assert_eq!(picks, vec![TaskId(1)]);
    }

    #[test]
    fn respects_answer_budget_cap() {
        let tasks = vec![task(0, 0, 1), task(1, 0, 1)];
        let states = TaskArena::for_tasks(1, &tasks);
        let assigner = Assigner::new(AssignerConfig {
            k: 2,
            max_answers_per_task: Some(10),
            ..Default::default()
        });
        let picks = assigner.assign(
            &[0.8],
            &tasks,
            &states,
            |_| false,
            |t| if t == TaskId(0) { 10 } else { 3 },
        );
        assert_eq!(picks, vec![TaskId(1)]);
    }

    #[test]
    fn linear_and_sort_selection_agree() {
        let m = 3;
        let tasks: Vec<Task> = (0..30).map(|i| task(i, i % m, m)).collect();
        let mut states = TaskArena::for_tasks(m, &tasks);
        // Give tasks varying confidence.
        for i in 0..30 {
            for _ in 0..(i % 5) {
                states.apply_answer(i, &[0.8, 0.6, 0.7], 0);
            }
        }
        let q = vec![0.9, 0.55, 0.7];
        let linear = Assigner::new(AssignerConfig {
            k: 7,
            linear_select: true,
            ..Default::default()
        })
        .assign(&q, &tasks, &states, |_| false, |_| 0);
        let sorted = Assigner::new(AssignerConfig {
            k: 7,
            linear_select: false,
            ..Default::default()
        })
        .assign(&q, &tasks, &states, |_| false, |_| 0);
        assert_eq!(linear, sorted);
    }

    /// `n` three-domain tasks of mixed warmth: task `i` has absorbed
    /// `i % 7` answers, so benefits repeat and tie-breaks matter.
    fn mixed_warmth_pool(n: usize) -> (Vec<Task>, TaskArena) {
        let m = 3;
        let tasks: Vec<Task> = (0..n).map(|i| task(i, i % m, m)).collect();
        let mut states = TaskArena::for_tasks(m, &tasks);
        for i in 0..n {
            for _ in 0..(i % 7) {
                states.apply_answer(i, &[0.85, 0.6, 0.72], i % 2);
            }
        }
        (tasks, states)
    }

    #[test]
    fn sharded_scan_equals_flat_scan_for_every_shard_count() {
        use crate::ti::ShardedTiState;
        use std::sync::atomic::{AtomicBool, Ordering};
        let q = vec![0.9, 0.55, 0.7];
        let assigner = Assigner::new(AssignerConfig {
            k: 9,
            max_answers_per_task: Some(5),
            ..Default::default()
        });
        let caller = std::thread::current().id();
        // The last row reaches the scoped-thread branch: more than one shard
        // and PARALLEL_SCAN_MIN_TASKS_PER_SHARD tasks per shard.
        for (n, shard_counts, threaded) in [
            (200, &[1, 2, 4, 7][..], false),
            (2 * PARALLEL_SCAN_MIN_TASKS_PER_SHARD, &[2][..], true),
        ] {
            let (tasks, states) = mixed_warmth_pool(n);
            let off_thread = AtomicBool::new(false);
            let answered = |t: TaskId| {
                if std::thread::current().id() != caller {
                    off_thread.store(true, Ordering::Relaxed);
                }
                t.index().is_multiple_of(11)
            };
            let count = |t: TaskId| t.index() % 7;
            let flat = assigner.assign(&q, &tasks, &states, answered, count);
            assert_eq!(flat.len(), 9);
            for &shards in shard_counts {
                let sharding = ShardedTiState::new(n, shards);
                let sharded =
                    assigner.assign_sharded(&q, &tasks, &states, &sharding, answered, count);
                assert_eq!(sharded, flat, "n = {n}, shards = {shards}");
            }
            assert_eq!(
                off_thread.load(Ordering::Relaxed),
                threaded,
                "n = {n}: which threads scanned"
            );
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        /// Both ways to find the candidates — flat scan, sharded scan —
        /// pick exactly what a top-`k` over the textbook benefits picks,
        /// under a filter and an answer cap.
        #[test]
        fn every_assignment_path_picks_the_textbook_top_k(
            seed in proptest::any::<u64>(),
            quality in proptest::collection::vec(0.0f64..1.0, 7),
            k in 1usize..8,
            shards in 1usize..4
        ) {
            use crate::ti::oracle::{campaign, Sparsity};
            use crate::ti::{ShardedTiState, TruthInference};
            for sparsity in Sparsity::ALL {
                let (tasks, log, registry) = campaign(seed, sparsity);
                let quality = &quality[..registry.num_domains()];
                let states = TruthInference::default().run(&tasks, &log, &registry).states;
                let assigner = Assigner::new(AssignerConfig {
                    k,
                    max_answers_per_task: Some(6),
                    ..Default::default()
                });
                let answered = |t: TaskId| t.index() % 5 == 4;
                let count = |t: TaskId| log.answer_count(t);
                let textbook: Vec<(f64, TaskId)> = tasks
                    .iter()
                    .zip(states.iter())
                    .filter(|(t, _)| !answered(t.id) && count(t.id) < 6)
                    .map(|(t, st)| {
                        let h = benefit::expected_posterior_entropy_textbook(st, quality);
                        (st.entropy() - h, t.id)
                    })
                    .collect();
                let want = top_k_linear(textbook, k);
                let sharding = ShardedTiState::new(tasks.len(), shards);
                proptest::prop_assert_eq!(
                    &assigner.assign(quality, &tasks, &states, answered, count),
                    &want
                );
                proptest::prop_assert_eq!(
                    &assigner.assign_sharded(quality, &tasks, &states, &sharding, answered, count),
                    &want
                );
            }
        }
    }

    #[test]
    fn returns_fewer_when_not_enough_candidates() {
        let tasks = vec![task(0, 0, 1)];
        let states = TaskArena::for_tasks(1, &tasks);
        let assigner = Assigner::new(AssignerConfig {
            k: 5,
            ..Default::default()
        });
        let picks = assigner.assign(&[0.8], &tasks, &states, |_| false, |_| 0);
        assert_eq!(picks.len(), 1);
    }
}
