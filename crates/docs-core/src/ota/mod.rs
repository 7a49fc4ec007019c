//! Online Task Assignment (Section 5.1).
//!
//! When worker `w` requests tasks, DOCS estimates for every unanswered task
//! the *benefit* of assigning it — the expected reduction in the entropy of
//! the task's probabilistic truth if `w` answers (Definition 5) — and
//! assigns the `k` tasks with the highest benefits. Theorem 4 shows the
//! benefit of a `k`-task set is the sum of individual benefits, so the
//! exponential set-selection collapses to a linear top-`k` scan.
//!
//! The scan has one body for every shard count
//! ([`Assigner::assign_sharded_with`]). It writes each shard's candidates
//! into a [`ScanScratch`] the caller keeps between requests (a campaign
//! owns one), cuts them to that shard's top-`k` in place, and runs one
//! final selection over the survivors — the flat scan's selection, bit for
//! bit. A warm request allocates only the list of task ids it returns.

mod benefit;
mod select;

pub use benefit::{answer_probabilities, benefit, benefit_with, BenefitScratch};
pub use select::{top_k_by_sort, top_k_linear};

use crate::ti::{ShardedTiState, TaskArena};
use docs_types::{Task, TaskId};

/// Below this many tasks *per shard* the sharded scan stays on the calling
/// thread: spawning scoped threads costs more than scanning that few
/// candidates, and tiny per-thread slices oversubscribe the service's own
/// shard pool.
const PARALLEL_SCAN_MIN_TASKS_PER_SHARD: usize = 1024;

/// The buffers one request's scan writes into, kept by the caller so a
/// warm request allocates nothing but its result: a `(benefit, task)` slot
/// per task and the benefit kernel's [`BenefitScratch`]. Working state
/// only — it carries nothing from one request to the next.
#[derive(Debug, Default)]
pub struct ScanScratch {
    candidates: Vec<(f64, TaskId)>,
    benefit: BenefitScratch,
}

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
    /// or a full sort (`false`). Only a unit test sets `false`; the field
    /// stays because the canonical benchmark under `bench/` names it. The
    /// `ablation_topk` bench calls [`top_k_by_sort`] directly.
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
        let mut candidates = vec![(0.0, TaskId(0)); tasks.len()];
        let found = self.scan_candidates(
            quality,
            tasks,
            states,
            0..tasks.len(),
            &mut answered,
            &mut answer_count,
            &mut BenefitScratch::default(),
            &mut candidates,
        );
        candidates.truncate(found);
        if self.config.linear_select {
            top_k_linear(candidates, self.config.k)
        } else {
            top_k_by_sort(candidates, self.config.k)
        }
    }

    /// The candidate walk over a set of task indices: skips the tasks the
    /// worker already answered or that reached the answer cap, writes the
    /// rest with their benefits for the requesting worker to the front of
    /// `out` (one slot per index) and returns how many it wrote — the one
    /// shared body of the flat scan and every shard of the sharded scan, so
    /// the two cannot diverge.
    #[allow(clippy::too_many_arguments)]
    fn scan_candidates(
        &self,
        quality: &[f64],
        tasks: &[Task],
        states: &TaskArena,
        indices: impl IntoIterator<Item = usize>,
        answered: &mut impl FnMut(TaskId) -> bool,
        answer_count: &mut impl FnMut(TaskId) -> usize,
        scratch: &mut BenefitScratch,
        out: &mut [(f64, TaskId)],
    ) -> usize {
        let cap = self.config.max_answers_per_task;
        let mut found = 0;
        for i in indices {
            let id = tasks[i].id;
            if answered(id) || cap.is_some_and(|cap| answer_count(id) >= cap) {
                continue;
            }
            out[found] = (benefit_with(scratch, states.view(i), quality), id);
            found += 1;
        }
        found
    }

    /// [`Assigner::assign_sharded_with`] on buffers of its own — for a
    /// caller that keeps no [`ScanScratch`] between requests.
    pub fn assign_sharded(
        &self,
        quality: &[f64],
        tasks: &[Task],
        states: &TaskArena,
        sharding: &ShardedTiState,
        answered: impl Fn(TaskId) -> bool + Sync,
        answer_count: impl Fn(TaskId) -> usize + Sync,
    ) -> Vec<TaskId> {
        let mut scratch = ScanScratch::default();
        self.assign_sharded_with(
            &mut scratch,
            quality,
            tasks,
            states,
            sharding,
            answered,
            answer_count,
        )
    }

    /// The benefit scan: each shard's candidates are cut to that shard's
    /// top-`k` in place, then one final selection runs over the survivors.
    ///
    /// Produces exactly [`Assigner::assign`]'s result for every shard count
    /// (same benefits, same tie-breaks), because each shard's top-`k` is a
    /// superset filter of the global winners within that shard (the
    /// argument `select`'s module docs spell out). With more than one
    /// shard and a large task set, shards are scanned on scoped threads —
    /// the per-request parallelism Theorem 4's additive benefit makes safe
    /// (no cross-task coupling in the scan).
    ///
    /// The filter closures take `&self` (`Fn`, not `FnMut`) so shards can
    /// evaluate them concurrently. A warm `scratch` leaves the returned
    /// list as the only allocation of a single-threaded scan.
    #[allow(clippy::too_many_arguments)]
    pub fn assign_sharded_with(
        &self,
        scratch: &mut ScanScratch,
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
        // One shard's scan into `out` (a slot per task of the shard), cut
        // to its top-`k` in place: returns how many survivors lead `out`.
        let scan_shard = |shard: usize, out: &mut [(f64, TaskId)], benefit: &mut BenefitScratch| {
            // Re-borrow the shared `Fn` filters as fresh `FnMut`s so every
            // shard (possibly on its own thread) walks the same shared body.
            let available = self.scan_candidates(
                quality,
                tasks,
                states,
                sharding.tasks_of(shard).iter().copied(),
                &mut |t| answered(t),
                &mut |t| answer_count(t),
                benefit,
                out,
            );
            let survivors = select::cut_to_top_k(&mut out[..available], k);
            select::check_shard_top_k(shard, &out[..survivors], available, k)
                .expect("per-shard top-k lists are well-formed by construction");
            survivors
        };
        let ScanScratch {
            candidates,
            benefit,
        } = scratch;
        candidates.resize(tasks.len(), (0.0, TaskId(0)));
        let shards = sharding.num_shards();
        let mut survivors = 0;
        if shards > 1 && tasks.len() / shards >= PARALLEL_SCAN_MIN_TASKS_PER_SHARD {
            // Each shard scans its own stretch of the buffer on its own
            // thread; the survivors then move to the front in shard order.
            let mut stretches = Vec::with_capacity(shards);
            let mut rest = &mut candidates[..];
            for shard in 0..shards {
                let (stretch, tail) = rest.split_at_mut(sharding.tasks_of(shard).len());
                stretches.push((shard, stretch));
                rest = tail;
            }
            let kept: Vec<usize> = std::thread::scope(|scope| {
                let scan = &scan_shard;
                let handles: Vec<_> = stretches
                    .into_iter()
                    .map(|(shard, stretch)| {
                        scope.spawn(move || scan(shard, stretch, &mut BenefitScratch::default()))
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("shard scan panicked"))
                    .collect()
            });
            let mut start = 0;
            for (shard, kept) in kept.into_iter().enumerate() {
                candidates.copy_within(start..start + kept, survivors);
                survivors += kept;
                start += sharding.tasks_of(shard).len();
            }
        } else {
            // Shard by shard on this thread: each shard scans into the
            // buffer right behind the survivors of the shards before it.
            for shard in 0..shards {
                let end = survivors + sharding.tasks_of(shard).len();
                survivors += scan_shard(shard, &mut candidates[survivors..end], benefit);
            }
        }
        let winners = select::cut_to_top_k(&mut candidates[..survivors], k);
        candidates[..winners].iter().map(|&(_, t)| t).collect()
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
        // One buffer serves every call below, across pool sizes and shard
        // counts, and each scan runs twice on it: nothing a scan leaves
        // behind may leak into the next one's picks.
        let mut scratch = ScanScratch::default();
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
                for call in 0..2 {
                    let reused = assigner.assign_sharded_with(
                        &mut scratch,
                        &q,
                        &tasks,
                        &states,
                        &sharding,
                        answered,
                        count,
                    );
                    assert_eq!(reused, flat, "n = {n}, shards = {shards}, call {call}");
                }
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
